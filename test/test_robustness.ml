open Tabv_psl

(* Fuzz-style robustness: malformed inputs must raise the documented
   exceptions, never crash or loop. *)

let printable_junk =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 60))

let token_soup =
  (* Strings assembled from language fragments: more likely to reach
     deep parser states than raw junk. *)
  let fragments =
    [ "always"; "eventually"; "next"; "nexte"; "until"; "release"; "("; ")";
      "["; "]"; "{"; "}"; "|->"; "|=>"; "&&"; "||"; "!"; "->"; "a"; "b"; "17";
      "@clk_pos"; "@tb"; ";"; "property"; "="; ","; ".."; "[*2]"; "never";
      "weak_until"; "before"; "next_a"; "next_e"; "const" ]
  in
  QCheck.Gen.(
    map (String.concat " ")
      (list_size (int_range 0 12) (oneofl fragments)))

let suite_cases =
  [ Helpers.qtest ~count:500 "parser never crashes on printable junk"
      (QCheck.make ~print:(Printf.sprintf "%S") printable_junk)
      (fun source ->
        match Parser.formula_only source with
        | _ -> true
        | exception Parser.Parse_error _ -> true);
    Helpers.qtest ~count:500 "parser never crashes on token soup"
      (QCheck.make ~print:(Printf.sprintf "%S") token_soup)
      (fun source ->
        match Parser.formula_only source with
        | _ -> true
        | exception Parser.Parse_error _ -> true);
    Helpers.qtest ~count:500 "file parser never crashes on token soup"
      (QCheck.make ~print:(Printf.sprintf "%S") token_soup)
      (fun source ->
        match Parser.file source with
        | _ -> true
        | exception Parser.Parse_error _ -> true);
    Helpers.qtest ~count:300 "vcd reader never crashes on junk"
      (QCheck.make ~print:(Printf.sprintf "%S")
         QCheck.Gen.(
           map (String.concat "\n")
             (list_size (int_range 0 10)
                (oneof
                   [ printable_junk;
                     oneofl
                       [ "$var wire 1 ! s $end"; "$enddefinitions $end"; "#10";
                         "#5"; "1!"; "b1010 !"; "$timescale 1ns $end"; "x!" ] ]))))
      (fun source ->
        match Tabv_sim.Vcd_reader.parse source with
        | _ -> true
        | exception Tabv_sim.Vcd_reader.Parse_error _ -> true) ]

(* Soak: larger end-to-end runs exercising instance churn and heap
   growth that the small unit workloads never reach. *)
let soak_cases =
  [ Alcotest.test_case "soak: 500-op DES56 RTL with all checkers" `Slow (fun () ->
      let ops = Tabv_duv.Workload.des56 ~seed:101 ~count:500 () in
      let result =
        Tabv_duv.Testbench.run_des56_rtl ~properties:Tabv_duv.Des56_props.all ops
      in
      Alcotest.(check int) "ops" 500 result.Tabv_duv.Testbench.completed_ops;
      Alcotest.(check int) "failures" 0 (Tabv_duv.Testbench.total_failures result));
    Alcotest.test_case "soak: 20k-pixel ColorConv CA with all checkers" `Slow
      (fun () ->
        let bursts = Tabv_duv.Workload.colorconv ~seed:101 ~count:20_000 () in
        let result =
          Tabv_duv.Testbench.run_colorconv_tlm_ca
            ~properties:Tabv_duv.Colorconv_props.all bursts
        in
        Alcotest.(check int) "failures" 0 (Tabv_duv.Testbench.total_failures result));
    Alcotest.test_case "soak: 2000-op MemCtrl AT read-back" `Slow (fun () ->
      let ops = Tabv_duv.Workload.memctrl ~seed:101 ~count:2000 () in
      let result =
        Tabv_duv.Memctrl_testbench.run_tlm_at
          ~properties:(Tabv_duv.Memctrl_props.tlm_auto_safe ()) ops
      in
      Alcotest.(check int) "failures" 0 (Tabv_duv.Testbench.total_failures result);
      Alcotest.(check (list int64)) "reads"
        (List.map Int64.of_int (Tabv_duv.Memctrl_testbench.reference_reads ops))
        result.Tabv_duv.Testbench.outputs) ]

(* --- workload size at the CLI boundary ------------------------------ *)

(* Run tabv with [args]; the exit status and what it wrote to stderr. *)
let tabv args =
  let err = Filename.temp_file "tabv_cli" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove err) @@ fun () ->
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close null;
        Unix.close fd)
      (fun () ->
        Unix.create_process Helpers.tabv_exe
          (Array.of_list (Helpers.tabv_exe :: args))
          Unix.stdin null fd)
  in
  let status =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED n -> n
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> -n
  in
  (status, In_channel.with_open_bin err In_channel.input_all)

(* A temp file holding [contents], removed when the test process
   exits. *)
let temp_file suffix contents =
  let path = Filename.temp_file "tabv_cli" suffix in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents);
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* A short recorded DES56 RTL trace and VCD waveform for the offline
   commands to read. *)
let with_inputs f =
  let trace = temp_file ".trace" "" and vcd = temp_file ".vcd" "" in
  Fun.protect
    ~finally:(fun () ->
      try Sys.remove (trace ^ ".new") with Sys_error _ -> ())
    (fun () ->
      Alcotest.(check int) "record the trace" 0
        (fst (tabv [ "record"; "-m"; "des56-rtl"; "-n"; "2"; "-o"; trace ]));
      Alcotest.(check int) "dump the waveform" 0
        (fst (tabv [ "trace"; "-n"; "1"; "-o"; vcd ]));
      f ~trace ~vcd)

(* Every command line exits with the usage status (2), names what is
   wrong, and raises nothing. *)
let expect_usage_error ~mentions commands =
  List.iter
    (fun args ->
      let status, err = tabv args in
      let what = String.concat " " args in
      Alcotest.(check int) (what ^ ": usage status") 2 status;
      Alcotest.(check bool)
        (Printf.sprintf "%s: names %s (%s)" what mentions err)
        true (Helpers.contains err mentions);
      Alcotest.(check bool) (what ^ ": no uncaught exception") false
        (Helpers.contains err "exception"))
    commands

let cli_cases =
  [ Alcotest.test_case "a negative --ops is a usage error, never a crash" `Quick
      (fun () ->
        let trace = Filename.temp_file "tabv_cli" ".trace" in
        Sys.remove trace;
        List.iter
          (fun args ->
            let status, err = tabv args in
            let what = String.concat " " args in
            Alcotest.(check int) (what ^ ": cmdliner usage status") 124 status;
            Alcotest.(check bool)
              (Printf.sprintf "%s: names the bound (%s)" what err)
              true
              (Helpers.contains err "non-negative");
            Alcotest.(check bool) (what ^ ": no uncaught exception") false
              (Helpers.contains err "Invalid_argument"))
          [ [ "check"; "-m"; "des56-rtl"; "--ops=-3" ];
            [ "record"; "-m"; "des56-rtl"; "--ops=-3"; "-o"; trace ] ];
        Alcotest.(check bool) "record wrote no trace" false
          (Sys.file_exists trace));
    Alcotest.test_case "--ops 0 is still an empty run" `Quick (fun () ->
        Alcotest.(check int) "exit status" 0
          (fst (tabv [ "check"; "-m"; "des56-rtl"; "-n"; "0" ])));
    Alcotest.test_case "an unknown signal in a property is a usage error"
      `Quick (fun () ->
        with_inputs @@ fun ~trace ~vcd ->
        let props = temp_file ".psl" "property zz = always (nosuch -> rdy) @clk_pos;\n" in
        expect_usage_error ~mentions:"nosuch"
          [ [ "check"; "-m"; "des56-rtl"; "-n"; "2"; "-p"; props ];
            [ "record"; "-m"; "des56-rtl"; "-n"; "2"; "-p"; props; "-o"; trace ^ ".new" ];
            [ "recheck"; "-i"; trace; "-p"; props ];
            [ "replay"; "--vcd"; vcd; "-p"; props ] ];
        Alcotest.(check bool) "record wrote no trace" false
          (Sys.file_exists (trace ^ ".new")));
    Alcotest.test_case "a malformed property or VCD file is a usage error"
      `Quick (fun () ->
        with_inputs @@ fun ~trace ~vcd ->
        let props = temp_file ".psl" "property zz = always (;\n" in
        let bad_vcd =
          temp_file ".vcd" "$var wire 1 ! ds $end\n$enddefinitions $end\n#10\n#5\n"
        in
        expect_usage_error ~mentions:(Filename.basename props)
          [ [ "check"; "-m"; "des56-rtl"; "-n"; "2"; "-p"; props ];
            [ "record"; "-m"; "des56-rtl"; "-n"; "2"; "-p"; props; "-o"; trace ^ ".new" ];
            [ "recheck"; "-i"; trace; "-p"; props ];
            [ "abstract"; props ];
            [ "replay"; "--vcd"; vcd; "-p"; props ] ];
        let good = temp_file ".psl" "property ok = always (ds -> rdy) @clk_pos;\n" in
        expect_usage_error ~mentions:(Filename.basename bad_vcd)
          [ [ "replay"; "--vcd"; bad_vcd; "-p"; good ] ]) ]

let suite = ("robustness", suite_cases @ soak_cases @ cli_cases)
