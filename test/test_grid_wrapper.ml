open Tabv_psl
open Tabv_duv

(* The grid-mode wrapper extension: evaluating abstracted properties
   on the reference clock grid over the persistent TLM state.  This is
   what makes the paper's until-based q2 checkable on a sparse
   approximately-timed trace (see DESIGN.md). *)

let case name f = Alcotest.test_case name `Quick f

let ops = Workload.des56 ~seed:5 ~count:10 ()

let q_named name =
  match
    List.find_map
      (fun r ->
        match r.Tabv_core.Methodology.output with
        | Some q when q.Property.name = name -> Some q
        | _ -> None)
      (Des56_props.abstraction_reports ())
  with
  | Some q -> q
  | None -> Alcotest.failf "no abstracted property %s" name

let grid_stat name (result : Testbench.run_result) =
  match
    List.find_opt
      (fun s -> s.Testbench.property_name = name)
      result.Testbench.checker_stats
  with
  | Some stat -> stat
  | None -> Alcotest.failf "no checker stat for %s" name

let cases =
  [ case "q2 passes under the grid wrapper on TLM-AT" (fun () ->
      let q2 = q_named "q2" in
      let result = Testbench.run_des56_tlm_at ~grid_properties:[ q2 ] ops in
      let stat = grid_stat "q2" result in
      Alcotest.(check int) "no failures" 0 (List.length stat.Testbench.failures);
      Alcotest.(check bool) "activated" true (stat.Testbench.activations > 0));
    case "q2 fails under the strict wrapper on the same workload" (fun () ->
      let q2 = q_named "q2" in
      let result = Testbench.run_des56_tlm_at ~properties:[ q2 ] ops in
      let stat = grid_stat "q2" result in
      Alcotest.(check bool) "fails or hangs" true
        (stat.Testbench.failures <> [] || stat.Testbench.pending > 0));
    case "grid wrapper also discharges the plain timed properties" (fun () ->
      let result =
        Testbench.run_des56_tlm_at ~grid_properties:(Des56_props.tlm_auto_safe ()) ops
      in
      Alcotest.(check int) "no failures" 0 (Testbench.total_failures result));
    case "grid wrapper catches a wrong abstraction too" (fun () ->
      let q2 = q_named "q2" in
      let result =
        Testbench.run_des56_tlm_at ~model_latency_ns:160
          ~grid_properties:[ q2; q_named "q3" ] ops
      in
      Alcotest.(check bool) "failures" true (Testbench.total_failures result > 0));
    case "grid wrapper evaluates once per clock period" (fun () ->
      let q3 = q_named "q3" in
      let strict = Testbench.run_des56_tlm_at ~properties:[ q3 ] ops in
      let grid = Testbench.run_des56_tlm_at ~grid_properties:[ q3 ] ops in
      let strict_stat = grid_stat "q3" strict in
      let grid_stat = grid_stat "q3" grid in
      (* Grid mode consumes many more evaluation points: every 10 ns
         versus only at transactions. *)
      Alcotest.(check bool) "more steps in grid mode" true
        (Tabv_duv.Testbench.(grid_stat.passes + grid_stat.activations)
         > strict_stat.Testbench.passes + strict_stat.Testbench.activations));
    case "rejects clock-context properties" (fun () ->
      let kernel = Tabv_sim.Kernel.create () in
      match
        Tabv_checker.Checker.(
          attach
            (Attach.spec
               ~sampler:(Lookup_env.fixed_sampler (fun _ -> None))
               (Attach.grid ~clock_period:10 ()))
            kernel Des56_props.p1)
      with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ()) ]

let suite = ("grid_wrapper", cases)
