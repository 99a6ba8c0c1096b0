(* End-to-end verification benchmark of tabv: the shipped DUV models
   driven through the public entry points of `tabv check`, `tabv
   record` + `tabv recheck` and `tabv serve`.

     bench.exe --workload check|record-recheck|serve --seed N
               --seconds S --trace 0|1 --tabv PATH
     bench.exe --self-test

   The last line of standard output is one JSON object: with
   [--trace 0] the end-to-end metrics, with [--trace 1] the per-layer
   ones.  The exit status is non-zero when any unit failed its
   correctness check.  See README.md. *)

(* The end-to-end metrics of the result line, shared by every workload:
   [(JSON name, JSON unit, check/record-recheck name, serve name)]. *)
let end_to_end =
  [ ("setup_s", "s", "setup_s", "setup_s");
    ("throughput_per_s", "1/s", "ops_per_s", "req_per_s");
    ("p50_ms", "ms", "run_p50_ms", "req_p50_ms");
    ("tail_ms", "ms", "run_tail_ms", "req_tail_ms");
    ("peak_rss_mb", "MB", "peak_rss_mb", "peak_rss_mb") ]

(* The per-layer metrics every workload's traced run reports. *)
let per_layer =
  [ "duv.sim_s"; "duv.ns_per_activation"; "duv.kernel_activations";
    "duv.delta_cycles"; "duv.sim_time_ns"; "duv.transactions";
    "checker.live_s"; "checker.ns_per_step"; "checker.minor_words_per_step";
    "checker.steps"; "checker.trivial_pass_frac"; "checker.cache_hit_rate";
    "checker.peak_instances"; "checker.sampler_eval_frac"; "core.abstract_s";
    "core.render_s"; "bench.trace_overhead_pct" ]

let find metrics name =
  match List.find_opt (fun m -> m.Common.name = name) metrics with
  | Some m -> m
  | None -> failwith ("benchmark bug: metric not produced: " ^ name)

let usage () =
  prerr_endline
    "usage: bench.exe --workload check|record-recheck|serve --seed N \
     --seconds S --trace 0|1 --tabv PATH\n\
    \       bench.exe --self-test";
  exit 2

let () =
  (match Array.to_list Sys.argv with
   | [ _; "--setup-probe"; dir ] ->
     Runs.setup_once ~dir;
     print_endline "ready";
     exit 0
   | _ -> ());
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let tabv = ref "" and self_test = ref false in
  let rec parse = function
    | [] -> ()
    | "--self-test" :: rest -> self_test := true; parse rest
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--tabv" :: v :: rest -> tabv := v; parse rest
    | ("--seed" | "--seconds" | "--trace") as flag :: v :: rest ->
      (match int_of_string_opt v with
       | None -> usage ()
       | Some n ->
         (match flag with
          | "--seed" -> seed := n
          | "--seconds" -> seconds := n
          | _ -> trace := n));
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* A stop request unwinds through the workloads' cleanup, which stops
     and reaps the serve daemon. *)
  Sys.catch_break true;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> raise Sys.Break));
  (match Selftest.run () with
   | [] -> if !self_test then (print_endline "self-test: all cases passed"; exit 0)
   | failing ->
     List.iter (Printf.eprintf "self-test failed: %s\n") failing;
     exit 1);
  if
    !seconds < 1
    || (!trace <> 0 && !trace <> 1)
    || not (List.mem !workload [ "check"; "record-recheck"; "serve" ])
  then usage ();
  let traced = !trace = 1 in
  Common.print_machine ~workload:!workload ~seed:!seed ~seconds:!seconds
    ~trace:!trace;
  let tally, e2e, layers =
    match !workload with
    | "check" -> Runs.run Runs.Check ~seed:!seed ~seconds:!seconds ~trace:traced
    | "record-recheck" ->
      Runs.run Runs.Record_recheck ~seed:!seed ~seconds:!seconds ~trace:traced
    | "serve" ->
      if !tabv = "" || not (Sys.file_exists !tabv) then begin
        prerr_endline "bench: --tabv must name the built tabv executable";
        exit 2
      end;
      Serve.run ~tabv:!tabv ~seed:!seed ~seconds:!seconds ~trace:traced
    | _ -> usage ()
  in
  List.iter (Printf.printf "failure: %s\n") (List.rev tally.Stats.reasons);
  let metrics =
    if traced then List.map (find layers) per_layer
    else
      List.map
        (fun (name, unit_, local, served) ->
          let m = find e2e (if !workload = "serve" then served else local) in
          { m with Common.name; unit_ })
        end_to_end
  in
  let correct = tally.Stats.failed = 0 in
  Common.print_result ~correct ~tally metrics;
  exit (if correct then 0 else 1)
