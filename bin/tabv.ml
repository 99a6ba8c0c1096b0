(* tabv — RTL-to-TLM property abstraction toolbox.

   Subcommands:
     abstract  rewrite an RTL property file into TLM properties
     check     simulate a built-in DUV model with checkers attached
     record    check + capture the evaluation trace to a binary file
     recheck   re-check properties against a recorded trace, in parallel
     campaign  run a job matrix on a pool of worker domains
     qualify   build the fault x property detection matrix
     serve     persistent concurrent verification daemon over a socket
     client    submit one request to a running serve daemon
     trace     dump a VCD waveform of a short DES56 RTL run
     replay    check properties offline against a VCD waveform
     fig3      reproduce the paper's Fig. 3 rewriting demonstration

   The flag specs shared between subcommands (model/workload flags, executor and journal plumbing, report writers) live in
   {!Cli}. *)

open Cmdliner
open Tabv_psl
open Tabv_duv

(* --- abstract ----------------------------------------------------- *)

let abstract_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Property file: lines of 'property NAME = FORMULA [@context];'")
  in
  let clock_period =
    Arg.(value & opt int 10 & info [ "clock-period"; "c" ] ~docv:"NS"
           ~doc:"Clock period of the RTL implementation in nanoseconds.")
  in
  let removed =
    Arg.(value & opt (list string) [] & info [ "remove"; "r" ] ~docv:"SIGNALS"
           ~doc:"Comma-separated signals removed by the RTL-to-TLM abstraction.")
  in
  let clock_periods =
    Arg.(value & opt (list (pair ~sep:'=' string int)) []
         & info [ "clock-periods" ] ~docv:"NAME=NS,..."
             ~doc:"Periods of named clocks used in '@NAME_pos'-style contexts.")
  in
  let summary =
    Arg.(value & flag & info [ "summary"; "s" ] ~doc:"Print one line per property.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the reports as JSON.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE"
           ~doc:"Write the surviving TLM properties to FILE in the property \
                 language (ready for 'tabv check -p FILE' or 'tabv replay').")
  in
  let run file clock_period clock_periods removed summary json output =
    let properties = Cli.parse_props_file file in
    let reports =
      Tabv_core.Methodology.abstract_all ~clock_period ~clock_periods
        ~abstracted_signals:removed properties
    in
    if json then
      print_endline
        (Tabv_core.Report_json.to_string (Tabv_core.Report_json.of_reports reports))
    else if summary then Format.printf "%a@." Tabv_core.Methodology.pp_summary reports
    else
      List.iter (fun r -> Format.printf "%a@.@." Tabv_core.Methodology.pp_report r) reports;
    (* Emit the surviving TLM property set on stdout in re-parseable
       form. *)
    let survivors = Tabv_core.Methodology.surviving reports in
    if survivors <> [] && not json then begin
      print_endline "-- abstracted TLM properties:";
      List.iter
        (fun q ->
          Format.printf "property %s = %a %a;@." q.Property.name Ltl.pp
            q.Property.formula Context.pp q.Property.context)
        survivors
    end;
    match output with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      let ppf = Format.formatter_of_out_channel oc in
      Format.fprintf ppf "-- abstracted from %s (clock %d ns%s)@." file clock_period
        (if removed = [] then ""
         else "; removed: " ^ String.concat ", " removed);
      List.iter
        (fun r ->
          match r.Tabv_core.Methodology.output with
          | None -> ()
          | Some q ->
            if r.Tabv_core.Methodology.requires_review then
              Format.fprintf ppf
                "-- NOTE: %s requires human review (signal abstraction was not a \
                 pure weakening)@."
                q.Property.name;
            if Tabv_core.Methodology.needs_dense_trace q.Property.formula then
              Format.fprintf ppf
                "-- NOTE: %s needs full-grid transactions (use the grid wrapper)@."
                q.Property.name;
            Format.fprintf ppf "property %s = %a %a;@." q.Property.name Ltl.pp
              q.Property.formula Context.pp q.Property.context)
        reports;
      Format.pp_print_flush ppf ();
      close_out oc;
      Printf.printf "wrote %d properties to %s\n" (List.length survivors) path
  in
  let doc = "Abstract RTL properties into TLM properties (Methodology III.1)." in
  Cmd.v (Cmd.info "abstract" ~doc)
    Term.(
      const run $ file $ clock_period $ clock_periods $ removed $ summary $ json
      $ output)

(* --- check / record ----------------------------------------------- *)

let metrics_flag_arg =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Enable the observability registry for the run and print it: \
               kernel phase counters, signal/TLM activity, per-property \
               checker statistics (transition-cache hit rate, peak live \
               instances, peak distinct hash-consed states), shared-sampler \
               counters and the process-global interning counters.")

let metrics_json_arg =
  Arg.(value & opt (some string) None & info [ "metrics-json" ] ~docv:"FILE"
         ~doc:"Write the observability report as schema-versioned JSON to \
               FILE (deterministic: byte-identical across runs with the \
               same seed).")

let check_report_json_arg =
  Cli.report_json_arg
    ~doc:
      "Write the deterministic per-property verdict report as JSON to FILE \
       ('-' for stdout).  The same document 'tabv recheck --report-json' \
       emits for a recording of this run — byte for byte."

(* The one simulation driver behind `check` and `record`; [trace_out]
   is what separates them. *)
let simulate_run ~cmd trace_out model count seed props_file metrics_flag
    metrics_json report_out =
  let fail = Cli.fail cmd in
  let metrics =
    if metrics_flag || metrics_json <> None then begin
      let m = Tabv_obs.Metrics.create ~enabled:true () in
      (* Wall-clock phase timers feed the human table only; the JSON
         report is deterministic and excludes them, so the clock is
         installed just for --metrics. *)
      if metrics_flag then Tabv_obs.Metrics.set_clock m Sys.time;
      Some m
    end
    else None
  in
  let user = Option.map Cli.parse_props_file props_file in
  Option.iter (Cli.lint_props ~cmd ~known:(Cli.known_signals model)) user;
  let properties, grid_properties = Cli.properties_for model user in
  let writer =
    match trace_out with
    | None -> None
    | Some path ->
      if not (Cli.supports_trace model) then
        fail
          (Printf.sprintf
             "%s records no trace (the loosely-timed model is deliberately \
              not timing equivalent, so a recording would not replay \
              meaningfully)"
             (Cli.model_name model));
      let meta =
        { Tabv_trace.Meta.model = Cli.model_name model; seed; ops = count;
          engine =
            Tabv_sim.Kernel.engine_name (Tabv_sim.Kernel.get_default_engine ())
        }
      in
      Some (Tabv_trace.Writer.create ~path meta)
  in
  let result =
    Fun.protect
      ~finally:(fun () -> Option.iter Tabv_trace.Writer.close writer)
      (fun () ->
        Cli.run_model ?metrics ?trace_writer:writer model ~seed ~ops:count
          ~properties ~grid_properties)
  in
  Printf.printf "simulated %dns, %d operations, %d kernel activations, %d transactions\n"
    result.Testbench.sim_time_ns result.Testbench.completed_ops
    result.Testbench.kernel_activations result.Testbench.transactions;
  List.iter
    (fun stat -> Format.printf "%a@." Testbench.pp_checker_stat stat)
    result.Testbench.checker_stats;
  (match (trace_out, writer) with
   | Some path, Some w ->
     Printf.printf "wrote trace to %s (%d samples, %d spans, %d bytes)\n" path
       (Tabv_trace.Writer.samples w)
       (Tabv_trace.Writer.spans w)
       (Tabv_trace.Writer.bytes_written w)
   | _ -> ());
  if metrics_flag then begin
    print_endline "checker-engine statistics:";
    List.iter
      (fun stat ->
        Printf.printf
          "  %-24s cache %d/%d (%.1f%% hit), peak live %d, peak distinct \
           states %d\n"
          stat.Testbench.property_name stat.Testbench.cache_hits
          (stat.Testbench.cache_hits + stat.Testbench.cache_misses)
          (100. *. Testbench.cache_hit_rate stat)
          stat.Testbench.peak_instances stat.Testbench.peak_distinct_states)
      result.Testbench.checker_stats;
    let c = Tabv_checker.Progression.cache_stats () in
    Printf.printf
      "  global: %d distinct states, %d memoized transitions, %d interned \
       formulas, %d bypassed steps\n"
      c.Tabv_checker.Progression.distinct_states
      c.Tabv_checker.Progression.distinct_transitions
      c.Tabv_checker.Progression.interned_formulas
      c.Tabv_checker.Progression.cache_bypassed;
    if result.Testbench.metrics <> [] then begin
      print_endline "metrics:";
      Format.printf "%a@." Tabv_obs.Metrics.pp_snapshot result.Testbench.metrics
    end;
    match metrics with
    | Some m when Tabv_obs.Metrics.timers m <> [] ->
      print_endline "phase timers (wall clock, excluded from JSON):";
      List.iter
        (fun (name, seconds, laps) ->
          Printf.printf "  %-24s %.6fs over %d laps\n" name seconds laps)
        (Tabv_obs.Metrics.timers m)
    | Some _ | None -> ()
  end;
  (match metrics_json with
   | None -> ()
   | Some path ->
     let open Tabv_core.Report_json in
     Cli.write_json ~announce:"metrics" path
       (Testbench.metrics_json
          ~run:
            [ ("model", String (Cli.model_name model));
              ("seed", Int seed);
              ("ops", Int count) ]
          result));
  (match report_out with
   | None -> ()
   | Some path ->
     Cli.write_json ~announce:"verdict report" path
       (Cli.verdict_report ~model ~seed ~ops:count result));
  let failures = Testbench.total_failures result in
  if failures = 0 then print_endline "all checkers passed"
  else begin
    Printf.printf "%d failure(s):\n" failures;
    List.iter
      (fun stat ->
        List.iter
          (fun f -> Format.printf "  %a@." Tabv_checker.Monitor.pp_failure f)
          stat.Testbench.failures)
      result.Testbench.checker_stats;
    exit 1
  end

let check_cmd =
  let doc = "Run a built-in DUV model with its property checkers attached." in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const (simulate_run ~cmd:"check") $ const None $ Cli.model_arg
      $ Cli.ops_arg $ Cli.seed_arg $ Cli.props_arg $ metrics_flag_arg
      $ metrics_json_arg $ check_report_json_arg)

let record_cmd =
  let trace_out =
    Arg.(required & opt (some string) None & info [ "trace-out"; "o" ]
           ~docv:"FILE"
           ~doc:"Capture the run's evaluation trace (dictionary-encoded, \
                 delta-timed binary format) to FILE for later 'tabv recheck'.")
  in
  let doc =
    "Run a model with checkers attached (exactly like $(b,check)) and \
     capture the evaluation trace to a compact binary file for offline \
     re-checking."
  in
  Cmd.v (Cmd.info "record" ~doc)
    Term.(
      const (fun path -> simulate_run ~cmd:"record" (Some path))
      $ trace_out $ Cli.model_arg $ Cli.ops_arg $ Cli.seed_arg $ Cli.props_arg
      $ metrics_flag_arg $ metrics_json_arg $ check_report_json_arg)

(* --- recheck ------------------------------------------------------ *)

let recheck_cmd =
  let trace_in =
    Arg.(required & opt (some file) None & info [ "trace-in"; "i" ]
           ~docv:"FILE"
           ~doc:"Binary trace recorded by 'tabv record'.")
  in
  let props =
    Arg.(value & opt (some file) None & info [ "props"; "p" ] ~docv:"FILE"
           ~doc:"Property file to re-check instead of the recorded model's \
                 built-in set.  Abstracted for approximately-timed models \
                 exactly as 'tabv check --props' would.")
  in
  let workers =
    Arg.(value & opt (some int) None & info [ "workers"; "j" ] ~docv:"N"
           ~doc:"Worker count (default: the machine's recommended domain \
                 count, capped by the property count).  The report is \
                 byte-identical for any worker count.")
  in
  let executor =
    Arg.(value
         & opt (Arg.enum [ ("in-domain", `In_domain); ("subprocess", `Subprocess) ])
             `In_domain
         & info [ "executor" ] ~docv:"KIND"
             ~doc:"Where chunks run: $(b,in-domain) (worker domains in this \
                   process) or $(b,subprocess) (crash-isolated worker \
                   processes).  Reports are byte-identical across both.")
  in
  let retries =
    Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N"
           ~doc:"Retries per crashing chunk (default 1).")
  in
  let report_out =
    Cli.report_json_arg
      ~doc:
        "Write the deterministic per-property verdict report as JSON to FILE \
         ('-' for stdout) — byte-identical to 'tabv check --report-json' of \
         the recorded run."
  in
  let run trace_in props workers executor retries report_out =
    let fail = Cli.fail "recheck" in
    let open Tabv_campaign in
    (* Header + dictionary gate: a non-trace file, a stale version or
       a truncated header is a usage error (exit 2), reported with the
       trace's identity when we have one. *)
    let meta, trace_signals =
      try Recheck.probe trace_in with
      | Tabv_trace.Reader.Format_error { path; message; offset; valid_prefix } ->
        fail
          (Printf.sprintf "%s: %s (at byte %d; verified prefix %d bytes)" path
             message offset valid_prefix)
    in
    let model =
      match Cli.model_of_name meta.Tabv_trace.Meta.model with
      | Some model -> model
      | None ->
        fail
          (Format.asprintf
             "%s: recorded from unknown model %a — stale trace or newer tabv?"
             trace_in Tabv_trace.Meta.pp meta)
    in
    let user = Option.map Cli.parse_props_file props in
    Option.iter
      (Cli.lint_props ~cmd:"recheck" ~known:(Cli.known_signals model))
      user;
    let properties, grid_properties = Cli.properties_for model user in
    if grid_properties <> [] then
      fail
        (Printf.sprintf
           "%d propert%s need full-grid transactions (grid wrapper) and \
            cannot be re-checked against a recorded trace: %s"
           (List.length grid_properties)
           (if List.length grid_properties = 1 then "y" else "ies")
           (String.concat ", "
              (List.map (fun p -> p.Property.name) grid_properties)));
    if properties = [] then fail "no properties to re-check";
    (* Fingerprint/dictionary gate: every signal a property samples
       must have been recorded, or the verdicts would silently differ
       from a live check.  (An empty trace has no dictionary; nothing
       is sampled either, so any property set is fine.) *)
    if trace_signals <> [] then begin
      let missing =
        List.concat_map
          (fun p ->
            List.filter
              (fun s -> not (List.mem s trace_signals))
              (Property.signals p))
          properties
        |> List.sort_uniq compare
      in
      if missing <> [] then
        fail
          (Format.asprintf
             "%s: trace (%a) does not record signal(s) %s — stale trace or \
              mismatched property set"
             trace_in Tabv_trace.Meta.pp meta
             (String.concat ", " missing))
    end;
    let workers =
      match workers with
      | Some w when w >= 1 -> w
      | Some w -> fail (Printf.sprintf "--workers must be >= 1 (got %d)" w)
      | None ->
        min (Domain.recommended_domain_count ()) (List.length properties)
    in
    let exec =
      match executor with
      | `In_domain -> Executor.config Executor.In_domain
      | `Subprocess -> Executor.config Executor.Subprocess
    in
    let result =
      try
        Cli.with_interrupt (fun interrupted ->
            Recheck.run ~exec ~interrupted ~workers ~retries ~trace:trace_in
              properties)
      with
      | Tabv_trace.Reader.Format_error { path; message; offset; valid_prefix } ->
        fail
          (Printf.sprintf "%s: %s (at byte %d; verified prefix %d bytes)" path
             message offset valid_prefix)
      | Recheck.Chunk_failed message ->
        Printf.eprintf "tabv recheck: chunk failed: %s\n" message;
        exit 1
    in
    Format.printf "rechecked %d properties against %a: %d samples, %d spans@."
      (List.length properties) Tabv_trace.Meta.pp result.Recheck.meta
      result.Recheck.samples result.Recheck.spans;
    List.iter
      (fun stat -> Format.printf "%a@." Testbench.pp_checker_stat stat)
      result.Recheck.snapshots;
    (match report_out with
     | None -> ()
     | Some path ->
       Cli.write_json ~announce:"verdict report" path
         (Recheck.report_json result));
    let failures = Recheck.total_failures result in
    if failures = 0 then print_endline "all checkers passed"
    else begin
      Printf.printf "%d failure(s):\n" failures;
      List.iter
        (fun stat ->
          List.iter
            (fun f -> Format.printf "  %a@." Tabv_checker.Monitor.pp_failure f)
            stat.Tabv_obs.Checker_snapshot.failures)
        result.Recheck.snapshots;
      exit 1
    end
  in
  let doc =
    "Re-check a property set against a recorded binary trace — in parallel, \
     without re-simulating; the verdict report is byte-identical to the \
     live $(b,check) of the recorded run."
  in
  Cmd.v (Cmd.info "recheck" ~doc)
    Term.(
      const run $ trace_in $ props $ workers $ executor $ retries $ report_out)

(* --- trace -------------------------------------------------------- *)

let trace_cmd =
  let out =
    Arg.(value & opt string "des56.vcd" & info [ "output"; "o" ] ~docv:"FILE"
           ~doc:"Output VCD file.")
  in
  let count =
    Arg.(value & opt int 3 & info [ "ops"; "n" ] ~docv:"N" ~doc:"Operations to trace.")
  in
  let run out count =
    let ops = Workload.des56 ~seed:1 ~count () in
    let result = Testbench.run_des56_rtl ~record_trace:true ops in
    match result.Testbench.trace with
    | None -> prerr_endline "no trace recorded"; exit 1
    | Some trace ->
      Tabv_sim.Trace_dump.to_file trace out;
      Printf.printf "wrote %s (%d evaluation points)\n" out (Trace.length trace)
  in
  let doc = "Dump a VCD waveform of a short DES56 RTL simulation." in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run $ out $ count)

(* --- replay ------------------------------------------------------- *)

let replay_cmd =
  let vcd =
    Arg.(required & opt (some file) None & info [ "vcd" ] ~docv:"FILE"
           ~doc:"Recorded waveform (VCD) whose timestamps are the evaluation points.")
  in
  let props =
    Arg.(required & opt (some file) None & info [ "props"; "p" ] ~docv:"FILE"
           ~doc:"Property file to check against the waveform.")
  in
  let run vcd props =
    let waveform =
      try Tabv_sim.Vcd_reader.load vcd with
      | Tabv_sim.Vcd_reader.Parse_error { line; message } ->
        Printf.eprintf "%s:%d: %s\n" vcd line message;
        exit 2
    in
    let properties = Cli.parse_props_file props in
    Cli.lint_props ~cmd:"replay"
      ~known:(List.map fst waveform.Tabv_sim.Vcd_reader.signals)
      properties;
    Printf.printf "replaying %d evaluation points over %d signals\n"
      (Trace.length waveform.Tabv_sim.Vcd_reader.trace)
      (List.length waveform.Tabv_sim.Vcd_reader.signals);
    let module Run = Tabv_checker.Offline.Run (Tabv_checker.Offline.Monitors) in
    let monitors =
      List.map snd
        (Run.over_trace
           (Tabv_checker.Offline.Monitors.config properties)
           waveform.Tabv_sim.Vcd_reader.trace)
    in
    Format.printf "%a@." Tabv_checker.Coverage.pp_table monitors;
    if
      List.exists (fun m -> Tabv_checker.Monitor.failures m <> []) monitors
    then exit 1
  in
  let doc = "Check properties offline against a recorded VCD waveform." in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const run $ vcd $ props)

(* --- campaign ----------------------------------------------------- *)

let campaign_cmd =
  let open Tabv_campaign in
  let manifest =
    Arg.(value & opt (some file) None & info [ "manifest" ] ~docv:"FILE"
           ~doc:"JSON campaign manifest ('jobs' and/or 'matrix'; see the \
                 examples/ directory).  Mutually exclusive with the matrix \
                 flags.")
  in
  let duvs =
    Arg.(value & opt (list string) [ "des56" ] & info [ "duvs" ] ~docv:"DUVS"
           ~doc:"Comma-separated DUVs: des56, colorconv, memctrl.")
  in
  let levels =
    Arg.(value & opt (list string) [ "rtl"; "tlm-ca"; "tlm-at" ]
         & info [ "levels" ] ~docv:"LEVELS"
             ~doc:"Comma-separated abstraction levels: rtl, tlm-ca, tlm-at, \
                   tlm-lt (DES56 only).")
  in
  let seeds =
    Arg.(value & opt (list int) [ 1 ] & info [ "seeds" ] ~docv:"SEEDS"
           ~doc:"Comma-separated workload seeds.")
  in
  let ops =
    Arg.(value & opt int 40 & info [ "ops"; "n" ] ~docv:"N"
           ~doc:"Workload size per job (operations / pixels).")
  in
  let props =
    Arg.(value & opt string "all" & info [ "props" ] ~docv:"SEL"
           ~doc:"Property selection: 'all', 'none', or an integer N (attach \
                 the first N checkers).")
  in
  let workers =
    Arg.(value & opt (some int) None & info [ "workers"; "j" ] ~docv:"N"
           ~doc:"Worker domains (default: the machine's recommended domain \
                 count, capped by the job count).")
  in
  let retries =
    Arg.(value & opt (some int) None & info [ "retries" ] ~docv:"N"
           ~doc:"Retries per crashing job (default 1; a manifest's 'retries' \
                 key is used when this flag is absent).")
  in
  let report_out =
    Cli.report_json_arg
      ~doc:
        "Write the deterministic campaign report as JSON to FILE ('-' for \
         stdout)."
  in
  let run manifest duvs levels seeds ops props workers retries report_out
      isolate timeout journal_path resume =
    let fail = Cli.fail "campaign" in
    let manifest =
      match manifest with
      | Some path ->
        (match Campaign.manifest_of_string (Cli.read_file path) with
         | Ok m -> m
         | Error msg -> fail (Printf.sprintf "%s: %s" path msg))
      | None ->
        let parse_with what of_name name =
          match of_name name with
          | Some v -> v
          | None -> fail (Printf.sprintf "unknown %s %S" what name)
        in
        let duvs = List.map (parse_with "DUV" Campaign.duv_of_name) duvs in
        let levels =
          List.map (parse_with "level" Campaign.level_of_name) levels
        in
        let selection = parse_with "selection" Campaign.selection_of_name props in
        { Campaign.manifest_jobs =
            Campaign.expand_matrix ~selection ~duvs ~levels ~seeds ~ops ();
          manifest_retries = None }
    in
    let jobs = manifest.Campaign.manifest_jobs in
    if jobs = [] then fail "empty campaign (no jobs)";
    List.iter
      (fun job ->
        match Campaign.validate job with
        | Ok () -> ()
        | Error msg -> fail msg)
      jobs;
    let retries =
      match (retries, manifest.Campaign.manifest_retries) with
      | Some r, _ -> r
      | None, Some r -> r
      | None, None -> 1
    in
    let workers =
      match workers with
      | Some w when w >= 1 -> w
      | Some w -> fail (Printf.sprintf "--workers must be >= 1 (got %d)" w)
      | None -> min (Domain.recommended_domain_count ()) (List.length jobs)
    in
    let exec = Cli.executor_of_flags ~fail ~isolate ~timeout in
    let journal =
      Cli.journal_of_flags ~fail ~kind:Campaign.journal_kind
        ~fingerprint:(Campaign.fingerprint ~retries jobs) ~path:journal_path
        ~resume
    in
    let summary =
      Fun.protect
        ~finally:(fun () -> Option.iter Journal.close journal)
        (fun () ->
          Cli.with_interrupt (fun interrupted ->
            Campaign.run ~workers ~retries ~clock:Unix.gettimeofday ~exec
              ?journal ~interrupted jobs))
    in
    Format.printf "%a@." Campaign.pp_summary summary;
    (match report_out with
     | None -> ()
     | Some path ->
       Cli.write_json ~announce:"campaign report" path
         (Campaign.report_json summary));
    if summary.Campaign.pending > 0 then begin
      Printf.eprintf "tabv campaign: interrupted with %d job(s) pending%s\n"
        summary.Campaign.pending (Cli.resume_hint journal_path);
      exit 130
    end;
    if not (Campaign.all_green summary) then exit 1
  in
  let doc =
    "Run a verification campaign (job matrix) on a pool of worker domains \
     or crash-isolated worker subprocesses."
  in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(
      const run $ manifest $ duvs $ levels $ seeds $ ops $ props $ workers
      $ retries $ report_out $ Cli.isolate_arg $ Cli.timeout_arg
      $ Cli.journal_arg $ Cli.resume_arg)

(* --- qualify ------------------------------------------------------ *)

let qualify_cmd =
  let open Tabv_campaign in
  let duv =
    Arg.(value & opt string "des56" & info [ "duv" ] ~docv:"DUV"
           ~doc:"Device under verification: des56, colorconv or memctrl.")
  in
  let levels =
    Arg.(value & opt_all string [] & info [ "level" ] ~docv:"LEVEL"
           ~doc:"Abstraction level to qualify (repeatable): rtl, tlm-ca, \
                 tlm-at, tlm-lt (DES56 only).  Default: rtl tlm-ca tlm-at.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Workload seed (shared by every job in the matrix).")
  in
  let ops =
    Arg.(value & opt int 40 & info [ "ops"; "n" ] ~docv:"N"
           ~doc:"Workload size per job (operations / pixels).")
  in
  let workers =
    Arg.(value & opt (some int) None & info [ "workers"; "j" ] ~docv:"N"
           ~doc:"Worker domains (default: the machine's recommended domain \
                 count).")
  in
  let retries =
    Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N"
           ~doc:"Retries per crashing pool job (default 1).")
  in
  let report_out =
    Cli.report_json_arg
      ~doc:
        "Write the deterministic detection-matrix report as JSON to FILE \
         ('-' for stdout)."
  in
  let run duv levels seed ops workers retries report_out isolate timeout
      journal_path resume =
    let fail = Cli.fail "qualify" in
    let duv =
      match Campaign.duv_of_name duv with
      | Some d -> d
      | None -> fail (Printf.sprintf "unknown DUV %S" duv)
    in
    let levels =
      let names =
        if levels = [] then [ "rtl"; "tlm-ca"; "tlm-at" ] else levels
      in
      List.map
        (fun name ->
          match Campaign.level_of_name name with
          | Some l -> l
          | None -> fail (Printf.sprintf "unknown level %S" name))
        names
    in
    let workers =
      match workers with
      | Some w when w >= 1 -> w
      | Some w -> fail (Printf.sprintf "--workers must be >= 1 (got %d)" w)
      | None -> Domain.recommended_domain_count ()
    in
    let exec = Cli.executor_of_flags ~fail ~isolate ~timeout in
    let journal =
      Cli.journal_of_flags ~fail ~kind:Qualify.journal_kind
        ~fingerprint:(Qualify.fingerprint ~duv ~levels ~seed ~ops)
        ~path:journal_path ~resume
    in
    let report =
      try
        Fun.protect
          ~finally:(fun () -> Option.iter Journal.close journal)
          (fun () ->
            Cli.with_interrupt (fun interrupted ->
              Qualify.run ~workers ~retries ~exec ?journal ~interrupted ~duv
                ~levels ~seed ~ops ()))
      with
      | Invalid_argument msg -> fail msg
      | Qualify.Interrupted ->
        Printf.eprintf
          "tabv qualify: interrupted before the pool drained; a partial \
           detection matrix is meaningless, so no report was produced%s\n"
          (Cli.resume_hint journal_path);
        exit 130
    in
    Format.printf "%a@." Qualify.pp_report report;
    (match report_out with
     | None -> ()
     | Some path ->
       Cli.write_json ~announce:"qualification report" path
         (Qualify.report_json report));
    if not (Qualify.ok report) then exit 1
  in
  let doc =
    "Fault-qualify the property suites: build the fault x property \
     detection matrix across abstraction levels and check the seeded \
     resilience scenarios."
  in
  Cmd.v (Cmd.info "qualify" ~doc)
    Term.(
      const run $ duv $ levels $ seed $ ops $ workers $ retries $ report_out
      $ Cli.isolate_arg $ Cli.timeout_arg $ Cli.journal_arg $ Cli.resume_arg)

(* --- serve -------------------------------------------------------- *)

let socket_arg =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path of the daemon.")

let tcp_arg =
  Arg.(value & opt (some (pair ~sep:':' string int)) None
       & info [ "tcp" ] ~docv:"HOST:PORT"
           ~doc:"TCP endpoint of the daemon (in addition to, or instead \
                 of, the Unix-domain socket).")

let serve_cmd =
  let open Tabv_serve in
  let workers =
    Arg.(value & opt int 2 & info [ "workers"; "j" ] ~docv:"N"
           ~doc:"Warm worker count (default 2).")
  in
  let queue_bound =
    Arg.(value & opt int 64 & info [ "queue-bound" ] ~docv:"N"
           ~doc:"Total queued requests across all clients before new \
                 submissions are rejected with retry advice (default 64).")
  in
  let retry_after_ms =
    Arg.(value & opt int 250 & info [ "retry-after-ms" ] ~docv:"MS"
           ~doc:"Retry advice carried by backpressure rejections (default \
                 250).")
  in
  let warm_bound =
    Arg.(value & opt int 32 & info [ "warm-bound" ] ~docv:"N"
           ~doc:"Warm result-cache entries kept under LRU (default 32).")
  in
  let state_dir =
    Arg.(value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR"
           ~doc:"Directory for journaled campaign state (crash recovery); \
                 created if missing, stale journals are collected on \
                 startup.  Without it, journaled campaign requests are \
                 refused.")
  in
  let job_timeout =
    Arg.(value & opt float 300. & info [ "job-timeout" ] ~docv:"SECONDS"
           ~doc:"Per-request deadline: a job running longer is cancelled \
                 and its client answered with an error echoing the \
                 deadline (default 300; 0 disables).  Subprocess workers \
                 (--isolate) are killed outright; in-domain jobs are \
                 interrupted at their next interruption point.")
  in
  let idle_timeout =
    Arg.(value & opt float 60. & info [ "idle-timeout" ] ~docv:"SECONDS"
           ~doc:"Mid-frame silence budget: a client that stops sending \
                 halfway through a request frame is disconnected and its \
                 reservations released (default 60).  Fully idle \
                 connections (no partial frame) are unaffected.")
  in
  let breaker_threshold =
    Arg.(value & opt int 3 & info [ "breaker-threshold" ] ~docv:"N"
           ~doc:"Consecutive worker-infrastructure failures before the \
                 worker slot's circuit breaker opens (default 3).")
  in
  let breaker_cooldown =
    Arg.(value & opt float 5. & info [ "breaker-cooldown" ] ~docv:"SECONDS"
           ~doc:"Quarantine length of an open worker circuit breaker \
                 before a single half-open probe job is admitted \
                 (default 5).")
  in
  let shed_watermark =
    Arg.(value & opt (some int) None & info [ "shed-watermark" ] ~docv:"N"
           ~doc:"Queue depth at which lower-priority submissions (bulk \
                 campaigns before trace work before interactive checks) \
                 start being shed with retry advice (default: 3/4 of \
                 --queue-bound).")
  in
  let run socket tcp workers isolate queue_bound retry_after_ms warm_bound
      state_dir job_timeout idle_timeout breaker_threshold breaker_cooldown
      shed_watermark =
    let fail = Cli.fail "serve" in
    let socket =
      match socket with
      | Some path -> path
      | None -> fail "--socket is required"
    in
    if workers < 1 then fail "--workers must be >= 1";
    if queue_bound < 1 then fail "--queue-bound must be >= 1";
    if warm_bound < 1 then fail "--warm-bound must be >= 1";
    if job_timeout < 0. then fail "--job-timeout must be >= 0";
    if idle_timeout <= 0. then fail "--idle-timeout must be > 0";
    if breaker_threshold < 1 then fail "--breaker-threshold must be >= 1";
    if breaker_cooldown < 0. then fail "--breaker-cooldown must be >= 0";
    (match shed_watermark with
     | Some w when w < 1 || w > queue_bound ->
       fail "--shed-watermark must be in [1, --queue-bound]"
     | _ -> ());
    (match state_dir with
     | Some dir when not (Sys.file_exists dir) ->
       (try Unix.mkdir dir 0o755 with
        | Unix.Unix_error (e, _, _) ->
          fail (Printf.sprintf "cannot create state dir %s: %s" dir
                  (Unix.error_message e)))
     | _ -> ());
    let config =
      { (Server.default_config ~socket ()) with
        tcp;
        workers;
        executor =
          (if isolate then Server.Subprocess_workers
           else Server.In_domain_workers);
        queue_bound;
        retry_after_ms;
        warm_bound;
        job_timeout_s = (if job_timeout = 0. then None else Some job_timeout);
        conn_idle_timeout_s = idle_timeout;
        breaker_threshold;
        breaker_cooldown_s = breaker_cooldown;
        shed_watermark;
        state_dir }
    in
    let banner () =
      Printf.printf "tabv serve: listening on %s%s (%d %s worker%s)\n%!" socket
        (match tcp with
         | Some (host, port) -> Printf.sprintf " and %s:%d" host port
         | None -> "")
        workers
        (if isolate then "subprocess" else "in-domain")
        (if workers = 1 then "" else "s")
    in
    let obs =
      (* Bind-time problems (socket already served by a live daemon,
         unresolvable --tcp host) surface as [Failure]. *)
      match
        Cli.with_interrupt (fun interrupted ->
            Server.run ~interrupted ~on_ready:banner config)
      with
      | obs -> obs
      | exception Failure msg -> fail msg
    in
    print_endline "tabv serve: drained";
    Format.printf "%a@." Tabv_obs.Metrics.pp_snapshot (Tabv_obs.Metrics.snapshot obs)
  in
  let doc =
    "Run the persistent verification daemon: concurrent check / record / \
     recheck / campaign / qualify requests over a Unix-domain (optionally \
     TCP) socket, with a bounded fair queue, a warm worker pool and \
     journal-backed crash recovery.  Reports are byte-identical to the \
     one-shot CLI."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ tcp_arg $ workers $ Cli.isolate_arg
      $ queue_bound $ retry_after_ms $ warm_bound $ state_dir $ job_timeout
      $ idle_timeout $ breaker_threshold $ breaker_cooldown $ shed_watermark)

(* --- client ------------------------------------------------------- *)

let client_cmd =
  let open Tabv_serve in
  let op =
    Arg.(required
         & pos 0
             (some
                (Arg.enum
                   [ ("check", `Check); ("record", `Record);
                     ("recheck", `Recheck); ("campaign", `Campaign);
                     ("qualify", `Qualify); ("ping", `Ping);
                     ("stats", `Stats); ("invalidate", `Invalidate);
                     ("shutdown", `Shutdown) ]))
             None
         & info [] ~docv:"OP"
             ~doc:"Request to submit: a job (check, record, recheck, \
                   campaign, qualify) or a control op (ping, stats, \
                   invalidate, shutdown).")
  in
  let model =
    Arg.(value & opt (some (Arg.enum Models.names)) None
         & info [ "model"; "m" ] ~docv:"MODEL"
             ~doc:"DUV model for check/record requests.")
  in
  let ops =
    Arg.(value & opt Cli.non_negative_int 40 & info [ "ops"; "n" ] ~docv:"N"
           ~doc:"Workload size (operations / pixels).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")
  in
  let props =
    Arg.(value & opt (some file) None & info [ "props"; "p" ] ~docv:"FILE"
           ~doc:"Property file; its source is sent inline, so the daemon \
                 needs no view of the client's filesystem.")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace-out"; "o" ]
           ~docv:"FILE"
           ~doc:"Trace output path for record requests (server-side path).")
  in
  let trace_in =
    Arg.(value & opt (some string) None & info [ "trace-in"; "i" ]
           ~docv:"FILE"
           ~doc:"Recorded trace path for recheck requests (server-side \
                 path).")
  in
  let manifest =
    Arg.(value & opt (some file) None & info [ "manifest" ] ~docv:"FILE"
           ~doc:"JSON campaign manifest for campaign requests (sent \
                 inline).")
  in
  let journal =
    Arg.(value & flag & info [ "journal" ]
           ~doc:"Journal the campaign into the daemon's state dir (crash \
                 recovery; concurrent identical campaigns are refused).")
  in
  let duv =
    Arg.(value & opt string "des56" & info [ "duv" ] ~docv:"DUV"
           ~doc:"DUV for qualify requests.")
  in
  let levels =
    Arg.(value & opt_all string [] & info [ "level" ] ~docv:"LEVEL"
           ~doc:"Abstraction level for qualify requests (repeatable; \
                 default: rtl tlm-ca tlm-at).")
  in
  let workers =
    Arg.(value & opt int 2 & info [ "workers"; "j" ] ~docv:"N"
           ~doc:"Worker count used by the daemon for this request's inner \
                 pool (recheck/campaign/qualify; default 2).")
  in
  let retries =
    Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N"
           ~doc:"Retries per crashing inner job (default 1).")
  in
  let attempts =
    Arg.(value & opt int 10 & info [ "retry-attempts" ] ~docv:"N"
           ~doc:"Resubmissions on backpressure rejection before giving up \
                 (default 10).")
  in
  let retry_seed =
    Arg.(value & opt (some int) None & info [ "retry-seed" ] ~docv:"SEED"
           ~doc:"Seed for decorrelated-jitter backoff between backpressure \
                 retries, grown from the server's advice (default: this \
                 process id, so concurrent clients spread out).  Pass an \
                 explicit seed for reproducible retry timing.")
  in
  let report_out =
    Cli.report_json_arg
      ~doc:
        "Write the report to FILE ('-' or absent: stdout).  The bytes are \
         exactly what the one-shot CLI's --report-json would have written."
  in
  let run op socket tcp model ops seed props trace_out trace_in
      manifest journal duv levels workers retries attempts retry_seed
      report_out =
    let fail = Cli.fail "client" in
    let endpoint =
      match (tcp, socket) with
      | Some (host, port), _ -> `Tcp (host, port)
      | None, Some path -> `Unix path
      | None, None -> fail "--socket or --tcp is required"
    in
    let client =
      match Client.connect endpoint with
      | Ok c -> c
      | Error e -> fail e
    in
    Fun.protect
      ~finally:(fun () -> Client.close client)
      (fun () ->
        let props_src = Option.map Cli.read_file props in
        let require_model () =
          match model with
          | Some m -> m
          | None -> fail "--model is required for this op"
        in
        let job =
          match op with
          | `Check ->
            Some
              (Protocol.Check
                 { model = require_model (); seed; ops; props = props_src;
                   engine = None; trace_out = None })
          | `Record ->
            let path =
              match trace_out with
              | Some p -> p
              | None -> fail "--trace-out is required for record"
            in
            Some
              (Protocol.Check
                 { model = require_model (); seed; ops; props = props_src;
                   engine = None; trace_out = Some path })
          | `Recheck ->
            let trace =
              match trace_in with
              | Some p -> p
              | None -> fail "--trace-in is required for recheck"
            in
            Some (Protocol.Recheck { trace; props = props_src; workers; retries })
          | `Campaign ->
            let path =
              match manifest with
              | Some p -> p
              | None -> fail "--manifest is required for campaign"
            in
            let manifest =
              match Tabv_core.Report_json.of_string (Cli.read_file path) with
              | json -> json
              | exception Tabv_core.Report_json.Parse_error
                  { line; col; message } ->
                fail (Printf.sprintf "%s:%d:%d: %s" path line col message)
            in
            Some
              (Protocol.Campaign
                 { manifest; workers; retries = Some retries; journal })
          | `Qualify ->
            let duv =
              match Tabv_campaign.Campaign.duv_of_name duv with
              | Some d -> d
              | None -> fail (Printf.sprintf "unknown DUV %S" duv)
            in
            let levels =
              let names =
                if levels = [] then [ "rtl"; "tlm-ca"; "tlm-at" ] else levels
              in
              List.map
                (fun name ->
                  match Tabv_campaign.Campaign.level_of_name name with
                  | Some l -> l
                  | None -> fail (Printf.sprintf "unknown level %S" name))
                names
            in
            Some (Protocol.Qualify { duv; levels; seed; ops; workers; retries })
          | `Ping | `Stats | `Invalidate | `Shutdown -> None
        in
        match job with
        | Some job ->
          let backoff_seed =
            match retry_seed with
            | Some s -> s
            | None -> Unix.getpid ()
          in
          (match Client.request_with_retry ~attempts ~backoff_seed client job with
           | Client.Result { ok; warm; report } ->
             (match report_out with
              | Some "-" | None -> print_string report
              | Some path ->
                (* Same commit discipline as Cli.write_json: the
                   served report bytes land atomically or not at
                   all. *)
                Tabv_core.Io.write_file_atomic ~path report;
                Printf.printf "wrote report to %s%s\n" path
                  (if warm then " (warm)" else ""));
             if not ok then exit 1
           | Client.Rejected { retry_after_ms } ->
             Printf.eprintf
               "tabv client: server busy; giving up (server advice: retry \
                after %dms)\n"
               retry_after_ms;
             exit 75
           | Client.Failed message -> fail message)
        | None ->
          let control =
            match op with
            | `Ping -> Protocol.Ping
            | `Stats -> Protocol.Stats
            | `Invalidate -> Protocol.Invalidate
            | `Shutdown -> Protocol.Shutdown
            | _ -> assert false
          in
          (match Client.control client control with
           | Client.Pong -> print_endline "pong"
           | Client.Stats json ->
             print_endline (Tabv_core.Report_json.to_string json)
           | Client.Invalidated n ->
             Printf.printf "invalidated %d warm entr%s\n" n
               (if n = 1 then "y" else "ies")
           | Client.Shutting_down -> print_endline "server draining"
           | Client.Control_failed message -> fail message))
  in
  let doc =
    "Submit one request to a running $(b,tabv serve) daemon and print or \
     save its report — byte-identical to the one-shot CLI's."
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run $ op $ socket_arg $ tcp_arg $ model $ ops $ seed $ props
      $ trace_out $ trace_in $ manifest $ journal $ duv
      $ levels $ workers $ retries $ attempts $ retry_seed $ report_out)

(* --- doctor ------------------------------------------------------- *)

let doctor_cmd =
  let run () =
    let failures = ref 0 in
    let check name ok =
      Printf.printf "  [%s] %s\n" (if ok then "ok" else "FAIL") name;
      if not ok then incr failures
    in
    print_endline "tabv doctor: internal consistency checks";
    check "DES known-answer vector"
      (Des.encrypt ~key:0x133457799BBCDFF1L 0x0123456789ABCDEFL = 0x85E813540F0AB405L);
    check "ColorConv black pixel"
      (Colorconv.equal_ycbcr
         (Colorconv.convert { Colorconv.r = 0; g = 0; b = 0 })
         { Colorconv.y = 16; cb = 128; cr = 128 });
    let q1_expected =
      "q1: always(!(ds && indata == 0) || nexte[1,170](out != 0)) @tb"
    in
    check "Fig. 3 rewriting (p1 -> q1)"
      (match (List.hd (Des56_props.abstraction_reports ())).Tabv_core.Methodology.output with
       | Some q -> Property.to_string q = q1_expected
       | None -> false);
    check "push-ahead law: next(a until b) (exhaustive to depth 4)"
      (Exhaustive.equivalent ~signals:[ "a"; "b" ] ~max_depth:4
         (Parser.formula_only "next(a until b)")
         (Parser.formula_only "next(a) until next(b)")
       = Exhaustive.Holds);
    let quick_ops = Workload.des56 ~seed:1 ~count:10 () in
    check "DES56 RTL end-to-end with all checkers"
      (Testbench.total_failures
         (Testbench.run_des56_rtl ~properties:Des56_props.all quick_ops)
       = 0);
    check "DES56 TLM-AT end-to-end with reviewed checkers"
      (Testbench.total_failures
         (Testbench.run_des56_tlm_at ~properties:(Des56_props.tlm_reviewed ()) quick_ops)
       = 0);
    check "wrong abstraction is detected"
      (Testbench.total_failures
         (Testbench.run_des56_tlm_at ~model_latency_ns:160
            ~properties:(Des56_props.tlm_auto_safe ()) quick_ops)
       > 0);
    let quick_bursts = Workload.colorconv ~seed:1 ~count:50 () in
    check "ColorConv TLM-AT end-to-end with reviewed checkers"
      (Testbench.total_failures
         (Testbench.run_colorconv_tlm_at
            ~properties:(Colorconv_props.tlm_reviewed ()) quick_bursts)
       = 0);
    let mem_ops = Workload.memctrl ~seed:1 ~count:20 () in
    check "MemCtrl RTL read-back"
      ((Memctrl_testbench.run_rtl mem_ops).Testbench.outputs
       = List.map Int64.of_int (Memctrl_testbench.reference_reads mem_ops));
    let record_recheck_identity =
      (* Record a short run with a binary trace tapped in, then replay
         the same property set offline: the verdict documents must be
         byte-identical (the recheck contract, end to end). *)
      let path = Filename.temp_file "tabv_doctor" ".trace" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let meta =
            { Tabv_trace.Meta.model = "des56-rtl"; seed = 1; ops = 10;
              engine =
                Tabv_sim.Kernel.engine_name
                  (Tabv_sim.Kernel.get_default_engine ()) }
          in
          let live =
            Tabv_trace.Writer.with_file ~path meta (fun writer ->
                Testbench.run_des56_rtl ~trace_writer:writer
                  ~properties:Des56_props.all quick_ops)
          in
          let live_doc =
            Tabv_core.Report_json.to_string
              (Tabv_core.Report_json.verdict_report_json
                 ~run:[ ("model", Tabv_core.Report_json.String "des56-rtl") ]
                 ~properties:live.Testbench.checker_stats ())
          in
          let rechecked =
            Tabv_campaign.Recheck.run ~workers:2 ~retries:0 ~trace:path
              Des56_props.all
          in
          let recheck_doc =
            Tabv_core.Report_json.to_string
              (Tabv_core.Report_json.verdict_report_json
                 ~run:[ ("model", Tabv_core.Report_json.String "des56-rtl") ]
                 ~properties:rechecked.Tabv_campaign.Recheck.snapshots ())
          in
          live_doc = recheck_doc)
    in
    check "record + recheck reports byte-identically to the live check"
      record_recheck_identity;
    let mini_campaign =
      let open Tabv_campaign.Campaign in
      run ~workers:2
        (expand_matrix ~duvs:[ Des56; Colorconv ] ~levels:[ Rtl; Tlm_ca ]
           ~seeds:[ 1 ] ~ops:10 ())
    in
    check "mini-campaign (4 jobs, 2 worker domains)"
      (Tabv_campaign.Campaign.all_green mini_campaign
       && mini_campaign.Tabv_campaign.Campaign.completed = 4);
    let executor_smoke =
      let open Tabv_campaign in
      let jobs =
        Campaign.expand_matrix ~duvs:[ Campaign.Des56 ]
          ~levels:[ Campaign.Rtl; Campaign.Tlm_ca ] ~seeds:[ 1 ] ~ops:10 ()
      in
      let report exec =
        Tabv_core.Report_json.to_string
          (Campaign.report_json (Campaign.run ~workers:2 ~exec jobs))
      in
      report (Executor.config Executor.In_domain)
      = report (Executor.config Executor.Subprocess)
    in
    check "subprocess executor matches in-domain (byte-identical report)"
      executor_smoke;
    let journal_smoke =
      let open Tabv_campaign in
      let jobs =
        Campaign.expand_matrix ~duvs:[ Campaign.Colorconv ]
          ~levels:[ Campaign.Rtl ] ~seeds:[ 1; 2 ] ~ops:10 ()
      in
      let fingerprint = Campaign.fingerprint ~retries:1 jobs in
      let path = Filename.temp_file "tabv_doctor" ".journal" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let with_journal ~resume f =
            match
              Journal.open_ ~path ~kind:Campaign.journal_kind ~fingerprint
                ~resume ()
            with
            | Error msg -> failwith msg
            | Ok j ->
              Fun.protect ~finally:(fun () -> Journal.close j) (fun () -> f j)
          in
          let fresh =
            with_journal ~resume:false (fun journal ->
              Campaign.run ~workers:2 ~journal jobs)
          in
          let resumed =
            with_journal ~resume:true (fun journal ->
              Campaign.run ~workers:2 ~journal jobs)
          in
          resumed.Campaign.replayed = List.length jobs
          && Tabv_core.Report_json.to_string (Campaign.report_json fresh)
             = Tabv_core.Report_json.to_string (Campaign.report_json resumed))
    in
    check "journal round-trip (resume replays all jobs byte-identically)"
      journal_smoke;
    let journal_recovery =
      (* Crash-image recovery: run a journaled campaign, truncate the
         journal at arbitrary bytes (torn appends, lost fsyncs), and
         resume each image — the CRC framing must salvage the valid
         prefix and every resumed report must be byte-identical to the
         uninterrupted one. *)
      let open Tabv_campaign in
      let jobs =
        Campaign.expand_matrix ~duvs:[ Campaign.Colorconv ]
          ~levels:[ Campaign.Rtl ] ~seeds:[ 1; 2 ] ~ops:10 ()
      in
      let fingerprint = Campaign.fingerprint ~retries:1 jobs in
      let path = Filename.temp_file "tabv_doctor" ".journal" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let with_journal ~resume f =
            match
              Journal.open_ ~path ~kind:Campaign.journal_kind ~fingerprint
                ~resume ()
            with
            | Error msg -> failwith msg
            | Ok j ->
              Fun.protect ~finally:(fun () -> Journal.close j) (fun () -> f j)
          in
          let fresh =
            with_journal ~resume:false (fun journal ->
                Campaign.run ~workers:2 ~journal jobs)
          in
          let expected =
            Tabv_core.Report_json.to_string (Campaign.report_json fresh)
          in
          let full = In_channel.with_open_bin path In_channel.input_all in
          let len = String.length full in
          let cuts = [ 1; len / 3; len / 2; len - 2 ] in
          List.for_all
            (fun cut ->
              let cut = max 0 (min cut len) in
              Out_channel.with_open_bin path (fun oc ->
                  Out_channel.output_string oc (String.sub full 0 cut));
              let resumed =
                with_journal ~resume:true (fun journal ->
                    Campaign.run ~workers:2 ~journal jobs)
              in
              Tabv_core.Report_json.to_string (Campaign.report_json resumed)
              = expected)
            cuts)
    in
    check "journal recovery (resume from truncated crash images, byte-identical)"
      journal_recovery;
    (* Serve smoke: an in-process daemon on a temp socket must answer a
       check and a 2-job campaign with exactly the bytes the one-shot
       paths produce, replay the check warm, and drain cleanly on a
       shutdown request. *)
    let serve_check_cold = ref false
    and serve_check_warm = ref false
    and serve_campaign_ok = ref false
    and serve_journal_ok = ref false
    and serve_state_clean = ref false
    and serve_shutdown_ok = ref false in
    (let expected_check =
       Tabv_checker.Progression.reset_universe ();
       let properties, grid_properties =
         Cli.properties_for Models.Des56_rtl None
       in
       let result =
         Cli.run_model Models.Des56_rtl ~seed:5 ~ops:15 ~properties
           ~grid_properties
       in
       Tabv_core.Report_json.to_string
         (Models.verdict_report Models.Des56_rtl ~seed:5 ~ops:15 result)
       ^ "\n"
     in
     let manifest_json =
       let job level =
         Tabv_core.Report_json.Assoc
           [ ("duv", Tabv_core.Report_json.String "des56");
             ("level", Tabv_core.Report_json.String level);
             ("seed", Tabv_core.Report_json.Int 1);
             ("ops", Tabv_core.Report_json.Int 10) ]
       in
       Tabv_core.Report_json.Assoc
         [ ("jobs", Tabv_core.Report_json.List [ job "rtl"; job "tlm-ca" ]) ]
     in
     let expected_campaign =
       match Tabv_campaign.Campaign.manifest_of_json manifest_json with
       | Error msg -> failwith msg
       | Ok m ->
         Tabv_core.Report_json.to_string
           (Tabv_campaign.Campaign.report_json
              (Tabv_campaign.Campaign.run ~workers:2 ~retries:1
                 m.Tabv_campaign.Campaign.manifest_jobs))
         ^ "\n"
     in
     let dir = Filename.temp_file "tabv_doctor" ".serve" in
     Sys.remove dir;
     Unix.mkdir dir 0o700;
     let state = Filename.concat dir "state" in
     Unix.mkdir state 0o700;
     let socket = Filename.concat dir "tabv.sock" in
     (* The sweep must run on *every* exit path — a failed smoke check
        must not leave stale journals (or the socket) behind in the
        temp tree. *)
     let sweep d =
       match Sys.readdir d with
       | entries ->
         Array.iter
           (fun entry ->
             try Sys.remove (Filename.concat d entry) with Sys_error _ -> ())
           entries;
         (try Unix.rmdir d with Unix.Unix_error _ -> ())
       | exception Sys_error _ -> ()
     in
     Fun.protect
       ~finally:(fun () ->
         sweep state;
         sweep dir)
       (fun () ->
         let config =
           { (Tabv_serve.Server.default_config ~socket ()) with
             workers = 2;
             state_dir = Some state }
         in
         let ready = Atomic.make false in
         let server =
           Domain.spawn (fun () ->
               ignore
                 (Tabv_serve.Server.run
                    ~on_ready:(fun () -> Atomic.set ready true)
                    config))
         in
         while not (Atomic.get ready) do
           Unix.sleepf 0.002
         done;
         (match Tabv_serve.Client.connect (`Unix socket) with
          | Error msg -> prerr_endline ("serve smoke: " ^ msg)
          | Ok client ->
            let job =
              Tabv_serve.Protocol.Check
                { model = Models.Des56_rtl; seed = 5; ops = 15; props = None;
                  engine = None; trace_out = None }
            in
            (match Tabv_serve.Client.request client job with
             | Tabv_serve.Client.Result { ok = true; warm = false; report } ->
               serve_check_cold := report = expected_check
             | _ -> ());
            (match Tabv_serve.Client.request client job with
             | Tabv_serve.Client.Result { ok = true; warm = true; report } ->
               serve_check_warm := report = expected_check
             | _ -> ());
            (match
               Tabv_serve.Client.request client
                 (Tabv_serve.Protocol.Campaign
                    { manifest = manifest_json; workers = 2;
                      retries = Some 1; journal = false })
             with
             | Tabv_serve.Client.Result { ok = true; warm = false; report } ->
               serve_campaign_ok := report = expected_campaign
             | _ -> ());
            (match
               Tabv_serve.Client.request client
                 (Tabv_serve.Protocol.Campaign
                    { manifest = manifest_json; workers = 2;
                      retries = Some 1; journal = true })
             with
             | Tabv_serve.Client.Result { ok = true; report; _ } ->
               serve_journal_ok := report = expected_campaign
             | _ -> ());
            (* A completed journaled campaign must collect its own
               journal: nothing may be left in the state dir. *)
            serve_state_clean := Sys.readdir state = [||];
            (match
               Tabv_serve.Client.control client Tabv_serve.Protocol.Shutdown
             with
             | Tabv_serve.Client.Shutting_down -> serve_shutdown_ok := true
             | _ -> ());
            Tabv_serve.Client.close client);
         Domain.join server));
    check "serve: socket check is byte-identical to the one-shot path"
      !serve_check_cold;
    check "serve: warm replay is byte-identical" !serve_check_warm;
    check "serve: 2-job campaign over the socket is byte-identical"
      !serve_campaign_ok;
    check "serve: journaled campaign matches the plain one byte-for-byte"
      !serve_journal_ok;
    check "serve: state dir holds no stale journals after the smoke"
      !serve_state_clean;
    check "serve: graceful shutdown drains" !serve_shutdown_ok;
    if !failures = 0 then print_endline "all checks passed"
    else begin
      Printf.printf "%d check(s) FAILED\n" !failures;
      exit 1
    end
  in
  let doc = "Run the built-in consistency checks (known answers, laws, flows)." in
  Cmd.v (Cmd.info "doctor" ~doc) Term.(const run $ const ())

(* --- fig3 --------------------------------------------------------- *)

let fig3_cmd =
  let run () =
    List.iteri
      (fun i report ->
        if i < 3 then Format.printf "%a@.@." Tabv_core.Methodology.pp_report report)
      (Des56_props.abstraction_reports ())
  in
  let doc = "Reproduce the paper's Fig. 3 property rewriting (p1-p3 to q1-q3)." in
  Cmd.v (Cmd.info "fig3" ~doc) Term.(const run $ const ())

(* The hidden worker hook: `tabv _worker` never parses a command line —
   it turns this process into a frame server for a subprocess-executor
   coordinator (usually another tabv).  Must run before Cmd.eval so no
   cmdliner output pollutes the frame protocol on stdout. *)
let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "_worker" then begin
    (* Serve daemons delegate whole requests to subprocess workers via
       a registered op; the worker must know how to decode it. *)
    Tabv_serve.Handler.register_worker_op ();
    Tabv_campaign.Worker.main ();
    exit 0
  end

(* Hidden two-process golden hook: `tabv _serve_golden OUT` boots a
   daemon on a temp socket with *subprocess* workers, submits the same
   check the rc_des56_rtl_live.json golden rule runs, verifies the
   warm replay is byte-identical, and writes the report bytes to OUT
   so the test suite can diff them against the one-shot CLI's file. *)
let () =
  if Array.length Sys.argv > 2 && Sys.argv.(1) = "_serve_golden" then begin
    let out = Sys.argv.(2) in
    let die msg =
      prerr_endline ("tabv _serve_golden: " ^ msg);
      exit 1
    in
    let dir = Filename.temp_file "tabv_serve" ".golden" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    let socket = Filename.concat dir "tabv.sock" in
    let config =
      { (Tabv_serve.Server.default_config ~socket ()) with
        workers = 2;
        executor = Tabv_serve.Server.Subprocess_workers }
    in
    let ready = Atomic.make false in
    let server =
      Domain.spawn (fun () ->
          ignore
            (Tabv_serve.Server.run
               ~on_ready:(fun () -> Atomic.set ready true)
               config))
    in
    while not (Atomic.get ready) do
      Unix.sleepf 0.002
    done;
    let client =
      match Tabv_serve.Client.connect (`Unix socket) with
      | Ok c -> c
      | Error msg -> die msg
    in
    let job =
      Tabv_serve.Protocol.Check
        { model = Models.Des56_rtl; seed = 42; ops = 20; props = None;
          engine = None; trace_out = None }
    in
    let cold =
      match Tabv_serve.Client.request client job with
      | Tabv_serve.Client.Result { ok = true; warm = false; report } -> report
      | Tabv_serve.Client.Result _ -> die "unexpected first reply shape"
      | Tabv_serve.Client.Rejected _ -> die "rejected"
      | Tabv_serve.Client.Failed msg -> die msg
    in
    (match Tabv_serve.Client.request client job with
     | Tabv_serve.Client.Result { ok = true; warm = true; report }
       when report = cold ->
       ()
     | _ -> die "warm replay is not byte-identical");
    (match Tabv_serve.Client.control client Tabv_serve.Protocol.Shutdown with
     | Tabv_serve.Client.Shutting_down -> ()
     | _ -> die "shutdown refused");
    Tabv_serve.Client.close client;
    Domain.join server;
    Out_channel.with_open_bin out (fun oc -> Out_channel.output_string oc cold);
    (try Sys.remove socket with Sys_error _ -> ());
    (try Unix.rmdir dir with Unix.Unix_error _ -> ());
    exit 0
  end

let () =
  let doc = "RTL property abstraction for TLM assertion-based verification" in
  let info = Cmd.info "tabv" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ abstract_cmd; check_cmd; record_cmd; recheck_cmd; campaign_cmd;
            qualify_cmd; serve_cmd; client_cmd; trace_cmd; replay_cmd;
            doctor_cmd; fig3_cmd ]))
