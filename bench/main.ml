(* Benchmark harness reproducing the paper's evaluation:
     - Fig. 3  : abstraction of the published DES56 properties
     - Table I : simulation overhead of checkers at RTL / TLM-CA /
                 TLM-AT with 1 / 5 / all checkers, two testcases
     - Fig. 6  : RTL/TLM average speedup with and without checkers
     - Ablations: naive next[n] reuse, wrapper instance-pool sizing
     - Bechamel micro-benchmarks (one group per table/figure)

   Absolute times differ from the paper (our substrate is a simulator
   written from scratch, not the authors' testbed); the shapes — who
   wins, how overhead scales with checker count, where the speedup
   moves when checkers are added — are the reproduction target.  See
   EXPERIMENTS.md. *)

open Tabv_psl
open Tabv_duv

let time_run f =
  let t0 = Unix.gettimeofday () in
  ignore (f ());
  Unix.gettimeofday () -. t0

(* Minimum of several runs after one warmup: the workloads are
   deterministic and CPU-bound, so the fastest run is the one with the
   least outside interference.  A major collection before each run
   keeps one section's garbage out of the next measurement. *)
let timed ?(repeat = 5) f =
  let once () =
    Gc.major ();
    time_run f
  in
  ignore (once ());
  List.fold_left min infinity (List.init repeat (fun _ -> once ()))

(* --- Fig. 3 ------------------------------------------------------ *)

let fig3 () =
  print_endline
    "=== Fig. 3: RTL -> TLM abstraction of the published DES56 properties ===";
  let reports = Des56_props.abstraction_reports () in
  List.iteri
    (fun i report ->
      if i < 3 then Format.printf "%a@.@." Tabv_core.Methodology.pp_report report)
    reports;
  print_endline "Full DES56 set summary:";
  Format.printf "%a@.@." Tabv_core.Methodology.pp_summary reports;
  print_endline "Full ColorConv set summary:";
  Format.printf "%a@.@." Tabv_core.Methodology.pp_summary
    (Colorconv_props.abstraction_reports ())

(* --- Table I ----------------------------------------------------- *)

type level = {
  level_name : string;
  run : Property.t list -> Testbench.run_result;
  checker_sets : (string * Property.t list) list;
}

let print_table_header name =
  Printf.printf "=== Table I / %s ===\n" name;
  Printf.printf "%-14s %12s %12s %10s\n" "Abstr. level" "w/out c.(s)" "with c.(s)"
    "Overhead%"

(* Measured rows: (level, set, base seconds, with-checkers seconds).
   Fig. 6 is derived from these same measurements so the two sections
   are internally consistent.  All configurations are sampled in
   interleaved rounds (min over rounds): a sustained burst of outside
   load then inflates every cell instead of poisoning one column. *)
let table_for ?(rounds = 4) levels =
  (* One measurement closure per cell, base cells included. *)
  let cells =
    List.concat_map
      (fun level ->
        (`Base level.level_name, fun () -> ignore (level.run []))
        :: List.map
             (fun (set_name, props) ->
               ( `With (level.level_name, set_name),
                 fun () -> ignore (level.run props) ))
             level.checker_sets)
      levels
  in
  let best : (_, float) Hashtbl.t = Hashtbl.create 16 in
  (* Warmup round, then timed rounds. *)
  List.iter (fun (_, f) -> f ()) cells;
  for _ = 1 to rounds do
    List.iter
      (fun (key, f) ->
        Gc.major ();
        let t = time_run f in
        match Hashtbl.find_opt best key with
        | Some previous when previous <= t -> ()
        | Some _ | None -> Hashtbl.replace best key t)
      cells
  done;
  let rows =
    List.concat_map
      (fun level ->
        let base = Hashtbl.find best (`Base level.level_name) in
        List.map
          (fun (set_name, _) ->
            let with_c = Hashtbl.find best (`With (level.level_name, set_name)) in
            let overhead = (with_c -. base) /. base *. 100. in
            Printf.printf "%-14s %12.3f %12.3f %10.1f\n"
              (level.level_name ^ " " ^ set_name)
              base with_c overhead;
            (level.level_name, set_name, base, with_c))
          level.checker_sets)
      levels
  in
  print_newline ();
  rows

let take n xs = List.filteri (fun i _ -> i < n) xs

let des56_levels ops =
  let rtl_sets =
    [ ("1 C", Des56_props.take 1); ("5 C", Des56_props.take 5);
      ("All C", Des56_props.all) ]
  in
  let tlm = Des56_props.tlm_reviewed () in
  let tlm_sets = [ ("1 C", take 1 tlm); ("5 C", take 5 tlm); ("All C", tlm) ] in
  [ { level_name = "RTL";
      run = (fun properties -> Testbench.run_des56_rtl ~properties ops);
      checker_sets = rtl_sets };
    { level_name = "TLM-CA";
      run = (fun properties -> Testbench.run_des56_tlm_ca ~properties ops);
      checker_sets = rtl_sets };
    { level_name = "TLM-AT";
      run = (fun properties -> Testbench.run_des56_tlm_at ~properties ops);
      checker_sets = tlm_sets } ]

let colorconv_levels bursts =
  let rtl_sets =
    [ ("1 C", Colorconv_props.take 1); ("5 C", Colorconv_props.take 5);
      ("All C", Colorconv_props.all) ]
  in
  let tlm = Colorconv_props.tlm_reviewed () in
  let tlm_sets =
    [ ("1 C", take 1 tlm); ("5 C", take (min 5 (List.length tlm)) tlm); ("All C", tlm) ]
  in
  [ { level_name = "RTL";
      run = (fun properties -> Testbench.run_colorconv_rtl ~gap_cycles:6 ~properties bursts);
      checker_sets = rtl_sets };
    { level_name = "TLM-CA";
      run = (fun properties -> Testbench.run_colorconv_tlm_ca ~gap_cycles:6 ~properties bursts);
      checker_sets = rtl_sets };
    { level_name = "TLM-AT";
      run = (fun properties -> Testbench.run_colorconv_tlm_at ~gap_cycles:6 ~properties bursts);
      checker_sets = tlm_sets } ]

(* --- Fig. 6 ------------------------------------------------------ *)

(* Derived from the Table I measurements: speedup = T(RTL) / T(TLM-x),
   without checkers and with each level's full checker set. *)
let fig6_rows name rows =
  let find level set pick =
    match
      List.find_opt (fun (l, s, _, _) -> l = level && s = set) rows
    with
    | Some (_, _, base, with_c) -> pick (base, with_c)
    | None -> invalid_arg "fig6_rows: missing table row"
  in
  let base (b, _) = b and with_c (_, w) = w in
  let t_rtl = find "RTL" "All C" base and t_rtl_c = find "RTL" "All C" with_c in
  let t_ca = find "TLM-CA" "All C" base and t_ca_c = find "TLM-CA" "All C" with_c in
  let t_at = find "TLM-AT" "All C" base and t_at_c = find "TLM-AT" "All C" with_c in
  Printf.printf "%-22s %10.2f %10.2f\n" (name ^ " TLM-CA") (t_rtl /. t_ca)
    (t_rtl_c /. t_ca_c);
  Printf.printf "%-22s %10.2f %10.2f\n" (name ^ " TLM-AT") (t_rtl /. t_at)
    (t_rtl_c /. t_at_c)

let fig6 ~des_rows ~cc_rows =
  print_endline "=== Fig. 6: RTL/TLM average speedup (higher is better) ===";
  Printf.printf "%-22s %10s %10s\n" "" "w/out c." "with All C";
  fig6_rows "DES56" des_rows;
  fig6_rows "ColorConv" cc_rows;
  print_newline ()

(* --- Ablations ---------------------------------------------------- *)

let ablation_naive_scaling ops =
  print_endline "=== Ablation (Sec. III-A): naive next[n] reuse vs next_eps^tau ===";
  let naive =
    List.map
      (fun p ->
        Property.make ~name:(p.Property.name ^ "_naive")
          ~context:(Context.Transaction Context.Base_trans) p.Property.formula)
      [ Des56_props.p1; Des56_props.p3 ]
  in
  let naive_result = Testbench.run_des56_tlm_at ~properties:naive ops in
  let abstracted = Des56_props.tlm_auto_safe () in
  let abstracted_result = Testbench.run_des56_tlm_at ~properties:abstracted ops in
  let stuck result =
    List.fold_left (fun a s -> a + s.Testbench.pending) 0 result.Testbench.checker_stats
  in
  Printf.printf "naive reuse      : %d failures, %d stuck instances (incorrect verdicts)\n"
    (Testbench.total_failures naive_result) (stuck naive_result);
  Printf.printf "abstracted (ours): %d failures, %d stuck instances on the same workload\n\n"
    (Testbench.total_failures abstracted_result)
    (stuck abstracted_result)

let ablation_grid_wrapper ops =
  print_endline "=== Ablation: strict wrapper vs grid wrapper (TLM-AT, DES56) ===";
  let auto_safe = Des56_props.tlm_auto_safe () in
  let with_q2 =
    List.filter_map
      (fun r ->
        match r.Tabv_core.Methodology.output with
        | Some q when q.Property.name = "q2" -> Some q
        | _ -> None)
      (Des56_props.abstraction_reports ())
  in
  let t_base = timed (fun () -> Testbench.run_des56_tlm_at ops) in
  let t_strict = timed (fun () -> Testbench.run_des56_tlm_at ~properties:auto_safe ops) in
  let t_grid =
    timed (fun () ->
      Testbench.run_des56_tlm_at ~grid_properties:(auto_safe @ with_q2) ops)
  in
  Printf.printf "no checkers                          : %8.3f s\n" t_base;
  Printf.printf "strict wrapper (%d props, no q2)      : %8.3f s (+%.1f%%)\n"
    (List.length auto_safe) t_strict ((t_strict -. t_base) /. t_base *. 100.);
  Printf.printf "grid wrapper   (%d props, incl. q2)   : %8.3f s (+%.1f%%)\n\n"
    (List.length auto_safe + List.length with_q2)
    t_grid
    ((t_grid -. t_base) /. t_base *. 100.)

let ablation_checker_backend ops =
  print_endline
    "=== Ablation: checker synthesis backend (DES56 RTL, all 9 checkers) ===";
  let t_prog =
    timed (fun () ->
      Testbench.run_des56_rtl ~engine:`Progression ~properties:Des56_props.all ops)
  in
  let t_auto =
    timed (fun () ->
      Testbench.run_des56_rtl ~engine:`Automaton ~properties:Des56_props.all ops)
  in
  Printf.printf "formula progression (rewriting)  : %8.3f s\n" t_prog;
  Printf.printf "explicit-state automaton (tabled): %8.3f s  (%.2fx)\n\n" t_auto
    (t_prog /. t_auto)

let ablation_wrapper_stats ops =
  print_endline "=== Wrapper statistics (Sec. IV): instance pool sizing ===";
  let properties = Des56_props.tlm_auto_safe () in
  let result = Testbench.run_des56_tlm_at ~properties ops in
  Printf.printf "%-6s %18s %12s\n" "prop" "paper bound" "peak live";
  List.iter
    (fun stat ->
      Printf.printf "%-6s %18d %12d\n" stat.Testbench.property_name Des56_iface.latency
        stat.Testbench.peak_instances)
    result.Testbench.checker_stats;
  print_newline ()

(* --- Checker cache: interned progression vs legacy rewriting -------- *)

(* Replay-based measurement of the interned checker core: record one
   evaluation trace per abstraction level, then re-check a replicated
   always-property pool over it with the legacy tree-rewriting engine
   and with the interned/memoized engine.  Replaying isolates the
   checker cost from the simulation itself (both engines see the exact
   same (time, environment) sequence), and the replicated pool models
   the many-wrappers configuration where hash-consing pays: identical
   live instances collapse into one stepped state and the shared
   sampler evaluates each distinct atom once per instant. *)

let replicate_properties n props =
  List.concat_map
    (fun i ->
      List.map
        (fun p ->
          Property.make
            ~name:(Printf.sprintf "%s#%d" p.Property.name i)
            ~context:p.Property.context p.Property.formula)
        props)
    (List.init n (fun i -> i))

let assert_equivalent_outcomes level legacy interned =
  List.iter2
    (fun (l : Tabv_checker.Replay.outcome) (i : Tabv_checker.Replay.outcome) ->
      let open Tabv_checker in
      let summary o =
        ( List.map
            (fun (f : Monitor.failure) ->
              (f.Monitor.activation_time, f.Monitor.failure_time))
            (Monitor.failures o.Replay.monitor),
          Monitor.activations o.Replay.monitor,
          Monitor.passes o.Replay.monitor,
          Monitor.pending o.Replay.monitor )
      in
      if summary l <> summary i then
        failwith
          (Printf.sprintf "checker_cache %s: engines disagree on %s" level
             l.Replay.property.Property.name))
    legacy interned

(* Replay with the offline stutter fast path off: this section isolates
   the per-step engine cost (interned vs legacy rewriting), and the
   fast path would skip exactly the steps being compared — equally for
   both engines, diluting the ratio toward 1. *)
let replay_run ?engine props trace =
  let open Tabv_checker.Offline in
  List.map
    (fun (property, monitor) -> { Tabv_checker.Replay.property; monitor })
    (let module R = Run (Monitors) in
     R.over_trace (Monitors.config ?engine ~stutter:false props) trace)

let checker_cache_section ?(ops_count = 1000) ?(replicate = 8) () =
  print_endline
    "=== Checker cache: interned progression vs legacy rewriting (replay) ===";
  let ops = Workload.des56 ~seed:42 ~count:ops_count () in
  let trace_of result =
    match result.Testbench.trace with
    | Some trace -> trace
    | None -> failwith "checker_cache: testbench recorded no trace"
  in
  let levels =
    [ ( "RTL",
        trace_of (Testbench.run_des56_rtl ~record_trace:true ops),
        replicate_properties replicate Des56_props.all );
      ( "TLM-CA",
        trace_of (Testbench.run_des56_tlm_ca ~record_trace:true ops),
        replicate_properties replicate Des56_props.all );
      ( "TLM-AT",
        trace_of (Testbench.run_des56_tlm_at ~record_trace:true ops),
        replicate_properties replicate (Des56_props.tlm_auto_safe ()) ) ]
  in
  Printf.printf "%-8s %6s %9s %12s %12s %9s %9s\n" "Level" "props" "entries"
    "legacy(s)" "interned(s)" "speedup" "hit rate";
  let rows =
    List.map
      (fun (level, trace, props) ->
        (* Correctness first: both engines must agree on everything
           observable before their times are worth comparing. *)
        let legacy_outcomes =
          replay_run ~engine:`Progression_legacy props trace
        in
        let interned_outcomes = replay_run props trace in
        assert_equivalent_outcomes level legacy_outcomes interned_outcomes;
        let t_legacy =
          timed (fun () ->
            replay_run ~engine:`Progression_legacy props trace)
        in
        let before = Tabv_checker.Progression.cache_stats () in
        let t_interned = timed (fun () -> replay_run props trace) in
        let after = Tabv_checker.Progression.cache_stats () in
        let hits = after.Tabv_checker.Progression.cache_hits - before.Tabv_checker.Progression.cache_hits in
        let misses =
          after.Tabv_checker.Progression.cache_misses - before.Tabv_checker.Progression.cache_misses
          + (after.Tabv_checker.Progression.cache_bypassed - before.Tabv_checker.Progression.cache_bypassed)
        in
        let hit_rate =
          if hits + misses = 0 then 0.
          else float_of_int hits /. float_of_int (hits + misses)
        in
        let speedup = t_legacy /. t_interned in
        Printf.printf "%-8s %6d %9d %12.3f %12.3f %8.2fx %8.1f%%\n" level
          (List.length props) (Trace.length trace) t_legacy t_interned speedup
          (hit_rate *. 100.);
        (level, List.length props, Trace.length trace, t_legacy, t_interned, hit_rate))
      levels
  in
  let total_legacy = List.fold_left (fun a (_, _, _, l, _, _) -> a +. l) 0. rows in
  let total_interned =
    List.fold_left (fun a (_, _, _, _, i, _) -> a +. i) 0. rows
  in
  let overall = total_legacy /. total_interned in
  Printf.printf "%-8s %6s %9s %12.3f %12.3f %8.2fx\n\n" "overall" "" ""
    total_legacy total_interned overall;
  let stats = Tabv_checker.Progression.cache_stats () in
  let open Tabv_core.Report_json in
  let json =
    Assoc
      [ ("benchmark", String "checker_cache");
        ( "workload",
          Assoc
            [ ("des56_ops", Int ops_count);
              ("replication", Int replicate) ] );
        ( "levels",
          List
            (List.map
               (fun (level, props, entries, t_legacy, t_interned, hit_rate) ->
                 Assoc
                   [ ("level", String level);
                     ("properties", Int props);
                     ("trace_entries", Int entries);
                     ("legacy_seconds", Float t_legacy);
                     ("interned_seconds", Float t_interned);
                     ("speedup", Float (t_legacy /. t_interned));
                     ("cache_hit_rate", Float hit_rate) ])
               rows) );
        ("legacy_seconds_total", Float total_legacy);
        ("interned_seconds_total", Float total_interned);
        ("overall_speedup", Float overall);
        ( "engine_cache",
          engine_cache_json
            ~cache_hits:stats.Tabv_checker.Progression.cache_hits
            ~cache_misses:stats.Tabv_checker.Progression.cache_misses
            ~cache_bypassed:stats.Tabv_checker.Progression.cache_bypassed
            ~distinct_states:stats.Tabv_checker.Progression.distinct_states
            ~distinct_transitions:
              stats.Tabv_checker.Progression.distinct_transitions
            ~interned_formulas:stats.Tabv_checker.Progression.interned_formulas
            () ) ]
  in
  Out_channel.with_open_text "BENCH_checker_cache.json" (fun oc ->
    Out_channel.output_string oc (to_string json);
    Out_channel.output_char oc '\n');
  Printf.printf "wrote BENCH_checker_cache.json (overall speedup %.2fx)\n\n" overall;
  overall

(* --- Observability: instrumentation overhead ------------------------ *)

(* The lib/obs contract is "near-zero cost when disabled, cheap when
   enabled": push instruments behind one branch, pull probes off the
   hot path entirely.  This section measures both sides on the densest
   checker configuration (DES56 RTL, all 9 checkers) and gates the
   enabled-registry overhead: activation throughput with metrics on
   must stay within [gate_pct] of throughput with metrics off. *)

let obs_gate_pct = 5.0

let obs_overhead_section ?(ops_count = 2000) ?(repeat = 7) () =
  print_endline
    "=== Observability: metrics-registry overhead (DES56 RTL, all 9 checkers) ===";
  let ops = Workload.des56 ~seed:42 ~count:ops_count () in
  let run_disabled () =
    Testbench.run_des56_rtl ~properties:Des56_props.all ops
  in
  let run_enabled () =
    (* A fresh registry per run: every attach appends pull probes, so
       reusing one registry across timed runs would make later runs
       snapshot ever-longer probe lists. *)
    let metrics = Tabv_obs.Metrics.create ~enabled:true () in
    Testbench.run_des56_rtl ~metrics ~properties:Des56_props.all ops
  in
  let t_disabled = timed ~repeat run_disabled in
  let t_enabled = timed ~repeat run_enabled in
  let reference = run_disabled () in
  let activations = reference.Testbench.kernel_activations in
  let throughput seconds = float_of_int activations /. seconds in
  let thr_disabled = throughput t_disabled in
  let thr_enabled = throughput t_enabled in
  let overhead_pct = (t_enabled -. t_disabled) /. t_disabled *. 100. in
  Printf.printf "metrics disabled : %8.3f s  (%10.0f activations/s)\n" t_disabled
    thr_disabled;
  Printf.printf "metrics enabled  : %8.3f s  (%10.0f activations/s)\n" t_enabled
    thr_enabled;
  Printf.printf "overhead         : %+7.2f %%  (gate: <= %.1f%%)\n" overhead_pct
    obs_gate_pct;
  (* One enabled run supplies the registry snapshot embedded in the
     JSON artefact, so CI history records what was being counted. *)
  let enabled_result = run_enabled () in
  let open Tabv_core.Report_json in
  let json =
    Assoc
      [ ("benchmark", String "obs_overhead");
        ("schema", Int metrics_schema_version);
        ( "workload",
          Assoc [ ("des56_ops", Int ops_count); ("checkers", Int (List.length Des56_props.all)) ] );
        ("kernel_activations", Int activations);
        ("disabled_seconds", Float t_disabled);
        ("enabled_seconds", Float t_enabled);
        ("disabled_activations_per_s", Float thr_disabled);
        ("enabled_activations_per_s", Float thr_enabled);
        ("overhead_pct", Float overhead_pct);
        ("gate_pct", Float obs_gate_pct);
        ("metrics", metrics_snapshot_json enabled_result.Testbench.metrics) ]
  in
  Out_channel.with_open_text "BENCH_obs_overhead.json" (fun oc ->
    Out_channel.output_string oc (to_string json);
    Out_channel.output_char oc '\n');
  Printf.printf "wrote BENCH_obs_overhead.json (overhead %+.2f%%)\n\n" overhead_pct;
  overhead_pct

(* --- Extension: the third IP ---------------------------------------- *)

let memctrl_section count =
  print_endline "=== Extension: MemCtrl (third IP, asymmetric latencies) ===";
  Printf.printf "%-14s %12s %12s %10s\n" "Abstr. level" "w/out c.(s)" "with c.(s)"
    "Overhead%";
  let ops = Workload.memctrl ~seed:42 ~count () in
  let row name run props =
    let base = timed (fun () -> run []) in
    let with_c = timed (fun () -> run props) in
    Printf.printf "%-14s %12.3f %12.3f %10.1f\n" name base with_c
      ((with_c -. base) /. base *. 100.)
  in
  row "RTL All C"
    (fun properties -> Memctrl_testbench.run_rtl ~properties ops)
    Memctrl_props.all;
  row "TLM-CA All C"
    (fun properties -> Memctrl_testbench.run_tlm_ca ~properties ops)
    Memctrl_props.all;
  row "TLM-AT All C"
    (fun properties -> Memctrl_testbench.run_tlm_at ~properties ops)
    (Memctrl_props.tlm_auto_safe ());
  print_newline ()

(* --- Campaign: multicore scaling ------------------------------------ *)

(* The campaign runner's contract is (a) determinism — byte-identical
   report JSON for any worker count — and (b) scaling — embarrassingly
   parallel jobs should speed up near-linearly with workers.  This
   section times the same job matrix on 1 and 4 worker domains, checks
   the two deterministic reports byte for byte, and gates the speedup.
   On machines without at least 4 recommended domains the measurement
   would be noise, so the CI entry point skips (recording why). *)

let campaign_gate = 2.0
let campaign_workers = 4

let campaign_section ?(ops = 300) ?(repeat = 3) () =
  print_endline "=== Campaign: multicore scaling (1 vs 4 worker domains) ===";
  let open Tabv_campaign.Campaign in
  let jobs =
    expand_matrix
      ~duvs:[ Des56; Colorconv; Memctrl ]
      ~levels:[ Rtl; Tlm_ca; Tlm_at ]
      ~seeds:[ 1; 2 ] ~ops ()
  in
  let report workers =
    Tabv_core.Report_json.to_string
      (report_json (run ~workers jobs))
  in
  let r1 = report 1 in
  let r4 = report campaign_workers in
  let identical = String.equal r1 r4 in
  let t1 = timed ~repeat (fun () -> run ~workers:1 jobs) in
  let t4 = timed ~repeat (fun () -> run ~workers:campaign_workers jobs) in
  let speedup = t1 /. t4 in
  Printf.printf "jobs             : %d (ops=%d each)\n" (List.length jobs) ops;
  Printf.printf "1 worker         : %8.3f s\n" t1;
  Printf.printf "%d workers        : %8.3f s\n" campaign_workers t4;
  Printf.printf "speedup          : %8.2fx  (gate: >= %.1fx)\n" speedup campaign_gate;
  Printf.printf "report identical : %b\n" identical;
  let open Tabv_core.Report_json in
  let json =
    Assoc
      [ ("benchmark", String "campaign_scaling");
        ("skipped", Bool false);
        ("jobs", Int (List.length jobs));
        ("ops_per_job", Int ops);
        ("workers", Int campaign_workers);
        ("seconds_1_worker", Float t1);
        ("seconds_n_workers", Float t4);
        ("speedup", Float speedup);
        ("gate", Float campaign_gate);
        ("report_identical", Bool identical) ]
  in
  Out_channel.with_open_text "BENCH_campaign_scaling.json" (fun oc ->
    Out_channel.output_string oc (to_string json);
    Out_channel.output_char oc '\n');
  Printf.printf "wrote BENCH_campaign_scaling.json (speedup %.2fx)\n\n" speedup;
  (speedup, identical)

let campaign_skip () =
  let available = Domain.recommended_domain_count () in
  Printf.printf
    "=== Campaign: multicore scaling — SKIPPED (%d recommended domain(s) < %d) ===\n\n"
    available campaign_workers;
  let open Tabv_core.Report_json in
  let json =
    Assoc
      [ ("benchmark", String "campaign_scaling");
        ("skipped", Bool true);
        ("reason",
         String
           (Printf.sprintf "recommended_domain_count %d < %d" available
              campaign_workers));
        ("workers", Int campaign_workers);
        ("gate", Float campaign_gate) ]
  in
  Out_channel.with_open_text "BENCH_campaign_scaling.json" (fun oc ->
    Out_channel.output_string oc (to_string json);
    Out_channel.output_char oc '\n')

(* --- Subprocess isolation: overhead over in-domain workers --------- *)

(* The subprocess executor buys crash containment (a SIGSEGV, OOM kill
   or livelock in one job cannot take down the coordinator) at the
   price of forked workers and a length-prefixed JSON wire.  Workers
   are long-lived — one fork per worker slot, not per job — so the
   price must stay a bounded multiple of the in-domain pool on a
   healthy (crash-free) matrix.  This section times the same job
   matrix on both executors with the same worker count, checks the two
   reports byte for byte (the determinism contract spans executors),
   and gates the ratio. *)

let isolate_gate = 1.5
let isolate_workers = 2

let isolate_section ?(ops = 150) ?(repeat = 3) () =
  print_endline
    "=== Isolation: subprocess executor overhead (vs in-domain, 2 workers) ===";
  let open Tabv_campaign in
  let open Tabv_campaign.Campaign in
  let jobs =
    expand_matrix
      ~duvs:[ Des56; Colorconv ]
      ~levels:[ Rtl; Tlm_ca; Tlm_at ]
      ~seeds:[ 1; 2 ] ~ops ()
  in
  let exec_in = Executor.config Executor.In_domain in
  let exec_sub = Executor.config Executor.Subprocess in
  let report exec =
    Tabv_core.Report_json.to_string
      (report_json (run ~workers:isolate_workers ~exec jobs))
  in
  let identical = String.equal (report exec_in) (report exec_sub) in
  let t_in =
    timed ~repeat (fun () -> run ~workers:isolate_workers ~exec:exec_in jobs)
  in
  let t_sub =
    timed ~repeat (fun () -> run ~workers:isolate_workers ~exec:exec_sub jobs)
  in
  let ratio = t_sub /. t_in in
  Printf.printf "jobs             : %d (ops=%d each)\n" (List.length jobs) ops;
  Printf.printf "in-domain        : %8.3f s\n" t_in;
  Printf.printf "subprocess       : %8.3f s\n" t_sub;
  Printf.printf "ratio            : %8.2fx  (gate: <= %.1fx)\n" ratio isolate_gate;
  Printf.printf "report identical : %b\n" identical;
  let open Tabv_core.Report_json in
  let json =
    Assoc
      [ ("benchmark", String "isolate_overhead");
        ("jobs", Int (List.length jobs));
        ("ops_per_job", Int ops);
        ("workers", Int isolate_workers);
        ("seconds_in_domain", Float t_in);
        ("seconds_subprocess", Float t_sub);
        ("ratio", Float ratio);
        ("gate", Float isolate_gate);
        ("report_identical", Bool identical) ]
  in
  Out_channel.with_open_text "BENCH_isolate_overhead.json" (fun oc ->
    Out_channel.output_string oc (to_string json);
    Out_channel.output_char oc '\n');
  Printf.printf "wrote BENCH_isolate_overhead.json (ratio %.2fx)\n\n" ratio;
  (ratio, identical)

(* --- Trace capture: record once, recheck many ----------------------- *)

(* The simulate-once / check-many contract behind [tabv record] /
   [tabv recheck]: replaying a property set against the recorded
   binary trace must beat re-simulating the model with live checkers
   by a wide margin (the simulator, not the checkers, dominates a
   live run), and the compact binary encoding must stay a small
   fraction of the equivalent VCD.  This section records one
   des56-rtl run, times live check vs offline recheck on a
   ten-property handshake-invariant set, compares the two verdict
   reports byte for byte and gates both the speedup and the size
   ratio. *)

let trace_gate_speedup = 5.0
let trace_gate_size_pct = 20.0

(* The gate's 10-property set: boolean handshake invariants over the
   DES56 interface, the bread-and-butter regression properties a
   recheck campaign sweeps after every abstraction tweak.  Invariants
   keep the checker cost roughly proportional on both sides, so the
   ratio measures what the trace subsystem actually saves: replaying a
   stored valuation stream (plus the offline stutter fast path) versus
   re-running the RTL simulation. *)
let trace_gate_props =
  List.init 10 (fun i ->
      Parser.property_exn
        ~name:(Printf.sprintf "trace_inv_%d" i)
        (match i mod 5 with
        | 0 -> "always (!rdy || !rdy_next_cycle) @clk_pos"
        | 1 -> "always (!ds || !rdy) @clk_pos"
        | 2 -> "always (!(ds && indata = 0) || !rdy) @clk_pos"
        | 3 -> "always (!rdy_next_next_cycle || !rdy) @clk_pos"
        | _ -> "always (!decrypt || !rdy_next_cycle) @clk_pos"))

let trace_section ?(ops_count = 2000) ?(repeat = 5) () =
  print_endline
    "=== Trace: offline recheck vs live re-simulation (des56-rtl) ===";
  let ops = Workload.des56 ~seed:42 ~count:ops_count () in
  let props = trace_gate_props in
  let trace_path = Filename.temp_file "tabv_bench" ".trace" in
  let vcd_path = Filename.temp_file "tabv_bench" ".vcd" in
  let meta =
    Tabv_trace.Meta.
      { model = "des56-rtl";
        seed = 42;
        ops = ops_count;
        engine = Tabv_sim.Kernel.(engine_name (get_default_engine ())) }
  in
  (* Each measured run starts from a cold checker universe so neither
     side inherits the other's warm transition cache. *)
  (* Six idle cycles between operations: a bus master that issues
     back-to-back with zero think time is the unrealistic extreme, and
     idle cycles are exactly where the trace subsystem earns its keep
     (a stuttered sample is two bytes on disk and a counter bump on
     replay, but a full simulated cycle plus checker steps live). *)
  let gap_cycles = 8 in
  let live () =
    Tabv_checker.Progression.reset_universe ();
    Testbench.run_des56_rtl ~gap_cycles ~properties:props ops
  in
  (* One recording pass: the binary trace via the writer tap, the VCD
     via the legacy in-memory trace. *)
  let recorded =
    Tabv_trace.Writer.with_file ~path:trace_path meta (fun w ->
        Tabv_checker.Progression.reset_universe ();
        Testbench.run_des56_rtl ~gap_cycles ~properties:props
          ~record_trace:true ~trace_writer:w ops)
  in
  (match recorded.Testbench.trace with
  | Some trace -> Tabv_sim.Trace_dump.to_file trace vcd_path
  | None -> failwith "trace bench: testbench recorded no trace");
  let recheck () =
    Tabv_campaign.Recheck.run ~workers:1 ~retries:0 ~trace:trace_path props
  in
  (* What [tabv record] adds to [tabv check]: the same run with only
     the writer attached (no in-memory trace), to a file of its own. *)
  let record_path = Filename.temp_file "tabv_bench" ".trace" in
  let record () =
    Tabv_trace.Writer.with_file ~path:record_path meta (fun w ->
        Tabv_checker.Progression.reset_universe ();
        Testbench.run_des56_rtl ~gap_cycles ~properties:props ~trace_writer:w
          ops)
  in
  let live_report =
    let open Tabv_core.Report_json in
    to_string
      (verdict_report_json
         ~run:
           [ ("model", String meta.Tabv_trace.Meta.model);
             ("seed", Int meta.Tabv_trace.Meta.seed);
             ("ops", Int meta.Tabv_trace.Meta.ops) ]
         ~properties:(live ()).Testbench.checker_stats ())
  in
  let recheck_report =
    Tabv_core.Report_json.to_string
      (Tabv_campaign.Recheck.report_json (recheck ()))
  in
  let identical = String.equal live_report recheck_report in
  let t_live = timed ~repeat live in
  let t_recheck = timed ~repeat recheck in
  let t_record = timed ~repeat record in
  let speedup = t_live /. t_recheck in
  let record_overhead_pct = 100.0 *. (t_record -. t_live) /. t_live in
  let trace_bytes = (Unix.stat trace_path).Unix.st_size in
  let vcd_bytes = (Unix.stat vcd_path).Unix.st_size in
  let size_pct = 100.0 *. float_of_int trace_bytes /. float_of_int vcd_bytes in
  Sys.remove trace_path;
  Sys.remove record_path;
  Sys.remove vcd_path;
  Printf.printf "properties       : %d\n" (List.length props);
  Printf.printf "ops              : %d\n" ops_count;
  Printf.printf "live check       : %8.3f s\n" t_live;
  Printf.printf "offline recheck  : %8.3f s\n" t_recheck;
  Printf.printf "speedup          : %8.2fx  (gate: >= %.1fx)\n" speedup
    trace_gate_speedup;
  Printf.printf "record (writer)  : %8.3f s\n" t_record;
  Printf.printf "record overhead  : %8.1f%%  (recorded, not gated)\n"
    record_overhead_pct;
  Printf.printf "trace size       : %8d B\n" trace_bytes;
  Printf.printf "vcd size         : %8d B\n" vcd_bytes;
  Printf.printf "trace/vcd        : %8.2f%%  (gate: <= %.0f%%)\n" size_pct
    trace_gate_size_pct;
  Printf.printf "report identical : %b\n" identical;
  let open Tabv_core.Report_json in
  let json =
    Assoc
      [ ("benchmark", String "trace_recheck");
        ("properties", Int (List.length props));
        ("ops", Int ops_count);
        ("seconds_live_check", Float t_live);
        ("seconds_recheck", Float t_recheck);
        ("speedup", Float speedup);
        ("seconds_record", Float t_record);
        ("record_overhead_pct", Float record_overhead_pct);
        ("trace_bytes", Int trace_bytes);
        ("vcd_bytes", Int vcd_bytes);
        ("trace_vcd_pct", Float size_pct);
        ("gate_speedup", Float trace_gate_speedup);
        ("gate_size_pct", Float trace_gate_size_pct);
        ("report_identical", Bool identical) ]
  in
  Out_channel.with_open_text "BENCH_trace_recheck.json" (fun oc ->
    Out_channel.output_string oc (to_string json);
    Out_channel.output_char oc '\n');
  Printf.printf
    "wrote BENCH_trace_recheck.json (speedup %.2fx, %.1f%% of VCD)\n\n" speedup
    size_pct;
  (speedup, size_pct, identical)

(* --- Fault subsystem: armed-but-idle overhead ----------------------- *)

(* The fault subsystem's contract is "free when unused": the Signal /
   Tlm interposition hooks, the watchdog checks and the crash
   containment must not tax fault-free runs.  This section measures
   the worst case short of an actual injection — a latent saboteur
   installed on the output signal plus the qualification guard
   (delta-cycle cap + crash containment) — against the plain run, on
   the densest checker configuration, and gates the slowdown at
   [fault_gate_pct].  The latent plan must also leave the run
   bit-identical (same outputs, zero triggers, Completed). *)

let fault_gate_pct = 2.0

let fault_overhead_section ?(ops_count = 2000) ?(repeat = 9) () =
  print_endline
    "=== Fault injection: armed-but-idle overhead (DES56 RTL, all 9 checkers) ===";
  let ops = Workload.des56 ~seed:42 ~count:ops_count () in
  let latent_plan =
    match Duv_fault.plan_for Duv_fault.Des56 Duv_fault.Rtl "out_stuck0_late" with
    | Some plan -> plan
    | None -> failwith "out_stuck0_late has no RTL carrier"
  in
  let guard =
    { Tabv_sim.Kernel.max_delta_cycles = Some 10_000;
      max_steps = None;
      contain_crashes = true }
  in
  let run_plain () = Testbench.run_des56_rtl ~properties:Des56_props.all ops in
  let run_armed () =
    Testbench.run_des56_rtl ~properties:Des56_props.all
      ~fault_plan:latent_plan ~guard ops
  in
  let reference = run_plain () in
  let armed = run_armed () in
  let unperturbed =
    armed.Testbench.outputs = reference.Testbench.outputs
    && armed.Testbench.faults_triggered = 0
    && armed.Testbench.diagnosis = Tabv_sim.Kernel.Completed
    && Testbench.total_failures armed = 0
  in
  let t_plain = timed ~repeat run_plain in
  let t_armed = timed ~repeat run_armed in
  let overhead_pct = (t_armed -. t_plain) /. t_plain *. 100. in
  Printf.printf "plain run        : %8.3f s\n" t_plain;
  Printf.printf "latent plan+guard: %8.3f s\n" t_armed;
  Printf.printf "overhead         : %+7.2f %%  (gate: <= %.1f%%)\n" overhead_pct
    fault_gate_pct;
  Printf.printf "run unperturbed  : %b\n" unperturbed;
  let open Tabv_core.Report_json in
  let json =
    Assoc
      [ ("benchmark", String "fault_overhead");
        ( "workload",
          Assoc
            [ ("des56_ops", Int ops_count);
              ("checkers", Int (List.length Des56_props.all)) ] );
        ("latent_plan", String "out_stuck0_late");
        ("guard_delta_cap", Int 10_000);
        ("plain_seconds", Float t_plain);
        ("armed_seconds", Float t_armed);
        ("overhead_pct", Float overhead_pct);
        ("gate_pct", Float fault_gate_pct);
        ("unperturbed", Bool unperturbed) ]
  in
  Out_channel.with_open_text "BENCH_fault_overhead.json" (fun oc ->
    Out_channel.output_string oc (to_string json);
    Out_channel.output_char oc '\n');
  Printf.printf "wrote BENCH_fault_overhead.json (overhead %+.2f%%)\n\n"
    overhead_pct;
  (overhead_pct, unperturbed)

(* --- Compiled scheduler: static schedule vs dynamic reference ------- *)

(* The compiled engine replaces the dynamic kernel's queue-of-closures
   scheduling (a heap cell per scheduled action, a closure allocation
   per signal update, a [List.rev] per event fire and per update
   phase) with levelized vector queues over a dense signal arena.  Two
   gates:

   - identity: the cache-bench workload (DES56 seed 42, all nine
     checkers, full metrics) must produce byte-identical observability
     documents on both engines — the refactor's correctness contract;
   - speed: a scheduling-dense netlist — hundreds of clocked processes
     with trivial bodies, so event fan-out and dispatch are the whole
     cost — must run at least [sched_gate]x faster compiled than
     classic.  The classic path pays a [List.rev] cons plus a queue
     cell per subscriber per fire and a closure per update request;
     the compiled path pushes one fused activation block per fire into
     a preallocated vector.  A register-toggle variant (every process
     also drives signals, whose update semantics cost the same on both
     engines) and the des56-rtl end-to-end run are recorded for
     context, not gated. *)

let sched_gate = 3.0

let sched_netlist kernel ~procs ~writes =
  let open Tabv_sim in
  let el = Elab.create kernel in
  let clock = Clock.create kernel ~name:"clk" ~period:10 () in
  for p = 0 to procs - 1 do
    let mine =
      Array.init writes (fun w -> Elab.signal_bool el (Printf.sprintf "o_%d_%d" p w))
    in
    let packs = Array.to_list (Array.map (fun s -> Elab.Pack s) mine) in
    (* [writes = 0] leaves the body trivial: the run is pure event
       fan-out and process dispatch, the machinery under test. *)
    Elab.process el ~name:(Printf.sprintf "reg%d" p) ~pos:__POS__
      ~initialize:false
      ~sensitivity:[ Clock.posedge clock ]
      ~reads:packs ~writes:packs
      (fun () ->
        for w = 0 to writes - 1 do
          Signal.write mine.(w) (not (Signal.read mine.(w)))
        done)
  done;
  el

let sched_run engine ~procs ~writes ~cycles =
  let open Tabv_sim in
  let kernel = Kernel.create ~engine () in
  ignore (sched_netlist kernel ~procs ~writes);
  ignore (Kernel.run ~until:(cycles * 10) kernel);
  ( Kernel.activation_count kernel,
    Kernel.delta_count kernel,
    Kernel.update_action_count kernel,
    Kernel.now kernel )

let sched_section ?(procs = 512) ?(writes = 4) ?(cycles = 2_000) ?(ops_count = 1000)
    () =
  let open Tabv_sim in
  print_endline "=== Compiled scheduler: levelized static schedule vs classic ===";
  (* Correctness before speed: identical counters on both synthetic
     netlists, byte-identical metrics documents on the cache-bench
     workload. *)
  List.iter
    (fun writes ->
      let counters_classic = sched_run Kernel.Classic ~procs ~writes ~cycles in
      let counters_compiled = sched_run Kernel.Compiled ~procs ~writes ~cycles in
      if counters_classic <> counters_compiled then
        failwith "sched: engines disagree on kernel counters")
    [ 0; writes ];
  let ops = Workload.des56 ~seed:42 ~count:ops_count () in
  let cache_doc engine =
    Tabv_checker.Progression.reset_universe ();
    let metrics = Tabv_obs.Metrics.create ~enabled:true () in
    Tabv_core.Report_json.to_string
      (Testbench.metrics_json
         (Testbench.run_des56_rtl ~metrics ~sim_engine:engine
            ~properties:Des56_props.all ops))
  in
  let identical = cache_doc Kernel.Classic = cache_doc Kernel.Compiled in
  if not identical then
    failwith "sched: cache-bench metrics documents differ between engines";
  let t_classic =
    timed (fun () -> sched_run Kernel.Classic ~procs ~writes:0 ~cycles)
  in
  let t_compiled =
    timed (fun () -> sched_run Kernel.Compiled ~procs ~writes:0 ~cycles)
  in
  let speedup = t_classic /. t_compiled in
  let t_reg_classic =
    timed (fun () -> sched_run Kernel.Classic ~procs ~writes ~cycles)
  in
  let t_reg_compiled =
    timed (fun () -> sched_run Kernel.Compiled ~procs ~writes ~cycles)
  in
  let reg_ratio = t_reg_classic /. t_reg_compiled in
  let t_duv_classic =
    timed (fun () -> Testbench.run_des56_rtl ~sim_engine:Kernel.Classic ops)
  in
  let t_duv_compiled =
    timed (fun () -> Testbench.run_des56_rtl ~sim_engine:Kernel.Compiled ops)
  in
  let duv_ratio = t_duv_classic /. t_duv_compiled in
  Printf.printf
    "fan-out netlist (%d procs, %d cycles): classic %.3fs, compiled %.3fs, \
     speedup %.2fx\n"
    procs cycles t_classic t_compiled speedup;
  Printf.printf
    "register netlist (%d procs x %d signals, signal-bound, not gated): \
     classic %.3fs, compiled %.3fs, ratio %.2fx\n"
    procs writes t_reg_classic t_reg_compiled reg_ratio;
  Printf.printf
    "des56-rtl end-to-end (%d ops, body-bound, not gated): classic %.3fs, \
     compiled %.3fs, ratio %.2fx\n"
    ops_count t_duv_classic t_duv_compiled duv_ratio;
  Printf.printf "metrics documents byte-identical across engines: %b\n" identical;
  let open Tabv_core.Report_json in
  let json =
    Assoc
      [ ("benchmark", String "sched_speedup");
        ( "fanout_netlist",
          Assoc
            [ ("processes", Int procs);
              ("cycles", Int cycles);
              ("classic_seconds", Float t_classic);
              ("compiled_seconds", Float t_compiled);
              ("speedup", Float speedup) ] );
        ( "register_netlist",
          Assoc
            [ ("processes", Int procs);
              ("writes_per_process", Int writes);
              ("cycles", Int cycles);
              ("classic_seconds", Float t_reg_classic);
              ("compiled_seconds", Float t_reg_compiled);
              ("speedup", Float reg_ratio) ] );
        ( "cache_bench",
          Assoc
            [ ("des56_ops", Int ops_count);
              ("metrics_byte_identical", Bool identical);
              ("classic_seconds", Float t_duv_classic);
              ("compiled_seconds", Float t_duv_compiled);
              ("speedup", Float duv_ratio) ] );
        ("gate", Float sched_gate) ]
  in
  Out_channel.with_open_text "BENCH_sched_speedup.json" (fun oc ->
    Out_channel.output_string oc (to_string json);
    Out_channel.output_char oc '\n');
  Printf.printf "wrote BENCH_sched_speedup.json (fan-out netlist speedup %.2fx)\n\n"
    speedup;
  (speedup, identical)

(* --- Bechamel micro-benchmarks ------------------------------------ *)

let bechamel_section () =
  print_endline "=== Bechamel micro-benchmarks (small fixed workloads) ===";
  let open Bechamel in
  let des_ops = Workload.des56 ~seed:11 ~count:40 () in
  let cc_bursts = Workload.colorconv ~seed:11 ~count:200 () in
  let stage f = Staged.stage (fun () -> ignore (f ())) in
  let table1_des56 =
    Test.make_grouped ~name:"table1_des56"
      [ Test.make ~name:"rtl_0c" (stage (fun () -> Testbench.run_des56_rtl des_ops));
        Test.make ~name:"rtl_all_c"
          (stage (fun () -> Testbench.run_des56_rtl ~properties:Des56_props.all des_ops));
        Test.make ~name:"tlm_ca_0c" (stage (fun () -> Testbench.run_des56_tlm_ca des_ops));
        Test.make ~name:"tlm_ca_all_c"
          (stage (fun () ->
             Testbench.run_des56_tlm_ca ~properties:Des56_props.all des_ops));
        Test.make ~name:"tlm_at_0c" (stage (fun () -> Testbench.run_des56_tlm_at des_ops));
        Test.make ~name:"tlm_at_all_c"
          (stage (fun () ->
             Testbench.run_des56_tlm_at ~properties:(Des56_props.tlm_reviewed ()) des_ops)) ]
  in
  let table1_colorconv =
    Test.make_grouped ~name:"table1_colorconv"
      [ Test.make ~name:"rtl_0c" (stage (fun () -> Testbench.run_colorconv_rtl cc_bursts));
        Test.make ~name:"rtl_all_c"
          (stage (fun () ->
             Testbench.run_colorconv_rtl ~properties:Colorconv_props.all cc_bursts));
        Test.make ~name:"tlm_ca_all_c"
          (stage (fun () ->
             Testbench.run_colorconv_tlm_ca ~properties:Colorconv_props.all cc_bursts));
        Test.make ~name:"tlm_at_all_c"
          (stage (fun () ->
             Testbench.run_colorconv_tlm_at
               ~properties:(Colorconv_props.tlm_reviewed ()) cc_bursts)) ]
  in
  let fig3_bench =
    Test.make_grouped ~name:"fig3_abstraction"
      [ Test.make ~name:"des56_9_properties"
          (stage (fun () -> Des56_props.abstraction_reports ()));
        Test.make ~name:"colorconv_12_properties"
          (stage (fun () -> Colorconv_props.abstraction_reports ())) ]
  in
  let fig6_bench =
    Test.make_grouped ~name:"fig6_speedup_inputs"
      [ Test.make ~name:"des56_rtl" (stage (fun () -> Testbench.run_des56_rtl des_ops));
        Test.make ~name:"des56_tlm_at"
          (stage (fun () -> Testbench.run_des56_tlm_at des_ops)) ]
  in
  let grouped =
    Test.make_grouped ~name:"tabv"
      [ table1_des56; table1_colorconv; fig3_bench; fig6_bench ]
  in
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some (estimate :: _) ->
        Printf.printf "  %-45s %12.3f ms/run\n" name (estimate /. 1e6)
      | Some [] | None -> Printf.printf "  %-45s (no estimate)\n" name)
    rows;
  print_newline ()

(* --- verification service (tabv serve) ---------------------------- *)

(* Throughput and warm-reuse of the daemon under concurrent load:
   [serve_clients] client threads drive one in-process daemon over its
   Unix socket through three phases — cold checks (every request
   executes), the identical checks again (every request is a warm
   cache replay), and a mixed check/recheck round.  Gates: a floor on
   sustained requests/sec, warm >= [serve_warm_gate]x faster than
   cold, and every response byte-identical to the one-shot report
   computed in this process. *)

let serve_clients = 8
let serve_rps_floor = 5.0
let serve_warm_gate = 2.0

let serve_section ~ops () =
  let open Tabv_serve in
  Printf.printf
    "## verification service: %d concurrent clients over one daemon\n\n"
    serve_clients;
  let dir = Filename.temp_file "tabv_bench_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "s.sock" in
  let trace_path = Filename.concat dir "bench.trace" in
  let workers = max 2 (min 4 (Domain.recommended_domain_count ())) in
  let config =
    { (Server.default_config ~socket ()) with workers; queue_bound = 256 }
  in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        ignore
          (Server.run ~on_ready:(fun () -> Atomic.set ready true) config))
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.002
  done;
  let check_job seed =
    Protocol.Check
      { model = Models.Des56_rtl; seed; ops; props = None; engine = None;
        trace_out = None }
  in
  (* The one-shot reference bytes: fresh universe, same model run,
     same rendering — what `tabv check --report-json` would write. *)
  let expected seed =
    Tabv_checker.Progression.reset_universe ();
    let properties, grid_properties =
      Models.properties_for Models.Des56_rtl None
    in
    let result =
      Models.run Models.Des56_rtl ~seed ~ops ~properties ~grid_properties
    in
    Tabv_core.Report_json.to_string
      (Models.verdict_report Models.Des56_rtl ~seed ~ops result)
    ^ "\n"
  in
  let identical = Atomic.make true in
  let note_mismatch () = Atomic.set identical false in
  let connect () =
    match Client.connect (`Unix socket) with
    | Ok c -> c
    | Error e -> failwith e
  in
  let recheck_expected = expected 42 in
  (* Record once so the mixed phase has a trace to recheck; the record
     request's own report must already match the live check's. *)
  let ctl = connect () in
  (match
     Client.request ctl
       (Protocol.Check
          { model = Models.Des56_rtl; seed = 42; ops; props = None;
            engine = None; trace_out = Some trace_path })
   with
   | Client.Result { ok = true; report; _ } ->
     if report <> recheck_expected then note_mismatch ()
   | _ -> failwith "record request failed");
  (* One phase: every client thread opens its own connection and
     drains its request list; wall time covers all of them. *)
  let run_phase jobs_for =
    let t0 = Unix.gettimeofday () in
    let threads =
      List.init serve_clients (fun c ->
          Thread.create
            (fun () ->
              let client = connect () in
              Fun.protect
                ~finally:(fun () -> Client.close client)
                (fun () ->
                  List.iter
                    (fun (job, check_report) ->
                      match Client.request_with_retry client job with
                      | Client.Result { report; _ } -> check_report report
                      | Client.Rejected _ | Client.Failed _ ->
                        note_mismatch ())
                    (jobs_for c)))
            ())
    in
    List.iter Thread.join threads;
    Unix.gettimeofday () -. t0
  in
  let seeds c = [ 1000 + (2 * c); 1001 + (2 * c) ] in
  let expected_tbl = Hashtbl.create 32 in
  List.iter
    (fun c ->
      List.iter (fun s -> Hashtbl.replace expected_tbl s (expected s)) (seeds c))
    (List.init serve_clients Fun.id);
  let expect_seed s report =
    if report <> Hashtbl.find expected_tbl s then note_mismatch ()
  in
  let check_phase () =
    run_phase (fun c ->
        List.map (fun s -> (check_job s, expect_seed s)) (seeds c))
  in
  let t_cold = check_phase () in
  let t_warm = check_phase () in
  let t_mixed =
    run_phase (fun c ->
        let s = 1000 + (2 * c) in
        [ (check_job s, expect_seed s);
          ( Protocol.Recheck
              { trace = trace_path; props = None; workers = 1; retries = 1 },
            fun report ->
              if report <> recheck_expected then note_mismatch () ) ])
  in
  (match Client.control ctl Protocol.Shutdown with
   | Client.Shutting_down -> ()
   | _ -> note_mismatch ());
  Client.close ctl;
  Domain.join server;
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  let requests = (serve_clients * 2 * 3) + 1 in
  let wall = t_cold +. t_warm +. t_mixed in
  let rps = float_of_int requests /. wall in
  let warm_speedup = t_cold /. Float.max t_warm 1e-6 in
  Printf.printf "daemon           : %d in-domain workers, %d ops/check\n"
    workers ops;
  Printf.printf "cold checks      : %8.4f s  (%d requests)\n" t_cold
    (serve_clients * 2);
  Printf.printf "warm replays     : %8.4f s  (same requests, cache hits)\n"
    t_warm;
  Printf.printf "mixed round      : %8.4f s  (warm checks + rechecks)\n"
    t_mixed;
  Printf.printf "throughput       : %8.2f req/s  (floor: >= %.1f)\n" rps
    serve_rps_floor;
  Printf.printf "warm speedup     : %8.2fx  (gate: >= %.1fx)\n" warm_speedup
    serve_warm_gate;
  Printf.printf "byte-identical   : %s\n"
    (if Atomic.get identical then "yes" else "NO");
  let open Tabv_core.Report_json in
  let json =
    Assoc
      [ ("clients", Int serve_clients);
        ("workers", Int workers);
        ("ops", Int ops);
        ("requests", Int requests);
        ("wall_s", Float wall);
        ("cold_s", Float t_cold);
        ("warm_s", Float t_warm);
        ("mixed_s", Float t_mixed);
        ("requests_per_s", Float rps);
        ("rps_floor", Float serve_rps_floor);
        ("warm_speedup", Float warm_speedup);
        ("warm_gate", Float serve_warm_gate);
        ("identical", Bool (Atomic.get identical)) ]
  in
  Out_channel.with_open_text "BENCH_serve_throughput.json" (fun oc ->
    Out_channel.output_string oc (to_string json);
    Out_channel.output_char oc '\n');
  Printf.printf
    "wrote BENCH_serve_throughput.json (%.2f req/s, warm %.2fx)\n\n" rps
    warm_speedup;
  (rps, warm_speedup, Atomic.get identical)

(* --- Chaos soak: the daemon under wire-level fault injection -------- *)

(* Survival gate for the serving stack.  [chaos_clients] client threads
   hammer one daemon through seeded {!Tabv_fault.Fault.Net} plans
   installed on their own outbound sockets — torn frames, truncated and
   corrupted length prefixes, slow-loris dribble, mid-request resets,
   duplicated frames, handshake garbage — reconnecting and retrying
   around every injected failure, while a fault-free control client
   pushes journaled campaigns through the same daemon.  Gates:

   - every request eventually completes and every completed report is
     byte-identical to the one-shot reference (the fault plan may cost
     retries, never answers);
   - the daemon ends drained and leak-free: no inflight keys, no
     active journals, an empty state dir, and no file descriptors
     leaked in this process;
   - the hooks are free when idle: a latent (empty-plan) interpose on
     a warm request stream costs at most [chaos_idle_gate_pct] over
     the plain path (or [chaos_idle_slack_s] absolute, whichever is
     larger), min over interleaved rounds. *)

let chaos_clients = 8
let chaos_requests = 6
let chaos_attempt_cap = 60
let chaos_idle_gate_pct = 2.0

(* Absolute slack under the percentage gate: a warm round trip bottoms
   out around 45 us, so [chaos_idle_gate_pct] of it is under a
   microsecond — below [Unix.gettimeofday]'s useful resolution and the
   socket noise floor of a shared box.  The gate exists to catch a hook
   that does real per-frame work (allocation bursts, serialization),
   which costs tens of microseconds per request; a minimum-latency diff
   under this slack is measurement noise, not a tax. *)
let chaos_idle_slack_s = 20e-6

let count_open_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

let chaos_section ~ops () =
  let open Tabv_serve in
  let module Net = Tabv_fault.Fault.Net in
  Printf.printf
    "## chaos soak: %d fault-injected clients over one daemon\n\n"
    chaos_clients;
  let fds_before = count_open_fds () in
  let metrics = Tabv_obs.Metrics.create ~enabled:true () in
  let dir = Filename.temp_file "tabv_bench_chaos" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let state = Filename.concat dir "state" in
  Unix.mkdir state 0o700;
  let socket = Filename.concat dir "s.sock" in
  let workers = max 2 (min 4 (Domain.recommended_domain_count ())) in
  let config =
    { (Server.default_config ~socket ()) with
      workers;
      queue_bound = 64;
      conn_idle_timeout_s = 2.0;
      state_dir = Some state;
      obs = Some metrics }
  in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        ignore
          (Server.run ~on_ready:(fun () -> Atomic.set ready true) config))
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.002
  done;
  (* Four distinct seeds shared by all clients: the first completion of
     each executes cold, the rest replay warm — the soak hammers the
     wire, not the simulator. *)
  let seeds = [ 3001; 3002; 3003; 3004 ] in
  let expected seed =
    Tabv_checker.Progression.reset_universe ();
    let properties, grid_properties =
      Models.properties_for Models.Des56_rtl None
    in
    let result =
      Models.run Models.Des56_rtl ~seed ~ops ~properties ~grid_properties
    in
    Tabv_core.Report_json.to_string
      (Models.verdict_report Models.Des56_rtl ~seed ~ops result)
    ^ "\n"
  in
  let expected_tbl = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace expected_tbl s (expected s)) seeds;
  let check_job seed =
    Protocol.Check
      { model = Models.Des56_rtl; seed; ops; props = None; engine = None;
        trace_out = None }
  in
  let mismatches = Atomic.make 0 in
  let exhausted = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let reconnects = Atomic.make 0 in
  (* One armed plan per client, surviving its reconnects: the frame
     counter and trigger count span the whole soak. *)
  let armed =
    Array.init chaos_clients (fun c ->
        Net.arm (Net.generate ~seed:(900 + c) ~frames:10 ~count:8))
  in
  let chaos_thread c =
    let conn = ref None in
    let drop () =
      match !conn with
      | Some client ->
        Client.close client;
        conn := None
      | None -> ()
    in
    let rec get tries =
      match !conn with
      | Some client -> client
      | None ->
        (match Client.connect (`Unix socket) with
         | Ok client ->
           Client.interpose client (Net.apply armed.(c));
           Atomic.incr reconnects;
           conn := Some client;
           client
         | Error e ->
           if tries = 0 then failwith e;
           Thread.delay 0.01;
           get (tries - 1))
    in
    for r = 0 to chaos_requests - 1 do
      let seed = List.nth seeds ((c + r) mod List.length seeds) in
      let rec go attempt =
        if attempt > chaos_attempt_cap then Atomic.incr exhausted
        else
          match Client.request (get 500) (check_job seed) with
          | Client.Result { report; _ } ->
            Atomic.incr completed;
            if report <> Hashtbl.find expected_tbl seed then
              Atomic.incr mismatches
          | Client.Rejected _ ->
            Thread.delay 0.05;
            go (attempt + 1)
          | Client.Failed _ ->
            drop ();
            go (attempt + 1)
      in
      go 1
    done;
    drop ()
  in
  (* The control client sees no faults: its journaled campaigns must
     run to completion through whatever the chaos clients do to the
     daemon, and must leave no journal behind. *)
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
  let campaigns = 3 in
  let campaigns_ok = Atomic.make 0 in
  let control_thread () =
    match Client.connect (`Unix socket) with
    | Error e -> failwith e
    | Ok client ->
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          for _ = 1 to campaigns do
            match
              Client.request_with_retry ~attempts:30 client
                (Protocol.Campaign
                   { manifest = manifest_json; workers = 2;
                     retries = Some 1; journal = true })
            with
            | Client.Result { report; _ } when report = expected_campaign ->
              Atomic.incr campaigns_ok
            | _ -> ()
          done)
  in
  let t0 = Unix.gettimeofday () in
  let threads =
    Thread.create control_thread ()
    :: List.init chaos_clients (fun c -> Thread.create chaos_thread c)
  in
  List.iter Thread.join threads;
  let soak_s = Unix.gettimeofday () -. t0 in
  let triggered =
    Array.fold_left (fun a s -> a + Net.net_triggered s) 0 armed
  in
  let frames =
    Array.fold_left (fun a s -> a + Net.frames_sent s) 0 armed
  in
  (* Armed-but-idle overhead: two clean connections replay the same
     warm request in strict alternation — one bare, one with a latent
     empty-plan interpose installed — and the minimum single-request
     latency per arm is compared.  The min over hundreds of identical
     round trips is the scheduling-noise-free cost of the path, and a
     hook tax would be a constant add to exactly that path; burst
     totals at this scale are dominated by thread-scheduling jitter.
     The latent hook's only work is counting the frame and scanning an
     empty plan. *)
  let idle_samples = 400 in
  let warm_job = check_job (List.hd seeds) in
  let idle_client latent =
    match Client.connect (`Unix socket) with
    | Error e -> failwith e
    | Ok client ->
      if latent then
        Client.interpose client (Net.apply (Net.arm Net.no_faults));
      client
  in
  let plain_client = idle_client false in
  let latent_client = idle_client true in
  let once client =
    let t0 = Unix.gettimeofday () in
    (match Client.request client warm_job with
     | Client.Result _ -> ()
     | Client.Rejected _ | Client.Failed _ -> Atomic.incr mismatches);
    Unix.gettimeofday () -. t0
  in
  ignore (once plain_client);
  ignore (once latent_client);
  let min_plain = ref infinity and min_latent = ref infinity in
  for _ = 1 to idle_samples do
    min_plain := Float.min !min_plain (once plain_client);
    min_latent := Float.min !min_latent (once latent_client)
  done;
  let idle_diff_s = !min_latent -. !min_plain in
  let idle_overhead_pct = idle_diff_s /. !min_plain *. 100. in
  let idle_gate_ok =
    idle_overhead_pct <= chaos_idle_gate_pct || idle_diff_s <= chaos_idle_slack_s
  in
  (match Client.control plain_client Protocol.Shutdown with
   | Client.Shutting_down -> ()
   | _ -> Atomic.incr mismatches);
  Client.close plain_client;
  Client.close latent_client;
  Domain.join server;
  (* Leak audit, after the daemon has fully wound down: the probes
     still answer (they read the server's tables), the state dir must
     hold nothing, and this process must be back to its fd baseline. *)
  let gauge_after name =
    match Tabv_obs.Metrics.find metrics name with
    | Some (Tabv_obs.Metrics.Gauge n) -> n
    | _ -> -1
  in
  let inflight_after = gauge_after "serve.inflight_keys" in
  let journals_after = gauge_after "serve.active_journals" in
  let state_clean =
    match Sys.readdir state with
    | [||] -> true
    | _ -> false
  in
  Array.iter
    (fun f -> try Sys.remove (Filename.concat state f) with Sys_error _ -> ())
    (try Sys.readdir state with Sys_error _ -> [||]);
  (try Unix.rmdir state with Unix.Unix_error _ -> ());
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  let fd_leak =
    match (fds_before, count_open_fds ()) with
    | Some before, Some after -> Some (after - before)
    | _ -> None
  in
  let requests = chaos_clients * chaos_requests in
  let survived =
    Atomic.get mismatches = 0
    && Atomic.get exhausted = 0
    && Atomic.get completed = requests
    && Atomic.get campaigns_ok = campaigns
    && triggered > 0
  in
  let drained =
    inflight_after = 0 && journals_after = 0 && state_clean
  in
  Printf.printf "daemon           : %d in-domain workers, %d ops/check\n"
    workers ops;
  Printf.printf "soak             : %8.2f s  (%d requests, %d campaigns)\n"
    soak_s requests campaigns;
  Printf.printf "faults           : %d armed, %d triggered over %d frames\n"
    (Array.fold_left (fun a s -> a + Net.armed_faults s) 0 armed)
    triggered frames;
  Printf.printf "connections      : %d (incl. reconnects after resets)\n"
    (Atomic.get reconnects);
  Printf.printf "completed        : %d/%d  (mismatches %d, exhausted %d)\n"
    (Atomic.get completed) requests (Atomic.get mismatches)
    (Atomic.get exhausted);
  Printf.printf "journaled runs   : %d/%d\n" (Atomic.get campaigns_ok) campaigns;
  Printf.printf "drained          : inflight %d, journals %d, state clean %b\n"
    inflight_after journals_after state_clean;
  Printf.printf "fd leak          : %s\n"
    (match fd_leak with
     | Some n -> string_of_int n
     | None -> "unmeasurable (no /proc)");
  Printf.printf
    "idle hook cost   : %+7.2f %%  (%+.1f us on a %.0f us floor; gate: \
     <= %.1f%% or <= %.0f us)\n"
    idle_overhead_pct (idle_diff_s *. 1e6) (!min_plain *. 1e6)
    chaos_idle_gate_pct (chaos_idle_slack_s *. 1e6);
  let open Tabv_core.Report_json in
  let json =
    Assoc
      [ ("benchmark", String "serve_chaos");
        ("clients", Int chaos_clients);
        ("requests_per_client", Int chaos_requests);
        ("ops", Int ops);
        ("workers", Int workers);
        ("soak_s", Float soak_s);
        ("faults_armed",
         Int (Array.fold_left (fun a s -> a + Net.armed_faults s) 0 armed));
        ("faults_triggered", Int triggered);
        ("frames_sent", Int frames);
        ("connections", Int (Atomic.get reconnects));
        ("completed", Int (Atomic.get completed));
        ("mismatches", Int (Atomic.get mismatches));
        ("exhausted", Int (Atomic.get exhausted));
        ("journaled_campaigns_ok", Int (Atomic.get campaigns_ok));
        ("inflight_keys_after", Int inflight_after);
        ("active_journals_after", Int journals_after);
        ("state_dir_clean", Bool state_clean);
        ( "fd_leak",
          match fd_leak with Some n -> Int n | None -> Null );
        ("idle_overhead_pct", Float idle_overhead_pct);
        ("idle_min_plain_us", Float (!min_plain *. 1e6));
        ("idle_min_latent_us", Float (!min_latent *. 1e6));
        ("idle_gate_pct", Float chaos_idle_gate_pct);
        ("idle_slack_us", Float (chaos_idle_slack_s *. 1e6));
        ("idle_gate_ok", Bool idle_gate_ok);
        ("survived", Bool survived);
        ("drained", Bool drained) ]
  in
  Out_channel.with_open_text "BENCH_serve_chaos.json" (fun oc ->
    Out_channel.output_string oc (to_string json);
    Out_channel.output_char oc '\n');
  Printf.printf
    "wrote BENCH_serve_chaos.json (%d faults triggered, idle cost %+.2f%%)\n\n"
    triggered idle_overhead_pct;
  (survived, drained, fd_leak, idle_overhead_pct, idle_gate_ok)

(* --- Durability: power-cut recovery soak + IO seam overhead -------- *)

(* The byte-identity contract now rests on durable storage, so the
   storage layer gets the same treatment the wire got in the chaos
   soak: run a journaled campaign with the [Fault.Io] observer
   recording every write boundary, then simulate a power cut at each
   boundary (the journal truncated to exactly the bytes that were
   durable at that instant), resume every crash image, and require
   each resumed report byte-identical to the uninterrupted run with
   no [*.tmp] debris left anywhere.  An ENOSPC round rides along: a
   budgeted disk cuts a mid-campaign append short (a torn, CRC-failing
   record), the run surfaces an honest [Io_error], and a faultless
   resume salvages the journaled prefix and still reports identically.
   Finally the seam itself is priced: appends through the hookless
   [Tabv_core.Io] path must cost within [durability_gate_pct] of a raw
   out_channel write+fsync loop — the production tax of hookability is
   ~zero or the seam does not ship. *)

let durability_gate_pct = 2.0

let durability_section ?(ops = 60) ?(append_count = 50_000) ?(repeat = 5) () =
  print_endline
    "=== Durability: power-cut recovery soak (journaled campaign) ===";
  let open Tabv_campaign in
  let open Tabv_campaign.Campaign in
  let jobs =
    expand_matrix ~duvs:[ Des56; Colorconv ] ~levels:[ Rtl; Tlm_ca ]
      ~seeds:[ 1; 2 ] ~ops ()
  in
  let fp = fingerprint ~retries:1 jobs in
  let dir = Filename.temp_file "tabv_bench_dur" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Journal.state_path ~dir ~kind:journal_kind ~fingerprint:fp in
  let with_journal ~resume f =
    match Journal.open_ ~path ~kind:journal_kind ~fingerprint:fp ~resume () with
    | Error msg -> failwith ("durability bench: " ^ msg)
    | Ok j -> Fun.protect ~finally:(fun () -> Journal.close j) (fun () -> f j)
  in
  let report_of summary = Tabv_core.Report_json.to_string (report_json summary) in
  (* Uninterrupted run, with the observer hook enumerating the write
     boundaries a real crash could stop at. *)
  let observer = Tabv_fault.Fault.Io.arm (Tabv_fault.Fault.Io.plan ~name:"observe" ~scope:".journal" []) in
  Tabv_fault.Fault.Io.install observer;
  let expected =
    Fun.protect ~finally:Tabv_fault.Fault.Io.uninstall (fun () ->
        with_journal ~resume:false (fun journal ->
            report_of (run ~workers:2 ~journal jobs)))
  in
  let full = In_channel.with_open_bin path In_channel.input_all in
  let boundaries = Tabv_fault.Fault.Io.write_boundaries observer path in
  let header_len =
    match String.index_opt full '\n' with
    | Some i -> i + 1
    | None -> failwith "durability bench: journal has no header line"
  in
  (* Every prefix a power cut could leave: nothing, the header commit,
     and each fsynced append boundary. *)
  let cuts = 0 :: header_len :: boundaries in
  let resumes = ref 0 and mismatches = ref 0 in
  List.iter
    (fun cut ->
      let cut = min cut (String.length full) in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub full 0 cut));
      let resumed = with_journal ~resume:true (fun journal -> run ~workers:2 ~journal jobs) in
      incr resumes;
      if report_of resumed <> expected then incr mismatches)
    cuts;
  (* ENOSPC round: the disk fills mid-campaign, cutting one append
     short — a torn record the CRC framing must refuse to replay.  The
     run dies with an honest storage error; clearing the fault and
     resuming must still converge on the identical report. *)
  let enospc_ok =
    Sys.remove path;
    let budget =
      match boundaries with
      | _ :: _ ->
        (* Mid-record, halfway down the journal: a short write. *)
        List.nth boundaries (List.length boundaries / 2) + 7
      | [] -> header_len + 7
    in
    let armed =
      Tabv_fault.Fault.Io.arm
        (Tabv_fault.Fault.Io.plan ~name:"enospc" ~scope:".journal"
           [ Tabv_fault.Fault.Io.Enospc_after { bytes = budget } ])
    in
    Tabv_fault.Fault.Io.install armed;
    let died_honestly =
      Fun.protect ~finally:Tabv_fault.Fault.Io.uninstall (fun () ->
          match with_journal ~resume:false (fun journal -> run ~workers:2 ~journal jobs) with
          | _ -> false (* the budget should have been exceeded *)
          | exception Tabv_core.Io.Io_error { error = Unix.ENOSPC; _ } -> true)
    in
    let recovered =
      with_journal ~resume:true (fun journal ->
          report_of (run ~workers:2 ~journal jobs) = expected)
    in
    died_honestly && recovered
  in
  (* Debris check: no orphaned temp files anywhere in the state dir. *)
  let stale_tmp =
    Sys.readdir dir |> Array.to_list
    |> List.filter Tabv_core.Io.is_temp_path
    |> List.length
  in
  (* Passthrough price of the IO seam on the append path: framed
     buffered appends through hookless [Tabv_core.Io] vs a raw
     out_channel write+flush loop on the same bytes, one fsync at the
     end of each batch.  Per-append fsyncs would drown the seam's CPU
     cost in device-latency noise (±15% run to run, against a 2%
     gate); the hookability tax lives in [write]/[flush], which is
     what this prices. *)
  let record =
    Tabv_core.Report_json.to_string
      (Tabv_core.Report_json.Assoc
         [ ("id", Tabv_core.Report_json.Int 12);
           ("record", Tabv_core.Report_json.String (String.make 160 'r')) ])
  in
  let line = record ^ "\n" in
  let raw_path = Filename.concat dir "baseline.raw" in
  let run_raw () =
    let oc = open_out_bin raw_path in
    for _ = 1 to append_count do
      output_string oc line;
      flush oc
    done;
    Unix.fsync (Unix.descr_of_out_channel oc);
    close_out oc
  in
  let io_path = Filename.concat dir "baseline.io" in
  let run_io () =
    let io = Tabv_core.Io.create io_path in
    for _ = 1 to append_count do
      Tabv_core.Io.write io line;
      Tabv_core.Io.flush io
    done;
    Tabv_core.Io.fsync io;
    Tabv_core.Io.close io
  in
  (* Interleave the two sides within each repeat (after one warmup
     apiece) so page-cache and writeback drift hits both equally;
     min-of-repeats then cancels what remains. *)
  run_raw ();
  run_io ();
  let t_raw = ref infinity and t_io = ref infinity in
  for _ = 1 to repeat do
    Gc.major ();
    t_raw := min !t_raw (time_run run_raw);
    t_io := min !t_io (time_run run_io)
  done;
  let t_raw = !t_raw and t_io = !t_io in
  let overhead_pct = (t_io -. t_raw) /. t_raw *. 100. in
  let identical = !mismatches = 0 in
  (* Clean up the scratch directory. *)
  Array.iter
    (fun entry -> try Sys.remove (Filename.concat dir entry) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  Printf.printf "jobs                : %d (ops=%d each)\n" (List.length jobs) ops;
  Printf.printf "write boundaries    : %d (journal %d bytes)\n"
    (List.length boundaries) (String.length full);
  Printf.printf "crash images resumed: %d (mismatches: %d)\n" !resumes !mismatches;
  Printf.printf "enospc round        : %s\n" (if enospc_ok then "honest error + identical resume" else "FAILED");
  Printf.printf "stale temp files    : %d\n" stale_tmp;
  Printf.printf "append path         : raw %8.3f s, io seam %8.3f s (%+.2f%%, gate <= %.1f%%)\n"
    t_raw t_io overhead_pct durability_gate_pct;
  let open Tabv_core.Report_json in
  let json =
    Assoc
      [ ("benchmark", String "io_durability");
        ("jobs", Int (List.length jobs));
        ("ops_per_job", Int ops);
        ("journal_bytes", Int (String.length full));
        ("write_boundaries", Int (List.length boundaries));
        ("crash_images_resumed", Int !resumes);
        ("resume_mismatches", Int !mismatches);
        ("resumes_identical", Bool identical);
        ("enospc_recovered", Bool enospc_ok);
        ("stale_tmp_files", Int stale_tmp);
        ("appends_timed", Int append_count);
        ("seconds_raw_append", Float t_raw);
        ("seconds_io_append", Float t_io);
        ("append_overhead_pct", Float overhead_pct);
        ("gate_pct", Float durability_gate_pct) ]
  in
  Out_channel.with_open_text "BENCH_io_durability.json" (fun oc ->
    Out_channel.output_string oc (to_string json);
    Out_channel.output_char oc '\n');
  Printf.printf
    "wrote BENCH_io_durability.json (%d crash images, overhead %+.2f%%)\n\n"
    !resumes overhead_pct;
  (identical, stale_tmp, enospc_ok, overhead_pct)

(* --- driver ------------------------------------------------------- *)

(* Hidden subprocess-executor hook: the isolation-overhead gate runs
   campaigns on the subprocess executor with the default worker argv,
   which re-executes *this* binary with [_worker]. *)
let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "_worker" then begin
    Tabv_campaign.Worker.main ();
    exit 0
  end

let () =
  let quick = Array.exists (fun a -> a = "--quick") Sys.argv in
  let skip_bechamel = Array.exists (fun a -> a = "--no-bechamel") Sys.argv in
  let cache_only = Array.exists (fun a -> a = "--cache-only") Sys.argv in
  let obs_only = Array.exists (fun a -> a = "--obs-only") Sys.argv in
  let campaign_only = Array.exists (fun a -> a = "--campaign-only") Sys.argv in
  let isolate_only = Array.exists (fun a -> a = "--isolate-only") Sys.argv in
  let fault_only = Array.exists (fun a -> a = "--fault-only") Sys.argv in
  let sched_only = Array.exists (fun a -> a = "--sched-only") Sys.argv in
  let trace_only = Array.exists (fun a -> a = "--trace-only") Sys.argv in
  let serve_only = Array.exists (fun a -> a = "--serve-only") Sys.argv in
  let chaos_only = Array.exists (fun a -> a = "--chaos-only") Sys.argv in
  let durability_only =
    Array.exists (fun a -> a = "--durability-only") Sys.argv
  in
  let des_count = if quick then 1000 else 8000 in
  let pixel_count = if quick then 20_000 else 150_000 in
  if obs_only then begin
    (* CI entry point (bench/check.sh): only the instrumentation
       overhead measurement, with a hard ceiling on the cost of an
       enabled registry. *)
    let overhead =
      obs_overhead_section ~ops_count:(if quick then 1000 else 2000) ()
    in
    if overhead > obs_gate_pct then begin
      Printf.eprintf "FAIL: metrics-enabled overhead %.2f%% > %.1f%%\n" overhead
        obs_gate_pct;
      exit 1
    end;
    exit 0
  end;
  if campaign_only then begin
    (* CI entry point (bench/check.sh): multicore scaling of the
       campaign runner, gated on byte-identical reports and a >= 2x
       speedup at 4 workers.  Skips (exit 0, with a JSON record of
       why) on machines that cannot host 4 domains. *)
    if Domain.recommended_domain_count () < campaign_workers then begin
      campaign_skip ();
      exit 0
    end;
    let speedup, identical =
      campaign_section ~ops:(if quick then 100 else 300) ()
    in
    if not identical then begin
      Printf.eprintf
        "FAIL: campaign reports differ between 1 and %d workers\n"
        campaign_workers;
      exit 1
    end;
    if speedup < campaign_gate then begin
      Printf.eprintf "FAIL: campaign scaling %.2fx < %.1fx\n" speedup
        campaign_gate;
      exit 1
    end;
    exit 0
  end;
  if isolate_only then begin
    (* CI entry point (bench/check.sh): the price of process
       isolation — the subprocess executor must produce the same
       report bytes as the in-domain pool and cost at most
       [isolate_gate]x its wall-clock on a crash-free matrix. *)
    let ratio, identical = isolate_section ~ops:(if quick then 60 else 150) () in
    if not identical then begin
      Printf.eprintf
        "FAIL: subprocess and in-domain campaign reports differ\n";
      exit 1
    end;
    if ratio > isolate_gate then begin
      Printf.eprintf "FAIL: subprocess isolation overhead %.2fx > %.1fx\n"
        ratio isolate_gate;
      exit 1
    end;
    exit 0
  end;
  if fault_only then begin
    (* CI entry point (bench/check.sh): the fault subsystem's
       zero-cost claim — a latent plan plus the qualification guard
       must neither slow the densest run by more than the gate nor
       perturb it. *)
    let overhead, unperturbed =
      fault_overhead_section ~ops_count:(if quick then 1000 else 2000) ()
    in
    if not unperturbed then begin
      Printf.eprintf
        "FAIL: latent fault plan / guard perturbed the reference run\n";
      exit 1
    end;
    if overhead > fault_gate_pct then begin
      Printf.eprintf "FAIL: armed-but-idle fault overhead %.2f%% > %.1f%%\n"
        overhead fault_gate_pct;
      exit 1
    end;
    exit 0
  end;
  if sched_only then begin
    (* CI entry point (bench/check.sh): compiled-vs-classic on the
       scheduling-dense netlist, with a hard floor on the speedup and
       byte-identity of the cache-bench metrics documents. *)
    let speedup, identical =
      sched_section
        ~cycles:(if quick then 1_000 else 4_000)
        ~ops_count:(if quick then 500 else 1000)
        ()
    in
    if not identical then begin
      Printf.eprintf "FAIL: metrics documents differ between engines\n";
      exit 1
    end;
    if speedup < sched_gate then begin
      Printf.eprintf "FAIL: compiled scheduler speedup %.2fx < %.1fx\n" speedup
        sched_gate;
      exit 1
    end;
    exit 0
  end;
  if trace_only then begin
    (* CI entry point (bench/check.sh): the simulate-once / check-many
       contract — offline recheck must beat live re-simulation by the
       speedup floor, the binary trace must stay under the VCD size
       ceiling, and the two verdict reports must match byte for
       byte. *)
    let speedup, size_pct, identical =
      trace_section ~ops_count:(if quick then 1500 else 4000) ()
    in
    if not identical then begin
      Printf.eprintf "FAIL: live and recheck verdict reports differ\n";
      exit 1
    end;
    if speedup < trace_gate_speedup then begin
      Printf.eprintf "FAIL: recheck speedup %.2fx < %.1fx\n" speedup
        trace_gate_speedup;
      exit 1
    end;
    if size_pct > trace_gate_size_pct then begin
      Printf.eprintf "FAIL: trace is %.1f%% of the VCD > %.0f%%\n" size_pct
        trace_gate_size_pct;
      exit 1
    end;
    exit 0
  end;
  if serve_only then begin
    (* CI entry point (bench/check.sh): the daemon under concurrent
       load — sustained requests/sec over the floor, warm replays at
       least [serve_warm_gate]x faster than cold execution, and every
       socket response byte-identical to the one-shot report. *)
    let rps, warm_speedup, identical =
      serve_section ~ops:(if quick then 100 else 250) ()
    in
    if not identical then begin
      Printf.eprintf "FAIL: serve responses differ from one-shot reports\n";
      exit 1
    end;
    if rps < serve_rps_floor then begin
      Printf.eprintf "FAIL: serve throughput %.2f req/s < %.1f\n" rps
        serve_rps_floor;
      exit 1
    end;
    if warm_speedup < serve_warm_gate then begin
      Printf.eprintf "FAIL: warm replay speedup %.2fx < %.1fx\n" warm_speedup
        serve_warm_gate;
      exit 1
    end;
    exit 0
  end;
  if chaos_only then begin
    (* CI entry point (bench/check.sh): the daemon under seeded
       wire-level fault injection — every request must eventually
       complete byte-identically, the daemon must end drained and
       leak-free, and the latent net-fault hook must cost at most
       [chaos_idle_gate_pct] on a warm request stream. *)
    let survived, drained, fd_leak, idle_overhead_pct, idle_gate_ok =
      chaos_section ~ops:(if quick then 60 else 150) ()
    in
    if not survived then begin
      Printf.eprintf
        "FAIL: chaos soak lost, corrupted or never-triggered requests \
         (see BENCH_serve_chaos.json)\n";
      exit 1
    end;
    if not drained then begin
      Printf.eprintf
        "FAIL: daemon ended with leaked reservations, journals or state \
         files\n";
      exit 1
    end;
    (match fd_leak with
     | Some n when n <> 0 ->
       Printf.eprintf "FAIL: %d file descriptor(s) leaked across the soak\n" n;
       exit 1
     | Some _ | None -> ());
    if not idle_gate_ok then begin
      Printf.eprintf
        "FAIL: latent net-fault hook costs %.2f%% > %.1f%% (and more than \
         %.0f us)\n"
        idle_overhead_pct chaos_idle_gate_pct (chaos_idle_slack_s *. 1e6);
      exit 1
    end;
    exit 0
  end;
  if durability_only then begin
    (* CI entry point (bench/check.sh): the power-cut recovery soak —
       every crash image the write-boundary enumeration can produce
       must resume to a byte-identical report, an ENOSPC mid-append
       must fail honestly and still recover, no temp-file debris may
       survive, and the hookless IO seam must cost at most
       [durability_gate_pct] on the flushed append path. *)
    let identical, stale_tmp, enospc_ok, overhead_pct =
      durability_section ~ops:(if quick then 30 else 60)
        ~append_count:(if quick then 20_000 else 50_000) ()
    in
    if not identical then begin
      Printf.eprintf
        "FAIL: a resumed crash image produced a report that differs from \
         the uninterrupted run (see BENCH_io_durability.json)\n";
      exit 1
    end;
    if stale_tmp <> 0 then begin
      Printf.eprintf "FAIL: %d stale temp file(s) left behind\n" stale_tmp;
      exit 1
    end;
    if not enospc_ok then begin
      Printf.eprintf
        "FAIL: ENOSPC round did not fail honestly or did not resume to \
         the identical report\n";
      exit 1
    end;
    if overhead_pct > durability_gate_pct then begin
      Printf.eprintf "FAIL: IO seam append overhead %.2f%% > %.1f%%\n"
        overhead_pct durability_gate_pct;
      exit 1
    end;
    exit 0
  end;
  if cache_only then begin
    (* CI entry point (bench/check.sh): only the interned-vs-legacy
       replay comparison, with a hard floor on the speedup. *)
    let overall =
      checker_cache_section ~ops_count:(if quick then 500 else 1000) ()
    in
    if overall < 1.5 then begin
      Printf.eprintf "FAIL: checker cache speedup %.2fx < 1.5x\n" overall;
      exit 1
    end;
    exit 0
  end;
  Printf.printf
    "tabv benchmark harness (workload: %d DES56 ops, %d ColorConv pixels)%s\n\n"
    des_count pixel_count
    (if quick then " [--quick]" else "");
  fig3 ();
  let des_ops = Workload.des56 ~seed:42 ~count:des_count () in
  let cc_bursts = Workload.colorconv ~seed:42 ~count:pixel_count () in
  print_table_header "DES56";
  let des_rows = table_for (des56_levels des_ops) in
  print_table_header "ColorConv";
  let cc_rows = table_for (colorconv_levels cc_bursts) in
  fig6 ~des_rows ~cc_rows;
  ablation_naive_scaling (Workload.des56 ~seed:42 ~count:(des_count / 4) ());
  ablation_grid_wrapper (Workload.des56 ~seed:42 ~count:(des_count / 4) ());
  ablation_checker_backend (Workload.des56 ~seed:42 ~count:(des_count / 4) ());
  ablation_wrapper_stats (Workload.des56 ~seed:42 ~count:(des_count / 4) ());
  ignore (checker_cache_section ~ops_count:(des_count / 4) ());
  ignore (sched_section ~ops_count:(des_count / 4) ());
  ignore (obs_overhead_section ~ops_count:(des_count / 4) ());
  ignore (fault_overhead_section ~ops_count:(des_count / 4) ());
  (if Domain.recommended_domain_count () >= campaign_workers then
     ignore (campaign_section ~ops:(des_count / 20) ())
   else campaign_skip ());
  ignore (isolate_section ~ops:(des_count / 50) ());
  ignore (serve_section ~ops:(des_count / 10) ());
  ignore (chaos_section ~ops:(des_count / 50) ());
  ignore (durability_section ~ops:(des_count / 50) ());
  memctrl_section (des_count * 2);
  if not skip_bechamel then bechamel_section ();
  print_endline "done."
