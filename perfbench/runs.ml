(* The in-process workloads: [check] (one `tabv check --report-json`
   per unit) and [record-recheck] (one `tabv record --report-json` plus
   one `tabv recheck -j 2 --report-json` per unit), over the nine-model
   mix in [Common].

   An untraced run times whole rounds (one unit of each model) until
   the time budget is spent.  A traced run spends half the budget on an
   untraced pass, then repeats exactly those units with a span around
   every call into a layer and, under a separate "probe" span, the
   attribution probes (sim-only reruns, replays, decoded re-writes,
   serial chunk runs).  Every correctness comparison happens outside
   the timed units. *)

open Tabv_duv
open Common
module Progression = Tabv_checker.Progression
module Recheck = Tabv_campaign.Recheck
module Writer = Tabv_trace.Writer
module Reader = Tabv_trace.Reader
module Monitors_run = Tabv_checker.Offline.Run (Tabv_checker.Offline.Monitors)

type kind = Check | Record_recheck

(* --- set-up ---------------------------------------------------------

   What a user pays before the first unit, measured the way a fresh
   `tabv check` process pays it: process start and library
   initialisation (which parses the built-in property sets), then
   [setup_once] in the child ([bench.exe --setup-probe DIR]). *)

(* Parse every model's property set from source (as `--props FILE`
   would), apply the Methodology III.1 abstraction
   ([Models.properties_for] does it on the AT models), and create the
   report directory. *)
let setup_once ~dir =
  List.iter
    (fun model ->
      let properties, grid = Models.properties_for model None in
      let source =
        String.concat "\n" (List.map Recheck.property_source (properties @ grid))
      in
      ignore (Tabv_psl.Parser.file source : Tabv_psl.Property.t list))
    models;
  let reports = Filename.concat dir "reports" in
  rm_rf reports;
  mkdir_p reports

let setup_repeats = 15

(* One fresh process, from spawn until it reports the set-up done. *)
let setup_fresh ~dir =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Stats.now () in
  let pid = Unix.create_process exe [| exe; "--setup-probe"; dir |] Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = In_channel.input_line ic in
  let s = Stats.now () -. t0 in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  if line <> Some "ready" then failwith "set-up probe process failed";
  s

let setup ~dir =
  Stats.median (List.init setup_repeats (fun _ -> setup_fresh ~dir))

(* --- counts --------------------------------------------------------- *)

type counts = {
  activations : int;
  deltas : int;
  sim_ns : int;
  transactions : int;
  steps : int;
  passes : int;
  trivial : int;
  hits : int;
  misses : int;
  peak_instances : int;
}

let counts_of (r : Testbench.run_result) =
  let stats = r.Testbench.checker_stats in
  let total f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  {
    activations = r.Testbench.kernel_activations;
    deltas = r.Testbench.delta_cycles;
    sim_ns = r.Testbench.sim_time_ns;
    transactions = r.Testbench.transactions;
    steps = total (fun s -> s.Testbench.steps);
    passes = total (fun s -> s.Testbench.passes);
    trivial = total (fun s -> s.Testbench.trivial_passes);
    hits = total (fun s -> s.Testbench.cache_hits);
    misses = total (fun s -> s.Testbench.cache_misses);
    peak_instances =
      List.fold_left (fun acc s -> max acc s.Testbench.peak_instances) 0 stats;
  }

(* --- one unit ------------------------------------------------------- *)

type unit_out = {
  job : job;
  wall : float;  (* the unit: one check, or one record + recheck pair *)
  verdict : (unit, string) result;  (* the fault-free run checks *)
  report : string;  (* the live (or recorded) run's verdict report *)
  recheck_report : string;  (* record-recheck only; "" otherwise *)
  trace_bytes : int;
  run_s : float;  (* Models.run (record: writer create + run + close) *)
  steps : int;
}

let span = Stats.with_span

let report_path ~dir job suffix =
  Filename.concat dir
    (Filename.concat "reports" (Models.name job.model ^ suffix ^ ".json"))

let trace_path ~dir job = Filename.concat dir (Models.name job.model ^ ".trace")

let meta_of job =
  { Tabv_trace.Meta.model = Models.name job.model; seed = job.seed;
    ops = job.ops;
    engine = Tabv_sim.Kernel.engine_name (Tabv_sim.Kernel.get_default_engine ())
  }

let timed f =
  let t0 = Stats.now () in
  let v = f () in
  (v, Stats.now () -. t0)

(* `tabv check --report-json FILE` *)
let check_unit r ~dir job =
  let (result, report, run_s), wall =
    timed (fun () ->
        span r "unit" (fun () ->
            Progression.reset_universe ();
            let properties, grid_properties =
              span r "core.abstract" (fun () ->
                  Models.properties_for job.model None)
            in
            let result, run_s =
              span r "duv+checker.run" (fun () ->
                  timed (fun () ->
                      Models.run job.model ~seed:job.seed ~ops:job.ops
                        ~properties ~grid_properties))
            in
            let report =
              span r "core.render" (fun () ->
                  render
                    (Models.verdict_report job.model ~seed:job.seed
                       ~ops:job.ops result))
            in
            span r "core.commit" (fun () ->
                Tabv_core.Io.write_file_atomic
                  ~path:(report_path ~dir job "") report);
            (result, report, run_s)))
  in
  { job; wall; verdict = check_run job result; report; recheck_report = "";
    trace_bytes = 0; run_s; steps = (counts_of result).steps }

(* `tabv record --report-json` then `tabv recheck -j 2 --report-json`
   over the recorded file. *)
let record_recheck_unit r ~dir job =
  let trace = trace_path ~dir job in
  let (result, report, recheck_report, bytes, run_s), wall =
    timed (fun () ->
        span r "unit" (fun () ->
            let result, report, properties, bytes, run_s =
              span r "record" (fun () ->
                  Progression.reset_universe ();
                  let properties, grid_properties =
                    span r "core.abstract" (fun () ->
                        Models.properties_for job.model None)
                  in
                  (* The record call: writer create, the run, close. *)
                  let (result, writer), run_s =
                    timed (fun () ->
                        let writer =
                          span r "trace.create" (fun () ->
                              Writer.create ~path:trace (meta_of job))
                        in
                        let result =
                          span r "duv+checker+trace.run" (fun () ->
                              Fun.protect
                                ~finally:(fun () ->
                                  span r "trace.close" (fun () ->
                                      Writer.close writer))
                                (fun () ->
                                  Models.run ~trace_writer:writer job.model
                                    ~seed:job.seed ~ops:job.ops ~properties
                                    ~grid_properties))
                        in
                        (result, writer))
                  in
                  let report =
                    span r "core.render" (fun () ->
                        render
                          (Models.verdict_report job.model ~seed:job.seed
                             ~ops:job.ops result))
                  in
                  span r "core.commit" (fun () ->
                      Tabv_core.Io.write_file_atomic
                        ~path:(report_path ~dir job ".record") report);
                  (result, report, properties, Writer.bytes_written writer, run_s))
            in
            let recheck_report =
              span r "recheck" (fun () ->
                  let result =
                    span r "campaign.recheck" (fun () ->
                        Recheck.run ~workers:2 ~retries:1 ~trace properties)
                  in
                  let text =
                    span r "core.render" (fun () ->
                        render (Recheck.report_json result))
                  in
                  span r "core.commit" (fun () ->
                      Tabv_core.Io.write_file_atomic
                        ~path:(report_path ~dir job ".recheck") text);
                  text)
            in
            (result, report, recheck_report, bytes, run_s)))
  in
  { job; wall; verdict = check_run job result; report; recheck_report;
    trace_bytes = bytes; run_s; steps = (counts_of result).steps }

let run_unit kind r ~dir job =
  match kind with
  | Check -> check_unit r ~dir job
  | Record_recheck -> record_recheck_unit r ~dir job

(* The unit's correctness, checked after its timer stopped. *)
let unit_verdict u =
  match u.verdict with
  | Error _ as e -> e
  | Ok () ->
    if u.recheck_report <> "" && u.recheck_report <> u.report then
      Error
        (Printf.sprintf "%s seed %d: recheck report differs from the recorded \
                         run's live report"
           (Models.name u.job.model) u.job.seed)
    else Ok ()

(* --- probes ---------------------------------------------------------- *)

(* Models.run from a fresh universe with the given property sets;
   returns (result, seconds, minor words allocated by the call). *)
let probe_run ?metrics job ~properties ~grid_properties =
  Progression.reset_universe ();
  let w0 = Gc.minor_words () in
  let result, s =
    timed (fun () ->
        Models.run ?metrics job.model ~seed:job.seed ~ops:job.ops ~properties
          ~grid_properties)
  in
  (result, s, Gc.minor_words () -. w0)

let sim_only job = probe_run job ~properties:[] ~grid_properties:[]

let check_only ?metrics job =
  let properties, grid_properties = Models.properties_for job.model None in
  probe_run ?metrics job ~properties ~grid_properties

(* Per-layer accumulators: name -> running sum. *)
let add acc name v =
  Hashtbl.replace acc name
    (v +. Option.value ~default:0. (Hashtbl.find_opt acc name))

let get acc name = Option.value ~default:0. (Hashtbl.find_opt acc name)

let decode trace =
  Reader.with_file trace (fun reader ->
      let rec go acc =
        match Reader.next reader with
        | Some e -> go (e :: acc)
        | None -> List.rev acc
      in
      go [])

let rewrite ~path meta entries =
  Writer.with_file ~path meta (fun w ->
      List.iter
        (function
          | Tabv_trace.Entry.Sample { time; env } -> Writer.sample w ~time env
          | Tabv_trace.Entry.Span { label; start_time; end_time } ->
            Writer.span w ~label ~start_time ~end_time)
        entries;
      w)
  |> fun w -> (Writer.bytes_written w, Writer.samples w)

(* The contiguous chunks [Recheck.run ~workers:2] splits a property
   set into (its documented balanced split). *)
let chunks properties =
  let count = List.length properties in
  let n = max 1 (min 2 count) in
  let base = count / n and extra = count mod n in
  List.init n (fun i ->
      let start = (i * base) + min i extra in
      let len = base + if i < extra then 1 else 0 in
      List.filteri (fun j _ -> j >= start && j < start + len) properties)

(* The attribution probes of one traced unit, under their own root
   span so the workload's own time excludes them. *)
let probe_unit kind r acc ~dir u =
  let job = u.job in
  let name = Models.name job.model in
  span r "probe" (fun () ->
      let sim_result, sim_s, _ = span r "duv.sim" (fun () -> sim_only job) in
      let check_s =
        match kind with
        | Check -> u.run_s
        | Record_recheck ->
          let _, s, _ = span r "check" (fun () -> check_only job) in
          add acc "trace.record_s" u.run_s;
          add acc (name ^ "/record") u.run_s;
          s
      in
      add acc "duv.sim_s" sim_s;
      add acc "duv.activations" (float_of_int sim_result.Testbench.kernel_activations);
      add acc "checker.live_s" (check_s -. sim_s);
      add acc "checker.check_s" check_s;
      add acc "checker.steps" (float_of_int u.steps);
      add acc (name ^ "/sim") sim_s;
      add acc (name ^ "/check") check_s;
      add acc (name ^ "/n") 1.;
      match kind with
      | Check -> ()
      | Record_recheck ->
        let trace = trace_path ~dir job in
        let properties, _ = Models.properties_for job.model None in
        let entries, read_s =
          span r "trace.read" (fun () -> timed (fun () -> decode trace))
        in
        add acc "trace.read_s" read_s;
        Progression.reset_universe ();
        let (), replay_s =
          span r "checker.replay" (fun () ->
              timed (fun () ->
                  ignore
                    (Monitors_run.over_seq
                       (Tabv_checker.Offline.Monitors.config properties)
                       (List.to_seq entries))))
        in
        add acc "checker.replay_s" replay_s;
        let (bytes, samples), write_s =
          span r "trace.write" (fun () ->
              timed (fun () ->
                  rewrite ~path:(Filename.concat dir "probe.trace") (meta_of job)
                    entries))
        in
        add acc "trace.write_s" write_s;
        add acc "trace.bytes" (float_of_int bytes);
        add acc "trace.samples" (float_of_int samples);
        let (), serial_s =
          span r "campaign.serial_chunks" (fun () ->
              timed (fun () ->
                  List.iter
                    (fun properties ->
                      ignore (Recheck.exec_chunk ~trace ~properties))
                    (chunks properties)))
        in
        add acc "campaign.serial_chunks_s" serial_s)

(* --- fingerprint ------------------------------------------------------

   Counts a host-only change must leave identical, over round 0 (one
   unit of each model; its seeds depend only on the workload seed):
   kernel counts, checker counts, allocation per checker step, trace
   bytes and a digest of the verdict reports. *)

type fingerprint = {
  f_counts : counts;  (* summed over round 0 (peak_instances: max) *)
  f_minor_words : float;  (* check-call minus sim-only-call minor words *)
  f_sampler : (int * int) option;  (* (evals, queries), traced runs *)
  f_trace_bytes : int;
  f_digest : string;
}

let sum_counts a b =
  { activations = a.activations + b.activations; deltas = a.deltas + b.deltas;
    sim_ns = a.sim_ns + b.sim_ns; transactions = a.transactions + b.transactions;
    steps = a.steps + b.steps; passes = a.passes + b.passes;
    trivial = a.trivial + b.trivial; hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    peak_instances = max a.peak_instances b.peak_instances }

let zero_counts =
  { activations = 0; deltas = 0; sim_ns = 0; transactions = 0; steps = 0;
    passes = 0; trivial = 0; hits = 0; misses = 0; peak_instances = 0 }

let metric_int snapshot name =
  match List.assoc_opt name snapshot with
  | Some (Tabv_obs.Metrics.Counter n | Tabv_obs.Metrics.Gauge n) -> n
  | Some (Tabv_obs.Metrics.Histogram _) | None -> 0

(* [jobs] are the round-0 jobs, [reports] the verdict reports the
   workload produced for them. *)
let fingerprint ~sampler ~trace_bytes jobs reports =
  let counts, words, evals, queries =
    List.fold_left
      (fun (c, w, e, q) job ->
        let result, _, check_words = check_only job in
        let _, _, sim_words = sim_only job in
        let e, q =
          if sampler then begin
            let m = Tabv_obs.Metrics.create ~enabled:true () in
            let result, _, _ = check_only ~metrics:m job in
            let snap = result.Testbench.metrics in
            ( e + metric_int snap "checker.sampler.evals",
              q + metric_int snap "checker.sampler.queries" )
          end
          else (e, q)
        in
        (sum_counts c (counts_of result), w +. (check_words -. sim_words), e, q))
      (zero_counts, 0., 0, 0) jobs
  in
  { f_counts = counts; f_minor_words = words;
    f_sampler = (if sampler then Some (evals, queries) else None);
    f_trace_bytes = trace_bytes;
    f_digest = Digest.to_hex (Digest.string (String.concat "" reports)) }

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let print_fingerprint ~workload f =
  let c = f.f_counts in
  Printf.printf
    "fingerprint (%s, round 0 = %d units): kernel_activations=%d \
     delta_cycles=%d sim_time_ns=%d transactions=%d checker.steps=%d \
     checker.cache_hit_rate=%.6f (%d/%d) checker.minor_words_per_step=%.4f \
     trace_bytes=%d reports_md5=%s\n"
    workload round_size c.activations c.deltas c.sim_ns c.transactions c.steps
    (ratio c.hits (c.hits + c.misses))
    c.hits (c.hits + c.misses)
    (if c.steps = 0 then 0. else f.f_minor_words /. float_of_int c.steps)
    f.f_trace_bytes f.f_digest

(* The per-layer metrics every workload reports from its fingerprint
   (counts) — shared with the serve workload. *)
let count_metrics f =
  let c = f.f_counts in
  let base = Printf.sprintf "round 0, %d units" round_size in
  [ metric "duv.kernel_activations" "count" (float_of_int c.activations) ~note:base;
    metric "duv.delta_cycles" "count" (float_of_int c.deltas) ~note:base;
    metric "duv.sim_time_ns" "ns" (float_of_int c.sim_ns) ~note:base;
    metric "duv.transactions" "count" (float_of_int c.transactions) ~note:base;
    metric "checker.steps" "count" (float_of_int c.steps) ~note:base;
    metric "checker.minor_words_per_step" "words"
      (if c.steps = 0 then 0. else f.f_minor_words /. float_of_int c.steps)
      ~note:(Printf.sprintf "base %d steps" c.steps);
    metric "checker.trivial_pass_frac" "ratio" (ratio c.trivial c.passes)
      ~note:(Printf.sprintf "%d of %d passes" c.trivial c.passes);
    metric "checker.cache_hit_rate" "ratio" (ratio c.hits (c.hits + c.misses))
      ~note:(Printf.sprintf "%d of %d steps" c.hits (c.hits + c.misses));
    metric "checker.peak_instances" "count" (float_of_int c.peak_instances)
      ~note:"max over properties";
    (match f.f_sampler with
     | Some (evals, queries) ->
       metric "checker.sampler_eval_frac" "ratio" (ratio evals queries)
         ~note:(Printf.sprintf "%d evals of %d queries" evals queries)
     | None -> metric "checker.sampler_eval_frac" "ratio" 0. ~note:"untraced") ]

(* --- the per-model view (paper Fig. 6 / Table I) --------------------- *)

let print_model_table kind acc =
  Printf.printf
    "per-model view (traced pass; means per unit):\n\
    \  %-18s %6s %9s %9s %8s %8s %9s %9s\n"
    "model" "units" "check_ms" "sim_ms" "duv%" "checker%" "chk_ovh_x" "speedup";
  let mean model what =
    let n = get acc (Models.name model ^ "/n") in
    if n = 0. then nan else get acc (Models.name model ^ "/" ^ what) /. n
  in
  let rtl_of = function
    | Models.Des56_rtl | Models.Des56_ca | Models.Des56_at | Models.Des56_lt ->
      Models.Des56_rtl
    | Models.Colorconv_rtl | Models.Colorconv_ca | Models.Colorconv_at ->
      Models.Colorconv_rtl
    | Models.Memctrl_rtl | Models.Memctrl_ca | Models.Memctrl_at ->
      Models.Memctrl_rtl
  in
  List.iter
    (fun model ->
      let check = mean model "check" and sim = mean model "sim" in
      let live = check -. sim in
      Printf.printf "  %-18s %6.0f %9.3f %9.3f %8.1f %8.1f %9.3f %9.3f"
        (Models.name model)
        (get acc (Models.name model ^ "/n"))
        (check *. 1000.) (sim *. 1000.)
        (100. *. sim /. check) (100. *. live /. check) (live /. sim)
        (mean (rtl_of model) "check" /. check);
      (match kind with
       | Record_recheck ->
         Printf.printf "  record_overhead=%.1f%%"
           (100. *. (mean model "record" -. check) /. check)
       | Check -> ());
      print_newline ())
    models;
  print_endline
    "  (duv% = sim-only / check; checker% = (check - sim-only) / check; \
     chk_ovh_x = checker / sim-only (paper Fig. 6 overhead); speedup = RTL \
     check time / this model's, same DUV and ops)"

(* --- the workload ------------------------------------------------------ *)

(* A record-recheck unit does about twice the work of a check unit;
   halving its operations keeps well over ten units of every model in
   a run, so the tail percentile falls inside one model's cluster. *)
let shrink = function
  | Check -> 1
  | Record_recheck -> 2

let workload_name = function
  | Check -> "check"
  | Record_recheck -> "record-recheck"

(* Run whole rounds of units until [deadline] (at least one round);
   returns the outputs in unit order. *)
let rounds kind r ~dir ~seed ~deadline =
  let rec go round acc =
    if round > 0 && Stats.now () >= deadline then List.rev acc
    else
      let acc =
        List.fold_left
          (fun acc i ->
            run_unit kind r ~dir
              (unit_job ~shrink:(shrink kind) ~seed ((round * round_size) + i))
            :: acc)
          acc
          (List.init round_size Fun.id)
      in
      go (round + 1) acc
  in
  go 0 []

let run kind ~seed ~seconds ~trace =
  let workload = workload_name kind in
  let dir = work_dir workload in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let setup_s = setup ~dir in
  let tally = Stats.tally () in
  let budget = if trace then float_of_int seconds /. 2. else float_of_int seconds in
  let off = Stats.recorder ~enabled:false in
  let t0 = Stats.now () in
  let pass_a = rounds kind off ~dir ~seed ~deadline:(t0 +. budget) in
  let elapsed = Stats.now () -. t0 in
  let units = List.length pass_a in
  let total_ops = List.fold_left (fun acc u -> acc + u.job.ops) 0 pass_a in
  (* Correctness, outside the timed window. *)
  List.iter (fun u -> Stats.record tally (unit_verdict u)) pass_a;
  let round0 = List.filteri (fun i _ -> i < round_size) pass_a in
  let e2e =
    [ metric "setup_s" "s" setup_s
        ~note:(Printf.sprintf "median of %d fresh-process set-ups" setup_repeats);
      metric "ops_per_s" "ops/s" (float_of_int total_ops /. elapsed)
        ~note:(Printf.sprintf "%d ops in %d units, %.2f s" total_ops units elapsed) ]
    @ latency_metrics ~prefix:"run" (List.map (fun u -> u.wall) pass_a)
    @ [ metric "peak_rss_mb" "MB" (peak_rss_mb "self") ~note:"VmHWM, this process";
        metric "failed_frac" "ratio" (Stats.failed_frac tally)
          ~note:(Printf.sprintf "%d of %d units" tally.Stats.failed tally.Stats.attempted) ]
  in
  let per_layer =
    if not trace then None
    else begin
      (* Traced pass: the same units again, spans on, probes after each. *)
      let r = Stats.recorder ~enabled:true in
      let acc = Hashtbl.create 64 in
      let pass_b =
        List.map
          (fun a ->
            let u = run_unit kind r ~dir a.job in
            Stats.record tally (unit_verdict u);
            probe_unit kind r acc ~dir u;
            u)
          pass_a
      in
      Some (r, acc, pass_b)
    end
  in
  let fp =
    fingerprint ~sampler:trace
      ~trace_bytes:(List.fold_left (fun acc u -> acc + u.trace_bytes) 0 round0)
      (List.map (fun u -> u.job) round0)
      (List.map (fun u -> u.report) round0)
  in
  print_metrics (workload ^ " end-to-end (untraced)") e2e;
  print_fingerprint ~workload fp;
  let layer_metrics =
    match per_layer with
    | None -> []
    | Some (r, acc, pass_b) ->
      let n = float_of_int (List.length pass_b) in
      let spans = Stats.spans r in
      write_spans ~workload ~seed spans;
      let names = Stats.by_name spans in
      let span_total name =
        List.fold_left
          (fun acc (n', _, total, _) -> if n' = name then acc +. total else acc)
          0. names
      in
      let a_wall = Stats.sum (List.map (fun u -> u.wall) pass_a) in
      let b_wall = span_total "unit" in
      let per_unit = Printf.sprintf "mean of %d units" (List.length pass_b) in
      Printf.printf "spans (traced pass; count, total s, self s):\n";
      List.iter
        (fun (name, c, total, self) ->
          Printf.printf "  %-26s %6d %10.4f %10.4f\n" name c total self)
        names;
      print_model_table kind acc;
      let common =
        [ metric "duv.sim_s" "s/unit" (get acc "duv.sim_s" /. n) ~note:per_unit;
          metric "duv.ns_per_activation" "ns"
            (1e9 *. get acc "duv.sim_s" /. get acc "duv.activations")
            ~note:(Printf.sprintf "%.0f activations" (get acc "duv.activations"));
          metric "checker.live_s" "s/unit" (get acc "checker.live_s" /. n)
            ~note:per_unit;
          metric "checker.ns_per_step" "ns"
            (1e9 *. get acc "checker.live_s" /. get acc "checker.steps")
            ~note:(Printf.sprintf "%.0f steps" (get acc "checker.steps"));
          metric "core.abstract_s" "s/unit" (span_total "core.abstract" /. n)
            ~note:per_unit;
          metric "core.render_s" "s/unit" (span_total "core.render" /. n)
            ~note:per_unit;
          metric "bench.trace_overhead_pct" "%"
            (100. *. (b_wall -. a_wall) /. a_wall)
            ~note:
              (Printf.sprintf "traced %.3f s vs untraced %.3f s, same units"
                 b_wall a_wall) ]
        @ count_metrics fp
      in
      let specific =
        [ metric "core.commit_s" "s/unit" (span_total "core.commit" /. n)
            ~note:per_unit ]
        @
        match kind with
        | Check -> []
        | Record_recheck ->
          let recheck_s = span_total "campaign.recheck" in
          [ metric "trace.write_s" "s/unit" (get acc "trace.write_s" /. n)
              ~note:per_unit;
            metric "trace.read_s" "s/unit" (get acc "trace.read_s" /. n)
              ~note:per_unit;
            metric "trace.record_overhead_pct" "%"
              (100. *. (get acc "trace.record_s" -. get acc "checker.check_s")
              /. get acc "checker.check_s")
              ~note:"record call vs check call, same units";
            metric "trace.bytes_per_sample" "B"
              (get acc "trace.bytes" /. get acc "trace.samples")
              ~note:(Printf.sprintf "%.0f samples" (get acc "trace.samples"));
            metric "checker.replay_s" "s/unit" (get acc "checker.replay_s" /. n)
              ~note:per_unit;
            metric "campaign.recheck_s" "s/unit" (recheck_s /. n) ~note:per_unit;
            metric "campaign.parallel_eff" "ratio"
              (get acc "campaign.serial_chunks_s" /. (2. *. recheck_s))
              ~note:"serial chunk time / (2 x recheck wall)" ]
      in
      print_metrics (workload ^ " per-layer (workload-specific)") specific;
      common
  in
  if layer_metrics <> [] then print_metrics (workload ^ " per-layer") layer_metrics;
  (tally, e2e, layer_metrics)
