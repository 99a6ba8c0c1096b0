(* The [serve] workload: a closed loop of two client threads, one
   connection each, against one `tabv serve -j 2 --state-dir DIR`
   daemon running as a child process (its GC and runtime are not
   shared with the load generator).

   Each client cycles through a fixed mix: cold checks at fresh seeds,
   warm repeats of one of its own earlier checks (LRU hits), and one
   journaled campaign over the paper's Table I columns, scaled down.
   Every served report is compared, after the timed window, with the
   one-shot report of the same job computed in this process. *)

open Tabv_duv
open Common
module Client = Tabv_serve.Client
module Protocol = Tabv_serve.Protocol
module Campaign = Tabv_campaign.Campaign
module Progression = Tabv_checker.Progression

let clients = 2

(* Cold checks are small, so the serve path's own costs show, and
   sized so every model's check takes about the same time (~6 ms on a
   2 GHz core): the round-trip distribution then has one cold cluster
   and its median is not a boundary between models. *)
let serve_ops = function
  | Models.Des56_rtl -> 60
  | Models.Des56_ca -> 75
  | Models.Des56_at -> 220
  | Models.Des56_lt -> 220
  | Models.Colorconv_rtl -> 400
  | Models.Colorconv_ca -> 450
  | Models.Colorconv_at -> 550
  | Models.Memctrl_rtl -> 300
  | Models.Memctrl_ca -> 360
  | Models.Memctrl_at -> 650

(* --- the request mix --------------------------------------------------- *)

type kind = Cold | Warm | Campaign_req

let kind_name = function
  | Cold -> "cold"
  | Warm -> "warm"
  | Campaign_req -> "campaign"

(* One client cycle: the median round trip falls inside the cold
   cluster (2 warm of 8 below it), and the cold checks and the campaign
   each take about half of the wall time. *)
let cycle = [ Cold; Warm; Cold; Cold; Warm; Cold; Cold; Campaign_req ]

(* Table I of the paper as in examples/campaign_table1.json (its
   explicit jobs), at a fraction of the operations. *)
let table1 =
  [ ("des56", "rtl", "none"); ("des56", "rtl", "1"); ("des56", "rtl", "5");
    ("des56", "tlm-ca", "none"); ("des56", "tlm-ca", "1");
    ("des56", "tlm-ca", "5"); ("des56", "tlm-at", "none");
    ("des56", "tlm-at", "1"); ("des56", "tlm-at", "5");
    ("colorconv", "rtl", "none"); ("colorconv", "rtl", "1");
    ("colorconv", "rtl", "5"); ("colorconv", "tlm-ca", "none");
    ("colorconv", "tlm-ca", "5"); ("colorconv", "tlm-at", "5") ]

let manifest ~seed =
  let job (duv, level, props) =
    J.Assoc
      [ ("duv", J.String duv); ("level", J.String level); ("seed", J.Int seed);
        ("ops", J.Int (if duv = "des56" then 40 else 400));
        ( "props",
          match int_of_string_opt props with
          | Some n -> J.Int n
          | None -> J.String props ) ]
  in
  J.Assoc [ ("retries", J.Int 1); ("jobs", J.List (List.map job table1)) ]

type request = {
  kind : kind;
  check : job option;  (* the check job (cold and warm) *)
  manifest : J.json option;  (* the campaign manifest *)
}

let protocol_job r =
  match (r.check, r.manifest) with
  | Some j, _ ->
    Protocol.Check
      { model = j.model; seed = j.seed; ops = j.ops; props = None;
        engine = None; trace_out = None }
  | None, Some manifest ->
    Protocol.Campaign { manifest; workers = 1; retries = None; journal = true }
  | None, None -> invalid_arg "Serve.protocol_job"

(* The [n]-th request of client [c] in pass [pass].  Cold checks cycle
   through the nine models at seeds no earlier request used; a warm
   repeat re-sends one of the client's last three cold checks. *)
let request ~seed ~pass ~c n =
  let stream = 1 + (pass * clients) + c in
  let per_cycle = List.length cycle in
  let cold_per_cycle = List.length (List.filter (( = ) Cold) cycle) in
  let cyc = n / per_cycle and pos = n mod per_cycle in
  let colds_before =
    (cyc * cold_per_cycle)
    + List.length (List.filter (( = ) Cold) (List.filteri (fun i _ -> i < pos) cycle))
  in
  let cold k =
    let model = List.nth models ((k + (c * 4)) mod round_size) in
    { model; seed = derive seed stream k; ops = serve_ops model }
  in
  match List.nth cycle pos with
  | Cold -> { kind = Cold; check = Some (cold colds_before); manifest = None }
  | Warm ->
    let back = derive seed (stream + 100) n mod min 3 colds_before in
    { kind = Warm; check = Some (cold (colds_before - 1 - back)); manifest = None }
  | Campaign_req ->
    { kind = Campaign_req; check = None;
      manifest = Some (manifest ~seed:(derive seed (stream + 200) cyc)) }

(* --- the daemon -------------------------------------------------------- *)

type daemon = { pid : int; socket : string }

let connect_retry socket ~timeout =
  let deadline = Stats.now () +. timeout in
  let rec go () =
    match Client.connect (`Unix socket) with
    | Ok conn -> conn
    | Error msg ->
      if Stats.now () > deadline then failwith ("daemon did not start: " ^ msg);
      Unix.sleepf 0.001;
      go ()
  in
  go ()

(* Start the daemon and wait until it accepts; returns it with the
   seconds that took. *)
let start_daemon ~tabv ~dir i =
  let socket = Filename.concat dir (Printf.sprintf "d%d.sock" i) in
  let state = Filename.concat dir "state" in
  let log =
    Unix.openfile (Filename.concat dir (Printf.sprintf "d%d.log" i))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let t0 = Stats.now () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log; Unix.close null)
      (fun () ->
        Unix.create_process tabv
          [| tabv; "serve"; "--socket"; socket; "-j"; "2"; "--state-dir"; state |]
          null log log)
  in
  let d = { pid; socket } in
  match connect_retry socket ~timeout:30. with
  | conn ->
    let ready = Stats.now () -. t0 in
    Client.close conn;
    (d, ready)
  | exception e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    raise e

(* Graceful drain; SIGKILL when it does not exit within 20 s.  Always
   reaps the child. *)
let stop_daemon d =
  (match Client.connect (`Unix d.socket) with
   | Ok conn ->
     ignore (Client.control conn Protocol.Shutdown : Client.control_reply);
     Client.close conn
   | Error _ -> ());
  let deadline = Stats.now () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Stats.now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let stats d =
  match Client.connect (`Unix d.socket) with
  | Error msg -> failwith msg
  | Ok conn ->
    Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
    match Client.control conn Protocol.Stats with
    | Client.Stats json ->
      (match J.member "metrics" json with
       | Some (J.Assoc m) -> m
       | _ -> [])
    | _ -> failwith "stats control failed"

let stat_int stats name =
  match List.assoc_opt name stats with
  | Some v ->
    (match J.member "value" v with
     | Some (J.Int n) -> n
     | _ -> 0)
  | None -> 0

(* (count, sum) of a histogram in a stats reply. *)
let stat_hist stats name =
  match List.assoc_opt name stats with
  | Some v ->
    (match (J.member "count" v, J.member "sum" v) with
     | Some (J.Int c), Some (J.Int s) -> (c, s)
     | _ -> (0, 0))
  | None -> (0, 0)

(* --- the load generator ----------------------------------------------- *)

type sent = {
  req : request;
  rtt : float;
  reply : Client.reply;
}

(* One client: connect, then send requests one at a time until
   [stop ()] at a cycle boundary.  Returns the replies in order. *)
let client_loop ~socket ~seed ~pass ~c ~stop r =
  match Client.connect (`Unix socket) with
  | Error msg -> Error msg
  | Ok conn ->
    Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
    let per_cycle = List.length cycle in
    let rec go n acc =
      if n mod per_cycle = 0 && stop n then Ok (List.rev acc)
      else begin
        let req = request ~seed ~pass ~c n in
        let t0 = Stats.now () in
        let reply =
          Stats.with_span r ("request." ^ kind_name req.kind) (fun () ->
              Client.request_with_retry ~attempts:5 ~backoff_seed:seed conn
                (protocol_job req))
        in
        go (n + 1) ({ req; rtt = Stats.now () -. t0; reply } :: acc)
      end
    in
    go 0 []

(* Run both clients; [stop c n] decides at each cycle boundary. *)
let load ~socket ~seed ~pass ~stop ~traced =
  let recorders = Array.init clients (fun _ -> Stats.recorder ~enabled:traced) in
  let results = Array.make clients (Ok []) in
  let t0 = Stats.now () in
  let threads =
    List.init clients (fun c ->
        Thread.create
          (fun () ->
            results.(c) <-
              (try client_loop ~socket ~seed ~pass ~c ~stop:(stop c) recorders.(c)
               with e -> Error (Printexc.to_string e)))
          ())
  in
  List.iter Thread.join threads;
  (Array.to_list results, Stats.now () -. t0, recorders)

(* --- one-shot references ----------------------------------------------- *)

(* What `tabv check --report-json` writes for the job, in a fresh
   universe; also the seconds the abstraction, the run and the render
   took, and the run's checker steps. *)
let direct_check job =
  let t0 = Stats.now () in
  Progression.reset_universe ();
  let properties, grid_properties = Models.properties_for job.model None in
  let t1 = Stats.now () in
  let result =
    Models.run job.model ~seed:job.seed ~ops:job.ops ~properties ~grid_properties
  in
  let t2 = Stats.now () in
  let text = render (Models.verdict_report job.model ~seed:job.seed ~ops:job.ops result) in
  let t3 = Stats.now () in
  ( check_run job result,
    text,
    (t1 -. t0, t2 -. t1, t3 -. t2, t3 -. t0, (Runs.counts_of result).Runs.steps) )

let campaign_jobs manifest =
  match Campaign.manifest_of_json manifest with
  | Ok m -> (m.Campaign.manifest_jobs, Option.value ~default:1 m.Campaign.manifest_retries)
  | Error e -> failwith ("benchmark manifest rejected: " ^ e)

let direct_campaign manifest =
  let jobs, retries = campaign_jobs manifest in
  let summary, s =
    Runs.timed (fun () -> Campaign.run ~workers:1 ~retries jobs)
  in
  let verdict =
    if Campaign.all_green summary then Ok ()
    else Error "campaign reference is not green"
  in
  (verdict, render (Campaign.report_json summary), s)

(* Per-record [Journal.append] time of one campaign's job payloads into
   a fresh journal: median over five journals. *)
let journal_append_s ~dir manifest =
  let jobs, retries = campaign_jobs manifest in
  let payloads =
    List.map
      (fun job ->
        Campaign.payload_json (Campaign.exec_job ~attempt:1 ~metrics_enabled:true job))
      jobs
  in
  let fingerprint = Campaign.fingerprint ~retries jobs in
  let once i =
    let path = Filename.concat dir (Printf.sprintf "probe-%d.journal" i) in
    match
      Tabv_campaign.Journal.open_ ~path ~kind:Campaign.journal_kind ~fingerprint
        ~resume:false ()
    with
    | Error e -> failwith e
    | Ok j ->
      Fun.protect ~finally:(fun () -> Tabv_campaign.Journal.close j) @@ fun () ->
      let (), s =
        Runs.timed (fun () ->
            List.iteri (fun id p -> Tabv_campaign.Journal.append j ~id p) payloads)
      in
      s /. float_of_int (List.length payloads)
  in
  (Stats.median (List.init 5 once), List.length payloads)

(* The one-shot reference of a request: (verdict of the reference run,
   report text, timings). *)
let compute_reference req =
  match (req.check, req.manifest) with
  | Some job, _ ->
    let verdict, text, times = direct_check job in
    (verdict, text, `Check times)
  | None, Some m ->
    let verdict, text, s = direct_campaign m in
    (verdict, text, `Campaign s)
  | None, None -> invalid_arg "Serve.compute_reference"

(* [Array.map f] on two domains (checker universes are per domain). *)
let parallel_map f items =
  let n = Array.length items in
  let out = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      out.(i) <- Some (try Ok (f items.(i)) with e -> Error e);
      work ()
    end
  in
  let helper = Domain.spawn work in
  work ();
  Domain.join helper;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error e) -> raise e
      | None -> assert false)
    out

(* --- the workload ------------------------------------------------------ *)

let setup_repeats = 9

let run ~tabv ~seed ~seconds ~trace =
  let dir = work_dir "serve" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let tally = Stats.tally () in
  (* Set-up: daemon start until it accepts, several times; the last
     daemon serves the run. *)
  let setups = ref [] and daemon = ref None in
  let stop_current () = Option.iter stop_daemon !daemon; daemon := None in
  Fun.protect ~finally:stop_current @@ fun () ->
  for i = 1 to setup_repeats do
    stop_current ();
    let d, s = start_daemon ~tabv ~dir i in
    daemon := Some d;
    setups := s :: !setups
  done;
  let d = Option.get !daemon in
  let setup_s = Stats.median !setups in
  let budget = if trace then float_of_int seconds /. 2. else float_of_int seconds in
  let t0 = Stats.now () in
  let results_a, elapsed, _ =
    load ~socket:d.socket ~seed ~pass:0 ~traced:false
      ~stop:(fun _ _ -> Stats.now () >= t0 +. budget)
  in
  let rss = peak_rss_mb (string_of_int d.pid) in
  let stats_a = stats d in
  (* Traced pass: as many requests per client as pass A, fresh seeds. *)
  let traced =
    if not trace then None
    else begin
      let counts = List.map (function Ok l -> List.length l | Error _ -> 0) results_a in
      let results_b, elapsed_b, recorders =
        load ~socket:d.socket ~seed ~pass:1 ~traced:true
          ~stop:(fun c n -> n >= List.nth counts c)
      in
      Some (results_b, elapsed_b, recorders, stats d)
    end
  in
  (* Correctness, outside the timed window. *)
  let refs = Hashtbl.create 64 in
  let key req = J.to_string (Protocol.job_json (protocol_job req)) in
  let reference req =
    match Hashtbl.find_opt refs (key req) with
    | Some r -> r
    | None ->
      let r = compute_reference req in
      Hashtbl.replace refs (key req) r;
      r
  in
  (* The untraced pass's references only serve correctness: compute
     them on two domains. *)
  let prefill sent =
    let todo = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if not (Hashtbl.mem refs (key s.req)) then Hashtbl.replace todo (key s.req) s.req)
      sent;
    let reqs = Array.of_seq (Hashtbl.to_seq todo) in
    Array.iter2
      (fun (k, _) r -> Hashtbl.replace refs k r)
      reqs
      (parallel_map compute_reference (Array.map snd reqs))
  in
  let judge sent =
    let verdict, text, _ = reference sent.req in
    match (sent.reply, verdict) with
    | Client.Result { ok = true; report; _ }, Ok () when report = text -> Ok ()
    | Client.Result { ok = true; _ }, Ok () ->
      Error (kind_name sent.req.kind ^ ": served report differs from the one-shot report")
    | Client.Result { ok = false; _ }, _ -> Error (kind_name sent.req.kind ^ ": not green")
    | Client.Rejected _, _ -> Error "rejected after retries"
    | Client.Failed msg, _ -> Error ("failed: " ^ msg)
    | _, (Error _ as e) -> e
  in
  let all_sent results =
    List.concat_map
      (function
        | Ok l -> l
        | Error msg ->
          Stats.record tally (Error ("client: " ^ msg));
          [])
      results
  in
  let sent_a = all_sent results_a in
  prefill sent_a;
  List.iter (fun s -> Stats.record tally (judge s)) sent_a;
  let requests = List.length sent_a in
  let e2e =
    [ metric "setup_s" "s" setup_s
        ~note:(Printf.sprintf "median of %d daemon starts until accepting" setup_repeats);
      metric "req_per_s" "req/s" (float_of_int requests /. elapsed)
        ~note:(Printf.sprintf "%d requests, %d clients, %.2f s" requests clients elapsed) ]
    @ latency_metrics ~prefix:"req" (List.map (fun s -> s.rtt) sent_a)
    @ [ metric "peak_rss_mb" "MB" rss ~note:"VmHWM, the daemon";
        metric "failed_frac" "ratio" (Stats.failed_frac tally)
          ~note:(Printf.sprintf "%d of %d requests" tally.Stats.failed tally.Stats.attempted) ]
  in
  (* Fingerprint: the first nine cold checks of client 0. *)
  let cold0 =
    match results_a with
    | Ok l :: _ -> List.filter (fun s -> s.req.kind = Cold) l
    | _ -> []
  in
  let cold0 = List.filteri (fun i _ -> i < round_size) cold0 in
  let served s =
    match s.reply with
    | Client.Result { report; _ } -> report
    | _ -> ""
  in
  let fp =
    Runs.fingerprint ~sampler:trace ~trace_bytes:0
      (List.filter_map (fun s -> s.req.check) cold0)
      (List.map served cold0)
  in
  print_metrics "serve end-to-end (untraced)" e2e;
  Runs.print_fingerprint ~workload:"serve" fp;
  let layer_metrics =
    match traced with
    | None -> []
    | Some (results_b, _, recorders, stats_b) ->
      let sent_b = all_sent results_b in
      List.iter (fun s -> Stats.record tally (judge s)) sent_b;
      let of_kind k = List.filter (fun s -> s.req.kind = k) sent_b in
      let p50_ms k = 1000. *. Stats.median (List.map (fun s -> s.rtt) (of_kind k)) in
      let n_kind k = Printf.sprintf "p50 of %d" (List.length (of_kind k)) in
      let colds = of_kind Cold in
      let probe = Stats.recorder ~enabled:true in
      (* Direct runs of the cold jobs (already computed as references)
         and a sim-only rerun of each. *)
      let acc = Hashtbl.create 16 in
      let overheads =
        List.map
          (fun s ->
            let job = Option.get s.req.check in
            let _, _, times = reference s.req in
            let abstract_s, run_s, render_s, total_s, steps =
              match times with
              | `Check t -> t
              | `Campaign _ -> assert false
            in
            let r, sim_s, _ =
              Stats.with_span probe "probe" (fun () -> Runs.sim_only job)
            in
            Runs.add acc "abstract" abstract_s;
            Runs.add acc "render" render_s;
            Runs.add acc "sim" sim_s;
            Runs.add acc "live" (run_s -. sim_s);
            Runs.add acc "steps" (float_of_int steps);
            Runs.add acc "activations" (float_of_int r.Testbench.kernel_activations);
            s.rtt -. total_s)
          colds
      in
      let n = float_of_int (List.length colds) in
      let campaigns = of_kind Campaign_req in
      let job_s =
        Stats.mean
          (List.map
             (fun s ->
               match reference s.req with
               | _, _, `Campaign t -> t
               | _, _, `Check _ -> assert false)
             campaigns)
      in
      let append_s, records =
        match campaigns with
        | s :: _ -> journal_append_s ~dir (Option.get s.req.manifest)
        | [] -> (0., 0)
      in
      let delta name = stat_int stats_b name - stat_int stats_a name in
      let lat_c_b, lat_s_b = stat_hist stats_b "serve.request_latency_ms" in
      let lat_c_a, lat_s_a = stat_hist stats_a "serve.request_latency_ms" in
      let hits = delta "serve.warm_hits" and misses = delta "serve.warm_misses" in
      let spans = List.concat_map Stats.spans (Array.to_list recorders) in
      write_spans ~workload:"serve" ~seed (spans @ Stats.spans probe);
      Printf.printf "spans (traced pass; count, total s, self s):\n";
      List.iter
        (fun (name, c, total, self) ->
          Printf.printf "  %-26s %6d %10.4f %10.4f\n" name c total self)
        (Stats.by_name spans @ Stats.by_name (Stats.spans probe));
      let specific =
        [ metric "serve.cold_rtt_ms" "ms" (p50_ms Cold) ~note:(n_kind Cold);
          metric "serve.warm_rtt_ms" "ms" (p50_ms Warm) ~note:(n_kind Warm);
          metric "serve.campaign_rtt_ms" "ms" (p50_ms Campaign_req)
            ~note:(n_kind Campaign_req);
          metric "serve.overhead_ms" "ms" (1000. *. Stats.median overheads)
            ~note:"p50 of cold rtt - direct run+render";
          metric "serve.server_latency_ms" "ms"
            (float_of_int (lat_s_b - lat_s_a) /. float_of_int (max 1 (lat_c_b - lat_c_a)))
            ~note:(Printf.sprintf "mean of %d, daemon histogram" (lat_c_b - lat_c_a));
          metric "serve.warm_hit_rate" "ratio" (Runs.ratio hits (hits + misses))
            ~note:(Printf.sprintf "%d of %d lookups" hits (hits + misses));
          metric "serve.requests_rejected" "count"
            (float_of_int (stat_int stats_b "serve.requests_rejected"))
            ~note:(Printf.sprintf "of %d requests" (stat_int stats_b "serve.requests_total"));
          metric "serve.jobs_shed" "count" (float_of_int (stat_int stats_b "serve.jobs_shed"));
          metric "serve.requests_failed" "count"
            (float_of_int (stat_int stats_b "serve.requests_failed"));
          metric "campaign.job_s" "s" job_s
            ~note:(Printf.sprintf "mean in-process Campaign.run, %d campaigns" (List.length campaigns));
          metric "campaign.journal_append_s" "s" append_s
            ~note:(Printf.sprintf "per record, median of 5 journals of %d records" records) ]
      in
      print_metrics "serve per-layer (workload-specific)" specific;
      let a_mean = Stats.mean (List.map (fun s -> s.rtt) sent_a) in
      let b_mean = Stats.mean (List.map (fun s -> s.rtt) sent_b) in
      let per_cold = Printf.sprintf "mean of %d cold jobs" (List.length colds) in
      [ metric "duv.sim_s" "s/unit" (Runs.get acc "sim" /. n) ~note:per_cold;
        metric "duv.ns_per_activation" "ns"
          (1e9 *. Runs.get acc "sim" /. Runs.get acc "activations")
          ~note:(Printf.sprintf "%.0f activations" (Runs.get acc "activations"));
        metric "checker.live_s" "s/unit" (Runs.get acc "live" /. n) ~note:per_cold;
        metric "checker.ns_per_step" "ns"
          (1e9 *. Runs.get acc "live" /. Runs.get acc "steps")
          ~note:(Printf.sprintf "%.0f steps" (Runs.get acc "steps"));
        metric "core.abstract_s" "s/unit" (Runs.get acc "abstract" /. n) ~note:per_cold;
        metric "core.render_s" "s/unit" (Runs.get acc "render" /. n) ~note:per_cold;
        metric "bench.trace_overhead_pct" "%" (100. *. (b_mean -. a_mean) /. a_mean)
          ~note:"mean rtt, traced vs untraced pass, same mix and count" ]
      @ Runs.count_metrics fp
  in
  if layer_metrics <> [] then print_metrics "serve per-layer" layer_metrics;
  (tally, e2e, layer_metrics)
