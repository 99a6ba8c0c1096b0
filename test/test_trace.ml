open Tabv_psl
open Tabv_trace

(* The binary trace format: encode/decode round trips, damaged-file
   refusal, the writer's same-instant last-wins buffer, the offline
   checker runner (including its equivalence with the deprecated
   [Replay.run] shim), parallel re-checking, and the streaming reader's
   bounded memory. *)

let case name f = Alcotest.test_case name `Quick f

let meta =
  { Meta.model = "test-model"; seed = 7; ops = 3; engine = "classic" }

let temp_trace () = Filename.temp_file "tabv_test" ".trace"

let with_temp f =
  let path = temp_trace () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* --- generators for the round-trip property ----------------------- *)

(* A random recording: a dictionary (names + kinds), strictly
   increasing sample times with per-kind random values, and spans over
   a small label set. *)
type recording = {
  rec_samples : (int * (string * Expr.value) list) list;
  rec_spans : (string * int * int) list;
}

let gen_recording =
  let open QCheck.Gen in
  let* n_signals = int_range 1 6 in
  let* kinds = list_repeat n_signals bool in
  let signals =
    List.mapi (fun i is_bool -> (Printf.sprintf "s%d" i, is_bool)) kinds
  in
  let gen_value is_bool =
    if is_bool then map (fun b -> Expr.VBool b) bool
    else
      oneof
        [ map (fun v -> Expr.VInt v) (int_range (-1000) 1000);
          oneofl [ Expr.VInt max_int; Expr.VInt min_int; Expr.VInt 0 ] ]
  in
  let gen_env =
    flatten_l
      (List.map
         (fun (name, is_bool) -> map (fun v -> (name, v)) (gen_value is_bool))
         signals)
  in
  let* n_samples = int_range 0 40 in
  let* t0 = int_range 0 50 in
  let* deltas = list_repeat n_samples (int_range 1 100) in
  let times =
    List.rev
      (snd
         (List.fold_left
            (fun (t, acc) d ->
              let t = t + d in
              (t, t :: acc))
            (t0, []) deltas))
  in
  let* envs = list_repeat n_samples gen_env in
  let* n_spans = int_range 0 10 in
  let* spans =
    list_repeat n_spans
      (let* label = oneofl [ "read"; "write"; "burst" ] in
       let* start = int_range 0 5000 in
       let* duration = int_range 0 500 in
       return (label, start, start + duration))
  in
  return { rec_samples = List.combine times envs; rec_spans = spans }

let arb_recording =
  QCheck.make
    ~print:(fun r ->
      Printf.sprintf "%d samples, %d spans"
        (List.length r.rec_samples)
        (List.length r.rec_spans))
    gen_recording

let write_recording path r =
  Writer.with_file ~path meta (fun w ->
      List.iter (fun (time, env) -> Writer.sample w ~time env) r.rec_samples;
      List.iter
        (fun (label, start_time, end_time) ->
          Writer.span w ~label ~start_time ~end_time)
        r.rec_spans)

(* Samples and spans are independent streams (the pending-sample
   buffer reorders them within an instant), so read them back
   separately. *)
let read_streams path =
  Reader.with_file path (fun reader ->
      Seq.fold_left
        (fun (samples, spans) entry ->
          match entry with
          | Entry.Sample { time; env } -> ((time, env) :: samples, spans)
          | Entry.Span { label; start_time; end_time } ->
            (samples, (label, start_time, end_time) :: spans))
        ([], []) (Reader.to_seq reader)
      |> fun (samples, spans) -> (List.rev samples, List.rev spans))

let roundtrip_cases =
  [ Helpers.qtest ~count:300 "write/read round trip (samples and spans)"
      arb_recording
      (fun r ->
        with_temp (fun path ->
            write_recording path r;
            let samples, spans = read_streams path in
            samples = r.rec_samples && spans = r.rec_spans));
    case "meta survives the header" (fun () ->
      with_temp (fun path ->
          write_recording path { rec_samples = []; rec_spans = [] };
          let got = Reader.with_file path Reader.meta in
          Alcotest.(check bool) "meta equal" true (Meta.equal meta got)));
    case "signal dictionary is recovered in sample order" (fun () ->
      with_temp (fun path ->
          write_recording path
            { rec_samples =
                [ (5, [ ("b", Expr.VBool true); ("a", Expr.VInt 3) ]) ];
              rec_spans = [] };
          Reader.with_file path (fun reader ->
              Seq.iter ignore (Reader.to_seq reader);
              Alcotest.(check (list string))
                "dict order" [ "b"; "a" ] (Reader.signals reader))));
    case "same-instant samples collapse last-wins (as in Trace_rec)" (fun () ->
      with_temp (fun path ->
          Writer.with_file ~path meta (fun w ->
              Writer.sample w ~time:10 [ ("x", Expr.VBool true) ];
              Writer.sample w ~time:10 [ ("x", Expr.VBool false) ];
              Writer.sample w ~time:20 [ ("x", Expr.VBool false) ]);
          let samples, _ = read_streams path in
          Alcotest.(check bool) "last write wins" true
            (samples
             = [ (10, [ ("x", Expr.VBool false) ]);
                 (20, [ ("x", Expr.VBool false) ]) ])));
    case "writer refuses time going backwards" (fun () ->
      with_temp (fun path ->
          let w = Writer.create ~path meta in
          Writer.sample w ~time:10 [ ("x", Expr.VBool true) ];
          (match Writer.sample w ~time:5 [ ("x", Expr.VBool true) ] with
           | () -> Alcotest.fail "accepted a backwards sample"
           | exception Invalid_argument _ -> ());
          Writer.close w));
    case "writer refuses an unstable signal set" (fun () ->
      with_temp (fun path ->
          let w = Writer.create ~path meta in
          Writer.sample w ~time:0 [ ("x", Expr.VBool true) ];
          (match
             Writer.sample w ~time:10
               [ ("x", Expr.VBool true); ("y", Expr.VInt 1) ]
           with
           | () -> Alcotest.fail "accepted extra signals"
           | exception Invalid_argument _ -> ());
          (match Writer.sample w ~time:20 [ ("x", Expr.VInt 1) ] with
           | () -> Alcotest.fail "accepted a kind change"
           | exception Invalid_argument _ -> ());
          Writer.close w)) ]

(* --- negative first time ------------------------------------------ *)

let refused_with message f =
  match f () with
  | () -> Alcotest.failf "accepted (expected %S)" message
  | exception Invalid_argument got ->
    Alcotest.(check string) "refusal message" message got

let negative_time_cases =
  [ case "a negative first time is refused at its call, then a sample"
      (fun () ->
        with_temp (fun path ->
            let w = Writer.create ~path meta in
            refused_with "Trace writer: negative time" (fun () ->
                Writer.sample w ~time:(-1) [ ("x", Expr.VBool true) ]);
            Writer.sample w ~time:5 [ ("x", Expr.VInt 3) ];
            Writer.close w;
            let samples, _ = read_streams path in
            Alcotest.(check bool) "only the accepted sample" true
              (samples = [ (5, [ ("x", Expr.VInt 3) ]) ])));
    case "a negative first time is refused at its call, then close"
      (fun () ->
        with_temp (fun path ->
            (* The refusal leaves nothing pending, so closing (here by
               [with_file]) neither raises nor wraps anything. *)
            Writer.with_file ~path meta (fun w ->
                refused_with "Trace writer: negative time" (fun () ->
                    Writer.sample w ~time:(-1) [ ("x", Expr.VBool true) ]));
            Alcotest.(check bool) "an empty, complete trace" true
              (read_streams path = ([], []));
            (* Escaping [with_file], the refusal surfaces as itself. *)
            refused_with "Trace writer: negative time" (fun () ->
                Writer.with_file ~path meta (fun w ->
                    Writer.sample w ~time:(-1) [ ("x", Expr.VBool true) ]));
            Alcotest.(check bool) "still an empty, complete trace" true
              (read_streams path = ([], []))));
    case "the bound front-end refuses a negative first time too" (fun () ->
      with_temp (fun path ->
          Writer.with_file ~path meta (fun w ->
              let record =
                Writer.bind w [ ("x", Expr.Bool_reader (fun () -> true)) ]
              in
              refused_with "Trace writer: negative time" (fun () ->
                  record ~time:(-1));
              record ~time:0);
          let samples, _ = read_streams path in
          Alcotest.(check bool) "only the accepted sample" true
            (samples = [ (0, [ ("x", Expr.VBool true) ]) ]))) ]

(* --- the two front-ends ------------------------------------------- *)

(* How a generated signal is read on the bound side: the typed readers
   of a DUV binding table, or a [Value_reader] whose value carries its
   own (possibly changing) kind. *)
type signal_kind = Bool_signal | Int_signal | Value_bool | Value_int

type step =
  | Sample_at of int * Expr.value array  (* time delta (0 = same instant) *)
  | Flip_at of int * int  (* a sample where value signal [i] flips kind *)
  | Span_of of string * int * int

type script = { kinds : signal_kind array; t0 : int; steps : step list }

let gen_script =
  let open QCheck.Gen in
  let* n = int_range 1 6 in
  let* kinds =
    array_repeat n (oneofl [ Bool_signal; Int_signal; Value_bool; Value_int ])
  in
  let gen_value = function
    | Bool_signal | Value_bool -> map (fun b -> Expr.VBool b) bool
    | Int_signal | Value_int ->
      oneof
        [ map (fun v -> Expr.VInt v) (int_range (-300) 300);
          oneofl [ Expr.VInt max_int; Expr.VInt min_int ] ]
  in
  let gen_values = flatten_a (Array.map gen_value kinds) in
  let gen_delta = frequency [ (2, return 0); (1, return (-1)); (6, int_range 1 40) ] in
  let gen_step =
    frequency
      [ (8, map2 (fun d v -> Sample_at (d, v)) gen_delta gen_values);
        (1, map2 (fun d i -> Flip_at (d, i)) gen_delta (int_range 0 (n - 1)));
        ( 3,
          map3
            (fun label start dur -> Span_of (label, start, start + dur))
            (oneofl [ "read"; "write"; "burst" ])
            (int_range 0 500) (int_range (-2) 60) ) ]
  in
  let* t0 = int_range (-2) 30 in
  let* steps = list_size (int_range 0 60) gen_step in
  return { kinds; t0; steps }

let arb_script =
  QCheck.make
    ~print:(fun s ->
      Printf.sprintf "%d signals, t0 %d, %d steps" (Array.length s.kinds) s.t0
        (List.length s.steps))
    gen_script

let flip = function
  | Expr.VBool b -> Expr.VInt (Bool.to_int b)
  | Expr.VInt v -> Expr.VBool (v <> 0)

(* Play [s] through one front-end; every call's outcome (accepted or
   its refusal message) is logged, so the two logs must match too. *)
let play ~bound path s =
  let n = Array.length s.kinds in
  let current = Array.map (function
      | Bool_signal | Value_bool -> Expr.VBool false
      | Int_signal | Value_int -> Expr.VInt 0) s.kinds
  in
  let bindings =
    List.init n (fun i ->
        let name = Printf.sprintf "s%d" i in
        ( name,
          match s.kinds.(i) with
          | Bool_signal ->
            Expr.Bool_reader
              (fun () ->
                match current.(i) with
                | Expr.VBool b -> b
                | Expr.VInt _ -> assert false)
          | Int_signal ->
            Expr.Int_reader
              (fun () ->
                match current.(i) with
                | Expr.VInt v -> v
                | Expr.VBool _ -> assert false)
          | Value_bool | Value_int -> Expr.Value_reader (fun () -> current.(i)) ))
  in
  let log = ref [] in
  let outcome f =
    log :=
      (match f () with
       | () -> "ok"
       | exception Invalid_argument msg -> msg)
      :: !log
  in
  let w = Writer.create ~path meta in
  let record = Writer.bind w bindings in
  let now = ref s.t0 in
  let sample_at delta =
    let time = !now + delta in
    outcome (fun () ->
        if bound then record ~time
        else
          Writer.sample w ~time
            (List.map (fun (name, r) -> (name, Expr.read r)) bindings);
        now := time)
  in
  List.iter
    (function
      | Sample_at (delta, values) ->
        Array.blit values 0 current 0 n;
        sample_at delta
      | Flip_at (delta, i) -> (
        match s.kinds.(i) with
        | Value_bool | Value_int ->
          let kept = current.(i) in
          current.(i) <- flip kept;
          sample_at delta;
          current.(i) <- kept
        | Bool_signal | Int_signal -> ())
      | Span_of (label, start_time, end_time) ->
        outcome (fun () -> Writer.span w ~label ~start_time ~end_time))
    s.steps;
  Writer.close w;
  (List.rev !log, Writer.samples w, Writer.spans w, Writer.bytes_written w)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Rewrite a decoded trace through the env-list front-end so that every
   block lands where the recording put it: a sample's block is written
   when the next sample arrives, so each sample entry is produced by
   feeding the one after it (the first is fed up front, the last by
   [close]). *)
let rewrite ~path meta entries =
  let upcoming =
    ref
      (List.filter_map
         (function
           | Entry.Sample { time; env } -> Some (time, env)
           | Entry.Span _ -> None)
         entries)
  in
  Writer.with_file ~path meta (fun w ->
      let feed () =
        match !upcoming with
        | (time, env) :: rest ->
          upcoming := rest;
          Writer.sample w ~time env
        | [] -> ()
      in
      feed ();
      List.iter
        (function
          | Entry.Sample _ -> feed ()
          | Entry.Span { label; start_time; end_time } ->
            Writer.span w ~label ~start_time ~end_time)
        entries)

let front_end_cases =
  [ Helpers.qtest ~count:300 "bound and env-list front-ends write the same file"
      arb_script
      (fun s ->
        with_temp (fun env_path ->
            with_temp (fun bound_path ->
                let env_run = play ~bound:false env_path s in
                let bound_run = play ~bound:true bound_path s in
                env_run = bound_run
                && String.equal (read_file env_path) (read_file bound_path))));
    case "a Value_reader changing kind is refused with the env-list message"
      (fun () ->
        with_temp (fun path ->
            let v = ref (Expr.VInt 1) in
            Writer.with_file ~path meta (fun w ->
                let record = Writer.bind w [ ("x", Expr.Value_reader (fun () -> !v)) ] in
                record ~time:0;
                v := Expr.VBool true;
                refused_with "Trace writer: signal \"x\" changed kind" (fun () ->
                    record ~time:10);
                refused_with "Trace writer: signal \"x\" changed kind" (fun () ->
                    Writer.sample w ~time:10 [ ("x", !v) ]);
                v := Expr.VInt 2;
                record ~time:10);
            let samples, _ = read_streams path in
            Alcotest.(check bool) "refused samples left no trace" true
              (samples = [ (0, [ ("x", Expr.VInt 1) ]); (10, [ ("x", Expr.VInt 2) ]) ])));
    case "shipped models: the bound recording equals its env-list rewrite"
      (fun () ->
        List.iter
          (fun (name, model) ->
            if Tabv_duv.Models.supports_trace model then
              with_temp (fun recorded ->
                  with_temp (fun rewritten ->
                      let run_meta =
                        { Meta.model = name; seed = 3; ops = 12; engine = "classic" }
                      in
                      let properties, grid_properties =
                        Tabv_duv.Models.properties_for model None
                      in
                      Writer.with_file ~path:recorded run_meta (fun w ->
                          ignore
                            (Tabv_duv.Models.run ~trace_writer:w model ~seed:3
                               ~ops:12 ~properties ~grid_properties));
                      let entries =
                        Reader.with_file recorded (fun r ->
                            List.of_seq (Reader.to_seq r))
                      in
                      rewrite ~path:rewritten run_meta entries;
                      if
                        not
                          (String.equal (read_file recorded) (read_file rewritten))
                      then Alcotest.failf "%s: rewrite differs from the recording" name)))
          Tabv_duv.Models.names) ]

(* --- damaged files ------------------------------------------------ *)

let read_all path =
  Reader.with_file path (fun reader -> Seq.iter ignore (Reader.to_seq reader))

let refuses path =
  match read_all path with
  | () -> false
  | exception Reader.Format_error _ -> true

let write_bytes path bytes =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)

let corrupt_cases =
  [ case "refuses a non-trace file" (fun () ->
      with_temp (fun path ->
          write_bytes path "definitely not a trace";
          Alcotest.(check bool) "refused" true (refuses path)));
    case "refuses an unsupported version" (fun () ->
      with_temp (fun path ->
          write_recording path { rec_samples = []; rec_spans = [] };
          let bytes = Bytes.of_string In_channel.(with_open_bin path input_all) in
          Bytes.set bytes 7 '\x63';
          write_bytes path (Bytes.to_string bytes);
          Alcotest.(check bool) "refused" true (refuses path)));
    case "refuses every truncation point" (fun () ->
      with_temp (fun path ->
          write_recording path
            { rec_samples =
                [ (0, [ ("a", Expr.VBool true); ("n", Expr.VInt 42) ]);
                  (10, [ ("a", Expr.VBool false); ("n", Expr.VInt 42) ]);
                  (25, [ ("a", Expr.VBool false); ("n", Expr.VInt (-7)) ]) ];
              rec_spans = [ ("read", 0, 20); ("write", 5, 10) ] };
          let full = In_channel.(with_open_bin path input_all) in
          Alcotest.(check bool) "full file reads" false (refuses path);
          for cut = 0 to String.length full - 1 do
            write_bytes path (String.sub full 0 cut);
            if not (refuses path) then
              Alcotest.failf "accepted a %d-byte truncation" cut
          done));
    case "refuses trailing bytes after the end record" (fun () ->
      with_temp (fun path ->
          write_recording path
            { rec_samples = [ (0, [ ("a", Expr.VBool true) ]) ];
              rec_spans = [] };
          let full = In_channel.(with_open_bin path input_all) in
          write_bytes path (full ^ "\x00");
          Alcotest.(check bool) "refused" true (refuses path)));
    case "refuses a uint varint overflowing into the sign bit" (fun () ->
      let next_of bytes =
        let i = ref 0 in
        fun () ->
          if !i >= String.length bytes then raise End_of_file
          else begin
            let c = bytes.[!i] in
            incr i;
            c
          end
      in
      (* Nine bytes whose payload sets bit 62 — the OCaml int sign bit.
         A well-formed-looking uint field must not silently decode to a
         negative value. *)
      let negative = "\x80\x80\x80\x80\x80\x80\x80\x80\x40" in
      (match Varint.read_uint (next_of negative) with
       | v -> Alcotest.failf "decoded to %d instead of raising" v
       | exception Varint.Corrupt _ -> ());
      (* Ten-byte encodings stay rejected. *)
      let overlong = "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01" in
      (match Varint.read_uint (next_of overlong) with
       | v -> Alcotest.failf "decoded to %d instead of raising" v
       | exception Varint.Corrupt _ -> ());
      (* The zigzag side still spans the full signed range (bit 62 is
         a legitimate zigzag payload bit), and max uint round-trips. *)
      let encode put v =
        let b = Bytes.create Varint.max_bytes in
        Bytes.sub_string b 0 (put b 0 v)
      in
      List.iter
        (fun v ->
          Alcotest.(check int) "zigzag round trip" v
            (Varint.read_zigzag (next_of (encode Varint.put_zigzag v))))
        [ min_int; max_int; -1; 0; 1 ];
      Alcotest.(check int) "max uint round trip" max_int
        (Varint.read_uint (next_of (encode Varint.put_uint max_int)))) ]

(* --- the offline checker API -------------------------------------- *)

let des56_trace ops_count =
  let ops = Tabv_duv.Workload.des56 ~seed:3 ~count:ops_count () in
  let result = Tabv_duv.Testbench.run_des56_rtl ~record_trace:true ops in
  match result.Tabv_duv.Testbench.trace with
  | Some trace -> trace
  | None -> Alcotest.fail "testbench recorded no trace"

module Monitors_run = Tabv_checker.Offline.Run (Tabv_checker.Offline.Monitors)
module Stats_run = Tabv_checker.Offline.Run (Tabv_checker.Offline.Stats)

let offline_cases =
  [ case "deprecated Replay.run is the Monitors instance" (fun () ->
      let trace = des56_trace 15 in
      let props = Tabv_duv.Des56_props.all in
      (* Reset the progression universe before each run so the
         snapshot cache counters start from the same cold state. *)
      Tabv_checker.Progression.reset_universe ();
      let via_replay =
        List.map
          (fun o ->
            Tabv_checker.Monitor.snapshot o.Tabv_checker.Replay.monitor)
          ((Tabv_checker.Replay.run [@alert "-deprecated"]) props trace)
      in
      Tabv_checker.Progression.reset_universe ();
      let via_offline =
        Tabv_checker.Offline.Monitors.snapshots
          (Monitors_run.over_trace
             (Tabv_checker.Offline.Monitors.config props)
             trace)
      in
      Alcotest.(check bool) "identical snapshots" true
        (via_replay = via_offline));
    case "over_file matches over_trace on a recorded run" (fun () ->
      let trace = des56_trace 12 in
      let props = Tabv_duv.Des56_props.all in
      with_temp (fun path ->
          Writer.with_file ~path meta (fun w ->
              Seq.iter
                (function
                  | Entry.Sample { time; env } -> Writer.sample w ~time env
                  | Entry.Span _ -> ())
                (Entry.of_trace trace));
          let config = Tabv_checker.Offline.Monitors.config props in
          Tabv_checker.Progression.reset_universe ();
          let of_file =
            Tabv_checker.Offline.Monitors.snapshots
              (Monitors_run.over_file config path)
          in
          Tabv_checker.Progression.reset_universe ();
          let of_trace =
            Tabv_checker.Offline.Monitors.snapshots
              (Monitors_run.over_trace config trace)
          in
          Alcotest.(check bool) "identical snapshots" true
            (of_file = of_trace)));
    case "Stats checker counts points, changes and span latencies" (fun () ->
      let open Tabv_checker.Offline.Stats in
      let entries =
        List.to_seq
          [ Entry.Sample
              { time = 0; env = [ ("a", Expr.VBool true); ("n", Expr.VInt 1) ] };
            Entry.Span { label = "read"; start_time = 0; end_time = 20 };
            Entry.Sample
              { time = 10; env = [ ("a", Expr.VBool true); ("n", Expr.VInt 2) ] };
            Entry.Span { label = "write"; start_time = 5; end_time = 10 };
            Entry.Sample
              { time = 30;
                env = [ ("a", Expr.VBool false); ("n", Expr.VInt 2) ] };
            Entry.Span { label = "read"; start_time = 10; end_time = 40 } ]
      in
      let stats = Stats_run.over_seq () entries in
      Alcotest.(check int) "samples" 3 stats.samples;
      Alcotest.(check int) "spans" 3 stats.spans;
      Alcotest.(check int) "first" 0 stats.first_time;
      Alcotest.(check int) "last" 30 stats.last_time;
      Alcotest.(check bool) "changes" true
        (stats.signals
         = [ { signal = "a"; changes = 1 }; { signal = "n"; changes = 1 } ]);
      Alcotest.(check bool) "span labels sorted with latencies" true
        (stats.span_labels
         = [ { label = "read"; count = 2; total_latency = 50; max_latency = 30 };
             { label = "write"; count = 1; total_latency = 5; max_latency = 5 }
           ])) ]

(* --- parallel re-checking ----------------------------------------- *)

let record_des56 path ops_count =
  let ops = Tabv_duv.Workload.des56 ~seed:5 ~count:ops_count () in
  let run_meta =
    { Meta.model = "des56-rtl"; seed = 5; ops = ops_count; engine = "classic" }
  in
  Writer.with_file ~path run_meta (fun w ->
      Tabv_duv.Testbench.run_des56_rtl ~trace_writer:w
        ~properties:Tabv_duv.Des56_props.all ops)

let recheck_cases =
  [ case "recheck report is identical to the live check" (fun () ->
      with_temp (fun path ->
          let live = record_des56 path 15 in
          let run_fields =
            [ ("model", Tabv_core.Report_json.String "des56-rtl");
              ("seed", Tabv_core.Report_json.Int 5);
              ("ops", Tabv_core.Report_json.Int 15) ]
          in
          let live_doc =
            Tabv_core.Report_json.to_string
              (Tabv_core.Report_json.verdict_report_json ~run:run_fields
                 ~properties:live.Tabv_duv.Testbench.checker_stats ())
          in
          let rechecked =
            Tabv_campaign.Recheck.run ~workers:2 ~retries:0 ~trace:path
              Tabv_duv.Des56_props.all
          in
          Alcotest.(check string) "byte-identical" live_doc
            (Tabv_core.Report_json.to_string
               (Tabv_campaign.Recheck.report_json rechecked))));
    case "recheck report is independent of the worker count" (fun () ->
      with_temp (fun path ->
          ignore (record_des56 path 15);
          let report workers =
            Tabv_core.Report_json.to_string
              (Tabv_campaign.Recheck.report_json
                 (Tabv_campaign.Recheck.run ~workers ~retries:0 ~trace:path
                    Tabv_duv.Des56_props.all))
          in
          let one = report 1 in
          Alcotest.(check string) "1 = 3 workers" one (report 3);
          Alcotest.(check string) "1 = 16 workers" one (report 16)));
    case "property sources re-parse to the same property" (fun () ->
      (* Machine-abstracted properties may carry expression-level
         boolean connectives where the parser builds LTL-level ones
         (both print and check identically), so the wire contract is
         pinned on the printed form: name, context and formula text
         must survive the source/parse round trip unchanged. *)
      List.iter
        (fun p ->
          match
            Parser.file (Tabv_campaign.Recheck.property_source p)
          with
          | [ q ] ->
            if not (String.equal (Property.to_string p) (Property.to_string q))
            then
              Alcotest.failf "%s did not round trip" p.Property.name
          | _ -> Alcotest.failf "%s parsed to several" p.Property.name)
        (Tabv_duv.Des56_props.all @ Tabv_duv.Des56_props.tlm_reviewed ()
        @ Tabv_duv.Memctrl_props.all)) ]

(* --- bounded memory ----------------------------------------------- *)

(* A long synthetic trace streamed through the reader must keep live
   words flat: materializing it (the old Replay shape) would retain
   tens of words per sample and trip the bound. *)
let memory_cases =
  [ Alcotest.test_case "streaming a 200k-sample trace is O(signal count)"
      `Slow (fun () ->
        with_temp (fun path ->
            let n = 200_000 in
            Writer.with_file ~path meta (fun w ->
                for i = 0 to n - 1 do
                  Writer.sample w ~time:(i * 10)
                    [ ("a", Expr.VBool (i land 1 = 0));
                      ("n", Expr.VInt (i * 3)) ]
                done);
            Gc.full_major ();
            let baseline = (Gc.stat ()).Gc.live_words in
            let peak = ref baseline in
            let count = ref 0 in
            Reader.with_file path (fun reader ->
                Seq.iter
                  (fun _ ->
                    incr count;
                    if !count mod 50_000 = 0 then begin
                      Gc.full_major ();
                      let live = (Gc.stat ()).Gc.live_words in
                      if live > !peak then peak := live
                    end)
                  (Reader.to_seq reader));
            Alcotest.(check int) "all samples streamed" n !count;
            let growth = !peak - baseline in
            if growth > 1_000_000 then
              Alcotest.failf
                "live words grew by %d (trace is being materialized)" growth))
  ]

let suite =
  ( "trace",
    roundtrip_cases @ negative_time_cases @ front_end_cases @ corrupt_cases @ offline_cases @ recheck_cases
    @ memory_cases )
