open Tabv_psl

module type OFFLINE_CHECKER = sig
  type config
  type state
  type result

  val name : string
  val init : config -> state
  val on_entry : state -> Tabv_trace.Entry.t -> unit
  val finalize : state -> result
end

module Run (C : OFFLINE_CHECKER) = struct
  let over_seq config entries =
    let state = C.init config in
    Seq.iter (fun entry -> C.on_entry state entry) entries;
    C.finalize state

  let over_trace config trace =
    over_seq config (Tabv_trace.Entry.of_trace trace)

  let over_reader config reader =
    let state = C.init config in
    let rec feed () =
      match Tabv_trace.Reader.next reader with
      | Some entry ->
        C.on_entry state entry;
        feed ()
      | None -> ()
    in
    feed ();
    C.finalize state

  let over_file config path =
    Tabv_trace.Reader.with_file path (over_reader config)
end

(* The environment of the current trace entry, as the monitors'
   compiled readers see it.  Every signal a reader asks for gets a
   slot; a sample is loaded into the slots lazily, on the first read,
   through the positions of the trace dictionary ([dict] caches the
   last env's names and [pos_slot] their slots, so a file trace maps
   positions once).  A slot is bound for a sample only when the sample
   carries its signal, the first occurrence winning, exactly as
   [List.assoc_opt] on the env. *)
module Entry_env = struct
  type t = {
    index : (string, int) Hashtbl.t;  (* signal name -> slot *)
    mutable values : Expr.value array;
    mutable bound : int array;  (* sample number that last set the slot, or -1 *)
    mutable env : (string * Expr.value) list;  (* current sample's env *)
    mutable sample : int;  (* bumped whenever [env] changes *)
    mutable loaded : int;  (* sample number held in [values], or -1 *)
    mutable dict : string array;  (* names by position, last shape seen *)
    mutable pos_slot : int array;  (* position -> slot, -1 if never read *)
  }

  let create () =
    {
      index = Hashtbl.create 16;
      values = [||];
      bound = [||];
      env = [];
      sample = 0;
      loaded = -1;
      dict = [||];
      pos_slot = [||];
    }

  let set t env =
    if env != t.env then begin
      t.env <- env;
      t.sample <- t.sample + 1
    end

  let rec same_shape dict i = function
    | [] -> i = Array.length dict
    | (name, _) :: rest ->
      i < Array.length dict
      && (let known = Array.unsafe_get dict i in
          known == name || String.equal known name)
      && same_shape dict (i + 1) rest

  let rec fill t sample i = function
    | [] -> ()
    | (_, value) :: rest ->
      let slot = Array.unsafe_get t.pos_slot i in
      if slot >= 0 && t.bound.(slot) <> sample then begin
        t.values.(slot) <- value;
        t.bound.(slot) <- sample
      end;
      fill t sample (i + 1) rest

  let load t =
    if not (same_shape t.dict 0 t.env) then begin
      t.dict <- Array.of_list (List.map fst t.env);
      t.pos_slot <-
        Array.map
          (fun name -> Option.value (Hashtbl.find_opt t.index name) ~default:(-1))
          t.dict
    end;
    fill t t.sample 0 t.env;
    t.loaded <- t.sample

  let slot t name =
    match Hashtbl.find_opt t.index name with
    | Some slot -> slot
    | None ->
      let slot = Hashtbl.length t.index in
      Hashtbl.add t.index name slot;
      t.values <- Array.append t.values [| Expr.VBool false |];
      t.bound <- Array.append t.bound [| -1 |];
      t.dict <- [||] (* remap the positions at the next load *);
      t.loaded <- -1;
      slot

  let resolve t name =
    let slot = slot t name in
    Some
      (Expr.Value_reader
         (fun () ->
           if t.loaded <> t.sample then load t;
           if t.bound.(slot) = t.sample then t.values.(slot)
           else Expr.unbound_signal name))
end

module Monitors = struct
  type monitor_config = {
    stutter : bool;
    properties : Property.t list;
  }

  type config = monitor_config

  type state = {
    pool : (Property.t * Monitor.t) list;
    env : Entry_env.t;  (* what the pool's compiled readers read *)
    (* Support mask per monitor: bit [min i 62] for every dictionary
       position [i] of a signal the property reads (formula atoms and
       context gate).  Built from the first sample's env; positions
       beyond 62 share one overflow bit, erring toward stepping. *)
    mutable slots : (Monitor.t * int) list;
    mutable dict : string array;  (* the first env's names: the mask positions *)
    mutable prev_env : (string * Expr.value) list;
    mutable prev_fits : bool;  (* [prev_env] has the shape of [dict] *)
    mutable have_prev : bool;
    (* Samples whose replay has been deferred: when the env is
       physically unchanged and every monitor in the pool is
       replay-capable, whole stutter runs collapse to one counter that
       is flushed as [Monitor.replay ~count] at the next real step (or
       at finalize).  Spans do not interrupt a run. *)
    mutable batched : int;
    (* [false] disables the whole stutter machinery (masks, memo,
       batching): every entry takes a real step.  The verdicts are
       identical either way; benchmarks that isolate the per-step
       engine cost need the undiluted path. *)
    stutter : bool;
  }

  type result = (Property.t * Monitor.t) list

  let name = "monitors"

  let config ?(stutter = true) properties = { stutter; properties }

  let init { stutter; properties } =
    (* One shared sampler across the pool, as in live checking: each
       distinct atom is compiled once, against the trace entry's
       slots, and evaluated once per entry no matter how many
       properties mention it. *)
    let env = Entry_env.create () in
    let sampler = Sampler.create (Entry_env.resolve env) in
    let pool =
      List.map
        (fun p ->
          let m = Monitor.create ~sampler p in
          if stutter then Monitor.enable_memo m;
          (p, m))
        properties
    in
    {
      pool;
      env;
      slots = [];
      dict = [||];
      prev_env = [];
      prev_fits = false;
      have_prev = false;
      batched = 0;
      stutter;
    }

  let build_slots pool env =
    let bit_of name =
      let rec find i = function
        | [] -> 0  (* absent from the trace: the value never changes *)
        | (n, _) :: rest ->
          if String.equal n name then 1 lsl min i 62 else find (i + 1) rest
      in
      find 0 env
    in
    List.map
      (fun (p, m) ->
        ( m,
          List.fold_left
            (fun acc s -> acc lor bit_of s)
            0 (Property.signals p) ))
      pool

  (* Bitmask of dictionary positions whose value differs between two
     envs of the dictionary's shape. *)
  let changed_mask prev env =
    let rec walk i acc prev env =
      match prev, env with
      | [], [] -> acc
      | (_, v1) :: prev', (_, v2) :: env' ->
        let acc =
          if v1 == v2 || Expr.equal_value v1 v2 then acc
          else acc lor (1 lsl min i 62)
        in
        walk (i + 1) acc prev' env'
      | [], _ :: _ | _ :: _, [] -> -1
    in
    walk 0 0 prev env

  let flush state =
    if state.batched > 0 then begin
      List.iter
        (fun (m, _) -> Monitor.replay m ~count:state.batched)
        state.slots;
      state.batched <- 0
    end

  let on_entry state = function
    | Tabv_trace.Entry.Span _ -> ()
    | Tabv_trace.Entry.Sample { time; env } when not state.stutter ->
      if not state.have_prev then begin
        state.slots <- build_slots state.pool env;
        state.have_prev <- true
      end;
      Entry_env.set state.env env;
      List.iter (fun (monitor, _) -> Monitor.step monitor ~time) state.slots
    | Tabv_trace.Entry.Sample { time; env } ->
      if
        state.have_prev
        && env == state.prev_env
        && (state.batched > 0
            || List.for_all (fun (m, _) -> Monitor.can_replay m) state.slots)
      then
        (* Deep stutter: the reader re-emitted the previous env and the
           whole pool is replayable — defer, the run flushes in O(pool)
           no matter how long it gets. *)
        state.batched <- state.batched + 1
      else begin
        flush state;
        let first = not state.have_prev in
        if first then begin
          state.slots <- build_slots state.pool env;
          state.dict <- Array.of_list (List.map fst env)
        end;
        (* The masks name positions of the first env, so only envs with
           its names in its order compare position by position; any
           other shape counts as a change of every signal. *)
        let fits =
          (env == state.prev_env && state.prev_fits)
          || Entry_env.same_shape state.dict 0 env
        in
        let changed =
          if first || not (fits && state.prev_fits) then -1
          else if env == state.prev_env then 0
          else changed_mask state.prev_env env
        in
        state.prev_env <- env;
        state.prev_fits <- fits;
        state.have_prev <- true;
        Entry_env.set state.env env;
        List.iter
          (fun (monitor, mask) ->
            if (not first) && changed land mask = 0 then begin
              (* Stutter: every signal this monitor reads is unchanged
                 (never on the first sample, which has no predecessor,
                 even for a monitor that reads no signal at all).
                 Replay the previous step's deltas when the memo allows,
                 otherwise take a real step that certifies the memo. *)
              if not (Monitor.step_stuttered monitor ~time) then
                Monitor.step ~stuttered:true monitor ~time
            end
            else Monitor.step monitor ~time)
          state.slots
      end

  let finalize state =
    flush state;
    state.pool

  let snapshots result = List.map (fun (_, m) -> Monitor.snapshot m) result
end

module Cover = struct
  type config = Monitors.monitor_config
  type state = Monitors.state
  type result = Coverage.summary

  let name = "coverage"
  let config = Monitors.config
  let init = Monitors.init
  let on_entry = Monitors.on_entry

  let finalize state = Coverage.summarize (List.map snd (Monitors.finalize state))
end

module Stats = struct
  type signal_stat = { signal : string; changes : int }

  type span_stat = {
    label : string;
    count : int;
    total_latency : int;
    max_latency : int;
  }

  type stats = {
    samples : int;
    spans : int;
    first_time : int;
    last_time : int;
    signals : signal_stat list;
    span_labels : span_stat list;
  }

  type config = unit

  type state = {
    mutable s_samples : int;
    mutable s_spans : int;
    mutable s_first : int;
    mutable s_last : int;
    (* Dictionary order of the first sample, change counts and last
       value per signal. *)
    mutable s_order : string list;  (* reversed *)
    s_changes : (string, int ref * Expr.value ref) Hashtbl.t;
    s_spans_tbl : (string, (int ref * int ref * int ref)) Hashtbl.t;
  }

  type result = stats

  let name = "trace-stats"

  let init () =
    {
      s_samples = 0;
      s_spans = 0;
      s_first = 0;
      s_last = 0;
      s_order = [];
      s_changes = Hashtbl.create 16;
      s_spans_tbl = Hashtbl.create 8;
    }

  let on_entry state = function
    | Tabv_trace.Entry.Sample { time; env } ->
      if state.s_samples = 0 then state.s_first <- time;
      state.s_last <- time;
      state.s_samples <- state.s_samples + 1;
      List.iter
        (fun (signal, value) ->
          match Hashtbl.find_opt state.s_changes signal with
          | None ->
            state.s_order <- signal :: state.s_order;
            Hashtbl.add state.s_changes signal (ref 0, ref value)
          | Some (changes, last) ->
            if !last <> value then begin
              incr changes;
              last := value
            end)
        env
    | Tabv_trace.Entry.Span { label; start_time; end_time } ->
      state.s_spans <- state.s_spans + 1;
      let latency = end_time - start_time in
      (match Hashtbl.find_opt state.s_spans_tbl label with
       | None -> Hashtbl.add state.s_spans_tbl label (ref 1, ref latency, ref latency)
       | Some (count, total, max_l) ->
         incr count;
         total := !total + latency;
         if latency > !max_l then max_l := latency)

  let finalize state =
    let signals =
      List.rev_map
        (fun signal ->
          let changes, _ = Hashtbl.find state.s_changes signal in
          { signal; changes = !changes })
        state.s_order
    in
    let span_labels =
      Hashtbl.fold
        (fun label (count, total, max_l) acc ->
          { label; count = !count; total_latency = !total; max_latency = !max_l }
          :: acc)
        state.s_spans_tbl []
      |> List.sort (fun a b -> String.compare a.label b.label)
    in
    {
      samples = state.s_samples;
      spans = state.s_spans;
      first_time = state.s_first;
      last_time = state.s_last;
      signals;
      span_labels;
    }

  let stats_json stats =
    let open Tabv_core.Report_json in
    Assoc
      [ ("samples", Int stats.samples);
        ("spans", Int stats.spans);
        ("first_time", Int stats.first_time);
        ("last_time", Int stats.last_time);
        ( "signals",
          List
            (List.map
               (fun s -> Assoc [ ("name", String s.signal); ("changes", Int s.changes) ])
               stats.signals) );
        ( "span_labels",
          List
            (List.map
               (fun s ->
                 Assoc
                   [ ("label", String s.label);
                     ("count", Int s.count);
                     ("total_latency_ns", Int s.total_latency);
                     ("max_latency_ns", Int s.max_latency) ])
               stats.span_labels) ) ]

  let pp ppf stats =
    Format.fprintf ppf
      "@[<v>%d evaluation points over [%d,%d] ns, %d spans" stats.samples
      stats.first_time stats.last_time stats.spans;
    List.iter
      (fun s -> Format.fprintf ppf "@,  %-16s %d changes" s.signal s.changes)
      stats.signals;
    List.iter
      (fun s ->
        Format.fprintf ppf "@,  span %-11s %d, mean latency %.1f ns, max %d ns"
          s.label s.count
          (if s.count = 0 then 0. else float_of_int s.total_latency /. float_of_int s.count)
          s.max_latency)
      stats.span_labels;
    Format.fprintf ppf "@]"
end
