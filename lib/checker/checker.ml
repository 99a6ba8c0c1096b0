open Tabv_psl
open Tabv_sim

module Attach = struct
  type mode =
    | Clock_edge of {
        clock : Clock.t;
        clocks : (string * Clock.t) list;
      }
    | Transaction of Tlm.Initiator.t
    | Transaction_unabstracted of Tlm.Initiator.t
    | Grid of {
        clock_period : int;
        phase : int;
      }

  type spec = {
    sampler : Sampler.t;
    mode : mode;
    metrics : Tabv_obs.Metrics.t option;
  }

  let spec ?metrics ~sampler mode = { sampler; mode; metrics }
  let clock_edge ?(clocks = []) clock = Clock_edge { clock; clocks }
  let transaction initiator = Transaction initiator
  let transaction_unabstracted initiator = Transaction_unabstracted initiator

  let grid ?(phase = 1) ~clock_period () =
    if clock_period <= 0 then
      invalid_arg "Checker.Attach.grid: clock_period must be positive";
    Grid { clock_period; phase }
end

type t = {
  monitor : Monitor.t;
  max_eps : int;
  mutable step_scheduled_for : int;  (* instant with a pending step, -1 if none *)
  deferred_step : unit -> unit;  (* steps at [step_scheduled_for] *)
}

(* Every step goes through the batched sampler: priming reads the
   environment once per evaluation point and fans the valuations out
   to all monitors sharing the sampler (idempotent per instant), so
   the per-monitor step is answered from the cache. *)
let step_primed monitor ~time =
  Sampler.prime (Monitor.sampler monitor) ~time;
  Monitor.step monitor ~time

(* Several transactions may end at the same instant; Def. III.2's
   transaction context evaluates the property once per instant, on the
   final observable state, exactly as an RTL checker evaluates once
   per clock edge.  The step is deferred by one delta cycle so every
   same-instant mirror update lands first.  The deferred closure is
   the checker's own: the instant does not advance before the next
   delta runs, so it reads the instant back from the checker. *)
let schedule_step t kernel =
  let now = Kernel.now kernel in
  if t.step_scheduled_for <> now then begin
    t.step_scheduled_for <- now;
    Kernel.schedule_next_delta kernel t.deferred_step
  end

let require_transaction_context ~what property =
  match property.Property.context with
  | Context.Transaction _ -> ()
  | Context.Clock _ ->
    invalid_arg
      (Printf.sprintf "Checker.attach (%s): property %s has a clock context"
         what property.Property.name)

let require_clock_context ~what property =
  match property.Property.context with
  | Context.Clock _ -> ()
  | Context.Transaction _ ->
    invalid_arg
      (Printf.sprintf
         "Checker.attach (%s): property %s has a transaction context" what
         property.Property.name)

(* One pull-probe set per attached checker.  [Metrics.probe] appends,
   so every checker on the kernel contributes to the same registry
   names: `Sum` combiners total across properties, `Max` keeps the
   worst-case instance pressure. *)
let register_metrics metrics monitor =
  let module M = Tabv_obs.Metrics in
  if M.enabled metrics then begin
    M.incr (M.counter metrics "checker.monitors");
    let sum name f = M.probe metrics ~combine:`Sum name f
    and max name f = M.probe metrics ~combine:`Max name f in
    sum "checker.activations" (fun () -> Monitor.activations monitor);
    sum "checker.passes" (fun () -> Monitor.passes monitor);
    sum "checker.trivial_passes" (fun () -> Monitor.trivial_passes monitor);
    sum "checker.steps" (fun () -> Monitor.steps monitor);
    sum "checker.pending" (fun () -> Monitor.pending monitor);
    sum "checker.cache_hits" (fun () -> Monitor.cache_hits monitor);
    sum "checker.cache_misses" (fun () -> Monitor.cache_misses monitor);
    sum "checker.failures" (fun () -> List.length (Monitor.failures monitor));
    max "checker.peak_instances" (fun () -> Monitor.peak_instances monitor);
    max "checker.peak_distinct_states" (fun () ->
      Monitor.peak_distinct_states monitor)
  end

let attach (spec : Attach.spec) kernel property =
  let { Attach.sampler; mode; metrics } = spec in
  (* Validate the property context against the requested mode before
     synthesizing anything. *)
  (match mode with
   | Attach.Transaction _ -> require_transaction_context ~what:"transaction" property
   | Attach.Transaction_unabstracted _ ->
     require_clock_context ~what:"unabstracted" property
   | Attach.Grid { clock_period; _ } ->
     if clock_period <= 0 then
       invalid_arg "Checker.attach: clock_period must be positive";
     require_transaction_context ~what:"grid" property
   | Attach.Clock_edge _ -> require_clock_context ~what:"clock-edge" property);
  let monitor = Monitor.create ~sampler property in
  let max_eps = Ltl.max_eps property.Property.formula in
  let rec t =
    {
      monitor;
      max_eps;
      step_scheduled_for = -1;
      deferred_step = (fun () -> step_primed monitor ~time:t.step_scheduled_for);
    }
  in
  (match mode with
   | Attach.Transaction initiator | Attach.Transaction_unabstracted initiator ->
     Tlm.Initiator.on_transaction initiator (fun _transaction ->
       schedule_step t kernel)
   | Attach.Grid { clock_period; phase } ->
     let rec tick () =
       step_primed monitor ~time:(Kernel.now kernel);
       Kernel.schedule_after kernel ~delay:clock_period tick
     in
     Kernel.schedule_at kernel ~time:phase tick
   | Attach.Clock_edge { clock; clocks } ->
     let sampling_clock, edge =
       match property.Property.context with
       | Context.Clock Context.Base_clock -> (clock, Context.Posedge)
       | Context.Clock (Context.Edge e)
       | Context.Clock (Context.Edge_and (e, _)) -> (clock, e)
       | Context.Clock
           (Context.Named_edge (name, e) | Context.Named_edge_and (name, e, _))
         ->
         (match List.assoc_opt name clocks with
          | Some named_clock -> (named_clock, e)
          | None ->
            invalid_arg
              (Printf.sprintf
                 "Checker.attach: property %s names unknown clock %S"
                 property.Property.name name))
       | Context.Transaction _ -> assert false (* validated above *)
     in
     let sample () = step_primed monitor ~time:(Kernel.now kernel) in
     (match edge with
      | Context.Posedge -> Event.on_event (Clock.posedge sampling_clock) sample
      | Context.Negedge -> Event.on_event (Clock.negedge sampling_clock) sample
      | Context.Any_edge ->
        Event.on_event (Clock.posedge sampling_clock) sample;
        Event.on_event (Clock.negedge sampling_clock) sample));
  let metrics =
    match metrics with
    | Some m -> m
    | None -> Kernel.metrics kernel
  in
  register_metrics metrics monitor;
  t

let monitor t = t.monitor
let failures t = Monitor.failures t.monitor
let snapshot t = Monitor.snapshot t.monitor

let array_size t ~clock_period =
  if clock_period <= 0 then
    invalid_arg "Checker.array_size: clock_period must be positive";
  (t.max_eps + clock_period - 1) / clock_period
