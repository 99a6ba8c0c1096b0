open Tabv_psl
open Tabv_checker

(* One checker generator: synthesizes an executable checker from the
   (normalized, outer-[always]-stripped) body of a property.  [compile]
   may raise to refuse a body; [context] is the per-evaluation-point
   precomputation every instance shares. *)
module type GENERATOR = sig
  type program
  type state
  type context

  val engine : string  (* the snapshots' [engine] string *)
  val compile : Ltl.t -> program
  val initial : program -> state
  val context : program -> (string -> Expr.value option) -> context
  val step : program -> context -> time:int -> state -> state
  val verdict : program -> state -> bool option
  val next_evaluation_time : state -> int option
end

module type S = sig
  type monitor

  include
    Offline.OFFLINE_CHECKER
      with type config = Property.t list
       and type result = (Property.t * monitor) list

  val failures : monitor -> Monitor.failure list
  val activations : monitor -> int
  val passes : monitor -> int
  val trivial_passes : monitor -> int
  val pending : monitor -> int
  val peak_instances : monitor -> int
  val vacuous : monitor -> bool
  val evaluation_table : monitor -> int list
  val snapshots : result -> Tabv_obs.Checker_snapshot.t list
end

module Make (G : GENERATOR) : S = struct
  type instance = {
    activated_at : int;
    mutable obligation : G.state;
  }

  type monitor = {
    property : Property.t;
    program : G.program;
    temporal_body : bool;
    repeating : bool;  (* outer [always]: activate per evaluation point *)
    gate_atom : Interned.t option;
    sampler : Sampler.t;
    lookup : string -> Expr.value option;
    mutable instances : instance list;  (* newest first *)
    mutable started : bool;
    mutable failures : Monitor.failure list;  (* unordered; sorted on read *)
    mutable activations : int;
    mutable passes : int;
    mutable trivial_passes : int;
    mutable peak : int;
    mutable peak_distinct : int;
    mutable steps : int;
  }

  let gate_of_context = function
    | Context.Clock (Context.Base_clock | Context.Edge _ | Context.Named_edge _)
    | Context.Transaction Context.Base_trans ->
      None
    | Context.Clock
        (Context.Edge_and (_, gate) | Context.Named_edge_and (_, _, gate))
    | Context.Transaction (Context.Trans_and gate) ->
      Some gate

  let create ~sampler ~lookup property =
    let repeating, body =
      match Nnf.convert (Ltl.demote_booleans property.Property.formula) with
      | Ltl.Always body -> (true, body)
      | other -> (false, other)
    in
    let program = G.compile body in
    let gate_atom =
      Option.map Interned.atom (gate_of_context property.Property.context)
    in
    Option.iter (Sampler.register sampler) gate_atom;
    {
      property;
      program;
      temporal_body = not (Simple_subset.is_boolean body);
      repeating;
      gate_atom;
      sampler;
      lookup;
      instances = [];
      started = false;
      failures = [];
      activations = 0;
      passes = 0;
      trivial_passes = 0;
      peak = 0;
      peak_distinct = 0;
      steps = 0;
    }

  let record_failure t ~activation_time ~failure_time =
    t.failures <-
      { Monitor.property_name = t.property.Property.name; activation_time;
        failure_time }
      :: t.failures

  (* Evaluation of the live instances, then activation of a new one. *)
  let step_instances t ~time =
    let ctx = G.context t.program t.lookup in
    t.instances <-
      List.filter
        (fun instance ->
          instance.obligation <- G.step t.program ctx ~time instance.obligation;
          match G.verdict t.program instance.obligation with
          | Some true ->
            t.passes <- t.passes + 1;
            false
          | Some false ->
            record_failure t ~activation_time:instance.activated_at
              ~failure_time:time;
            false
          | None -> true)
        t.instances;
    if t.repeating || not t.started then begin
      let obligation = G.step t.program ctx ~time (G.initial t.program) in
      match G.verdict t.program obligation with
      | Some true ->
        t.passes <- t.passes + 1;
        t.trivial_passes <- t.trivial_passes + 1
      | Some false ->
        t.activations <- t.activations + 1;
        record_failure t ~activation_time:time ~failure_time:time
      | None ->
        t.activations <- t.activations + 1;
        t.instances <- { activated_at = time; obligation } :: t.instances
    end

  let step t ~time =
    let gated_out =
      match t.gate_atom with
      | None -> false
      | Some gate -> not (Sampler.eval_atom t.sampler ~time gate)
    in
    if not gated_out then begin
      t.steps <- t.steps + 1;
      step_instances t ~time;
      t.started <- true;
      let live = List.length t.instances in
      if live > t.peak then t.peak <- live;
      if live > t.peak_distinct then t.peak_distinct <- live
    end

  let failures t =
    List.stable_sort
      (fun (a : Monitor.failure) (b : Monitor.failure) ->
        match compare a.failure_time b.failure_time with
        | 0 -> compare a.activation_time b.activation_time
        | c -> c)
      (List.rev t.failures)

  let activations t = t.activations
  let passes t = t.passes
  let trivial_passes t = t.trivial_passes
  let pending t = List.length t.instances
  let peak_instances t = t.peak
  let vacuous t = t.temporal_body && t.steps > 0 && t.activations = 0

  let evaluation_table t =
    List.sort compare
      (List.filter_map
         (fun instance -> G.next_evaluation_time instance.obligation)
         t.instances)

  let snapshot t =
    {
      Tabv_obs.Checker_snapshot.property_name = t.property.Property.name;
      engine = G.engine;
      activations = t.activations;
      passes = t.passes;
      trivial_passes = t.trivial_passes;
      vacuous = vacuous t;
      peak_instances = t.peak;
      peak_distinct_states = t.peak_distinct;
      pending = pending t;
      steps = t.steps;
      cache_hits = 0;
      cache_misses = 0;
      failures = failures t;
    }

  (* --- the offline checker --------------------------------------- *)

  type config = Property.t list

  type state = {
    env : Offline.Entry_env.t;
    pool : (Property.t * monitor) list;
  }

  type result = (Property.t * monitor) list

  let name = G.engine

  (* One sampler for the pool's gates and one lookup for the
     instances, both over the entry environment. *)
  let init properties =
    let env = Offline.Entry_env.create () in
    let resolve = Offline.Entry_env.resolve env in
    let sampler = Sampler.create resolve in
    let lookup name = Option.map Expr.read (resolve name) in
    { env; pool = List.map (fun p -> (p, create ~sampler ~lookup p)) properties }

  let on_entry state = function
    | Tabv_trace.Entry.Span _ -> ()
    | Tabv_trace.Entry.Sample { time; env } ->
      Offline.Entry_env.set state.env env;
      List.iter (fun (_, monitor) -> step monitor ~time) state.pool

  let finalize state = state.pool
  let snapshots result = List.map (fun (_, m) -> snapshot m) result
end

module Legacy = Make (struct
  type program = Ltl.t
  type state = Legacy.t
  type context = string -> Expr.value option

  let engine = "progression-legacy"
  let compile body = body
  let initial = Legacy.of_formula
  let context _ lookup = lookup
  let step _ lookup ~time state = Legacy.step ~time lookup state
  let verdict _ = Legacy.verdict
  let next_evaluation_time = Legacy.next_evaluation_time
end)

module Automaton = Make (struct
  type program = Automaton.t
  type state = Automaton.state
  type context = int  (* the atom valuation of the evaluation point *)

  let engine = "automaton"
  let compile = Automaton.compile ~max_states:256
  let initial = Automaton.initial
  let context = Automaton.valuation
  let step automaton valuation ~time:_ state =
    Automaton.step_valuation automaton state valuation
  let verdict = Automaton.verdict
  let next_evaluation_time _ = None
end)
