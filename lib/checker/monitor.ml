open Tabv_psl

(* The failure record is shared with the report layer through
   [Tabv_obs.Checker_snapshot] (tabv_core sits below this library in
   the dependency order); re-exporting the definition keeps the fields
   usable under both module paths. *)
type failure = Tabv_obs.Checker_snapshot.failure = {
  property_name : string;
  activation_time : int;
  failure_time : int;
}

type engine =
  [ `Progression
  | `Progression_legacy
  | `Automaton
  ]

(* The synthesis backends share the monitor through two live-instance
   representations:
   - the interned engine keeps a multiset of hash-consed states, each
     carrying the activation times that reached it (the paper's array
     [C] becomes [state -> activation times]);
   - the legacy and automaton engines keep the original list of live
     instances, one per activation. *)

type backend =
  | Interned_backend of Progression.t  (* initial obligation *)
  | Legacy_backend
  | Auto_backend of Automaton.t

type list_obligation =
  | Legacy_ob of Progression.Legacy.t
  | Auto_ob of Automaton.state

type instance = {
  activated_at : int;
  mutable obligation : list_obligation;
}

(* Counter deltas of the most recent {!step}, for the stutter fast
   path: when the caller knows the relevant valuation is unchanged
   since the previous evaluation point, a step whose outcome cannot
   depend on anything else (no live obligations before or after, no
   failure recorded — or a gated-out no-op) is a pure function of the
   valuation and can be replayed by re-applying its deltas.  The
   [stuttered] flag records that the memoized step itself ran on an
   unchanged valuation, so its cache-counter deltas are already in
   the steady (memo-warm) regime and replaying them is exact; a step
   with zero cache misses is in that regime regardless (repeating it
   is guaranteed to hit the just-written memo entries again).  One
   record per monitor, rewritten in place by every step. *)
type step_memo = {
  mutable m_valid : bool;  (* some step has been recorded *)
  mutable m_steps : int;
  mutable m_activations : int;
  mutable m_passes : int;
  mutable m_trivial : int;
  mutable m_hits : int;
  mutable m_misses : int;
  mutable m_eligible : bool;
  mutable m_stuttered : bool;
}

(* Slot codes of [remap] for states that resolved this step. *)
let passed = -1
let failed = -2

type t = {
  property : Property.t;
  body : Ltl.t;
  temporal_body : bool;  (* vacuity only makes sense for temporal bodies *)
  backend : backend;
  repeating : bool;  (* outer [always]: activate per evaluation point *)
  gate : Expr.t option;
  gate_atom : Interned.t option;  (* gate as interned atom, for sharing *)
  sampler : Sampler.t;
  (* Interned engine: the live multiset in arrays.  [states] holds the
     distinct live states in first-appearance order; every live
     instance is one ([inst_time], [inst_slot]) pair, ascending by
     activation time (activations only ever append the current,
     latest instant).  [next_states] and [remap] are the scratch space
     of one step, kept between steps so stepping allocates nothing. *)
  mutable states : Progression.t array;
  mutable n_states : int;
  mutable next_states : Progression.t array;
  mutable remap : int array;  (* old slot -> new slot, [passed], [failed] *)
  mutable inst_time : int array;
  mutable inst_slot : int array;
  mutable n_inst : int;
  mutable instances : instance list;  (* legacy/auto engines, newest first *)
  mutable started : bool;
  mutable failures : failure list;  (* unordered; sorted on read *)
  mutable activations : int;
  mutable passes : int;
  mutable peak : int;
  mutable peak_distinct : int;
  mutable steps : int;
  mutable trivial_passes : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  (* Delta-replay memoization is opt-in (offline re-checking pools):
     live checking must not pay the per-step capture. *)
  mutable memo_enabled : bool;
  memo : step_memo;
}

let gate_of_context = function
  | Context.Clock (Context.Base_clock | Context.Edge _ | Context.Named_edge _) ->
    None
  | Context.Clock
      (Context.Edge_and (_, gate) | Context.Named_edge_and (_, _, gate)) ->
    Some gate
  | Context.Transaction Context.Base_trans -> None
  | Context.Transaction (Context.Trans_and gate) -> Some gate

let create ?(engine = `Progression) ~sampler property =
  let normalized = Nnf.convert (Ltl.demote_booleans property.Property.formula) in
  let repeating, body =
    match normalized with
    | Ltl.Always body -> (true, body)
    | other -> (false, other)
  in
  let interned_backend () = Interned_backend (Progression.of_formula body) in
  let backend =
    match engine with
    | `Progression -> interned_backend ()
    | `Progression_legacy -> Legacy_backend
    | `Automaton ->
      (* Bound the table so pathological bodies fall back to the
         interned rewriting backend instead of exploding at synthesis
         time. *)
      (match Automaton.compile ~max_states:256 body with
       | automaton -> Auto_backend automaton
       | exception Automaton.Unsupported _ -> interned_backend ())
  in
  let gate = gate_of_context property.Property.context in
  let gate_atom = Option.map Interned.atom gate in
  (* Batched sampling: hand the monitor's atom set to the sampler up
     front, which compiles each atom's reader once.  Progression only
     rewrites the registered formula, so the atom set is closed under
     stepping; the interned backend is the one that reads atoms
     through the sampler, and the gate is sampler-read on every
     backend. *)
  let states =
    match backend with
    | Interned_backend initial ->
      ignore
        (Ltl.map_atoms
           (fun e ->
             Sampler.register sampler (Interned.atom e);
             e)
           body);
      Array.make 4 initial
    | Legacy_backend | Auto_backend _ -> [||]
  in
  Option.iter (Sampler.register sampler) gate_atom;
  {
    property;
    body;
    temporal_body = not (Simple_subset.is_boolean body);
    backend;
    repeating;
    gate;
    gate_atom;
    sampler;
    states;
    n_states = 0;
    next_states = Array.copy states;
    remap = Array.make (Array.length states) passed;
    inst_time = Array.make (Array.length states) 0;
    inst_slot = Array.make (Array.length states) 0;
    n_inst = 0;
    instances = [];
    started = false;
    failures = [];
    activations = 0;
    passes = 0;
    peak = 0;
    peak_distinct = 0;
    steps = 0;
    trivial_passes = 0;
    cache_hits = 0;
    cache_misses = 0;
    memo_enabled = false;
    memo =
      {
        m_valid = false;
        m_steps = 0;
        m_activations = 0;
        m_passes = 0;
        m_trivial = 0;
        m_hits = 0;
        m_misses = 0;
        m_eligible = false;
        m_stuttered = false;
      };
  }

let property t = t.property

let engine t =
  match t.backend with
  | Interned_backend _ -> `Progression
  | Legacy_backend -> `Progression_legacy
  | Auto_backend _ -> `Automaton

let record_failure t ~activation_time ~failure_time =
  t.failures <-
    { property_name = t.property.Property.name; activation_time; failure_time }
    :: t.failures

(* --- interned engine: multiset of hash-consed states --------------- *)

let grow arr need filler =
  if Array.length arr >= need then arr
  else begin
    let bigger = Array.make (max need (2 * Array.length arr)) filler in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger
  end

(* Slot of [state] among the first [n] entries of [states] (from
   [i]), or [-1]; states are hash-consed, so [==] is structural
   identity.  A linear scan beats hashing: the distinct-state count is
   small by construction (that is the point of the multiset). *)
let rec slot_in states n state i =
  if i = n then -1
  else if Array.unsafe_get states i == state then i
  else slot_in states n state (i + 1)

let add_instance t ~time slot =
  if t.n_inst = Array.length t.inst_time then begin
    t.inst_time <- grow t.inst_time (t.n_inst + 1) 0;
    t.inst_slot <- grow t.inst_slot (t.n_inst + 1) 0
  end;
  t.inst_time.(t.n_inst) <- time;
  t.inst_slot.(t.n_inst) <- slot;
  t.n_inst <- t.n_inst + 1

(* Evaluation: each distinct state is stepped once, no matter how many
   live instances sit in it; successors that coincide merge.  Then
   every instance follows its state: retired with a pass or a failure,
   or kept (in activation order) under its state's new slot. *)
let step_live t stats ~time eval initial =
  let n = t.n_states in
  t.next_states <- grow t.next_states (n + 1) initial;
  t.remap <- grow t.remap n passed;
  let next = t.next_states and remap = t.remap in
  let m = ref 0 in
  for i = 0 to n - 1 do
    let successor = Progression.step_atoms_in stats ~time eval t.states.(i) in
    remap.(i) <-
      (if Progression.is_true successor then passed
       else if Progression.is_false successor then failed
       else
         match slot_in next !m successor 0 with
         | -1 ->
           next.(!m) <- successor;
           incr m;
           !m - 1
         | slot -> slot)
  done;
  let kept = ref 0 in
  for k = 0 to t.n_inst - 1 do
    let activation_time = t.inst_time.(k) in
    let slot = remap.(t.inst_slot.(k)) in
    if slot >= 0 then begin
      t.inst_time.(!kept) <- activation_time;
      t.inst_slot.(!kept) <- slot;
      incr kept
    end
    else if slot = passed then t.passes <- t.passes + 1
    else record_failure t ~activation_time ~failure_time:time
  done;
  t.n_inst <- !kept;
  t.next_states <- t.states;
  t.states <- next;
  t.n_states <- !m

(* Activation of a new instance (after the live states stepped, so it
   joins the new multiset). *)
let activate_interned t stats ~time eval initial =
  let ob = Progression.step_atoms_in stats ~time eval initial in
  if Progression.is_true ob then begin
    t.passes <- t.passes + 1;
    t.trivial_passes <- t.trivial_passes + 1
  end
  else begin
    t.activations <- t.activations + 1;
    if Progression.is_false ob then
      record_failure t ~activation_time:time ~failure_time:time
    else begin
      let slot =
        match slot_in t.states t.n_states ob 0 with
        | -1 ->
          t.states <- grow t.states (t.n_states + 1) initial;
          t.states.(t.n_states) <- ob;
          t.n_states <- t.n_states + 1;
          t.n_states - 1
        | slot -> slot
      in
      add_instance t ~time slot
    end
  end

let step_interned t ~time initial =
  (* One DLS lookup per step: every state of the multiset steps, and
     every counter snapshot reads, through this handle. *)
  let stats = Progression.handle () in
  let hits0 = Progression.handle_hits stats in
  let misses0 = Progression.handle_misses stats in
  let bypassed0 = Progression.handle_bypassed stats in
  (* The sampler's one evaluator, shared by the whole multiset. *)
  let eval = Sampler.evaluator t.sampler ~time in
  (* Fast path: nothing live, so the step is the activation alone. *)
  if t.n_states > 0 then step_live t stats ~time eval initial;
  if t.repeating || not t.started then activate_interned t stats ~time eval initial;
  t.cache_hits <- t.cache_hits + (Progression.handle_hits stats - hits0);
  t.cache_misses <-
    t.cache_misses
    + (Progression.handle_misses stats - misses0)
    + (Progression.handle_bypassed stats - bypassed0);
  if t.n_states > t.peak_distinct then t.peak_distinct <- t.n_states

(* --- legacy / automaton engines: list of live instances ------------ *)

let fresh_list_obligation t =
  match t.backend with
  | Legacy_backend -> Legacy_ob (Progression.Legacy.of_formula t.body)
  | Auto_backend automaton -> Auto_ob (Automaton.initial automaton)
  | Interned_backend _ -> assert false

(* Per-evaluation-point context: the automaton backend evaluates the
   atoms once and every instance steps by table lookup. *)
type step_context =
  | Legacy_ctx
  | Auto_ctx of int

let step_context t lookup =
  match t.backend with
  | Legacy_backend | Interned_backend _ -> Legacy_ctx
  | Auto_backend automaton -> Auto_ctx (Automaton.valuation automaton lookup)

let step_list_obligation t ~time lookup ctx = function
  | Legacy_ob ob -> Legacy_ob (Progression.Legacy.step ~time lookup ob)
  | Auto_ob state ->
    (match t.backend, ctx with
     | Auto_backend automaton, Auto_ctx v ->
       Auto_ob (Automaton.step_valuation automaton state v)
     | (Legacy_backend | Interned_backend _ | Auto_backend _), _ ->
       assert false)

let list_obligation_verdict t = function
  | Legacy_ob ob -> Progression.Legacy.verdict ob
  | Auto_ob state ->
    (match t.backend with
     | Auto_backend automaton -> Automaton.verdict automaton state
     | Legacy_backend | Interned_backend _ -> assert false)

let record_outcome t ~time instance =
  match list_obligation_verdict t instance.obligation with
  | Some true ->
    t.passes <- t.passes + 1;
    false
  | Some false ->
    record_failure t ~activation_time:instance.activated_at ~failure_time:time;
    false
  | None -> true

let step_list t ~time =
  let lookup = Sampler.lookup t.sampler in
  let ctx = step_context t lookup in
  (* Evaluation of live instances. *)
  let survivors =
    List.filter
      (fun instance ->
        instance.obligation <-
          step_list_obligation t ~time lookup ctx instance.obligation;
        record_outcome t ~time instance)
      t.instances
  in
  t.instances <- survivors;
  (* Activation of a new instance. *)
  let activate () =
    let obligation =
      step_list_obligation t ~time lookup ctx (fresh_list_obligation t)
    in
    match list_obligation_verdict t obligation with
    | Some true ->
      t.passes <- t.passes + 1;
      t.trivial_passes <- t.trivial_passes + 1
    | Some false ->
      t.activations <- t.activations + 1;
      record_failure t ~activation_time:time ~failure_time:time
    | None ->
      t.activations <- t.activations + 1;
      t.instances <- { activated_at = time; obligation } :: t.instances
  in
  if t.repeating then activate ()
  else if not t.started then activate ();
  let distinct = List.length t.instances in
  if distinct > t.peak_distinct then t.peak_distinct <- distinct

(* --- shared step entry point --------------------------------------- *)

let live_instances t =
  match t.backend with
  | Interned_backend _ -> t.n_inst
  | Legacy_backend | Auto_backend _ -> List.length t.instances

let nothing_live t = t.n_inst = 0 && t.instances == []

let step_core t ~time =
  let gated_out =
    match t.gate_atom with
    | None -> false
    | Some gate -> not (Sampler.eval_atom t.sampler ~time gate)
  in
  if not gated_out then begin
    t.steps <- t.steps + 1;
    (match t.backend with
     | Interned_backend initial -> step_interned t ~time initial
     | Legacy_backend | Auto_backend _ -> step_list t ~time);
    t.started <- true;
    let live = live_instances t in
    if live > t.peak then t.peak <- live
  end

let enable_memo t = t.memo_enabled <- true

let step ?(stuttered = false) t ~time =
  if not t.memo_enabled then step_core t ~time
  else begin
    let live_before = nothing_live t in
    let started_before = t.started in
    let steps0 = t.steps in
    let activations0 = t.activations in
    let passes0 = t.passes in
    let trivial0 = t.trivial_passes in
    let hits0 = t.cache_hits in
    let misses0 = t.cache_misses in
    let failures0 = t.failures in
    step_core t ~time;
    let m = t.memo in
    let d_steps = t.steps - steps0 in
    m.m_valid <- true;
    m.m_steps <- d_steps;
    m.m_activations <- t.activations - activations0;
    m.m_passes <- t.passes - passes0;
    m.m_trivial <- t.trivial_passes - trivial0;
    m.m_hits <- t.cache_hits - hits0;
    m.m_misses <- t.cache_misses - misses0;
    (* Replayable iff the step touched nothing but counters: no failure
       was recorded (failure records carry the evaluation time), no live
       obligation existed before or after (a gated-out step,
       [d_steps = 0], is a no-op either way), and it was not the one
       activation of a non-repeating property (the steps after it
       activate nothing). *)
    m.m_eligible <-
      t.failures == failures0
      && (d_steps = 0
          || (live_before && nothing_live t && (t.repeating || started_before)));
    m.m_stuttered <- stuttered
  end

let can_replay t =
  let m = t.memo in
  m.m_valid && m.m_eligible && (m.m_stuttered || m.m_misses = 0)

let replay t ~count =
  if count > 0 then begin
    let m = t.memo in
    if not m.m_valid then invalid_arg "Monitor.replay: no step to replay";
    t.steps <- t.steps + (count * m.m_steps);
    t.activations <- t.activations + (count * m.m_activations);
    t.passes <- t.passes + (count * m.m_passes);
    t.trivial_passes <- t.trivial_passes + (count * m.m_trivial);
    t.cache_hits <- t.cache_hits + (count * m.m_hits);
    t.cache_misses <- t.cache_misses + (count * m.m_misses)
  end

let step_stuttered t ~time:_ =
  if can_replay t then begin
    replay t ~count:1;
    true
  end
  else false

(* --- reporting ------------------------------------------------------ *)

(* Failures are reported deterministically: chronological by failure
   time, and inside one evaluation point in activation-time order —
   independent of the internal instance representation. *)
let failures t =
  List.stable_sort
    (fun a b ->
      match compare a.failure_time b.failure_time with
      | 0 -> compare a.activation_time b.activation_time
      | c -> c)
    (List.rev t.failures)

let peak_instances t = t.peak
let activations t = t.activations
let passes t = t.passes
let steps t = t.steps
let pending t = live_instances t

let distinct_states t =
  match t.backend with
  | Interned_backend _ -> t.n_states
  | Legacy_backend | Auto_backend _ -> List.length t.instances

let peak_distinct_states t = t.peak_distinct
let cache_hits t = t.cache_hits
let cache_misses t = t.cache_misses

let cache_hit_rate t =
  let total = t.cache_hits + t.cache_misses in
  if total = 0 then 0. else float_of_int t.cache_hits /. float_of_int total

let sampler t = t.sampler

let evaluation_table t =
  match t.backend with
  | Interned_backend _ ->
    let targets = ref [] in
    for k = t.n_inst - 1 downto 0 do
      match Progression.next_evaluation_time t.states.(t.inst_slot.(k)) with
      | Some target -> targets := target :: !targets
      | None -> ()
    done;
    List.sort compare !targets
  | Legacy_backend | Auto_backend _ ->
    List.sort compare
      (List.filter_map
         (fun instance ->
           match instance.obligation with
           | Legacy_ob ob -> Progression.Legacy.next_evaluation_time ob
           | Auto_ob _ -> None)
         t.instances)

let trivial_passes t = t.trivial_passes
let vacuous t = t.temporal_body && t.steps > 0 && t.activations = 0

let engine_string t =
  match engine t with
  | `Progression -> "progression"
  | `Progression_legacy -> "progression-legacy"
  | `Automaton -> "automaton"

let snapshot t =
  {
    Tabv_obs.Checker_snapshot.property_name = t.property.Property.name;
    engine = engine_string t;
    activations = t.activations;
    passes = t.passes;
    trivial_passes = t.trivial_passes;
    vacuous = vacuous t;
    peak_instances = t.peak;
    peak_distinct_states = t.peak_distinct;
    pending = live_instances t;
    steps = t.steps;
    cache_hits = t.cache_hits;
    cache_misses = t.cache_misses;
    failures = failures t;
  }

let pp_failure ppf f =
  Format.fprintf ppf "%s: instance fired at %dns failed at %dns" f.property_name
    f.activation_time f.failure_time
