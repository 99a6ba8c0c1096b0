open Tabv_psl

(** Property monitor: manages checker instances for one property.

    Mirrors the wrapper behaviour of Sec. IV of the paper:
    {ol
    {- {e activation}: for an [always body] property a fresh checker
       instance of [body] is activated at every evaluation point that
       satisfies the property's context gate; trivially-true instances
       are not registered;}
    {- {e evaluation}: every evaluation point steps all live
       instances; an instance whose timed obligation was skipped past
       raises a failure (handled inside {!Progression});}
    {- {e reset and reuse}: completed instances are retired (the
       paper's fixed-size array [C] becomes a multiset of hash-consed
       states mapping each distinct residual state to the activation
       times currently in it — identical live instances collapse and
       are stepped once, while failure attribution per activation time
       is preserved).}}

    For properties that are not of the form [always body], a single
    instance of the whole formula is activated at the first evaluation
    point. *)

(** Re-export of {!Tabv_obs.Checker_snapshot.failure}: the same record
    flows from the monitor through the testbenches into the report
    emitters without conversion. *)
type failure = Tabv_obs.Checker_snapshot.failure = {
  property_name : string;
  activation_time : int;  (** when the failing instance fired *)
  failure_time : int;  (** evaluation point that raised the failure *)
}

type t

(** [create ~sampler property] prepares a monitor: the checker is
    synthesized by interned formula progression ({!Progression}).  The
    formula is normalised (boolean
    demotion + NNF) internally, so any parser output is accepted.  The
    context gate is taken from the property's context
    ([Edge_and]/[Trans_and] expressions).  The monitor reads the
    environment through [sampler], which compiles the monitor's atoms
    here, once; atom evaluations are shared with every other monitor
    holding the same sampler (one evaluation per distinct atom per
    instant). *)
val create : sampler:Sampler.t -> Property.t -> t

val property : t -> Property.t

(** Opt this monitor into delta-replay memoization: every subsequent
    {!step} records its counter deltas for {!step_stuttered} /
    {!replay}.  Off by default so live checking does not pay the
    per-step capture; offline re-checking pools
    ([Offline.Monitors.init]) turn it on. *)
val enable_memo : t -> unit

(** Consume one evaluation point, reading the environment at this
    instant through the monitor's sampler.  [stuttered] declares that
    the caller knows every signal this monitor reads (formula atoms
    and context gate) holds the same value as at the previous
    evaluation point; it never changes the step's outcome, it only
    certifies the recorded counter deltas as steady so a later
    {!step_stuttered} may replay them (meaningful only under
    {!enable_memo}).  A step over untimed
    obligations allocates nothing unless the live multiset grows past
    its arrays or a failure is recorded; timed ([next_eps^tau])
    obligations still build their successors. *)
val step : ?stuttered:bool -> t -> time:int -> unit

(** Stutter fast path: consume one evaluation point whose relevant
    valuation is unchanged since the previous point {e without}
    re-evaluating anything, by re-applying the previous step's counter
    deltas.  Sound only when the previous step touched nothing but
    counters (no live obligations before or after, no failure
    recorded — or a gated-out no-op) and its cache counters are in
    the steady regime (the step was itself taken with
    [~stuttered:true], or it ran without a single cache miss);
    returns [false] otherwise, and the caller must fall back to
    {!step}. *)
val step_stuttered : t -> time:int -> bool

(** [can_replay t] is true when the memoized counter deltas of the
    previous step are replayable under the conditions documented at
    {!step_stuttered} — i.e. a [step_stuttered] call right now would
    succeed.  Lets a caller test the whole pool once at the start of a
    stutter run and then batch. *)
val can_replay : t -> bool

(** [replay t ~count] applies the memoized deltas [count] times in
    O(1), equivalent to [count] successful {!step_stuttered} calls.
    Precondition: {!can_replay}[ t] held when the run started and no
    other step was taken since.  Raises [Invalid_argument] if the
    monitor has never stepped. *)
val replay : t -> count:int -> unit

(** End-of-simulation summary, deterministically ordered:
    chronological by failure time, and within one evaluation point in
    ascending activation-time order — independent of the internal
    instance representation. *)
val failures : t -> failure list

(** Live (pending) instances right now (activation count, i.e. the
    multiset cardinality — not the number of distinct states). *)
val live_instances : t -> int

(** Peak number of simultaneously live instances — the size the
    paper's preallocated instance array would need. *)
val peak_instances : t -> int

(** Distinct hash-consed states currently live. *)
val distinct_states : t -> int

(** Peak number of simultaneously live distinct states — the size the
    monitor's state multiset actually needs, usually far below
    {!peak_instances}. *)
val peak_distinct_states : t -> int

(** Total instances activated (excluding trivially-true ones). *)
val activations : t -> int

(** Instances that completed with a pass verdict (including trivial
    ones). *)
val passes : t -> int

(** Activation attempts that were trivially true at the firing point
    (e.g. an implication whose antecedent did not hold).  A property
    whose every evaluation point was trivial passed {e vacuously}. *)
val trivial_passes : t -> int

(** True when a {e temporal} property was evaluated but never
    non-trivially activated — e.g. an implication whose antecedent
    never fired: a vacuous pass that deserves a warning.  Pure boolean
    invariants resolve instantly by nature and are never flagged. *)
val vacuous : t -> bool

(** Evaluation points consumed (after context gating). *)
val steps : t -> int

(** Pending instances are inconclusive at end of simulation. *)
val pending : t -> int

(** {2 Transition-cache statistics} *)

(** Steps of this monitor answered from the shared transition memo. *)
val cache_hits : t -> int

(** Steps of this monitor that ran the rewriting (including states
    with too many atoms to memoize). *)
val cache_misses : t -> int

(** [hits / (hits + misses)], 0 if the monitor never stepped. *)
val cache_hit_rate : t -> float

(** The per-instant atom sampler this monitor evaluates through. *)
val sampler : t -> Sampler.t

(** The wrapper's "evaluation table" (Sec. IV): the next required
    evaluation instant of every live instance that is waiting on a
    timed [next_eps^tau] obligation, sorted ascending. *)
val evaluation_table : t -> int list

(** One-shot record of every counter above plus the deterministic
    failure list — the single stats currency consumed by
    [Tabv_core.Report_json] and the testbenches.  Its [engine] field
    is always ["progression"]. *)
val snapshot : t -> Tabv_obs.Checker_snapshot.t

val pp_failure : Format.formatter -> failure -> unit
