open Tabv_psl

(** Checker synthesis by formula progression (rewriting) over
    hash-consed terms.

    A property instance is an {e obligation}; consuming one evaluation
    point (a clock event at RTL, a transaction event at TLM) rewrites
    the obligation into a residual obligation using the standard
    progression rules:
    {v
      prog(p until q)   = prog(q) or (prog(p) and (p until q))
      prog(p release q) = prog(q) and (prog(p) or (p release q))
      prog(always p)    = prog(p) and always p
      prog(eventually p)= prog(p) or eventually p
      prog(next[1] p)   = p    (wait one more event)
    v}

    The paper's [next_eps^tau] operator progresses into a timed
    obligation [at target] with [target = now + eps] (Def. III.3):
    subsequent events leave it untouched while earlier than [target],
    evaluate the operand at exactly [target], and {e fail} it when an
    event arrives past [target] without one at [target] — exactly the
    wrapper behaviour of Sec. IV.

    {2 Interning and the transition memo}

    Obligations are hash-consed: each distinct residual formula is one
    heap node with a dense unique id, so identical live instances
    collapse into one state.  For {e untimed} states the result of one
    step is a pure function of the values of the atoms the progression
    reads, and the atom read-set of a fixed state is itself fixed (the
    progression never short-circuits); a domain-global
    [(state, atom valuation) -> state] memo therefore tables the
    transition relation lazily, building the paper's explicit checker
    automaton over reachable states only.  Timed ([at]) waits depend
    on absolute instants and always take the direct rewriting path;
    the untimed subtrees beneath them still hit the memo.

    {2 Domain safety}

    The obligation hash-cons table, the transition memo and its
    statistics are all domain-local ([Domain.DLS]), mirroring
    {!Interned}: concurrent workers (e.g. the campaign runner's job
    domains) each build a private checker automaton with no shared
    mutable state.  Obligations must not flow between domains.  The
    canonical True/False states are the one deliberate exception —
    they are shared so {!is_true}/{!is_false} stay a single physical
    comparison, which is safe because those two states never mutate
    (their transition memo is never written). *)

type t

exception Not_in_nnf of Ltl.t

(** Initial obligation of a formula.
    @raise Not_in_nnf on formulas outside negation normal form. *)
val of_formula : Ltl.t -> t

(** Initial obligation of an already-interned formula (no re-interning
    walk).  @raise Not_in_nnf like {!of_formula}. *)
val of_interned : Interned.t -> t

(** Unique id of the hash-consed state (structurally equal obligations
    share one id — usable as a multiset key). *)
val id : t -> int

val is_true : t -> bool
val is_false : t -> bool

(** True when the obligation still contains a timed [at] node, i.e. a
    [next_eps^tau] wait. *)
val has_timed_wait : t -> bool

(** Earliest pending timed-evaluation instant, if any — the wrapper's
    "evaluation table" entry for this instance. *)
val next_evaluation_time : t -> int option

(** [step ~time lookup ob] consumes the evaluation point at [time]
    (signals sampled through [lookup]). *)
val step : time:int -> (string -> Expr.value option) -> t -> t

(** Obligation verdict at end of simulation: [Some true] iff resolved
    true, [Some false] iff resolved false, [None] when still pending
    (inconclusive). *)
val verdict : t -> bool option

val pp : Format.formatter -> t -> unit

(** {2 Transition-cache statistics} *)

type cache_stats = {
  cache_hits : int;  (** steps answered from the transition memo *)
  cache_misses : int;  (** steps that had to run the rewriting *)
  cache_bypassed : int;  (** steps of states with too many atoms *)
  distinct_states : int;  (** hash-consed obligations ever created *)
  distinct_transitions : int;  (** memoized (state, valuation) pairs *)
  interned_formulas : int;  (** hash-consed LTL terms ever created *)
}

(** Domain-global counters (the memo is shared by every monitor of the
    calling domain, so a caller interested in per-monitor attribution
    snapshots this before and after stepping — see {!Monitor}). *)
val cache_stats : unit -> cache_stats

(** Replace the calling domain's obligation universe (hash-cons table,
    transition memo, statistics) {e and} its interned-formula universe
    ({!Interned.reset_universe}) with fresh, empty ones.  The campaign
    runner calls this at the start of every job so a job's cache
    statistics depend only on the job itself, never on which worker it
    landed on or what ran there before.  Must only be called between
    runs, when no live monitor or obligation from the old universe
    will be stepped again. *)
val reset_universe : unit -> unit

(** {2 Batched stepping}

    Reaching the calling domain's universe is one [Domain.DLS] lookup.
    That lookup is cheap but not free, and a monitor would pay it once
    per live state per instant plus once per counter read.  A
    {!handle} amortises all of that to a single lookup per monitor
    step: grab it once, then step every state and read every counter
    through it. *)

(** The calling domain's live statistics record.  Valid until the next
    {!reset_universe}; must not be shared across domains. *)
type handle

(** One [Domain.DLS] lookup. *)
val handle : unit -> handle

val handle_hits : handle -> int
val handle_misses : handle -> int
val handle_bypassed : handle -> int

(** [step_atoms_in handle ~time eval ob] steps [ob] with a
    caller-supplied atom evaluator ([eval] receives interned [Atom]
    nodes), counting cache traffic into [handle] with plain field
    writes.  This is the checker's hot path: a monitor hands its
    sampler's one evaluator to every state of its multiset. *)
val step_atoms_in : handle -> time:int -> (Interned.t -> bool) -> t -> t
