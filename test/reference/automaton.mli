open Tabv_psl

(** Explicit-state checker synthesis: the FoCs-style alternative
    generator.

    The paper's methodology is {e independent of the checker
    generator} (Sec. IV): any tool that turns a PSL simple-subset
    property into an executable monitor can sit under the wrapper.
    This module provides a second generator beside
    {!Tabv_checker.Progression}, run through the same wrapper
    behaviour by {!List_checker.Automaton}:
    it tables the progression relation once, at synthesis time, into
    an explicit finite automaton —
    {ul
    {- states are the reachable residual formulas (hash-consed);}
    {- the alphabet is the set of valuations of the property's atomic
       propositions (at most [2^max_atoms]);}
    {- stepping a checker is then a single array lookup instead of a
       formula rewrite.}}

    Only {e untimed} formulas are supported (the RTL side of the
    flow): [next_eps^tau] waits depend on unbounded absolute times and
    cannot be tabled; at TLM the wrapper supplies that part around
    checkers generated here, exactly as it wraps FoCs output in the
    paper. *)

type t

(** A state handle (pure; stepping returns a new handle). *)
type state

exception Unsupported of string
(** Raised by {!compile} on formulas containing [next_eps^tau], more
    than [max_atoms] distinct atomic propositions, or a residual state
    space past the internal bound (pathological formulas). *)

val max_atoms : int

(** [compile formula] tables the checker for the whole formula.  The
    formula is normalised (boolean demotion + NNF) first.  Note that
    an [always]-wrapped property usually explodes here — the residual
    carries every subset of pending obligations; property monitors
    instead table the {e body} and spawn one instance per evaluation
    point (Sec. IV), which is what {!compile_body} supports.
    @raise Unsupported per above. *)
val compile : ?max_states:int -> Ltl.t -> t

(** [compile_body formula] strips one outer [always] (if present) and
    tables the body; returns the automaton and whether the property is
    repeating (had the outer [always], so a fresh instance starts at
    every evaluation point).
    @raise Unsupported per above. *)
val compile_body : ?max_states:int -> Ltl.t -> t * bool

(** Number of distinct automaton states (for reporting and tests). *)
val state_count : t -> int

val initial : t -> state

(** Consume one evaluation point. *)
val step : t -> state -> (string -> Expr.value option) -> state

(** Precompute the atom valuation of an evaluation point, so several
    instances of the same checker share the atom evaluations. *)
val valuation : t -> (string -> Expr.value option) -> int

(** Step with a precomputed valuation (one array lookup). *)
val step_valuation : t -> state -> int -> state

(** [Some true] accepted, [Some false] rejected, [None] still
    running. *)
val verdict : t -> state -> bool option
