open Tabv_psl

(** Shared evaluation-point sampler.

    A per-instant cache of atomic-proposition values, stored inside
    the interned atom nodes themselves (a stamped scratch slot, see
    {!Interned.set_sample}) so a cache hit is one load and one
    compare.  N monitors attached to the same socket/clock share one
    sampler, so each distinct atom is evaluated once per instant
    instead of once per live checker instance per monitor (the paper's
    wrapper samples the environment once per evaluation point; this
    generalizes that to a whole wrapper pool).

    The cache is invalidated whenever [time] changes; it must only be
    shared by monitors that observe the same environment within one
    delta phase of an instant. *)

type t

(** [create resolve] is a sampler over the environment [resolve]
    describes.  Every atom is compiled against [resolve] once, when it
    is registered (or first read); the compiled readers belong to this
    sampler and nothing is registered globally. *)
val create : Expr.resolver -> t

(** [eval_atom t ~time atom] evaluates the interned [Atom] node [atom]
    at instant [time], caching per (instant, atom id).
    @raise Invalid_argument if [atom] is not an [Atom] node.
    @raise Expr.Eval_error like {!Expr.eval}. *)
val eval_atom : t -> time:int -> Interned.t -> bool

(** [evaluator t ~time] moves the cache to instant [time] and returns
    the sampler's one atom evaluator: [evaluator t ~time atom] is
    [eval_atom t ~time atom].  The closure is allocated once, with the
    sampler, so a monitor step that hands it to every state of its
    multiset allocates nothing. *)
val evaluator : t -> time:int -> Interned.t -> bool

(** {2 Batched sampling}

    {!Monitor.create} registers every atom of its (normalized) formula
    plus its gate; the attach layer calls {!prime} once per evaluation
    point, which evaluates all registered atoms in one pass over the
    environment and fans the valuations out to every attached monitor
    through the per-instant cache. *)

(** Register an [Atom] node for batched priming and compile its reader
    (idempotent per node; interned nodes are hash-consed, so physical
    identity applies). *)
val register : t -> Interned.t -> unit

(** [prime t ~time] evaluates every registered atom at [time]
    (idempotent per instant).  Queries and evaluations are counted
    exactly as {!eval_atom} counts them, so they do not depend on
    whether a caller primes. *)
val prime : t -> time:int -> unit

(** Number of atoms registered for priming. *)
val registered_atoms : t -> int

(** Atom evaluations requested so far (including cache hits). *)
val queries : t -> int

(** Atom evaluations actually performed (cache misses). *)
val evals : t -> int

(** Fraction of atom queries answered from the per-instant cache. *)
val hit_rate : t -> float
