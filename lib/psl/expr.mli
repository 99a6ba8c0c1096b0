(** Boolean-layer expressions over DUV signals.

    Atomic propositions of PSL properties are built from this layer:
    boolean signals, integer signals compared against arithmetic
    expressions, and boolean connectives.  Expressions are evaluated
    against a lookup function mapping signal names to current values. *)

(** Runtime value of a signal. *)
type value =
  | VBool of bool
  | VInt of int

(** Comparison operators of the boolean layer. *)
type cmp =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge

(** Integer arithmetic over signals. *)
type arith =
  | Int of int
  | Avar of string
  | Add of arith * arith
  | Sub of arith * arith
  | Mul of arith * arith

(** Boolean expressions. *)
type t =
  | Bool of bool
  | Var of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Cmp of cmp * arith * arith

(** Raised by {!eval} on unbound signals or type mismatches. *)
exception Eval_error of string

val equal : t -> t -> bool
val compare : t -> t -> int
val equal_value : value -> value -> bool
val equal_arith : arith -> arith -> bool

(** [signals e] is the sorted, duplicate-free list of signal names
    mentioned anywhere in [e]. *)
val signals : t -> string list

val signals_arith : arith -> string list

(** [mentions_any e names] is true iff [e] mentions at least one of
    [names]. *)
val mentions_any : t -> string list -> bool

(** [eval lookup e] evaluates [e].
    @raise Eval_error on unbound signals or type mismatches. *)
val eval : (string -> value option) -> t -> bool

val eval_arith : (string -> value option) -> arith -> int

(** {2 Atom readers}

    The checker does not interpret atoms on its hot path: each atom is
    compiled once, against a resolver, into a [unit -> bool] closure
    that reads the signals directly. *)

(** How one signal is read.  [Bool_reader] and [Int_reader] are the
    statically typed readers of a DUV's binding table.
    [Value_reader] serves sources whose values carry their own type (a
    stored trace entry); it may raise {!Eval_error} through
    {!unbound_signal} when the signal is absent at read time. *)
type reader =
  | Bool_reader of (unit -> bool)
  | Int_reader of (unit -> int)
  | Value_reader of (unit -> value)

(** Maps a signal name to its reader; [None] for an unbound signal. *)
type resolver = string -> reader option

(** The resolver of a binding table (first binding of a name wins). *)
val resolver : (string * reader) list -> resolver

(** The current value behind a reader (allocates; for recording and
    the reference engines, not the hot path). *)
val read : reader -> value

(** Raise the {!Eval_error} that {!eval} raises for an unbound signal. *)
val unbound_signal : string -> 'a

(** [compile resolve e] is a reader equivalent to [eval]: on every
    environment it returns [eval lookup e] for the [lookup] that
    [resolve] describes, or raises the same {!Eval_error} with the same
    message.  Signals are resolved once, here; an unbound or ill-typed
    signal is not an error until a read reaches it, exactly as with
    {!eval}. *)
val compile : resolver -> t -> unit -> bool

(** Structural simplification: constant folding and unit laws.  The
    result is [Bool _] whenever the expression is constant. *)
val simplify : t -> t

val pp_value : Format.formatter -> value -> unit
val pp_arith : Format.formatter -> arith -> unit

(** Precedence-aware printer; output is re-parseable by {!Parser}. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
