open Tabv_psl

(** The original, non-interned tree-rewriting progression engine, kept
    as the executable specification of {!Tabv_checker.Progression}.
    The two must agree on verdicts, failure times and instance
    accounting on every trace; [test/test_interned.ml] checks this
    property-based, and the benchmark harness measures the speedup of
    the interned engine against it. *)

type t

(** @raise Tabv_checker.Progression.Not_in_nnf on formulas outside
    negation normal form. *)
val of_formula : Ltl.t -> t

val is_true : t -> bool
val is_false : t -> bool
val has_timed_wait : t -> bool
val next_evaluation_time : t -> int option
val step : time:int -> (string -> Expr.value option) -> t -> t
val verdict : t -> bool option
val pp : Format.formatter -> t -> unit
