(** Helpers shared by the DUV models. *)

(** Map a 64-bit data word to the integer used by the property layer.

    [Expr] values carry OCaml [int]s (63-bit); the properties only test
    data words for equality against small constants (e.g.
    [indata = 0]), so the mapping preserves exactly the property
    [int_of_data v = 0 <=> v = 0L] (a plain [Int64.to_int] would map
    [0x8000000000000000L] to [0]). *)
val int_of_data : int64 -> int

(** Snapshot of a binding table's current values (for trace
    recording). *)
val env_of_bindings :
  (string * Tabv_psl.Expr.reader) list -> (string * Tabv_psl.Expr.value) list
