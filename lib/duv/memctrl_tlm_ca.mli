open Tabv_sim

(** MemCtrl TLM cycle-accurate model: one {!Memctrl_iface.Frame}
    transaction per clock period, observable-equivalent to
    {!Memctrl_rtl} (Def. III.1), so the unabstracted RTL properties
    remain checkable. *)

type t

val create : Kernel.t -> t
val target : t -> Tlm.Target.t
val observables : t -> Memctrl_iface.observables

(** The model's binding table: one typed reader per observable signal,
    for compiling checker atoms ({!Tabv_psl.Expr.compile}). *)
val bindings : t -> (string * Tabv_psl.Expr.reader) list
val completed : t -> int
val peek : t -> int -> int
