open Tabv_sim

(** ColorConv TLM cycle-accurate model: one {!Colorconv_iface.Frame}
    transaction per clock period, observable-equivalent to
    {!Colorconv_rtl} (pixels converted in one shot at admission and
    released through an 8-slot valid shift register). *)

type t

val create : Kernel.t -> t
val target : t -> Tlm.Target.t
val observables : t -> Colorconv_iface.observables

(** The model's binding table: one typed reader per observable signal,
    for compiling checker atoms ({!Tabv_psl.Expr.compile}). *)
val bindings : t -> (string * Tabv_psl.Expr.reader) list
val completed : t -> int
