(* Adapter for tests that describe environments as lookup functions.

   Checkers read signals through compiled readers (Expr.compile against
   a sampler's resolver).  This resolver reads every signal, at read
   time, from the lookup installed by the last [step]; an absent
   signal raises the interpreter's unbound-signal error. *)

open Tabv_psl
open Tabv_checker

let current : (string -> Expr.value option) ref = ref (fun _ -> None)

let resolve_from lookup name =
  Some
    (Expr.Value_reader
       (fun () ->
         match !lookup name with
         | Some v -> v
         | None -> Expr.unbound_signal name))

(* A sampler over the lookup of the last [step]. *)
let sampler () = Sampler.create (resolve_from current)

(* A sampler over one fixed lookup function (e.g. a model mirror). *)
let fixed_sampler lookup = Sampler.create (resolve_from (ref lookup))

let monitor ?engine ?sampler:s property =
  let sampler = match s with Some s -> s | None -> sampler () in
  Monitor.create ?engine ~sampler property

let step ?stuttered monitor ~time lookup =
  current := lookup;
  Monitor.step ?stuttered monitor ~time
