(* The checker against the executable specification.

   Random properties (gated and ungated, repeating and one-shot, with
   timed [next_eps^tau] operators) on random traces with stutter runs
   and irregular instants:

   - the live path — a shared sampler primed once per evaluation point,
     then every monitor stepped, as Checker does — must report exactly
     the activations, passes, trivial passes, pending instances and
     (activation, failure) instants that Psl.Semantics implies;
   - the offline Monitors pass over the same trace, with the stutter
     fast path on and off, must produce the live snapshots counter for
     counter (cache traffic, peaks and distinct states included);
   - on entries of irregular shape, the offline pass must read what
     each entry's lookup function reads. *)

open Tabv_psl
open Tabv_checker
module Monitors_run = Offline.Run (Offline.Monitors)

let gen_formula =
  let open QCheck.Gen in
  sized_size (int_bound 4) @@ fix (fun self n ->
    let atom = map (fun e -> Ltl.Atom e) Helpers.gen_atom_expr in
    if n = 0 then atom
    else
      let sub = self (n / 2) in
      frequency
        [ (2, atom);
          (1, map (fun p -> Ltl.Not p) (self (n - 1)));
          (1, map2 (fun p q -> Ltl.And (p, q)) sub sub);
          (1, map2 (fun p q -> Ltl.Or (p, q)) sub sub);
          (1, map2 (fun p q -> Ltl.Implies (p, q)) sub sub);
          (1, map2 (fun k p -> Ltl.next_n k p) (int_range 1 3) (self (n - 1)));
          ( 2,
            map2
              (fun eps p -> Ltl.Next_event ({ Ltl.tau = 1; eps }, p))
              (oneofl [ 5; 10; 20; 30 ])
              (self (n - 1)) );
          (1, map2 (fun p q -> Ltl.Until (p, q)) sub sub);
          (1, map2 (fun p q -> Ltl.Release (p, q)) sub sub);
          (1, map (fun p -> Ltl.Always p) (self (n - 1)));
          (1, map (fun p -> Ltl.Eventually p) (self (n - 1))) ])

let gen_property i =
  let open QCheck.Gen in
  let* body = gen_formula in
  let* repeating = frequencyl [ (3, true); (1, false) ] in
  let* gate = option ~ratio:0.3 Helpers.gen_atom_expr in
  let context =
    match gate with
    | None -> Context.Transaction Context.Base_trans
    | Some g -> Context.Transaction (Context.Trans_and g)
  in
  return
    (Property.make ~name:(Printf.sprintf "r%d" i) ~context
       (if repeating then Ltl.Always body else body))

(* Runs of physically shared environments (the stutter the offline
   fast path exploits) at irregular instants (what timed obligations
   must skip past). *)
let gen_trace =
  let open QCheck.Gen in
  let* runs = list_size (int_range 1 8) (pair Helpers.gen_env (int_range 1 3)) in
  let* gaps = list_repeat (List.fold_left (fun a (_, k) -> a + k) 0 runs)
      (oneofl [ 5; 10; 10; 20 ]) in
  let gaps = ref gaps and time = ref 0 in
  let entries =
    List.concat_map
      (fun (env, k) ->
        List.init k (fun _ ->
            (match !gaps with
             | g :: rest ->
               time := !time + g;
               gaps := rest
             | [] -> ());
            { Trace.time = !time; env }))
      runs
  in
  return (Trace.of_list entries)

let arb_case =
  QCheck.make
    ~print:(fun (props, trace) ->
      Printf.sprintf "%s\non trace:\n%s"
        (String.concat "\n" (List.map Property.to_string props))
        (Format.asprintf "%a" Trace.pp trace))
    QCheck.Gen.(
      pair
        (let* n = int_range 1 3 in
         flatten_l (List.init n gen_property))
        gen_trace)

(* --- the live path --------------------------------------------------- *)

(* Typed readers over a mutable mirror of the current entry, the way a
   DUV's binding table reads its model. *)
let live properties trace =
  Progression.reset_universe ();
  let current = ref [] in
  let bool_reader name =
    Expr.Bool_reader
      (fun () ->
        match List.assoc name !current with
        | Expr.VBool b -> b
        | Expr.VInt _ -> assert false)
  and int_reader name =
    Expr.Int_reader
      (fun () ->
        match List.assoc name !current with
        | Expr.VInt n -> n
        | Expr.VBool _ -> assert false)
  in
  let bindings =
    List.map (fun n -> (n, bool_reader n)) Helpers.bool_signals
    @ List.map (fun n -> (n, int_reader n)) Helpers.int_signals
  in
  let sampler = Sampler.create (Expr.resolver bindings) in
  let monitors = List.map (fun p -> Monitor.create ~sampler p) properties in
  List.iter
    (fun { Trace.time; env } ->
      current := env;
      Sampler.prime sampler ~time;
      List.iter (fun m -> Monitor.step m ~time) monitors)
    (Trace.to_list trace);
  List.map Monitor.snapshot monitors

let offline ~stutter properties trace =
  Progression.reset_universe ();
  Offline.Monitors.snapshots
    (Monitors_run.over_trace (Offline.Monitors.config ~stutter properties) trace)

(* --- the specification ------------------------------------------------ *)

type expected = {
  steps : int;
  activations : int;
  passes : int;
  trivial : int;
  pending : int;
  failures : (int * int) list;  (* (activation, failure) instants *)
}

let expected (property : Property.t) trace =
  let points =
    match property.Property.context with
    | Context.Transaction (Context.Trans_and gate) ->
      Trace.filter (fun entry -> Expr.eval (Trace.lookup entry) gate) trace
    | _ -> trace
  in
  let n = Trace.length points in
  let repeating, body =
    match Nnf.convert (Ltl.demote_booleans property.Property.formula) with
    | Ltl.Always body -> (true, body)
    | other -> (false, other)
  in
  let prefix k = Trace.of_list (List.filteri (fun j _ -> j <= k) (Trace.to_list points)) in
  let prefixes = Array.init n prefix in
  let activations = if repeating then List.init n Fun.id else if n > 0 then [ 0 ] else [] in
  let verdict_at k i = Semantics.eval_at prefixes.(k) i body in
  let outcomes =
    List.map
      (fun i ->
        let rec first_false k =
          if k >= n then None
          else if verdict_at k i = Semantics.False then Some k
          else first_false (k + 1)
        in
        (i, verdict_at i i, first_false i, Semantics.eval_at points i body))
      activations
  in
  let count f = List.length (List.filter f outcomes) in
  let time = Trace.time_at points in
  {
    steps = n;
    activations = count (fun (_, now, _, _) -> now <> Semantics.True);
    passes = count (fun (_, _, _, final) -> final = Semantics.True);
    trivial = count (fun (_, now, _, _) -> now = Semantics.True);
    pending = count (fun (_, _, _, final) -> final = Semantics.Unknown);
    failures =
      List.sort
        (fun (a1, f1) (a2, f2) -> compare (f1, a1) (f2, a2))
        (List.filter_map
           (fun (i, _, k, _) -> Option.map (fun k -> (time i, time k)) k)
           outcomes);
  }

let observed (s : Tabv_obs.Checker_snapshot.t) =
  {
    steps = s.steps;
    activations = s.activations;
    passes = s.passes;
    trivial = s.trivial_passes;
    pending = s.pending;
    failures =
      List.map
        (fun (f : Monitor.failure) -> (f.activation_time, f.failure_time))
        s.failures;
  }

(* --- irregular entries --------------------------------------------------

   The offline pool reads trace entries through dictionary positions
   (Offline.Entry_env).  Entries of an in-memory trace need not share a
   shape: signals may be missing, reordered or repeated.  Whatever the
   shape, the pool must read exactly what [List.assoc_opt] on the entry
   reads — checked against monitors fed the entry's lookup function,
   down to the Eval_error an absent signal raises. *)

let gen_ragged_env =
  let open QCheck.Gen in
  let* env = Helpers.gen_env in
  let* keep = list_repeat (List.length env) (frequencyl [ (5, true); (1, false) ]) in
  let kept = List.filteri (fun i _ -> List.nth keep i) env in
  let* shuffled = shuffle_l kept in
  let* dup = option ~ratio:0.2 (oneofl env) in
  return (match dup with Some d -> shuffled @ [ d ] | None -> shuffled)

let gen_ragged_trace =
  let open QCheck.Gen in
  let* envs = list_size (int_range 1 12) gen_ragged_env in
  return (Trace.of_list (List.mapi (fun i env -> { Trace.time = 10 * (i + 1); env }) envs))

let arb_ragged =
  QCheck.make
    ~print:(fun (props, trace) ->
      Printf.sprintf "%s\non trace:\n%s"
        (String.concat "\n" (List.map Property.to_string props))
        (Format.asprintf "%a" Trace.pp trace))
    QCheck.Gen.(
      pair
        (let* n = int_range 1 3 in
         flatten_l (List.init n gen_property))
        gen_ragged_trace)

let outcome f =
  Progression.reset_universe ();
  match f () with
  | snapshots -> Ok snapshots
  | exception Expr.Eval_error msg -> Error msg

let by_lookup properties trace () =
  let sampler = Lookup_env.sampler () in
  let monitors = List.map (fun p -> Lookup_env.monitor ~sampler p) properties in
  List.iter
    (fun entry ->
      List.iter
        (fun m -> Lookup_env.step m ~time:entry.Trace.time (Trace.lookup entry))
        monitors)
    (Trace.to_list trace);
  List.map Monitor.snapshot monitors

let cases =
  [ Helpers.qtest ~count:400 "offline entry slots read what the entry's lookup reads"
      arb_ragged (fun (properties, trace) ->
        let reference = outcome (by_lookup properties trace) in
        outcome (fun () -> offline ~stutter:false properties trace) = reference
        && outcome (fun () -> offline ~stutter:true properties trace) = reference);
    Helpers.qtest ~count:400 "live monitors match Psl.Semantics" arb_case
      (fun (properties, trace) ->
        List.for_all2
          (fun p snapshot -> expected p trace = observed snapshot)
          properties (live properties trace));
    Helpers.qtest ~count:400 "offline snapshots equal live, stutter on and off"
      arb_case (fun (properties, trace) ->
        let reference = live properties trace in
        offline ~stutter:true properties trace = reference
        && offline ~stutter:false properties trace = reference) ]

let suite = ("oracle", cases)
