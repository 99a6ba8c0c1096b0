open Tabv_psl
open Tabv_checker

(* The interned checker core: hash-consing invariants, and
   property-based equivalence of the interned memoizing engine against
   the legacy tree-rewriting engine it replaced (kept in the test-side
   [Tabv_reference.Legacy] as the executable specification). *)

module Legacy = Tabv_reference.Legacy
module Legacy_checker = Tabv_reference.List_checker.Legacy

let case name f = Alcotest.test_case name `Quick f
let formula source = Parser.formula_only source

(* --- hash-consing invariants --------------------------------------- *)

let hashcons_cases =
  [ case "structurally equal terms share one heap node" (fun () ->
      let a = Interned.intern (formula "always(a until next[2](b))") in
      let b = Interned.intern (formula "always(a until next[2](b))") in
      Alcotest.(check bool) "physically equal" true (a == b);
      Alcotest.(check int) "same id" (Interned.id a) (Interned.id b));
    case "distinct terms get distinct ids" (fun () ->
      let a = Interned.intern (formula "a until b") in
      let b = Interned.intern (formula "b until a") in
      Alcotest.(check bool) "not equal" false (Interned.equal a b);
      Alcotest.(check bool) "distinct ids" true (Interned.id a <> Interned.id b));
    case "ids are stable across re-interning" (fun () ->
      let a = Interned.intern (formula "eventually(a && b)") in
      let id = Interned.id a in
      let _ = Interned.intern (formula "always(c)") in
      Alcotest.(check int) "same id later" id
        (Interned.id (Interned.intern (formula "eventually(a && b)"))));
    case "next_n collapses nested counts" (fun () ->
      let p = Interned.atom (Expr.Var "a") in
      Alcotest.(check bool) "next[2](next[3] p) == next[5] p" true
        (Interned.next_n 2 (Interned.next_n 3 p) == Interned.next_n 5 p);
      Alcotest.(check bool) "next[0] is identity" true (Interned.next_n 0 p == p));
    case "is_timed reflects next_eps^tau" (fun () ->
      Alcotest.(check bool) "timed" true
        (Interned.is_timed (Interned.intern (formula "always(nexte[1,170](a))")));
      Alcotest.(check bool) "untimed" false
        (Interned.is_timed (Interned.intern (formula "always(next[17](a))"))));
    case "interning does not grow the table on re-insertion" (fun () ->
      let f = formula "always((a && b) || (a && b))" in
      let _ = Interned.intern f in
      let before = Interned.node_count () in
      let _ = Interned.intern f in
      Alcotest.(check int) "node count unchanged" before (Interned.node_count ()));
    Helpers.qtest ~count:500 "intern / to_ltl round-trips structurally"
      Helpers.arb_ltl_general (fun f ->
        (* next_n flattening is the one normalisation intern performs;
           the generator never nests Next_n directly, so the
           round-trip is structural identity. *)
        Ltl.equal (Interned.to_ltl (Interned.intern f)) f);
    Helpers.qtest ~count:500 "physical equality = structural equality"
      QCheck.(pair Helpers.arb_ltl_general Helpers.arb_ltl_general)
      (fun (f, g) ->
        let fi = Interned.intern f and gi = Interned.intern g in
        Interned.equal fi gi = Ltl.equal (Interned.to_ltl fi) (Interned.to_ltl gi))
  ]

(* --- step-level equivalence: interned engine vs. legacy ------------- *)

let verdicts_agree (f, trace) =
  let ob = ref (Progression.of_formula f) in
  let leg = ref (Legacy.of_formula f) in
  let ok = ref true in
  for i = 0 to Trace.length trace - 1 do
    let entry = Trace.get trace i in
    let lookup = Trace.lookup entry in
    ob := Progression.step ~time:entry.Trace.time lookup !ob;
    leg := Legacy.step ~time:entry.Trace.time lookup !leg;
    if Progression.verdict !ob <> Legacy.verdict !leg then ok := false;
    if
      Progression.next_evaluation_time !ob <> Legacy.next_evaluation_time !leg
    then ok := false
  done;
  !ok

let step_equivalence_cases =
  [ Helpers.qtest ~count:500 "interned progression = legacy progression (untimed)"
      Helpers.arb_nnf_and_trace verdicts_agree;
    Helpers.qtest ~count:500 "interned progression = legacy progression (timed)"
      Helpers.arb_timed_nnf_and_trace verdicts_agree ]

(* --- monitor-level equivalence ------------------------------------- *)

(* Full wrapper accounting must be independent of the engine: failure
   lists (with attribution), activation/pass/pending counters, peak
   instance counts and the timed evaluation table.  The monitor runs
   over the trace as an offline pool with the stutter fast path off,
   so every entry is a real step — exactly what the legacy pool
   does. *)

module Monitors_run = Offline.Run (Offline.Monitors)
module Legacy_run = Offline.Run (Legacy_checker)

let property_of f =
  Property.make ~name:"eq" ~context:(Context.Transaction Context.Base_trans) f

let run_monitor (f, trace) =
  match
    Monitors_run.over_trace
      (Offline.Monitors.config ~stutter:false [ property_of f ])
      trace
  with
  | [ (_, monitor) ] -> monitor
  | _ -> assert false

let failure_pairs failures =
  List.map
    (fun f -> (f.Monitor.activation_time, f.Monitor.failure_time))
    failures

let monitors_agree ((f, trace) as arg) =
  let monitor = run_monitor arg in
  let legacy =
    match Legacy_run.over_trace [ property_of f ] trace with
    | [ (_, legacy) ] -> legacy
    | _ -> assert false
  in
  ( failure_pairs (Monitor.failures monitor),
    ( Monitor.activations monitor,
      Monitor.passes monitor,
      Monitor.trivial_passes monitor,
      Monitor.pending monitor ),
    (Monitor.peak_instances monitor, Monitor.vacuous monitor),
    Monitor.evaluation_table monitor )
  = ( failure_pairs (Legacy_checker.failures legacy),
      ( Legacy_checker.activations legacy,
        Legacy_checker.passes legacy,
        Legacy_checker.trivial_passes legacy,
        Legacy_checker.pending legacy ),
      (Legacy_checker.peak_instances legacy, Legacy_checker.vacuous legacy),
      Legacy_checker.evaluation_table legacy )

let monitor_equivalence_cases =
  [ Helpers.qtest ~count:300 "monitor accounting engine-independent (general)"
      Helpers.arb_ltl_and_trace monitors_agree;
    Helpers.qtest ~count:300 "monitor accounting engine-independent (timed)"
      Helpers.arb_timed_nnf_and_trace monitors_agree;
    Helpers.qtest ~count:200 "distinct states never exceed live instances"
      Helpers.arb_ltl_and_trace (fun arg ->
        let monitor = run_monitor arg in
        Monitor.peak_distinct_states monitor <= Monitor.peak_instances monitor) ]

(* --- shared sampler ------------------------------------------------ *)

let lookup_of bindings name = List.assoc_opt name bindings
let env ~a ~b = lookup_of [ ("a", Expr.VBool a); ("b", Expr.VBool b) ]

let sampler_cases =
  [ case "shared sampler evaluates each atom once per instant" (fun () ->
      let sampler = Lookup_env.sampler () in
      let monitors =
        List.init 4 (fun i ->
            Lookup_env.monitor ~sampler
              (Parser.property_exn ~name:(Printf.sprintf "s%d" i)
                 "always(a || next(b))"))
      in
      for t = 0 to 9 do
        List.iter
          (fun m -> Lookup_env.step m ~time:(t * 10) (env ~a:(t mod 2 = 0) ~b:true))
          monitors
      done;
      Alcotest.(check bool) "cache shared across the pool" true
        (Sampler.evals sampler < Sampler.queries sampler);
      (* Each distinct atom is evaluated at most once per instant: the
         miss count is bounded by instants * distinct atoms (2). *)
      Alcotest.(check bool) "at most one eval per atom per instant" true
        (Sampler.evals sampler <= 10 * 2));
    case "shared sampler does not change verdicts" (fun () ->
      let shared = Lookup_env.sampler () in
      let mk sampler =
        Lookup_env.monitor ?sampler (Parser.property_exn ~name:"v" "always(a || next(b))")
      in
      let pooled = List.init 3 (fun _ -> mk (Some shared)) in
      let solo = mk None in
      let drive m =
        Lookup_env.step m ~time:0 (env ~a:false ~b:false);
        Lookup_env.step m ~time:10 (env ~a:true ~b:false);
        Lookup_env.step m ~time:20 (env ~a:false ~b:true)
      in
      List.iter drive pooled;
      drive solo;
      let failure_times m =
        List.map (fun f -> f.Monitor.failure_time) (Monitor.failures m)
      in
      List.iter
        (fun m ->
          Alcotest.(check (list int)) "same failures" (failure_times solo)
            (failure_times m))
        pooled) ]

let suite =
  ("interned",
   hashcons_cases @ step_equivalence_cases @ monitor_equivalence_cases
   @ sampler_cases)
