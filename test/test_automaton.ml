open Tabv_psl
open Tabv_checker

(* The explicit-state (FoCs-style) checker generator of the test-side
   reference library must agree with the production formula-rewriting
   monitor on every trace, and be compact on the paper's properties —
   the Sec. IV claim that the wrapper is independent of the checker
   generator. *)

module Automaton = Tabv_reference.Automaton
module Automaton_checker = Tabv_reference.List_checker.Automaton
module Automaton_run = Offline.Run (Automaton_checker)
module Monitors_run = Offline.Run (Offline.Monitors)

let case name f = Alcotest.test_case name `Quick f

let run_automaton formula trace =
  let automaton = Automaton.compile ~max_states:128 formula in
  let state = ref (Automaton.initial automaton) in
  (try
     for i = 0 to Trace.length trace - 1 do
       let entry = Trace.get trace i in
       (match Automaton.verdict automaton !state with
        | Some _ -> ()  (* sink: keep state *)
        | None -> state := Automaton.step automaton !state (Trace.lookup entry))
     done
   with Automaton.Unsupported _ -> ());
  Automaton.verdict automaton !state

let run_progression formula trace =
  let ob = ref (Progression.of_formula (Nnf.convert (Ltl.demote_booleans formula))) in
  for i = 0 to Trace.length trace - 1 do
    let entry = Trace.get trace i in
    match Progression.verdict !ob with
    | Some _ -> ()
    | None -> ob := Progression.step ~time:entry.Trace.time (Trace.lookup entry) !ob
  done;
  Progression.verdict !ob

let unit_cases =
  [ case "compiles the paper's p1 body into a small automaton" (fun () ->
      let automaton, repeating =
        Automaton.compile_body Tabv_duv.Des56_props.p1.Property.formula
      in
      Alcotest.(check bool) "repeating (outer always)" true repeating;
      (* One state per remaining cycle count plus the two sinks. *)
      Alcotest.(check bool) "small" true (Automaton.state_count automaton < 40);
      Alcotest.(check bool) "more than two states" true
        (Automaton.state_count automaton > 2));
    case "whole always-property explodes, body does not" (fun () ->
      (* The monolithic automaton of always(!a || next[17](b)) would
         need a state per subset of pending obligations. *)
      match Automaton.compile Tabv_duv.Des56_props.p1.Property.formula with
      | _ -> Alcotest.fail "expected Unsupported (state blow-up)"
      | exception Automaton.Unsupported _ -> ());
    case "verdicts on a concrete run" (fun () ->
      let automaton = Automaton.compile (Parser.formula_only "always(a || next(b))") in
      let env ~a ~b =
        fun name ->
          match name with
          | "a" -> Some (Expr.VBool a)
          | "b" -> Some (Expr.VBool b)
          | _ -> None
      in
      let s0 = Automaton.initial automaton in
      Alcotest.(check (option bool)) "running" None (Automaton.verdict automaton s0);
      let s1 = Automaton.step automaton s0 (env ~a:false ~b:false) in
      Alcotest.(check (option bool)) "still running" None (Automaton.verdict automaton s1);
      let s2 = Automaton.step automaton s1 (env ~a:false ~b:false) in
      Alcotest.(check (option bool)) "violated" (Some false)
        (Automaton.verdict automaton s2));
    case "rejects nexte formulas" (fun () ->
      match Automaton.compile (Parser.formula_only "nexte[1,170](a)") with
      | _ -> Alcotest.fail "expected Unsupported"
      | exception Automaton.Unsupported _ -> ());
    case "rejects formulas with too many atoms" (fun () ->
      (* Atoms in distinct temporal positions stay distinct through
         boolean demotion. *)
      let wide =
        List.init 13 (fun i -> Printf.sprintf "next[%d](s%d)" (i + 1) i)
        |> String.concat " || "
      in
      match Automaton.compile (Parser.formula_only wide) with
      | _ -> Alcotest.fail "expected Unsupported"
      | exception Automaton.Unsupported _ -> ());
    case "all 9 DES56 and 12 ColorConv property bodies compile" (fun () ->
      List.iter
        (fun p ->
          let automaton, _ = Automaton.compile_body p.Property.formula in
          Alcotest.(check bool)
            (p.Property.name ^ " nontrivial") true
            (Automaton.state_count automaton >= 1))
        (Tabv_duv.Des56_props.all @ Tabv_duv.Colorconv_props.all)) ]

(* Formulas over a small fixed atom pool, so tabling stays cheap
   (random comparisons would each count as a distinct atom). *)
let gen_small_atom_formula =
  let open QCheck.Gen in
  let atom =
    oneof
      [ map (fun v -> Ltl.Atom (Expr.Var v)) (oneofl [ "a"; "b"; "c" ]);
        oneofl
          [ Ltl.Atom (Expr.Cmp (Expr.Le, Expr.Avar "x", Expr.Int 2));
            Ltl.Atom (Expr.Cmp (Expr.Eq, Expr.Avar "y", Expr.Int 0)) ] ]
  in
  sized_size (int_bound 5) @@ fix (fun self n ->
    let negatable = oneof [ atom; map (fun f -> Ltl.Not f) atom ] in
    if n = 0 then negatable
    else
      let sub = self (n / 2) in
      oneof
        [ negatable;
          map (fun p -> Ltl.Not p) (self (n - 1));
          map2 (fun p q -> Ltl.And (p, q)) sub sub;
          map2 (fun p q -> Ltl.Or (p, q)) sub sub;
          map2 (fun p q -> Ltl.Implies (p, q)) sub sub;
          map2 (fun k p -> Ltl.next_n k p) (int_range 1 3) (self (n - 1));
          map2 (fun p q -> Ltl.Until (p, q)) sub sub;
          map2 (fun p q -> Ltl.Release (p, q)) sub sub;
          map (fun p -> Ltl.Always p) (self (n - 1));
          map (fun p -> Ltl.Eventually p) (self (n - 1)) ])

let arb_small_and_trace =
  QCheck.make
    ~print:(fun (t, trace) ->
      Printf.sprintf "%s\non trace:\n%s" (Ltl.to_string t)
        (Format.asprintf "%a" Trace.pp trace))
    QCheck.Gen.(pair gen_small_atom_formula Helpers.gen_trace)

let equivalence_cases =
  [ Helpers.qtest ~count:150 "automaton agrees with progression"
      arb_small_and_trace (fun (f, trace) ->
        match Automaton.compile ~max_states:128 f with
        | automaton ->
          let state = ref (Automaton.initial automaton) in
          for i = 0 to Trace.length trace - 1 do
            let entry = Trace.get trace i in
            match Automaton.verdict automaton !state with
            | Some _ -> ()
            | None -> state := Automaton.step automaton !state (Trace.lookup entry)
          done;
          Automaton.verdict automaton !state = run_progression f trace
        | exception Automaton.Unsupported _ -> true);
    Helpers.qtest ~count:150 "automaton agrees with the declarative semantics"
      arb_small_and_trace (fun (f, trace) ->
        match run_automaton f trace with
        | exception Automaton.Unsupported _ -> true
        | verdict ->
          (* Early-sink runs can only differ from the full semantics
             in one direction: once a verdict is reached it is final,
             which the declarative semantics agrees with. *)
          let expected =
            match Semantics.eval trace (Nnf.convert (Ltl.demote_booleans f)) with
            | Semantics.True -> Some true
            | Semantics.False -> Some false
            | Semantics.Unknown -> None
          in
          verdict = expected) ]

(* One recorded DES56 RTL run, checked offline by the production
   monitors and by the automaton generator. *)
let des56_rtl_trace ?fault ops =
  let result =
    Tabv_duv.Testbench.run_des56_rtl ?fault ~record_trace:true ops
  in
  match result.Tabv_duv.Testbench.trace with
  | Some trace -> trace
  | None -> Alcotest.fail "testbench recorded no trace"

let integration_cases =
  [ case "automaton engine verifies DES56 RTL like progression" (fun () ->
      let trace =
        des56_rtl_trace (Tabv_duv.Workload.des56 ~seed:21 ~count:10 ())
      in
      let props = Tabv_duv.Des56_props.all in
      let prog =
        Offline.Monitors.snapshots
          (Monitors_run.over_trace (Offline.Monitors.config props) trace)
      in
      let auto =
        Automaton_checker.snapshots (Automaton_run.over_trace props trace)
      in
      List.iter2
        (fun (p : Tabv_obs.Checker_snapshot.t) (a : Tabv_obs.Checker_snapshot.t) ->
          Alcotest.(check string) "same property" p.property_name a.property_name;
          Alcotest.(check string) "tagged" "automaton" a.engine;
          Alcotest.(check int) (p.property_name ^ " activations") p.activations
            a.activations;
          Alcotest.(check int) (p.property_name ^ " passes") p.passes a.passes;
          Alcotest.(check int) (p.property_name ^ " pending") p.pending a.pending;
          Alcotest.(check bool)
            (p.property_name ^ " failures")
            true (p.failures = a.failures))
        prog auto);
    case "automaton engine catches the same injected bug" (fun () ->
      let trace =
        des56_rtl_trace ~fault:Tabv_duv.Des56_rtl.Rdy_one_cycle_late
          (Tabv_duv.Workload.des56 ~seed:21 ~count:8 ())
      in
      let auto =
        Automaton_checker.snapshots
          (Automaton_run.over_trace Tabv_duv.Des56_props.all trace)
      in
      Alcotest.(check bool) "failures found" true
        (Tabv_obs.Checker_snapshot.total_failures auto > 0));
    case "Automaton.compile rejects q3 and tables p1" (fun () ->
      (* A timed body cannot be tabled: the generator refuses it when
         the checker is configured instead of falling back. *)
      let q3 = Parser.property_exn ~name:"q3" "always (!ds || nexte[1,170](rdy)) @tb" in
      (match Automaton.compile_body q3.Property.formula with
       | _ -> Alcotest.fail "expected Unsupported for q3"
       | exception Automaton.Unsupported _ -> ());
      (match Automaton_checker.init [ q3 ] with
       | _ -> Alcotest.fail "expected Unsupported at config"
       | exception Automaton.Unsupported _ -> ());
      let automaton, _ =
        Automaton.compile_body Tabv_duv.Des56_props.p1.Property.formula
      in
      Alcotest.(check bool) "p1 tabled" true (Automaton.state_count automaton > 2)) ]

let monitor_equivalence_cases =
  (* Differential testing at the monitor level: both generators must
     produce identical counters on random always-properties, with the
     full instance-management machinery in the loop. *)
  [ Helpers.qtest ~count:50 "monitors agree across engines"
      arb_small_and_trace (fun (f, trace) ->
        let property =
          Property.make ~name:"m"
            ~context:(Context.Transaction Context.Base_trans) (Ltl.Always f)
        in
        let summary (s : Tabv_obs.Checker_snapshot.t) =
          (s.activations, s.passes, s.pending, s.failures)
        in
        (* Skip bodies the generator cannot table. *)
        match Automaton_run.over_trace [ property ] trace with
        | exception Automaton.Unsupported _ -> true
        | auto ->
          List.map summary (Automaton_checker.snapshots auto)
          = List.map summary
              (Offline.Monitors.snapshots
                 (Monitors_run.over_trace
                    (Offline.Monitors.config ~stutter:false [ property ])
                    trace))) ]

let suite =
  ("automaton",
   unit_cases @ equivalence_cases @ integration_cases @ monitor_equivalence_cases)
