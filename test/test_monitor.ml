open Tabv_psl
open Tabv_checker

(* Unit tests for the Monitor instance manager (Sec. IV wrapper
   behaviour: activation, evaluation, reset/reuse, gating). *)

let case name f = Alcotest.test_case name `Quick f

let lookup_of bindings name = List.assoc_opt name bindings

let env ~a ~b = lookup_of [ ("a", Expr.VBool a); ("b", Expr.VBool b) ]

let prop source = Parser.property_exn ~name:"m" source

let step monitor time e = Lookup_env.step monitor ~time e

let activation_cases =
  [ case "always spawns an instance per evaluation point" (fun () ->
      let monitor = Lookup_env.monitor (prop "always(a || next[3](b))") in
      step monitor 0 (env ~a:false ~b:false);
      step monitor 10 (env ~a:false ~b:false);
      step monitor 20 (env ~a:false ~b:false);
      Alcotest.(check int) "three live" 3 (Monitor.live_instances monitor);
      Alcotest.(check int) "peak" 3 (Monitor.peak_instances monitor));
    case "trivially-true instances are not registered (Sec. IV point 4)" (fun () ->
      let monitor = Lookup_env.monitor (prop "always(a || next[3](b))") in
      step monitor 0 (env ~a:true ~b:false);
      step monitor 10 (env ~a:true ~b:false);
      Alcotest.(check int) "none live" 0 (Monitor.live_instances monitor);
      Alcotest.(check int) "counted as passes" 2 (Monitor.passes monitor));
    case "instances retire on completion and slots are reused" (fun () ->
      let monitor = Lookup_env.monitor (prop "always(a || next(b))") in
      step monitor 0 (env ~a:false ~b:false);
      Alcotest.(check int) "one live" 1 (Monitor.live_instances monitor);
      step monitor 10 (env ~a:false ~b:true);
      (* The first instance resolved true; the second is newly live. *)
      Alcotest.(check int) "one live again" 1 (Monitor.live_instances monitor);
      Alcotest.(check int) "peak stays 1" 1 (Monitor.peak_instances monitor);
      Alcotest.(check int) "one pass" 1 (Monitor.passes monitor));
    case "non-always property activates a single instance" (fun () ->
      let monitor = Lookup_env.monitor (prop "eventually(b)") in
      step monitor 0 (env ~a:true ~b:false);
      step monitor 10 (env ~a:true ~b:false);
      Alcotest.(check int) "one activation" 1 (Monitor.activations monitor);
      step monitor 20 (env ~a:true ~b:true);
      Alcotest.(check int) "passed" 1 (Monitor.passes monitor);
      Alcotest.(check int) "none pending" 0 (Monitor.pending monitor)) ]

let failure_cases =
  [ case "failure records activation and failure times" (fun () ->
      let monitor = Lookup_env.monitor (prop "always(a || next(b))") in
      step monitor 0 (env ~a:false ~b:false);
      step monitor 10 (env ~a:true ~b:false);
      (match Monitor.failures monitor with
       | [ f ] ->
         Alcotest.(check int) "activation" 0 f.Monitor.activation_time;
         Alcotest.(check int) "failure" 10 f.Monitor.failure_time;
         Alcotest.(check string) "name" "m" f.Monitor.property_name
       | other -> Alcotest.failf "expected one failure, got %d" (List.length other)));
    case "immediately-false activation is a failure" (fun () ->
      let monitor = Lookup_env.monitor (prop "always(a)") in
      step monitor 0 (env ~a:false ~b:false);
      Alcotest.(check int) "one failure" 1 (List.length (Monitor.failures monitor)));
    case "failures accumulate in order" (fun () ->
      let monitor = Lookup_env.monitor (prop "always(a)") in
      step monitor 0 (env ~a:false ~b:false);
      step monitor 10 (env ~a:true ~b:false);
      step monitor 20 (env ~a:false ~b:false);
      Alcotest.(check (list int)) "times" [ 0; 20 ]
        (List.map (fun f -> f.Monitor.failure_time) (Monitor.failures monitor)));
    case "simultaneous failures report in activation order" (fun () ->
      (* Three instances activated at 0/10/20 collapse into one
         hash-consed state ('b until c'); when it fails at 30 the
         report must still attribute one failure per activation,
         ascending by activation time — independent of the internal
         instance representation. *)
      let env3 ~a ~b ~c =
        lookup_of
          [ ("a", Expr.VBool a); ("b", Expr.VBool b); ("c", Expr.VBool c) ]
      in
      let monitor = Lookup_env.monitor (prop "always(a || (b until c))") in
      step monitor 0 (env3 ~a:false ~b:true ~c:false);
      step monitor 10 (env3 ~a:false ~b:true ~c:false);
      step monitor 20 (env3 ~a:false ~b:true ~c:false);
      step monitor 30 (env3 ~a:true ~b:false ~c:false);
      Alcotest.(check int) "one distinct state was live" 1
        (Monitor.peak_distinct_states monitor);
      Alcotest.(check (list (pair int int)))
        "(activation, failure) pairs"
        [ (0, 30); (10, 30); (20, 30) ]
        (List.map
           (fun f -> (f.Monitor.activation_time, f.Monitor.failure_time))
           (Monitor.failures monitor))) ]

let gating_cases =
  [ case "gated context skips evaluation points entirely" (fun () ->
      let monitor =
        Lookup_env.monitor (Parser.property_exn ~name:"g" "always(a) @(clk_pos && b)")
      in
      (* b false: the point is excluded; even a=false must not fail. *)
      step monitor 0 (env ~a:false ~b:false);
      Alcotest.(check int) "no steps" 0 (Monitor.steps monitor);
      Alcotest.(check int) "no failures" 0 (List.length (Monitor.failures monitor));
      step monitor 10 (env ~a:false ~b:true);
      Alcotest.(check int) "one step" 1 (Monitor.steps monitor);
      Alcotest.(check int) "now it fails" 1 (List.length (Monitor.failures monitor)));
    case "gated transaction context behaves the same" (fun () ->
      let monitor =
        Lookup_env.monitor (Parser.property_exn ~name:"g" "always(a) @(tb && b)")
      in
      step monitor 0 (env ~a:false ~b:false);
      step monitor 7 (env ~a:true ~b:true);
      Alcotest.(check int) "one step" 1 (Monitor.steps monitor);
      Alcotest.(check int) "no failures" 0 (List.length (Monitor.failures monitor))) ]

let normalisation_cases =
  [ case "implication inputs are normalised internally" (fun () ->
      let monitor = Lookup_env.monitor (prop "always(a -> next(b))") in
      step monitor 0 (env ~a:true ~b:false);
      step monitor 10 (env ~a:false ~b:true);
      Alcotest.(check int) "no failures" 0 (List.length (Monitor.failures monitor)));
    case "timed obligations counted as pending at end" (fun () ->
      let monitor = Lookup_env.monitor (prop "always(a || nexte[1,170](b)) @tb") in
      step monitor 0 (env ~a:false ~b:false);
      Alcotest.(check int) "pending" 1 (Monitor.pending monitor)) ]

let vacuity_cases =
  [ case "never-fired implication is vacuous" (fun () ->
      let monitor = Lookup_env.monitor (prop "always(a -> next(b))") in
      step monitor 0 (env ~a:false ~b:false);
      step monitor 10 (env ~a:false ~b:true);
      Alcotest.(check int) "trivial passes" 2 (Monitor.trivial_passes monitor);
      Alcotest.(check bool) "vacuous" true (Monitor.vacuous monitor));
    case "a fired implication is not vacuous" (fun () ->
      let monitor = Lookup_env.monitor (prop "always(a -> next(b))") in
      step monitor 0 (env ~a:true ~b:false);
      step monitor 10 (env ~a:false ~b:true);
      Alcotest.(check bool) "not vacuous" false (Monitor.vacuous monitor));
    case "unevaluated monitor is not reported vacuous" (fun () ->
      let monitor = Lookup_env.monitor (prop "always(a)") in
      Alcotest.(check bool) "not vacuous" false (Monitor.vacuous monitor)) ]

let coverage_cases =
  [ case "coverage summary aggregates monitors" (fun () ->
      let good = Lookup_env.monitor (prop "always(a)") in
      step good 0 (env ~a:true ~b:false);
      let bad = Lookup_env.monitor (prop "always(b)") in
      step bad 0 (env ~a:true ~b:false);
      let vac = Lookup_env.monitor (prop "always(a -> next(b))") in
      step vac 0 (env ~a:false ~b:false);
      let summary = Coverage.summarize [ good; bad; vac ] in
      Alcotest.(check int) "properties" 3 summary.Coverage.properties;
      Alcotest.(check int) "failing" 1 summary.Coverage.failing;
      Alcotest.(check int) "vacuous" 1 summary.Coverage.vacuous;
      Alcotest.(check int) "failures" 1 summary.Coverage.total_failures;
      Alcotest.(check bool) "not clean" false (Coverage.clean summary));
    case "a clean run is clean" (fun () ->
      let monitor = Lookup_env.monitor (prop "always(a -> next(b))") in
      step monitor 0 (env ~a:true ~b:false);
      step monitor 10 (env ~a:false ~b:true);
      let summary = Coverage.summarize [ monitor ] in
      Alcotest.(check bool) "clean" true (Coverage.clean summary)) ]

let suite =
  ("monitor",
   activation_cases @ failure_cases @ gating_cases @ normalisation_cases
   @ vacuity_cases @ coverage_cases)
