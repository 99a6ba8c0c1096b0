(* Self-tests of the statistics helpers.  Every benchmark run executes
   them first and refuses to report when one fails; `run.py
   --self-test` runs them alone. *)

let close a b = Float.abs (a -. b) < 1e-9

let cases =
  let open Stats in
  [ ( "median odd/even",
      fun () -> close (median [ 3.; 1.; 2. ]) 2. && close (median [ 4.; 1.; 3.; 2. ]) 2.5 );
    (* Reference values from Python: statistics.quantiles(xs, n=4). *)
    ( "quartiles match Python (exclusive)",
      fun () ->
        let q1, q2, q3 = quartiles [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
        close q1 2.75 && close q2 5.5 && close q3 8.25 );
    ( "quartiles of two values",
      fun () ->
        let q1, q2, q3 = quartiles [ 10.; 20. ] in
        close q1 7.5 && close q2 15. && close q3 22.5 );
    ( "tail leaves exactly ten samples beyond",
      fun () ->
        let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
        match tail xs with
        | Some (v, pct) -> close v 90. && close pct 90.
        | None -> false );
    ( "tail of 200 samples is p95",
      fun () ->
        match tail (List.init 200 (fun i -> float_of_int (200 - i))) with
        | Some (v, pct) -> close v 190. && close pct 95.
        | None -> false );
    ("tail needs more than ten samples", fun () -> tail (List.init 10 float_of_int) = None);
    ( "failure accounting",
      fun () ->
        let t = tally () in
        record t (Ok ());
        record t (Error "a");
        record t (Ok ());
        record t (Error "b");
        t.attempted = 4 && t.failed = 2 && close (failed_frac t) 0.5
        && t.reasons = [ "b"; "a" ] );
    ("failed_frac of nothing is 0", fun () -> failed_frac (tally ()) = 0.);
    ( "self time of nested spans",
      fun () ->
        (* root [0,10] with children [1,3] and [2,5] (overlapping) and
           [8,12] (clipped to 10); grandchild [1,2] under the first. *)
        let s id parent start stop = { id; parent; name = string_of_int id; start; stop } in
        let spans =
          [ s 0 (-1) 0. 10.; s 1 0 1. 3.; s 2 0 2. 5.; s 3 0 8. 12.; s 4 1 1. 2. ]
        in
        let self = List.map (fun (sp, v) -> (sp.id, v)) (self_times spans) in
        close (List.assoc 0 self) (10. -. 4. -. 2.)
        && close (List.assoc 1 self) 1.
        && close (List.assoc 4 self) 1.
        && close (List.assoc 3 self) 4. );
    ( "recorder nests and a disabled one records nothing",
      fun () ->
        let r = recorder ~enabled:true in
        with_span r "outer" (fun () -> with_span r "inner" (fun () -> ()));
        let off = recorder ~enabled:false in
        with_span off "x" (fun () -> ());
        match spans r with
        | [ inner; outer ] ->
          inner.parent = outer.id && outer.parent = -1 && spans off = []
        | _ -> false );
    ( "by_name sums per name",
      fun () ->
        let s id parent name start stop = { id; parent; name; start; stop } in
        match by_name [ s 0 (-1) "a" 0. 4.; s 1 0 "b" 1. 2.; s 2 0 "b" 2. 3. ] with
        | [ ("a", 1, ta, sa); ("b", 2, tb, sb) ] ->
          close ta 4. && close sa 2. && close tb 2. && close sb 2.
        | _ -> false ) ]

(* Run every case; returns the names of the failing ones. *)
let run () =
  List.filter_map
    (fun (name, f) ->
      match f () with
      | true -> None
      | false -> Some name
      | exception e -> Some (name ^ ": " ^ Printexc.to_string e))
    cases
