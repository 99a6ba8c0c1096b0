open Tabv_sim

let run_kernel_case name f = Alcotest.test_case name `Quick f

let scheduling_cases =
  [ run_kernel_case "time starts at zero" (fun () ->
      let k = Kernel.create () in
      Alcotest.(check int) "now" 0 (Kernel.now k));
    run_kernel_case "timed actions run in time order" (fun () ->
      let k = Kernel.create () in
      let log = ref [] in
      Kernel.schedule_at k ~time:30 (fun () -> log := 30 :: !log);
      Kernel.schedule_at k ~time:10 (fun () -> log := 10 :: !log);
      Kernel.schedule_at k ~time:20 (fun () -> log := 20 :: !log);
      let final = Kernel.run k in
      Alcotest.(check (list int)) "order" [ 10; 20; 30 ] (List.rev !log);
      Alcotest.(check int) "final time" 30 final);
    run_kernel_case "same-time actions run FIFO" (fun () ->
      let k = Kernel.create () in
      let log = ref [] in
      List.iter
        (fun i -> Kernel.schedule_at k ~time:10 (fun () -> log := i :: !log))
        [ 1; 2; 3 ];
      ignore (Kernel.run k);
      Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log));
    run_kernel_case "scheduling in the past rejected" (fun () ->
      let k = Kernel.create () in
      Kernel.schedule_at k ~time:50 (fun () ->
        match Kernel.schedule_at k ~time:20 ignore with
        | () -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
      ignore (Kernel.run k));
    run_kernel_case "negative delay rejected" (fun () ->
      let k = Kernel.create () in
      match Kernel.schedule_after k ~delay:(-1) ignore with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ());
    run_kernel_case "until horizon stops before later events" (fun () ->
      let k = Kernel.create () in
      let fired = ref [] in
      Kernel.schedule_at k ~time:10 (fun () -> fired := 10 :: !fired);
      Kernel.schedule_at k ~time:100 (fun () -> fired := 100 :: !fired);
      let final = Kernel.run ~until:50 k in
      Alcotest.(check (list int)) "fired" [ 10 ] (List.rev !fired);
      Alcotest.(check int) "stopped at" 10 final);
    run_kernel_case "stop ends the run" (fun () ->
      let k = Kernel.create () in
      let fired = ref 0 in
      Kernel.schedule_at k ~time:10 (fun () ->
        incr fired;
        Kernel.stop k);
      Kernel.schedule_at k ~time:20 (fun () -> incr fired);
      ignore (Kernel.run k);
      Alcotest.(check int) "only first" 1 !fired);
    run_kernel_case "delta cycles at one instant" (fun () ->
      let k = Kernel.create () in
      let deltas = ref [] in
      Kernel.schedule_at k ~time:10 (fun () ->
        deltas := Kernel.delta k :: !deltas;
        Kernel.schedule_next_delta k (fun () ->
          deltas := Kernel.delta k :: !deltas;
          Kernel.schedule_next_delta k (fun () -> deltas := Kernel.delta k :: !deltas)));
      ignore (Kernel.run k);
      Alcotest.(check (list int)) "deltas" [ 0; 1; 2 ] (List.rev !deltas));
    run_kernel_case "updates run between evaluation and delta phases" (fun () ->
      let k = Kernel.create () in
      let log = ref [] in
      Kernel.schedule_at k ~time:5 (fun () ->
        log := "eval" :: !log;
        Kernel.request_update k (fun () -> log := "update" :: !log);
        Kernel.schedule_next_delta k (fun () -> log := "delta" :: !log));
      ignore (Kernel.run k);
      Alcotest.(check (list string)) "phases" [ "eval"; "update"; "delta" ] (List.rev !log));
    run_kernel_case "activation count" (fun () ->
      let k = Kernel.create () in
      for i = 1 to 5 do
        Kernel.schedule_at k ~time:(i * 10) ignore
      done;
      ignore (Kernel.run k);
      Alcotest.(check int) "activations" 5 (Kernel.activation_count k)) ]

let event_cases =
  [ run_kernel_case "static subscribers persist" (fun () ->
      let k = Kernel.create () in
      let ev = Event.create k "e" in
      let count = ref 0 in
      Event.on_event ev (fun () -> incr count);
      Kernel.schedule_at k ~time:10 (fun () -> Event.notify ev);
      Kernel.schedule_at k ~time:20 (fun () -> Event.notify ev);
      ignore (Kernel.run k);
      Alcotest.(check int) "twice" 2 !count;
      Alcotest.(check int) "notifications" 2 (Event.notification_count ev));
    run_kernel_case "dynamic subscribers fire once" (fun () ->
      let k = Kernel.create () in
      let ev = Event.create k "e" in
      let count = ref 0 in
      Event.once ev (fun () -> incr count);
      Kernel.schedule_at k ~time:10 (fun () -> Event.notify ev);
      Kernel.schedule_at k ~time:20 (fun () -> Event.notify ev);
      ignore (Kernel.run k);
      Alcotest.(check int) "once" 1 !count);
    run_kernel_case "timed notification" (fun () ->
      let k = Kernel.create () in
      let ev = Event.create k "e" in
      let seen_at = ref (-1) in
      Event.once ev (fun () -> seen_at := Kernel.now k);
      Kernel.schedule_at k ~time:10 (fun () -> Event.notify_after ev ~delay:25);
      ignore (Kernel.run k);
      Alcotest.(check int) "time" 35 !seen_at) ]

let thread_cases =
  [ run_kernel_case "thread wait_ns" (fun () ->
      let k = Kernel.create () in
      let log = ref [] in
      Process.spawn k ~name:"t" (fun () ->
        log := (Kernel.now k, "start") :: !log;
        Process.wait_ns k 15;
        log := (Kernel.now k, "mid") :: !log;
        Process.wait_ns k 5;
        log := (Kernel.now k, "end") :: !log);
      ignore (Kernel.run k);
      Alcotest.(check (list (pair int string)))
        "timeline"
        [ (0, "start"); (15, "mid"); (20, "end") ]
        (List.rev !log));
    run_kernel_case "thread wait_event" (fun () ->
      let k = Kernel.create () in
      let ev = Event.create k "go" in
      let woke_at = ref (-1) in
      Process.spawn k ~name:"t" (fun () ->
        Process.wait_event ev;
        woke_at := Kernel.now k);
      Kernel.schedule_at k ~time:42 (fun () -> Event.notify ev);
      ignore (Kernel.run k);
      Alcotest.(check int) "woke" 42 !woke_at);
    run_kernel_case "wait_until rechecks predicate" (fun () ->
      let k = Kernel.create () in
      let ev = Event.create k "tick" in
      let counter = ref 0 in
      let done_at = ref (-1) in
      Process.spawn k ~name:"t" (fun () ->
        Process.wait_until ~on:ev (fun () -> !counter >= 3);
        done_at := Kernel.now k);
      let rec ticker time =
        Kernel.schedule_at k ~time (fun () ->
          incr counter;
          Event.notify ev;
          if !counter < 5 then ticker (time + 10))
      in
      ticker 10;
      ignore (Kernel.run k);
      Alcotest.(check int) "done after third tick" 30 !done_at);
    run_kernel_case "two threads interleave deterministically" (fun () ->
      let k = Kernel.create () in
      let log = ref [] in
      Process.spawn k ~name:"a" (fun () ->
        Process.wait_ns k 10;
        log := "a10" :: !log;
        Process.wait_ns k 10;
        log := "a20" :: !log);
      Process.spawn k ~name:"b" (fun () ->
        Process.wait_ns k 10;
        log := "b10" :: !log;
        Process.wait_ns k 15;
        log := "b25" :: !log);
      ignore (Kernel.run k);
      Alcotest.(check (list string)) "order" [ "a10"; "b10"; "a20"; "b25" ] (List.rev !log)) ]

let stress_cases =
  [ Helpers.qtest ~count:30 "heap delivers thousands of events in time order"
      QCheck.(list_of_size (QCheck.Gen.return 500) (int_bound 5000))
      (fun delays ->
        let k = Kernel.create () in
        let fired = ref [] in
        List.iteri
          (fun i delay ->
            Kernel.schedule_at k ~time:delay (fun () -> fired := (delay, i) :: !fired))
          delays;
        ignore (Kernel.run k);
        let fired = List.rev !fired in
        (* Non-decreasing times; FIFO among equal times. *)
        let rec ordered = function
          | (t1, i1) :: ((t2, i2) :: _ as rest) ->
            (t1 < t2 || (t1 = t2 && i1 < i2)) && ordered rest
          | [ _ ] | [] -> true
        in
        List.length fired = List.length delays && ordered fired);
    Helpers.qtest ~count:30 "nested scheduling preserves causality"
      QCheck.(list_of_size (QCheck.Gen.return 100) (int_bound 50))
      (fun delays ->
        let k = Kernel.create () in
        let violations = ref 0 in
        List.iter
          (fun delay ->
            Kernel.schedule_at k ~time:delay (fun () ->
              let scheduled_at = Kernel.now k in
              Kernel.schedule_after k ~delay:(1 + (delay mod 7)) (fun () ->
                if Kernel.now k < scheduled_at then incr violations)))
          delays;
        ignore (Kernel.run k);
        !violations = 0) ]

(* Watchdogs and end-of-run diagnosis: the graceful-degradation layer
   the fault-qualification campaigns rely on.  Every diverging
   behaviour (delta livelock, runaway time advance, process crash,
   deadlocked waiters) must terminate with the matching structured
   diagnosis instead of hanging or killing the process. *)
let watchdog_cases =
  [ run_kernel_case "clean run diagnoses Completed" (fun () ->
      let k = Kernel.create () in
      Kernel.schedule_at k ~time:10 ignore;
      ignore (Kernel.run k);
      Alcotest.(check bool) "completed" true
        (Kernel.last_diagnosis k = Kernel.Completed);
      Alcotest.(check int) "no trips" 0 (Kernel.watchdog_trip_count k));
    run_kernel_case "delta cap diagnoses Livelock at the diverging instant"
      (fun () ->
        let k = Kernel.create () in
        let rec spin () = Kernel.schedule_next_delta k spin in
        Kernel.schedule_at k ~time:40 spin;
        let guard = { Kernel.default_guard with max_delta_cycles = Some 50 } in
        ignore (Kernel.run ~guard k);
        (match Kernel.last_diagnosis k with
         | Kernel.Livelock { time; delta_cycles } ->
           Alcotest.(check int) "time" 40 time;
           Alcotest.(check bool) "cap reached" true (delta_cycles >= 50)
         | d ->
           Alcotest.failf "expected livelock, got %s"
             (Kernel.diagnosis_to_string d));
        Alcotest.(check int) "one trip" 1 (Kernel.watchdog_trip_count k));
    run_kernel_case "step budget diagnoses Budget_exhausted" (fun () ->
      let k = Kernel.create () in
      let rec tick time =
        Kernel.schedule_at k ~time (fun () -> tick (time + 10))
      in
      tick 10;
      let guard = { Kernel.default_guard with max_steps = Some 25 } in
      ignore (Kernel.run ~guard k);
      match Kernel.last_diagnosis k with
      | Kernel.Budget_exhausted { steps } ->
        Alcotest.(check int) "steps" 25 steps
      | d ->
        Alcotest.failf "expected budget_exhausted, got %s"
          (Kernel.diagnosis_to_string d));
    run_kernel_case "contained crash is attributed and the run continues"
      (fun () ->
        let k = Kernel.create () in
        let survivor = ref false in
        Process.spawn k ~name:"victim" (fun () ->
          Process.wait_ns k 10;
          failwith "boom");
        Kernel.schedule_at k ~time:20 (fun () -> survivor := true);
        let guard = { Kernel.default_guard with contain_crashes = true } in
        ignore (Kernel.run ~guard k);
        Alcotest.(check bool) "later event still fired" true !survivor;
        Alcotest.(check int) "contained" 1 (Kernel.contained_crash_count k);
        match Kernel.last_diagnosis k with
        | Kernel.Process_crashed { name; error } ->
          Alcotest.(check string) "name" "victim" name;
          Alcotest.(check bool) "error recorded" true (String.length error > 0)
        | d ->
          Alcotest.failf "expected process_crashed, got %s"
            (Kernel.diagnosis_to_string d));
    run_kernel_case "uncontained crash still propagates" (fun () ->
      let k = Kernel.create () in
      Process.spawn k ~name:"victim" (fun () -> failwith "boom");
      match Kernel.run k with
      | _ -> Alcotest.fail "expected the exception to propagate"
      | exception Failure _ -> ());
    run_kernel_case "deadlock regression: starved waiters are diagnosed"
      (fun () ->
        (* A process blocks on an event nobody ever notifies.  The run
           must terminate (no events left) and report the blocked
           waiter instead of claiming completion. *)
        let k = Kernel.create () in
        let never = Event.create k "never" in
        Process.spawn k ~name:"blocked" (fun () -> Process.wait_event never);
        Kernel.schedule_at k ~time:10 ignore;
        ignore (Kernel.run k);
        match Kernel.last_diagnosis k with
        | Kernel.Starved { waiting } -> Alcotest.(check int) "waiting" 1 waiting
        | d ->
          Alcotest.failf "expected starved, got %s"
            (Kernel.diagnosis_to_string d)) ]

(* --- pinned counters on the shipped models -------------------------- *)

(* The kernel's counters on every shipped model, at seed 7 and 24
   operations with the built-in property sets attached (the
   `tabv check -m MODEL -n 24 --seed 7` run), pinned to the numbers
   the kernel produced when it still had a second, independently
   written loop to be diffed against.  Any change to scheduling order,
   delta handling, update batching or time advance moves at least one
   of them. *)
let pinned =
  (* model, activations, delta cycles, update actions, time advances,
     simulated ns *)
  [ ("des56-rtl", 6777, 968, 2564, 968, 4835);
    ("des56-tlm-ca", 4832, 483, 0, 484, 4840);
    ("des56-tlm-at", 770, 96, 0, 97, 4810);
    ("des56-tlm-lt", 99, 48, 0, 50, 740);
    ("colorconv-rtl", 800, 94, 973, 94, 465);
    ("colorconv-tlm-ca", 600, 46, 0, 47, 470);
    ("colorconv-tlm-at", 282, 40, 0, 41, 440);
    ("memctrl-rtl", 1645, 274, 668, 274, 1365);
    ("memctrl-tlm-ca", 1226, 136, 0, 137, 1370);
    ("memctrl-tlm-at", 387, 96, 0, 98, 1350) ]

let kernel_counters name =
  let open Tabv_duv in
  let model = Option.get (Models.of_name name) in
  let properties, grid_properties = Models.properties_for model None in
  let metrics = Tabv_obs.Metrics.create ~enabled:true () in
  let r =
    Models.run ~metrics model ~seed:7 ~ops:24 ~properties ~grid_properties
  in
  let gauge key =
    match List.assoc_opt key r.Testbench.metrics with
    | Some (Tabv_obs.Metrics.Gauge n) -> n
    | Some _ | None -> Alcotest.failf "%s: no %s gauge" name key
  in
  ( r.Testbench.kernel_activations,
    r.Testbench.delta_cycles,
    gauge "kernel.update_actions",
    gauge "kernel.time_advances",
    r.Testbench.sim_time_ns )

let pinned_cases =
  [ run_kernel_case "shipped models hit the pinned kernel counters" (fun () ->
      List.iter
        (fun (name, activations, deltas, updates, advances, sim_ns) ->
          let a, d, u, t, ns = kernel_counters name in
          let check what = Alcotest.(check int) (name ^ " " ^ what) in
          check "kernel_activations" activations a;
          check "delta_cycles" deltas d;
          check "update_actions" updates u;
          check "time_advances" advances t;
          check "sim_time_ns" sim_ns ns)
        pinned) ]

let suite =
  ( "kernel",
    scheduling_cases @ event_cases @ thread_cases @ watchdog_cases
    @ stress_cases @ pinned_cases )
