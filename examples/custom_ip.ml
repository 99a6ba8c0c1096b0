(* Bringing your own IP to the framework, end to end, using only the
   public API:

     1. model an RTL IP on the simulation kernel (here: an 8x8-bit
        shift-add multiplier, 2 bits per cycle, latency 4);
     2. write its RTL properties in the property language;
     3. verify them with the RTL checker;
     4. abstract them with Methodology III.1;
     5. model the approximately-timed TLM version (one write + one
        read) and verify the abstracted properties with the wrapper;
     6. break the TLM model's timing and watch the checkers object.

   Run with: dune exec examples/custom_ip.exe *)

open Tabv_psl
open Tabv_sim
open Tabv_checker

let clock_period = 10
let latency = 4  (* load + 4 shift-add steps are folded into 4 cycles *)

(* ------------------------------------------------------------------ *)
(* 1. The RTL model: start/a/b in, done/product out.                   *)

module Mul8_rtl = struct
  type t = {
    start : bool Signal.t;
    a : int Signal.t;
    b : int Signal.t;
    done_ : bool Signal.t;
    product : int Signal.t;
    mutable busy : bool;
    mutable step : int;
    mutable acc : int;
    mutable mcand : int;
    mutable mplier : int;
  }

  let create kernel clock =
    let t =
      {
        start = Signal.create kernel ~name:"start" false;
        a = Signal.create kernel ~name:"a" 0;
        b = Signal.create kernel ~name:"b" 0;
        done_ = Signal.create kernel ~name:"done" false;
        product = Signal.create kernel ~name:"product" 0;
        busy = false;
        step = 0;
        acc = 0;
        mcand = 0;
        mplier = 0;
      }
    in
    (* Two shift-add steps per cycle: 8 bits in 4 cycles.  The first
       cycle both captures the operands and performs a step, so [done]
       is visible exactly [latency] evaluation points after [start]. *)
    let advance () =
      for _ = 1 to 2 do
        if t.mplier land 1 = 1 then t.acc <- t.acc + t.mcand;
        t.mcand <- t.mcand lsl 1;
        t.mplier <- t.mplier lsr 1
      done;
      t.step <- t.step + 1;
      if t.step = latency then begin
        Signal.write t.product t.acc;
        Signal.write t.done_ true;
        t.busy <- false
      end
    in
    let on_posedge () =
      Signal.write t.done_ false;
      if t.busy then advance ()
      else if Signal.read t.start then begin
        t.busy <- true;
        t.step <- 0;
        t.acc <- 0;
        t.mcand <- Signal.read t.a;
        t.mplier <- Signal.read t.b;
        advance ()
      end
    in
    Process.method_process kernel ~name:"mul8" ~initialize:false
      ~sensitivity:[ Clock.posedge clock ] on_posedge;
    t

  (* The binding table: one typed reader per signal the properties may
     name.  Checkers compile their atoms against it once, at attach. *)
  let bindings t =
    [ ("start", Expr.Bool_reader (fun () -> Signal.read t.start));
      ("a", Expr.Int_reader (fun () -> Signal.read t.a));
      ("b", Expr.Int_reader (fun () -> Signal.read t.b));
      ("done", Expr.Bool_reader (fun () -> Signal.read t.done_));
      ("product", Expr.Int_reader (fun () -> Signal.read t.product)) ]
end

(* ------------------------------------------------------------------ *)
(* 2. The RTL properties.  ["done"] is a keyword-free identifier in
   the property language, so we can use it directly. *)

let rtl_properties =
  List.map
    (fun (name, source) -> Parser.property_exn ~name source)
    [ ("m1", "always (!start || next[4](done)) @clk_pos");
      ("m2", "always (!done || next(!done)) @clk_pos");
      ("m3", "always (!done || (product >= 0 && product <= 65025)) @clk_pos");
      ("m4", "always (!(start && a = 0) || next[4](product = 0)) @clk_pos");
      ("m5", "always (!start || next(!done until done)) @clk_pos") ]

(* ------------------------------------------------------------------ *)
(* 3. RTL verification. *)

let workload =
  let state = Random.State.make [| 2718 |] in
  List.init 60 (fun _ ->
    let zero = Random.State.float state 1.0 < 0.2 in
    ((if zero then 0 else Random.State.int state 256), Random.State.int state 256))

let run_rtl ~properties =
  let kernel = Kernel.create () in
  let clock = Clock.create kernel ~name:"clk" ~period:clock_period () in
  let model = Mul8_rtl.create kernel clock in
  let sampler = Sampler.create (Expr.resolver (Mul8_rtl.bindings model)) in
  let checkers =
    List.map
      (fun p ->
        Checker.attach
          (Checker.Attach.spec ~sampler (Checker.Attach.clock_edge clock))
          kernel p)
      properties
  in
  let results = ref [] in
  Process.method_process kernel ~name:"collect" ~initialize:false
    ~sensitivity:[ Clock.posedge clock ]
    (fun () ->
      if Signal.read model.Mul8_rtl.done_ then
        results := Signal.read model.Mul8_rtl.product :: !results);
  Process.spawn kernel ~name:"driver" (fun () ->
    let negedge = Clock.negedge clock in
    Process.wait_event negedge;
    List.iter
      (fun (a, b) ->
        Signal.write model.Mul8_rtl.start true;
        Signal.write model.Mul8_rtl.a a;
        Signal.write model.Mul8_rtl.b b;
        Process.wait_event negedge;
        Signal.write model.Mul8_rtl.start false;
        for _ = 1 to latency + 2 do
          Process.wait_event negedge
        done)
      workload;
    for _ = 1 to 3 do
      Process.wait_event negedge
    done;
    Kernel.stop kernel);
  ignore (Kernel.run kernel);
  (List.rev !results, checkers)

(* ------------------------------------------------------------------ *)
(* 5. The TLM-AT model: one write, one blocking read per operation.   *)

type Tlm.ext += Mul_write of int * int | Mul_idle | Mul_read of int ref * bool ref

let run_tlm ~model_latency_ns ~properties =
  let kernel = Kernel.create () in
  (* Observable mirror. *)
  let start_obs = ref false and a_obs = ref 0 and b_obs = ref 0 in
  let done_obs = ref false and product_obs = ref 0 in
  let bindings =
    [ ("start", Expr.Bool_reader (fun () -> !start_obs));
      ("a", Expr.Int_reader (fun () -> !a_obs));
      ("b", Expr.Int_reader (fun () -> !b_obs));
      ("done", Expr.Bool_reader (fun () -> !done_obs));
      ("product", Expr.Int_reader (fun () -> !product_obs)) ]
  in
  let ready_time = ref 0 and result = ref 0 in
  let transport payload =
    match payload.Tlm.extension with
    | Some (Mul_write (a, b)) ->
      result := a * b;
      ready_time := Kernel.now kernel + model_latency_ns;
      start_obs := true;
      a_obs := a;
      b_obs := b;
      done_obs := false
    | Some Mul_idle -> start_obs := false
    | Some (Mul_read (product, valid)) ->
      let now = Kernel.now kernel in
      if now < !ready_time then Process.wait_ns kernel (!ready_time - now);
      product := !result;
      valid := true;
      start_obs := false;
      done_obs := true;
      product_obs := !result
    | Some _ | None -> payload.Tlm.response_ok <- false
  in
  let target = Tlm.Target.create kernel ~name:"mul8_at" transport in
  let initiator = Tlm.Initiator.create kernel ~name:"mul8_init" in
  Tlm.Initiator.bind initiator target;
  let checkers =
    let sampler = Sampler.create (Expr.resolver bindings) in
    List.map
      (fun p ->
        Checker.attach
          (Checker.Attach.spec ~sampler (Checker.Attach.transaction initiator))
          kernel p)
      properties
  in
  let results = ref [] in
  Process.spawn kernel ~name:"driver" (fun () ->
    Process.wait_ns kernel clock_period;
    let transport extension =
      Tlm.Initiator.b_transport initiator (Tlm.make_payload ~extension Tlm.Write)
    in
    List.iter
      (fun (a, b) ->
        transport (Mul_write (a, b));
        Process.wait_ns kernel clock_period;
        transport Mul_idle;
        let product = ref 0 and valid = ref false in
        transport (Mul_read (product, valid));
        if !valid then results := !product :: !results;
        (* done falls one period later: emit the instant. *)
        Process.wait_ns kernel clock_period;
        done_obs := false;
        transport Mul_idle;
        Process.wait_ns kernel (2 * clock_period))
      workload;
    Process.wait_ns kernel clock_period;
    Kernel.stop kernel);
  ignore (Kernel.run kernel);
  (List.rev !results, checkers)

(* ------------------------------------------------------------------ *)

let print_monitor monitor =
  let failures = Monitor.failures monitor in
  Printf.printf "  %-4s %s (%d activations, %d failures)\n"
    (Monitor.property monitor).Property.name
    (if failures = [] then "pass" else "FAIL")
    (Monitor.activations monitor)
    (List.length failures)

let () =
  let expected = List.map (fun (a, b) -> a * b) workload in

  print_endline "=== Custom IP: 8x8 shift-add multiplier, latency 4 ===";
  print_endline "\nStep 1-3: RTL model + RTL ABV";
  let rtl_results, rtl_checkers = run_rtl ~properties:rtl_properties in
  Printf.printf "  functional: %s\n"
    (if rtl_results = expected then "all products correct" else "WRONG RESULTS");
  List.iter (fun c -> print_monitor (Checker.monitor c)) rtl_checkers;

  print_endline "\nStep 4: abstraction (clock 10 ns, no signals removed)";
  let reports =
    Tabv_core.Methodology.abstract_all ~clock_period
      ~rename:(fun n -> "t" ^ n) rtl_properties
  in
  Format.printf "%a@." Tabv_core.Methodology.pp_summary reports;
  let tlm_properties =
    List.filter
      (fun q ->
        not (Tabv_core.Methodology.needs_dense_trace q.Property.formula))
      (Tabv_core.Methodology.surviving reports)
  in
  List.iter (fun q -> Format.printf "  %a@." Property.pp q) tlm_properties;

  print_endline "\nStep 5: TLM-AT model + abstracted checkers";
  let tlm_results, tlm_checkers =
    run_tlm ~model_latency_ns:(latency * clock_period) ~properties:tlm_properties
  in
  Printf.printf "  functional: %s\n"
    (if tlm_results = expected then "all products correct" else "WRONG RESULTS");
  List.iter (fun c -> print_monitor (Checker.monitor c)) tlm_checkers;

  print_endline "\nStep 6: a wrong abstraction (latency 30 ns instead of 40)";
  let _, bad_checkers = run_tlm ~model_latency_ns:30 ~properties:tlm_properties in
  List.iter (fun c -> print_monitor (Checker.monitor c)) bad_checkers
