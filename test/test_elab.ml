open Tabv_sim

(* Elaboration: levelization of the declared signal→process graph and
   the positioned error a zero-delay combinational cycle raises. *)

let case name f = Alcotest.test_case name `Quick f

(* --- levelization -------------------------------------------------- *)

let netlist_chain kernel depth =
  (* clocked root -> comb stage 1 -> ... -> comb stage [depth]: each
     stage is sensitive to the previous stage's output signal. *)
  let el = Elab.create kernel in
  let clock = Clock.create kernel ~name:"clk" ~period:10 () in
  let prev = ref (Elab.signal_int el "s0") in
  let root_out = !prev in
  Elab.process el ~name:"root" ~pos:__POS__ ~initialize:false
    ~sensitivity:[ Clock.posedge clock ]
    ~writes:[ Elab.Pack root_out ]
    (fun () -> Signal.write root_out (Signal.read root_out + 1));
  for i = 1 to depth do
    let input = !prev in
    let output = Elab.signal_int el (Printf.sprintf "s%d" i) in
    Elab.process el
      ~name:(Printf.sprintf "stage%d" i)
      ~pos:__POS__ ~initialize:false
      ~sensitivity:[ Signal.changed input ]
      ~writes:[ Elab.Pack output ]
      (fun () -> Signal.write output (Signal.read input + 1));
    prev := output
  done;
  el

let levelization_cases =
  [ case "a combinational chain levelizes to its depth" (fun () ->
      let kernel = Kernel.create () in
      let el = netlist_chain kernel 5 in
      Alcotest.(check int) "levels" 6 (Elab.levels el));
    case "a register self-loop is not a cycle" (fun () ->
      let kernel = Kernel.create () in
      let el = Elab.create kernel in
      let clock = Clock.create kernel ~name:"clk" ~period:10 () in
      let q = Elab.signal_bool el "q" in
      Elab.process el ~name:"reg" ~pos:__POS__ ~initialize:false
        ~sensitivity:[ Clock.posedge clock ]
        ~writes:[ Elab.Pack q ]
        (fun () -> Signal.write q (not (Signal.read q)));
      Alcotest.(check int) "levels" 1 (Elab.levels el));
    case "a zero-delay cycle raises a positioned elaboration error" (fun () ->
      let kernel = Kernel.create () in
      let el = Elab.create kernel in
      let a = Elab.signal_bool el "a" in
      let b = Elab.signal_bool el "b" in
      Elab.process el ~name:"p_ab" ~pos:__POS__
        ~sensitivity:[ Signal.changed a ]
        ~writes:[ Elab.Pack b ]
        (fun () -> Signal.write b (not (Signal.read a)));
      Elab.process el ~name:"p_ba" ~pos:__POS__
        ~sensitivity:[ Signal.changed b ]
        ~writes:[ Elab.Pack a ]
        (fun () -> Signal.write a (not (Signal.read b)));
      match Elab.compile el with
      | () -> Alcotest.fail "cycle not detected"
      | exception Elab.Cycle_error msg ->
        let mem needle =
          Alcotest.(check bool)
            (Printf.sprintf "message mentions %S" needle)
            true (Helpers.contains msg needle)
        in
        mem "p_ab";
        mem "p_ba";
        mem "test_elab.ml") ]

let suite = ("elab", levelization_cases)
