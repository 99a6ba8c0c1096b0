open Tabv_sim
module Expr = Tabv_psl.Expr

type state =
  | Idle
  | Busy of {
      mutable round_index : int;  (* rounds already performed *)
      mutable l : int64;
      mutable r : int64;
      keys : int64 array;  (* in processing order *)
    }

type fault =
  | Rdy_one_cycle_late
  | Rdy_next_cycle_stuck_low
  | Result_zeroed

type t = {
  late_rdy : bool;  (* the one behavioural (timing) legacy fault *)
  ds : bool Signal.t;
  decrypt : bool Signal.t;
  key : int64 Signal.t;
  indata : int64 Signal.t;
  out : int64 Signal.t;
  rdy : bool Signal.t;
  rdy_next_cycle : bool Signal.t;
  rdy_next_next_cycle : bool Signal.t;
  mutable state : state;
  mutable completed : int;
}

let create ?fault kernel clock =
  let el = Elab.create kernel in
  let t =
    {
      late_rdy = fault = Some Rdy_one_cycle_late;
      ds = Elab.signal_bool el "ds";
      decrypt = Elab.signal_bool el "decrypt";
      key = Elab.signal_int64 el "key";
      indata = Elab.signal_int64 el "indata";
      out = Elab.signal_int64 el "out";
      rdy = Elab.signal_bool el "rdy";
      rdy_next_cycle = Elab.signal_bool el "rdy_next_cycle";
      rdy_next_next_cycle = Elab.signal_bool el "rdy_next_next_cycle";
      state = Idle;
      completed = 0;
    }
  in
  let on_posedge () =
    (* Default deassertions; overwritten below when flags are due. *)
    Signal.write t.rdy false;
    Signal.write t.rdy_next_cycle false;
    Signal.write t.rdy_next_next_cycle false;
    match t.state with
    | Idle ->
      if Signal.read t.ds then begin
        let l, r = Des.initial_permutation (Signal.read t.indata) in
        let keys = Des.round_keys (Signal.read t.key) in
        let keys =
          if Signal.read t.decrypt then Array.init 16 (fun i -> keys.(15 - i)) else keys
        in
        t.state <- Busy { round_index = 0; l; r; keys }
      end
    | Busy b ->
      if b.round_index < 16 then begin
        let l', r' = Des.round (b.l, b.r) ~key:b.keys.(b.round_index) in
        b.l <- l';
        b.r <- r'
      end;
      b.round_index <- b.round_index + 1;
      let finish_round = if t.late_rdy then 17 else 16 in
      (match b.round_index with
       | 14 -> Signal.write t.rdy_next_next_cycle true
       | 15 -> Signal.write t.rdy_next_cycle true
       | n when n = finish_round ->
         Signal.write t.out (Des.final_swap_permutation (b.l, b.r));
         Signal.write t.rdy true;
         t.completed <- t.completed + 1;
         t.state <- Idle
       | _ -> ())
  in
  Elab.process el ~name:"des56_rtl" ~pos:__POS__ ~initialize:false
    ~sensitivity:[ Clock.posedge clock ]
    ~reads:[ Elab.Pack t.ds; Elab.Pack t.decrypt; Elab.Pack t.key; Elab.Pack t.indata ]
    ~writes:
      [ Elab.Pack t.out;
        Elab.Pack t.rdy;
        Elab.Pack t.rdy_next_cycle;
        Elab.Pack t.rdy_next_next_cycle
      ]
    on_posedge;
  (* Deprecated [?fault] shim: the two value faults are expressed as
     generic stuck-at saboteurs on the ports (the behaviour the
     hard-coded variants used to hack into the datapath); only the
     timing fault remains behavioural. *)
  (match fault with
  | None | Some Rdy_one_cycle_late -> ()
  | Some Rdy_next_cycle_stuck_low ->
    let binding =
      { Tabv_fault.Fault.kernel;
        signals = [ ("rdy_next_cycle", Tabv_fault.Fault.Bool_signal t.rdy_next_cycle) ];
        sockets = []
      }
    in
    ignore
      (Tabv_fault.Fault.install binding
         (Tabv_fault.Fault.plan ~name:"des56-legacy-rdy-nc-stuck0"
            [ Tabv_fault.Fault.Signal_fault
                { signal = "rdy_next_cycle";
                  fault = Tabv_fault.Fault.Stuck_at_0 { from_ns = 0 }
                }
            ]))
  | Some Result_zeroed ->
    let binding =
      { Tabv_fault.Fault.kernel;
        signals =
          [ ("out", Tabv_fault.Fault.Int64_signal { signal = t.out; width = 64 }) ];
        sockets = []
      }
    in
    ignore
      (Tabv_fault.Fault.install binding
         (Tabv_fault.Fault.plan ~name:"des56-legacy-result-zeroed"
            [ Tabv_fault.Fault.Signal_fault
                { signal = "out"; fault = Tabv_fault.Fault.Stuck_at_0 { from_ns = 0 } }
            ])));
  t

let ds t = t.ds
let decrypt t = t.decrypt
let key t = t.key
let indata t = t.indata
let out t = t.out
let rdy t = t.rdy
let rdy_next_cycle t = t.rdy_next_cycle
let rdy_next_next_cycle t = t.rdy_next_next_cycle

(* Observation paths go through [Signal.observe] — the engine
   interface read — so checkers, traces and VCD dumps are agnostic to
   where the engine stores the value. *)
let bindings t =
  [ ("ds", Expr.Bool_reader (fun () -> Signal.observe t.ds));
    ("decrypt", Expr.Bool_reader (fun () -> Signal.observe t.decrypt));
    ("key", Expr.Int_reader (fun () -> Duv_util.int_of_data (Signal.observe t.key)));
    ("indata", Expr.Int_reader (fun () -> Duv_util.int_of_data (Signal.observe t.indata)));
    ("out", Expr.Int_reader (fun () -> Duv_util.int_of_data (Signal.observe t.out)));
    ("rdy", Expr.Bool_reader (fun () -> Signal.observe t.rdy));
    ("rdy_next_cycle", Expr.Bool_reader (fun () -> Signal.observe t.rdy_next_cycle));
    ("rdy_next_next_cycle", Expr.Bool_reader (fun () -> Signal.observe t.rdy_next_next_cycle)) ]

let env t = Duv_util.env_of_bindings (bindings t)

let completed t = t.completed
