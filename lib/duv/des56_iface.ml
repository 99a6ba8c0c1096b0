open Tabv_sim
module Expr = Tabv_psl.Expr

let latency = 17
let clock_period = 10

let signal_names =
  [ "ds"; "decrypt"; "key"; "indata"; "out"; "rdy"; "rdy_next_cycle";
    "rdy_next_next_cycle" ]

type op = {
  decrypt : bool;
  key : int64;
  indata : int64;
}

type observables = {
  mutable ds : bool;
  mutable decrypt_obs : bool;
  mutable key_obs : int64;
  mutable indata : int64;
  mutable out : int64;
  mutable rdy : bool;
  mutable rdy_next_cycle : bool;
  mutable rdy_next_next_cycle : bool;
}

let create_observables () =
  {
    ds = false;
    decrypt_obs = false;
    key_obs = 0L;
    indata = 0L;
    out = 0L;
    rdy = false;
    rdy_next_cycle = false;
    rdy_next_next_cycle = false;
  }

let bindings obs =
  [ ("ds", Expr.Bool_reader (fun () -> obs.ds));
    ("decrypt", Expr.Bool_reader (fun () -> obs.decrypt_obs));
    ("key", Expr.Int_reader (fun () -> Duv_util.int_of_data obs.key_obs));
    ("indata", Expr.Int_reader (fun () -> Duv_util.int_of_data obs.indata));
    ("out", Expr.Int_reader (fun () -> Duv_util.int_of_data obs.out));
    ("rdy", Expr.Bool_reader (fun () -> obs.rdy));
    ("rdy_next_cycle", Expr.Bool_reader (fun () -> obs.rdy_next_cycle));
    ("rdy_next_next_cycle", Expr.Bool_reader (fun () -> obs.rdy_next_next_cycle)) ]

let env_of obs = Duv_util.env_of_bindings (bindings obs)

type frame = {
  f_ds : bool;
  f_decrypt : bool;
  f_key : int64;
  f_indata : int64;
  mutable f_out : int64;
  mutable f_rdy : bool;
  mutable f_rdy_next_cycle : bool;
  mutable f_rdy_next_next_cycle : bool;
}

type Tlm.ext += Frame of frame

let make_frame ?(ds = false) ?(decrypt = false) ?(key = 0L) ?(indata = 0L) () =
  {
    f_ds = ds;
    f_decrypt = decrypt;
    f_key = key;
    f_indata = indata;
    f_out = 0L;
    f_rdy = false;
    f_rdy_next_cycle = false;
    f_rdy_next_next_cycle = false;
  }

type at_request = {
  a_decrypt : bool;
  a_key : int64;
  a_indata : int64;
}

type at_response = {
  mutable a_out : int64;
  mutable a_rdy : bool;
}

type Tlm.ext +=
  | At_write of at_request
  | At_idle
  | At_read of at_response
  | At_status of at_response
