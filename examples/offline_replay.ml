(* Offline ABV: record a waveform once, check properties against it
   later — no re-simulation, exactly like replaying a VCD produced by
   any simulator.

     1. simulate the DES56 RTL model and dump the evaluation trace to
        a VCD file;
     2. read the VCD back (any VCD in the supported subset works);
     3. replay the RTL property set over the parsed waveform and print
        the coverage report;
     4. do the same against a tampered waveform to show detection.

   Run with: dune exec examples/offline_replay.exe *)

open Tabv_psl
open Tabv_sim
open Tabv_duv

let vcd_path = Filename.temp_file "tabv_offline" ".vcd"

let dump_trace trace = Trace_dump.to_file trace vcd_path

module Run = Tabv_checker.Offline.Run (Tabv_checker.Offline.Monitors)

let replay title trace =
  Printf.printf "\n=== %s ===\n" title;
  let monitors =
    List.map snd
      (Run.over_trace (Tabv_checker.Offline.Monitors.config Des56_props.all) trace)
  in
  Format.printf "%a@." Tabv_checker.Coverage.pp_table monitors

let () =
  (* 1. Record. *)
  let ops = Workload.des56 ~seed:77 ~count:40 ~zero_fraction:0.4 () in
  let result = Testbench.run_des56_rtl ~record_trace:true ops in
  let trace =
    match result.Testbench.trace with
    | Some trace -> trace
    | None -> failwith "no trace recorded"
  in
  dump_trace trace;
  Printf.printf "recorded %d evaluation points into %s\n" (Trace.length trace) vcd_path;

  (* 2. Read back. *)
  let waveform = Vcd_reader.load vcd_path in
  Printf.printf "parsed back: %d signals, %d evaluation points\n"
    (List.length waveform.Vcd_reader.signals)
    (Trace.length waveform.Vcd_reader.trace);

  (* 3. Replay. *)
  replay "replaying the recorded waveform" waveform.Vcd_reader.trace;

  (* 4. Tamper with the waveform: delay every rdy pulse by one
     evaluation point, as a faulty simulator run would. *)
  let entries = Trace.to_list waveform.Vcd_reader.trace in
  let tampered =
    List.mapi
      (fun i (entry : Trace.entry) ->
        let rdy_of (e : Trace.entry) =
          match Trace.lookup e "rdy" with
          | Some (Expr.VBool b) -> b
          | Some (Expr.VInt _) | None -> false
        in
        let previous_rdy = if i = 0 then false else rdy_of (List.nth entries (i - 1)) in
        { entry with
          Trace.env =
            List.map
              (fun (name, value) ->
                if name = "rdy" then (name, Expr.VBool previous_rdy) else (name, value))
              entry.Trace.env })
      entries
  in
  replay "replaying a tampered waveform (rdy one point late)"
    (Trace.of_list tampered);
  Sys.remove vcd_path
