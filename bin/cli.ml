(* Shared flag specs and run plumbing for the tabv subcommands.

   `check`, `record` and `recheck` must agree on everything that shapes
   a run — the model enumeration, the workload flags, property-file
   parsing and linting, the AT abstraction split, the executor /
   journal / interrupt plumbing and the JSON report writers — because
   the whole point of recording is that `record` + `recheck` is
   byte-identical to the live `check`.  One spec here, many terms
   there. *)

open Cmdliner
open Tabv_psl
open Tabv_duv

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [fail] prints `tabv CMD: message` and exits with the usage status
   (2): flag-level problems, not verification verdicts. *)
let fail cmd msg =
  Printf.eprintf "tabv %s: %s\n" cmd msg;
  exit 2

(* --- models --------------------------------------------------------

   The catalog itself (names, property sets, testbench dispatch) lives
   in [Tabv_duv.Models] so the serve daemon executes requests through
   exactly the plumbing the one-shot subcommands use; this section only
   dresses it in cmdliner clothes. *)

type model = Models.t

let model_conv = Arg.enum Models.names
let model_name = Models.name
let model_of_name = Models.of_name

let model_arg =
  Arg.(
    required
    & opt (some model_conv) None
    & info [ "model"; "m" ] ~docv:"MODEL"
        ~doc:
          "One of des56-rtl, des56-tlm-ca, des56-tlm-at, des56-tlm-lt, \
           colorconv-rtl, colorconv-tlm-ca, colorconv-tlm-at, memctrl-rtl, \
           memctrl-tlm-ca, memctrl-tlm-at.")

let known_signals = Models.known_signals

(* --- workload flags ----------------------------------------------- *)

(* A negative count would reach [List.init] deep in the workload
   generators; refuse it as a usage error instead.  Zero is a valid
   (empty) run. *)
let non_negative_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some _ | None ->
      Error
        (`Msg
           (Printf.sprintf "invalid value '%s', expected a non-negative integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let ops_arg =
  Arg.(
    value & opt non_negative_int 200
    & info [ "ops"; "n" ] ~docv:"N" ~doc:"Workload size (operations or pixels).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let props_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "props"; "p" ] ~docv:"FILE"
        ~doc:
          "Check the RTL properties from this file instead of the built-in \
           set.  On an approximately-timed model the properties are first \
           abstracted with Methodology III.1 (clock 10 ns, the model's \
           abstracted signals); only the automatically-safe results are \
           attached.")

(* --- property files ----------------------------------------------- *)

(* A malformed property file is bad input, not a verdict: it exits
   with the usage status (2), never the "a property failed" status
   (1). *)
let parse_props_file path =
  match Parser.file (read_file path) with
  | properties -> properties
  | exception Parser.Parse_error { line; col; message } ->
    Printf.eprintf "%s:%d:%d: %s\n" path line col message;
    exit 2

(* A property that reads a signal the environment does not drive could
   only die mid-run on the unbound signal; refuse it up front, with
   the usage status, naming every such property. *)
let lint_props ~cmd ~known properties =
  match
    List.filter_map
      (fun p ->
        match Property.unknown_signals ~known p with
        | [] -> None
        | unknown ->
          Some
            (Printf.sprintf "property %s mentions unknown signal(s): %s"
               p.Property.name
               (String.concat ", " unknown)))
      properties
  with
  | [] -> ()
  | problems -> fail cmd (String.concat "; " problems)

let properties_for = Models.properties_for
let run_model = Models.run
let supports_trace = Models.supports_trace

(* --- executor / journal / interrupt plumbing ---------------------- *)

let isolate_arg =
  Arg.(
    value & flag
    & info [ "isolate" ]
        ~doc:
          "Run jobs in crash-isolated worker subprocesses instead of \
           in-process domains.  A job that aborts, segfaults, allocates \
           without bound or busy-loops kills only its worker; the campaign \
           records the death and continues.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:
          "Per-job wall-clock watchdog (requires $(b,--isolate)): a worker \
           still running after SECS is SIGKILLed and the job recorded as \
           timed out after its retries are exhausted.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Write-ahead journal: append every completed job's result durably \
           to FILE as it finishes, so an interrupted run can be finished \
           later with $(b,--resume).")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Replay completed jobs from the $(b,--journal) file instead of \
           re-running them.  The journal must belong to exactly this \
           campaign (same jobs, same retry budget); the final report is \
           byte-identical to an uninterrupted run.")

(* Build the executor configuration from the flags. *)
let executor_of_flags ~fail ~isolate ~timeout =
  let open Tabv_campaign.Executor in
  match (isolate, timeout) with
  | false, Some _ -> fail "--timeout requires --isolate"
  | false, None -> config In_domain
  | true, timeout -> config ?job_timeout_s:timeout Subprocess

(* Open (or not) the journal named by the flags. *)
let journal_of_flags ~fail ~kind ~fingerprint ~path ~resume =
  match (path, resume) with
  | None, true -> fail "--resume requires --journal"
  | None, false -> None
  | Some path, resume ->
    (match Tabv_campaign.Journal.open_ ~path ~kind ~fingerprint ~resume () with
     | Ok j ->
       let dropped = Tabv_campaign.Journal.truncated_bytes j in
       if dropped > 0 then
         Printf.eprintf
           "%s: dropped %d bytes of torn/corrupt journal suffix (the \
            affected jobs will re-run)\n%!"
           path dropped;
       Some j
     | Error msg -> fail (Printf.sprintf "%s: %s" path msg))

(* Run [f interrupted] with SIGINT/SIGTERM captured into [interrupted]
   (restoring the previous dispositions afterwards), so a ^C drains
   gracefully: workers die, the journal keeps its completed records,
   and the command reports what is pending instead of vanishing. *)
let with_interrupt f =
  let flag = Atomic.make false in
  let handler = Sys.Signal_handle (fun _ -> Atomic.set flag true) in
  let previous_int = Sys.signal Sys.sigint handler in
  let previous_term = Sys.signal Sys.sigterm handler in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigint previous_int;
      Sys.set_signal Sys.sigterm previous_term)
    (fun () -> f (fun () -> Atomic.get flag))

(* The "how to pick the run back up" part of an interrupt message. *)
let resume_hint = function
  | Some path -> Printf.sprintf "; resume with --journal %s --resume" path
  | None -> " (no --journal, so completed work is lost)"

(* --- report writers ----------------------------------------------- *)

(* Write a JSON document to FILE, or stdout for "-"; the trailing
   newline makes the file diff-friendly (the byte-identity tests diff
   these files directly).  Files commit via temp + fsync + atomic
   rename, so an interrupted run leaves either the previous report or
   the complete new one — never a torn file. *)
let write_json ?(announce = "report") path doc =
  let text = Tabv_core.Report_json.to_string doc in
  match path with
  | "-" -> print_endline text
  | path ->
    Tabv_core.Io.write_file_atomic ~path (text ^ "\n");
    Printf.printf "wrote %s to %s\n" announce path

let report_json_arg ~doc =
  Arg.(
    value
    & opt (some string) None
    & info [ "report-json" ] ~docv:"FILE" ~doc)

let verdict_report ~model ~seed ~ops result =
  Models.verdict_report model ~seed ~ops result
