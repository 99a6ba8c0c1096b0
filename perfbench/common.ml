(* Shared plumbing of the benchmark workloads: the model mix, seed
   derivation, the work directory, memory high-water marks, the
   machine record and the result document. *)

open Tabv_duv
module J = Tabv_core.Report_json

(* --- the model mix ---------------------------------------------------

   The nine timing-equivalent shipped models (everything
   [Models.supports_trace] accepts), interleaved so consecutive units
   never run the same DUV.  Every level of one DUV runs the same
   operation count, so the per-model table can compare levels
   directly (the paper's RTL -> TLM speed-up). *)

let duv_ops = function
  | Models.Des56_rtl | Models.Des56_ca | Models.Des56_at | Models.Des56_lt ->
    1000
  | Models.Colorconv_rtl | Models.Colorconv_ca | Models.Colorconv_at -> 8000
  | Models.Memctrl_rtl | Models.Memctrl_ca | Models.Memctrl_at -> 4000

let models =
  [ Models.Des56_rtl; Models.Colorconv_rtl; Models.Memctrl_rtl;
    Models.Des56_ca; Models.Colorconv_ca; Models.Memctrl_ca;
    Models.Des56_at; Models.Colorconv_at; Models.Memctrl_at ]

let round_size = List.length models

(* SplitMix64 finaliser folded to a non-negative OCaml int: per-unit
   seeds are a pure function of (workload seed, stream, index). *)
let derive seed stream index =
  let open Int64 in
  let z = ref (add (of_int seed) (mul 0x9E3779B97F4A7C15L (of_int ((stream * 1_000_003) + index + 1)))) in
  z := mul (logxor !z (shift_right_logical !z 30)) 0xBF58476D1CE4E5B9L;
  z := mul (logxor !z (shift_right_logical !z 27)) 0x94D049BB133111EBL;
  z := logxor !z (shift_right_logical !z 31);
  to_int (logand !z 0x3FFF_FFFFL)

(* The [index]-th unit of a run: model, seed and operation count
   ([duv_ops] divided by [shrink]). *)
type job = { model : Models.t; seed : int; ops : int }

let unit_job ?(shrink = 1) ~seed index =
  let model = List.nth models (index mod round_size) in
  { model; seed = derive seed 0 index; ops = duv_ops model / shrink }

(* --- correctness of one fault-free run ------------------------------ *)

let check_run job (result : Testbench.run_result) =
  let name = Models.name job.model in
  if Testbench.total_failures result <> 0 then
    Error (Printf.sprintf "%s seed %d: %d checker failure(s)" name job.seed
             (Testbench.total_failures result))
  else if result.Testbench.diagnosis <> Tabv_sim.Kernel.Completed then
    Error (Printf.sprintf "%s seed %d: simulation did not complete" name job.seed)
  else if result.Testbench.completed_ops <> job.ops then
    Error
      (Printf.sprintf "%s seed %d: completed %d of %d ops" name job.seed
         result.Testbench.completed_ops job.ops)
  else Ok ()

let render doc = J.to_string doc ^ "\n"

(* --- files ---------------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Scratch files of one run live under [.perfbench/work] in the
   checkout and are removed when the run ends. *)
let work_dir workload =
  let dir =
    Filename.concat ".perfbench"
      (Filename.concat "work" (Printf.sprintf "%s-%d" workload (Unix.getpid ())))
  in
  rm_rf dir;
  mkdir_p dir;
  dir

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A traced run's spans, kept in memory until the end, go to
   [.perfbench/spans/<workload>-seed<seed>.jsonl]. *)
let write_spans ~workload ~seed spans =
  let dir = Filename.concat ".perfbench" "spans" in
  mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.jsonl" workload seed) in
  Stats.write_jsonl path spans;
  Printf.printf "spans: %d written to %s\n" (List.length spans) path

(* --- memory --------------------------------------------------------- *)

(* [VmHWM] of a process, in MiB (Linux /proc). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match read_file path with
  | exception Sys_error _ -> nan
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                 float_of_int kb /. 1024.)
           | _ -> None)
    |> Option.value ~default:nan

(* --- machine record ------------------------------------------------- *)

let cores () =
  match read_file "/proc/cpuinfo" with
  | exception Sys_error _ -> 0
  | text ->
    List.length
      (List.filter
         (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
         (String.split_on_char '\n' text))

let print_machine ~workload ~seed ~seconds ~trace =
  Printf.printf
    "machine: cores=%d recommended_domains=%d ocaml=%s engine=%s\n\
     run: workload=%s seed=%d seconds=%d trace=%d\n%!"
    (cores ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Tabv_sim.Kernel.engine_name (Tabv_sim.Kernel.get_default_engine ()))
    workload seed seconds trace

(* --- result document ------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

let print_metrics title metrics =
  Printf.printf "%s:\n" title;
  List.iter
    (fun m ->
      Printf.printf "  %-34s %14.6g %-8s %s\n" m.name m.value m.unit_ m.note)
    metrics

(* The last line of standard output: the machine-readable result.  Numbers
   keep all their digits ([Report_json] rounds floats to 6). *)
let print_result ~correct ~(tally : Stats.tally) metrics =
  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else if Float.is_finite v then Printf.sprintf "%.17g" v
    else "null"
  in
  let metric_json m =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
      (J.to_string (J.String m.name))
      (num m.value)
      (J.to_string (J.String m.unit_))
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tally.Stats.attempted tally.Stats.failed
    (String.concat ", " (List.map metric_json metrics))

(* The stated-base order statistics of a latency sample, in ms. *)
let latency_metrics ~prefix samples_s =
  let ms = List.map (fun s -> s *. 1000.) samples_s in
  let n = List.length ms in
  let p50 = Stats.median ms in
  let tail_metric =
    match Stats.tail ms with
    | Some (v, pct) ->
      metric (prefix ^ "_tail_ms") "ms" v
        ~note:(Printf.sprintf "p%.1f, %d samples (10 beyond)" pct n)
    | None ->
      metric (prefix ^ "_tail_ms") "ms" (List.fold_left max 0. ms)
        ~note:(Printf.sprintf "max: only %d samples" n)
  in
  let quartiles =
    if n < 2 then ""
    else
      let q1, _, q3 = Stats.quartiles ms in
      Printf.sprintf ", quartiles %.3f..%.3f" q1 q3
  in
  [ metric (prefix ^ "_p50_ms") "ms" p50
      ~note:(Printf.sprintf "%d samples%s" n quartiles);
    tail_metric ]
