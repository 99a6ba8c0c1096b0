(* Durable-storage hardening: the [Tabv_core.Io] seam (hook decisions,
   atomic whole-file commits), the CRC32 framing, the [Fault.Io]
   filesystem-fault vocabulary, and the corruption contract of both
   durable formats — journals and binary traces — under exhaustive
   truncate-at-every-byte and flip-every-byte sweeps: the only legal
   outcomes are a clean refusal or salvage of the CRC-verified prefix,
   never replayed garbage. *)

module J = Tabv_core.Report_json
module Io = Tabv_core.Io
module Crc32 = Tabv_core.Crc32
module FIo = Tabv_fault.Fault.Io
module Journal = Tabv_campaign.Journal
module Writer = Tabv_trace.Writer
module Reader = Tabv_trace.Reader

let case name f = Alcotest.test_case name `Quick f

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_raw path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let with_temp_dir f =
  let dir = Filename.temp_file "tabv_test_dur" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun entry ->
          try Sys.remove (Filename.concat dir entry) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* A hook that passes everything through; tests override one field. *)
let pass_hook =
  {
    Io.on_write = (fun ~path:_ ~offset:_ ~len:_ -> Io.Write_through);
    on_fsync = (fun ~path:_ -> Io.Fsync_through);
    on_rename = (fun ~src:_ ~dst:_ -> Io.Op_through);
    on_close = (fun ~path:_ -> Io.Op_through);
  }

let with_hook hook f =
  Io.interpose hook;
  Fun.protect ~finally:Io.clear_interpose f

(* --- CRC32 --------------------------------------------------------- *)

let crc_first_use_flag = "_crc_first_use"

(* Child side of the two-domain first-use test: both domains compute
   their first CRC at the same moment; exit 1 on a wrong value (an
   exception exits 2). *)
let crc_first_use_child () =
  let ready = Atomic.make 0 in
  let first_crc () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    Crc32.string "123456789"
  in
  let other = Domain.spawn first_crc in
  let mine = first_crc () in
  if mine <> 0xcbf43926 || Domain.join other <> 0xcbf43926 then exit 1

let crc_cases =
  [ case "known vectors" (fun () ->
      Alcotest.(check int) "empty" 0 (Crc32.string "");
      (* The IEEE 802.3 check value for "123456789". *)
      Alcotest.(check int) "123456789" 0xcbf43926 (Crc32.string "123456789");
      Alcotest.(check string) "hex" "cbf43926" (Crc32.to_hex 0xcbf43926));
    case "of_hex accepts exactly the to_hex image" (fun () ->
      Alcotest.(check (option int)) "round trip" (Some 0xcbf43926)
        (Crc32.of_hex "cbf43926");
      Alcotest.(check (option int)) "uppercase refused" None
        (Crc32.of_hex "CBF43926");
      Alcotest.(check (option int)) "short refused" None (Crc32.of_hex "12345");
      Alcotest.(check (option int)) "long refused" None
        (Crc32.of_hex "123456789");
      Alcotest.(check (option int)) "non-hex refused" None
        (Crc32.of_hex "cbf4392g"));
    qtest "update composes over any split" QCheck.(pair string small_nat)
      (fun (s, k) ->
        let k = if String.length s = 0 then 0 else k mod (String.length s + 1) in
        let left = Crc32.update 0 s ~pos:0 ~len:k in
        let both = Crc32.update left s ~pos:k ~len:(String.length s - k) in
        both = Crc32.string s);
    qtest "byte fold equals string" QCheck.string (fun s ->
      String.fold_left Crc32.byte 0 s = Crc32.string s);
    qtest "single byte change is always detected" QCheck.(pair string small_nat)
      (fun (s, i) ->
        String.length s = 0
        ||
        let i = i mod String.length s in
        let b = Bytes.of_string s in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
        Crc32.string (Bytes.to_string b) <> Crc32.string s);
    case "first use from two domains at once, in fresh processes" (fun () ->
      (* The first CRC of a process used to force a lazy table, and two
         domains forcing it together raised CamlinternalLazy.Undefined.
         Only a fresh process has an unused table, so re-execute this
         binary ([crc_first_use_child]) for about a second. *)
      let deadline = Unix.gettimeofday () +. 1.0 in
      let runs = ref 0 in
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
      while !runs < 200 && (!runs = 0 || Unix.gettimeofday () < deadline) do
        let pid =
          Unix.create_process Sys.executable_name
            [| Sys.executable_name; crc_first_use_flag |]
            Unix.stdin null Unix.stderr
        in
        (match Unix.waitpid [] pid with
         | _, Unix.WEXITED 0 -> ()
         | _, (Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n) ->
           Alcotest.failf "run %d: first-use child ended with status %d" !runs n);
        incr runs
      done) ]

(* --- the Io seam --------------------------------------------------- *)

let io_cases =
  [ case "create / write / fsync / close writes the bytes" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "plain.dat" in
        let t = Io.create path in
        Alcotest.(check int) "nothing flushed yet" 0 (Io.flushed t);
        Io.write t "hello ";
        Io.write t "world";
        Alcotest.(check int) "write stages only" 0 (Io.flushed t);
        Io.fsync t;
        Alcotest.(check int) "flushed offset" 11 (Io.flushed t);
        Io.close t;
        Io.close t (* idempotent *);
        Alcotest.(check string) "contents" "hello world" (read_file path);
        match Io.write t "x" with
        | () -> Alcotest.fail "write after close accepted"
        | exception Invalid_argument _ -> ()));
    case "append resumes at the current file size" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "log.dat" in
        write_raw path "abc";
        let t = Io.append path in
        Alcotest.(check int) "offset adopts size" 3 (Io.flushed t);
        Io.write t "def";
        Io.close t;
        Alcotest.(check string) "appended" "abcdef" (read_file path)));
    case "Write_error fails the flush and writes nothing" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "eio.dat" in
        let t = Io.create path in
        Io.write t "doomed";
        with_hook
          { pass_hook with
            on_write = (fun ~path:_ ~offset:_ ~len:_ -> Io.Write_error Unix.EIO)
          }
          (fun () ->
            match Io.flush t with
            | () -> Alcotest.fail "faulted write succeeded"
            | exception Io.Io_error { op; error; _ } ->
              Alcotest.(check string) "op" "write" op;
              Alcotest.(check bool) "error" true (error = Unix.EIO));
        Io.close_noerr t;
        Alcotest.(check string) "nothing reached the file" "" (read_file path)));
    case "Write_short persists exactly the torn prefix" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "torn.dat" in
        let t = Io.create path in
        Io.write t "0123456789";
        with_hook
          { pass_hook with
            on_write =
              (fun ~path:_ ~offset:_ ~len:_ ->
                Io.Write_short { bytes = 4; error = Unix.ENOSPC })
          }
          (fun () ->
            match Io.flush t with
            | () -> Alcotest.fail "short write reported success"
            | exception Io.Io_error { error; _ } ->
              Alcotest.(check bool) "enospc" true (error = Unix.ENOSPC));
        Alcotest.(check int) "offset counts the torn bytes" 4 (Io.flushed t);
        Io.close_noerr t;
        Alcotest.(check string) "torn prefix on disk" "0123" (read_file path)));
    case "Fsync_lost reports success without failing" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "lie.dat" in
        let t = Io.create path in
        Io.write t "acked";
        with_hook
          { pass_hook with on_fsync = (fun ~path:_ -> Io.Fsync_lost) }
          (fun () -> Io.fsync t);
        Io.close t;
        Alcotest.(check string) "bytes still written" "acked" (read_file path)));
    case "write_file_atomic commits and leaves no temp file" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "report.json" in
        Io.write_file_atomic ~path "v1";
        Io.write_file_atomic ~path "v2";
        Alcotest.(check string) "latest contents" "v2" (read_file path);
        Alcotest.(check bool) "no temp file" false
          (Sys.file_exists (Io.temp_path path))));
    case "a failed rename keeps the old file and unlinks the temp" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "report.json" in
        Io.write_file_atomic ~path "old";
        with_hook
          { pass_hook with
            on_rename = (fun ~src:_ ~dst:_ -> Io.Op_error Unix.EIO)
          }
          (fun () ->
            match Io.write_file_atomic ~path "new" with
            | () -> Alcotest.fail "faulted rename succeeded"
            | exception Io.Io_error { op; _ } ->
              Alcotest.(check string) "op" "rename" op);
        Alcotest.(check string) "old contents intact" "old" (read_file path);
        Alcotest.(check bool) "temp unlinked" false
          (Sys.file_exists (Io.temp_path path))));
    case "a failed write keeps the old file and unlinks the temp" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "report.json" in
        Io.write_file_atomic ~path "old";
        with_hook
          { pass_hook with
            on_write = (fun ~path:_ ~offset:_ ~len:_ -> Io.Write_error Unix.EIO)
          }
          (fun () ->
            match Io.write_file_atomic ~path "new" with
            | () -> Alcotest.fail "faulted write succeeded"
            | exception Io.Io_error { op; _ } ->
              Alcotest.(check string) "op" "write" op);
        Alcotest.(check string) "old contents intact" "old" (read_file path);
        Alcotest.(check bool) "temp unlinked" false
          (Sys.file_exists (Io.temp_path path))));
    case "temp path naming" (fun () ->
      Alcotest.(check string) "suffix" (("a/b.journal") ^ Io.temp_suffix)
        (Io.temp_path "a/b.journal");
      Alcotest.(check bool) "is_temp" true (Io.is_temp_path "x/y.json.tmp");
      Alcotest.(check bool) "not temp" false (Io.is_temp_path "x/y.json")) ]

(* --- Fault.Io vocabulary ------------------------------------------- *)

let all_kinds_plan =
  FIo.plan ~name:"everything" ~scope:".journal"
    [ FIo.Short_write { op = 1; keep = 3 };
      FIo.Enospc_after { bytes = 100 };
      FIo.Write_eio { op = 2 };
      FIo.Fsync_eio { op = 3 };
      FIo.Fsync_lie { op = 4 };
      FIo.Rename_fail { op = 5 };
      FIo.Power_cut { op = 6 } ]

let fault_io_cases =
  [ case "plans survive the wire byte-for-byte" (fun () ->
      let emitted = J.to_string (FIo.plan_json all_kinds_plan) in
      match FIo.plan_of_json (J.of_string emitted) with
      | Error e -> Alcotest.fail e
      | Ok back ->
        Alcotest.(check string) "re-emission identical" emitted
          (J.to_string (FIo.plan_json back));
        Alcotest.(check int) "fault count" 7 (FIo.fault_count back));
    case "plan_of_json rejects garbage" (fun () ->
      (match FIo.plan_of_json (J.String "nope") with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail "non-object accepted");
      match
        FIo.plan_of_json
          (J.Assoc
             [ ("plan", J.String "p");
               ("scope", J.String "");
               ("faults", J.List [ J.Assoc [ ("kind", J.String "meteor") ] ]) ])
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "unknown fault kind accepted");
    case "generate is a pure function of its arguments" (fun () ->
      let p seed = FIo.generate ~seed ~scope:".journal" ~ops:40 ~count:6 in
      Alcotest.(check string) "same seed, same plan"
        (J.to_string (FIo.plan_json (p 5)))
        (J.to_string (FIo.plan_json (p 5)));
      Alcotest.(check int) "count honoured" 6 (FIo.fault_count (p 5));
      Alcotest.(check bool) "different seeds differ" true
        (J.to_string (FIo.plan_json (p 1))
        <> J.to_string (FIo.plan_json (p 2))));
    case "out-of-scope files never trigger" (fun () ->
      with_temp_dir (fun dir ->
        let armed =
          FIo.arm
            (FIo.plan ~name:"scoped" ~scope:".journal"
               [ FIo.Write_eio { op = 0 } ])
        in
        FIo.install armed;
        Fun.protect ~finally:FIo.uninstall (fun () ->
            let t = Io.create (Filename.concat dir "other.data") in
            Io.write t "untouched";
            Io.fsync t;
            Io.close t);
        Alcotest.(check int) "nothing fired" 0 (FIo.io_triggered armed);
        Alcotest.(check string) "bytes intact" "untouched"
          (read_file (Filename.concat dir "other.data")))) ]

(* --- journal under injected filesystem faults ---------------------- *)

let journal_open ~path ~resume =
  match Journal.open_ ~path ~kind:"t" ~fingerprint:"fp" ~resume () with
  | Ok j -> j
  | Error e -> Alcotest.fail e

let journal_fault_cases =
  [ case "a torn append salvages to the last durable record" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "run.journal" in
        (* Write op 0 is the header's temp file (a [.tmp] sibling is in
           scope); op 2 — the second append — is cut short. *)
        let armed =
          FIo.arm
            (FIo.plan ~name:"torn" ~scope:".journal"
               [ FIo.Short_write { op = 2; keep = 5 } ])
        in
        FIo.install armed;
        Fun.protect ~finally:FIo.uninstall (fun () ->
            let j = journal_open ~path ~resume:false in
            Journal.append j ~id:0 (J.Int 100);
            (match Journal.append j ~id:1 (J.Int 101) with
             | () -> Alcotest.fail "torn append reported success"
             | exception Io.Io_error { error; _ } ->
               Alcotest.(check bool) "enospc" true (error = Unix.ENOSPC));
            Journal.close j);
        Alcotest.(check int) "the fault fired" 1 (FIo.io_triggered armed);
        let j = journal_open ~path ~resume:true in
        Alcotest.(check bool) "only the durable record replays" true
          (Journal.replayed j = [ (0, J.Int 100) ]);
        Alcotest.(check bool) "torn bytes dropped" true
          (Journal.truncated_bytes j > 0);
        Journal.append j ~id:1 (J.Int 101);
        Journal.close j;
        let j = journal_open ~path ~resume:true in
        Alcotest.(check bool) "clean after re-append" true
          (Journal.replayed j = [ (0, J.Int 100); (1, J.Int 101) ]);
        Journal.close j));
    case "a lying fsync loses exactly the unsynced suffix" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "run.journal" in
        (* Fsync op 0 syncs the header temp; the lie hits op 3 — the
           last append's fsync — so its record is acked but volatile. *)
        let armed =
          FIo.arm
            (FIo.plan ~name:"lie" ~scope:".journal"
               [ FIo.Fsync_lie { op = 3 } ])
        in
        FIo.install armed;
        Fun.protect ~finally:FIo.uninstall (fun () ->
            let j = journal_open ~path ~resume:false in
            Journal.append j ~id:0 (J.Int 100);
            Journal.append j ~id:1 (J.Int 101);
            Journal.append j ~id:2 (J.Int 102);
            Journal.close j);
        let durable = FIo.durable_prefix armed path in
        let full = read_file path in
        Alcotest.(check bool) "acked bytes beyond the durable prefix" true
          (durable < String.length full);
        (* The crash image keeps only what an honest fsync covered. *)
        write_raw path (String.sub full 0 durable);
        let j = journal_open ~path ~resume:true in
        Alcotest.(check bool) "unsynced record lost, rest salvaged" true
          (Journal.replayed j = [ (0, J.Int 100); (1, J.Int 101) ]);
        Journal.close j));
    case "after a power cut every primitive fails; resume salvages" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "run.journal" in
        let armed =
          FIo.arm
            (FIo.plan ~name:"cut" ~scope:".journal"
               [ FIo.Power_cut { op = 2 } ])
        in
        FIo.install armed;
        Fun.protect ~finally:FIo.uninstall (fun () ->
            let j = journal_open ~path ~resume:false in
            Journal.append j ~id:0 (J.Int 100);
            (match Journal.append j ~id:1 (J.Int 101) with
             | () -> Alcotest.fail "write after the power cut succeeded"
             | exception Io.Io_error _ -> ());
            (match Journal.append j ~id:2 (J.Int 102) with
             | () -> Alcotest.fail "the machine is dead; nothing may succeed"
             | exception Io.Io_error _ -> ());
            Journal.close j);
        let j = journal_open ~path ~resume:true in
        Alcotest.(check bool) "pre-cut record replays" true
          (Journal.replayed j = [ (0, J.Int 100) ]);
        Journal.close j));
    case "gc_stale sweeps orphaned temp files regardless of age" (fun () ->
      with_temp_dir (fun dir ->
        let orphan = Filename.concat dir "dead.journal.tmp" in
        let live = Filename.concat dir "live.journal" in
        write_raw orphan "half a header";
        write_raw live "fresh";
        let now = (Unix.stat live).Unix.st_mtime in
        let deleted = Journal.gc_stale ~now ~dir ~max_age_s:3600. () in
        Alcotest.(check (list string)) "only the orphan" [ orphan ] deleted;
        Alcotest.(check bool) "orphan gone" false (Sys.file_exists orphan);
        Alcotest.(check bool) "live journal kept" true (Sys.file_exists live))) ]

(* --- exhaustive corruption sweeps ---------------------------------- *)

(* [l] is a prefix of [r] (structural equality element-wise). *)
let rec is_prefix l r =
  match (l, r) with
  | [], _ -> true
  | _, [] -> false
  | x :: l, y :: r -> x = y && is_prefix l r

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  Bytes.to_string b

let journal_sweep_cases =
  [ case "truncating a journal at any byte salvages a record prefix" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "run.journal" in
        let records = [ (0, J.Int 100); (1, J.Int 101); (2, J.Int 102) ] in
        let j = journal_open ~path ~resume:false in
        List.iter (fun (id, r) -> Journal.append j ~id r) records;
        Journal.close j;
        let full = read_file path in
        for cut = 0 to String.length full do
          write_raw path (String.sub full 0 cut);
          let j = journal_open ~path ~resume:true in
          if not (is_prefix (Journal.replayed j) records) then
            Alcotest.failf "cut at %d replayed out-of-prefix records" cut;
          if cut = String.length full && Journal.records j <> 3 then
            Alcotest.failf "uncut journal lost records";
          Journal.close j
        done));
    case "flipping any journal bit refuses or salvages, never garbage"
      (fun () ->
        with_temp_dir (fun dir ->
          let path = Filename.concat dir "run.journal" in
          let records = [ (0, J.Int 100); (1, J.Int 101); (2, J.Int 102) ] in
          let j = journal_open ~path ~resume:false in
          List.iter (fun (id, r) -> Journal.append j ~id r) records;
          Journal.close j;
          let full = read_file path in
          let refused = ref 0 and salvaged = ref 0 in
          for i = 0 to String.length full - 1 do
            write_raw path (flip_byte full i);
            match Journal.open_ ~path ~kind:"t" ~fingerprint:"fp" ~resume:true () with
            | Error _ -> incr refused (* a damaged header is fatal *)
            | Ok j ->
              incr salvaged;
              if not (is_prefix (Journal.replayed j) records) then
                Alcotest.failf "flip at %d replayed out-of-prefix records" i;
              if Journal.records j >= 3 then
                Alcotest.failf "flip at %d went undetected" i;
              Journal.close j
          done;
          (* Both regimes must actually occur: header flips refuse,
             record flips salvage. *)
          Alcotest.(check bool) "some flips refused" true (!refused > 0);
          Alcotest.(check bool) "some flips salvaged" true (!salvaged > 0))) ]

(* --- trace corruption sweeps --------------------------------------- *)

let trace_meta =
  { Tabv_trace.Meta.model = "sweep-model"; seed = 3; ops = 4; engine = "classic" }

let write_sweep_trace path =
  Writer.with_file ~path trace_meta (fun w ->
      let open Tabv_psl in
      Writer.span w ~label:"read" ~start_time:0 ~end_time:10;
      List.iter
        (fun (t, b, x) ->
          Writer.sample w ~time:t
            [ ("a", Expr.VBool b); ("x", Expr.VInt x) ])
        [ (10, true, 1); (20, false, 2); (30, true, 3); (40, false, -7) ];
      Writer.span w ~label:"write" ~start_time:15 ~end_time:35)

(* Stream everything, returning the entries surfaced before the first
   [Format_error] (if any) and where the damage was reported. *)
let drain path =
  match Reader.open_file path with
  | exception Reader.Format_error { offset; valid_prefix; _ } ->
    ([], Some (offset, valid_prefix))
  | t ->
    let acc = ref [] and err = ref None in
    (try
       let rec go () =
         match Reader.next t with
         | Some e ->
           acc := e :: !acc;
           go ()
         | None -> ()
       in
       go ()
     with Reader.Format_error { offset; valid_prefix; _ } ->
       err := Some (offset, valid_prefix));
    Reader.close t;
    (List.rev !acc, !err)

let trace_sweep_cases =
  [ case "truncating a trace at any byte reports the verified prefix"
      (fun () ->
        with_temp_dir (fun dir ->
          let path = Filename.concat dir "run.trace" in
          write_sweep_trace path;
          let full = read_file path in
          let clean, clean_err = drain path in
          Alcotest.(check bool) "clean trace reads clean" true
            (clean_err = None);
          for cut = 0 to String.length full - 1 do
            write_raw path (String.sub full 0 cut);
            match drain path with
            | _, None -> Alcotest.failf "cut at %d went undetected" cut
            | entries, Some (offset, valid_prefix) ->
              if not (is_prefix entries clean) then
                Alcotest.failf "cut at %d surfaced out-of-prefix entries" cut;
              if valid_prefix > cut then
                Alcotest.failf
                  "cut at %d claims a %d-byte verified prefix" cut valid_prefix;
              if offset < valid_prefix then
                Alcotest.failf "cut at %d reports damage inside the prefix" cut
          done));
    case "flipping any trace bit is detected; entries stay a prefix"
      (fun () ->
        with_temp_dir (fun dir ->
          let path = Filename.concat dir "run.trace" in
          write_sweep_trace path;
          let full = read_file path in
          let clean, _ = drain path in
          for i = 0 to String.length full - 1 do
            write_raw path (flip_byte full i);
            match drain path with
            | _, None -> Alcotest.failf "flip at %d went undetected" i
            | entries, Some _ ->
              if not (is_prefix entries clean) then
                Alcotest.failf "flip at %d surfaced out-of-prefix entries" i
          done)) ]

(* --- traces under injected filesystem faults ---------------------- *)

(* One flush carries many trace blocks, so a fault tears a chunk of
   records at once.  A recording that hits one must surface the IO
   error, release its descriptor, and leave a file whose verified
   prefix covers the chunks flushed before the fault (plus any whole
   blocks of a torn chunk) — a prefix of the clean recording's
   entries. *)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let fault_ops = Tabv_duv.Workload.des56 ~seed:9 ~count:200 ()

let record_fault_run path =
  Writer.with_file ~path trace_meta (fun w ->
      ignore (Tabv_duv.Testbench.run_des56_rtl ~trace_writer:w fault_ops))

let trace_fault_case name fault ~error ~prefix =
  case name (fun () ->
      with_temp_dir (fun dir ->
        let clean_path = Filename.concat dir "clean.trace" in
        record_fault_run clean_path;
        let clean, clean_err = drain clean_path in
        Alcotest.(check bool) "clean recording reads clean" true
          (clean_err = None);
        let path = Filename.concat dir "run.trace" in
        let armed = FIo.arm (FIo.plan ~name ~scope:".trace" [ fault ]) in
        let fds = open_fds () in
        FIo.install armed;
        Fun.protect ~finally:FIo.uninstall (fun () ->
            match record_fault_run path with
            | () -> Alcotest.fail "the recording reported success"
            | exception Io.Io_error { error = e; _ } ->
              Alcotest.(check bool) "the injected error surfaces" true
                (e = error));
        Alcotest.(check bool) "the fault fired" true (FIo.io_triggered armed > 0);
        Alcotest.(check int) "descriptor released" fds (open_fds ());
        match drain path with
        | _, None -> Alcotest.fail "a faulted trace read as complete"
        | entries, Some (_, valid_prefix) ->
          let flushed, torn = prefix (FIo.write_boundaries armed path) in
          if valid_prefix < flushed || valid_prefix > torn then
            Alcotest.failf "verified prefix %d outside [%d, %d]" valid_prefix
              flushed torn;
          Alcotest.(check bool) "flushed records salvaged" true (entries <> []);
          Alcotest.(check bool) "entries are a prefix of the clean run" true
            (is_prefix entries clean)))

(* [prefix] maps the chunk boundaries the plan let through to the
   range the verified prefix must fall in: from the chunks flushed
   whole to the bytes that reached the file.  Write op 2 is the third
   flushed chunk. *)
let trace_fault_cases =
  let last = List.fold_left max 0 in
  [ trace_fault_case "a short write tears a trace to its flushed chunks"
      (FIo.Short_write { op = 2; keep = 3 })
      ~error:Unix.ENOSPC
      ~prefix:(fun b -> (List.nth b 1, List.nth b 1 + 3));
    trace_fault_case "a full disk tears a trace to its flushed blocks"
      (FIo.Enospc_after { bytes = 20_000 })
      ~error:Unix.ENOSPC
      ~prefix:(fun b -> (last b, 20_000));
    trace_fault_case "a power cut tears a trace to its flushed chunks"
      (FIo.Power_cut { op = 2 })
      ~error:Unix.EIO
      ~prefix:(fun b -> (last b, last b)) ]

let suite =
  ( "durability",
    crc_cases @ io_cases @ fault_io_cases @ journal_fault_cases
    @ journal_sweep_cases @ trace_sweep_cases @ trace_fault_cases )
