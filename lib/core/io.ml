(* The production path must stay indistinguishable from a plain
   buffered channel: one [Atomic.get] per flushed chunk is the entire
   cost of the seam when no hook is installed.  All the interesting
   behaviour — torn writes, lying fsyncs — lives in the hook, which
   only [Fault.Io] and the durability tests ever install. *)

exception Io_error of { op : string; path : string; error : Unix.error }

type write_decision =
  | Write_through
  | Write_short of { bytes : int; error : Unix.error }
  | Write_error of Unix.error

type fsync_decision = Fsync_through | Fsync_error of Unix.error | Fsync_lost
type op_decision = Op_through | Op_error of Unix.error

type hook = {
  on_write : path:string -> offset:int -> len:int -> write_decision;
  on_fsync : path:string -> fsync_decision;
  on_rename : src:string -> dst:string -> op_decision;
  on_close : path:string -> op_decision;
}

let current_hook : hook option Atomic.t = Atomic.make None
let interpose h = Atomic.set current_hook (Some h)
let clear_interpose () = Atomic.set current_hook None
let interposed () = Atomic.get current_hook <> None

type t = {
  path : string;
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable buf_len : int;
  mutable offset : int;
  mutable closed : bool;
}

let io_error ~op ~path error = raise (Io_error { op; path; error })

let wrap ~op ~path f =
  try f () with Unix.Unix_error (error, _, _) -> io_error ~op ~path error

let buffer_bytes = 8192

let open_file ~op path flags =
  let fd = wrap ~op ~path (fun () -> Unix.openfile path flags 0o644) in
  { path; fd; buf = Bytes.create buffer_bytes; buf_len = 0; offset = 0; closed = false }

let create path =
  open_file ~op:"open" path Unix.[ O_WRONLY; O_CREAT; O_TRUNC ]

let append path =
  let t = open_file ~op:"open" path Unix.[ O_WRONLY; O_CREAT; O_APPEND ] in
  t.offset <-
    wrap ~op:"open" ~path (fun () -> Unix.lseek t.fd 0 Unix.SEEK_END);
  t

let path t = t.path
let flushed t = t.offset

let check_open t op =
  if t.closed then
    invalid_arg (Printf.sprintf "Io.%s: %s is closed" op t.path)

(* Staged bytes are kept in a growable [Bytes.t] written in place by
   {!flush}: no per-chunk copy, so the hookless path does exactly the
   work a buffered channel would. *)
let write t s =
  check_open t "write";
  let slen = String.length s in
  let need = t.buf_len + slen in
  if need > Bytes.length t.buf then begin
    let cap = ref (Bytes.length t.buf) in
    while need > !cap do
      cap := !cap * 2
    done;
    let grown = Bytes.create !cap in
    Bytes.blit t.buf 0 grown 0 t.buf_len;
    t.buf <- grown
  end;
  Bytes.blit_string s 0 t.buf t.buf_len slen;
  t.buf_len <- need

(* Loop over genuine short writes from the kernel; the [Write_short]
   fault below is about simulated ones. *)
let write_all fd path b pos len =
  let written = ref 0 in
  while !written < len do
    let n =
      try Unix.write fd b (pos + !written) (len - !written)
      with Unix.Unix_error (error, _, _) -> io_error ~op:"write" ~path error
    in
    written := !written + n
  done

let flush t =
  check_open t "flush";
  let len = t.buf_len in
  if len > 0 then begin
    (* Consume the staged bytes up front (matching a channel, whose
       buffer empties even when the write errors); the data survives in
       [t.buf] until the next [write] because nothing re-enters. *)
    t.buf_len <- 0;
    match Atomic.get current_hook with
    | None ->
      write_all t.fd t.path t.buf 0 len;
      t.offset <- t.offset + len
    | Some h -> (
      match h.on_write ~path:t.path ~offset:t.offset ~len with
      | Write_through ->
        write_all t.fd t.path t.buf 0 len;
        t.offset <- t.offset + len
      | Write_short { bytes; error } ->
        let bytes = max 0 (min bytes len) in
        write_all t.fd t.path t.buf 0 bytes;
        t.offset <- t.offset + bytes;
        io_error ~op:"write" ~path:t.path error
      | Write_error error -> io_error ~op:"write" ~path:t.path error)
  end

let fd_fsync t =
  try Unix.fsync t.fd
  with Unix.Unix_error (error, _, _) -> io_error ~op:"fsync" ~path:t.path error

let fsync t =
  flush t;
  match Atomic.get current_hook with
  | None -> fd_fsync t
  | Some h -> (
    match h.on_fsync ~path:t.path with
    | Fsync_through -> fd_fsync t
    | Fsync_error error -> io_error ~op:"fsync" ~path:t.path error
    | Fsync_lost -> ())

let close t =
  if not t.closed then begin
    let release () = t.closed <- true;
      try Unix.close t.fd with Unix.Unix_error _ -> ()
    in
    (try flush t with e -> release (); raise e);
    let decision =
      match Atomic.get current_hook with
      | None -> Op_through
      | Some h -> h.on_close ~path:t.path
    in
    release ();
    match decision with
    | Op_through -> ()
    | Op_error error -> io_error ~op:"close" ~path:t.path error
  end

let close_noerr t =
  if not t.closed then begin
    t.closed <- true;
    (try write_all t.fd t.path t.buf 0 t.buf_len with _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let rename ~src ~dst =
  let decision =
    match Atomic.get current_hook with
    | None -> Op_through
    | Some h -> h.on_rename ~src ~dst
  in
  match decision with
  | Op_through -> wrap ~op:"rename" ~path:dst (fun () -> Unix.rename src dst)
  | Op_error error -> io_error ~op:"rename" ~path:dst error

let temp_suffix = ".tmp"
let temp_path path = path ^ temp_suffix
let is_temp_path path = Filename.check_suffix path temp_suffix

(* Not all filesystems support fsync on a directory fd; the rename is
   already atomic, the directory sync only hastens its durability. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let write_file_atomic ~path data =
  let tmp = temp_path path in
  let remove_tmp () = try Sys.remove tmp with Sys_error _ -> () in
  let t = create tmp in
  (try
     write t data;
     fsync t;
     close t
   with e ->
     close_noerr t;
     remove_tmp ();
     raise e);
  (try rename ~src:tmp ~dst:path
   with e ->
     remove_tmp ();
     raise e);
  fsync_dir (Filename.dirname path)
