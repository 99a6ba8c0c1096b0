open Tabv_psl
module Crc32 = Tabv_core.Crc32
module Io = Tabv_core.Io

(* A sample lives in dictionary-aligned int slots: a bool as 0/1, an
   int as itself.  [slots] holds three rows of [n] slots, and three
   offsets rotate over them so that no sample is ever copied: [next_at]
   receives an incoming sample (a refused call leaves the other two
   rows untouched), [pend_at] holds the pending one, [prev_at] the last
   committed one (the change-mask baseline). *)
type t = {
  io : Io.t;
  mutable stage : Bytes.t;  (* encoded bytes not yet handed to [io] *)
  mutable len : int;  (* bytes used in [stage] *)
  mutable block_start : int;  (* offset in [stage] of the open block *)
  mutable names : string array;  (* the dictionary, fixed by the first sample *)
  mutable is_bool : bool array;
  mutable slots : int array;
  mutable next_at : int;
  mutable pend_at : int;
  mutable prev_at : int;
  mutable has_pending : bool;
  mutable pending_time : int;
  mutable have_prev : bool;
  mutable prev_time : int;
  labels : (string, int) Hashtbl.t;
  mutable next_label : int;
  mutable prev_span_start : int;
  mutable n_samples : int;
  mutable n_spans : int;
  mutable closed : bool;
}

(* Make room for [k] more staged bytes: every block reserves its
   largest encoding (CRC included) before it writes. *)
let reserve t k =
  if t.len + k > Bytes.length t.stage then begin
    let grown = Bytes.create (max (t.len + k) (2 * Bytes.length t.stage)) in
    Bytes.blit t.stage 0 grown 0 t.len;
    t.stage <- grown
  end

let put_char t c =
  Bytes.unsafe_set t.stage t.len c;
  t.len <- t.len + 1

let put_uint t v = t.len <- Varint.put_uint t.stage t.len v
let put_zigzag t v = t.len <- Varint.put_zigzag t.stage t.len v

let put_string t s =
  put_uint t (String.length s);
  Bytes.blit_string s 0 t.stage t.len (String.length s);
  t.len <- t.len + String.length s

let string_bytes s = Varint.max_bytes + String.length s

(* Hand the first [count] staged bytes to the file as one chunk: one
   write (and one hook decision under [Fault.Io]) per call. *)
let hand_out t count =
  let chunk = Bytes.sub_string t.stage 0 count in
  Bytes.blit t.stage count t.stage 0 (t.len - count);
  t.len <- t.len - count;
  t.block_start <- t.len;
  Io.write t.io chunk;
  Io.flush t.io

(* Close the open block with the little-endian CRC of its bytes.  Once
   the stage outgrows one Io buffer, everything before this block goes
   out as one chunk: chunks never split a block, and unless a block
   alone outgrows it, the Io buffer never grows. *)
let end_block t =
  let start = t.block_start in
  let crc =
    Crc32.update 0 (Bytes.unsafe_to_string t.stage) ~pos:start
      ~len:(t.len - start)
  in
  for i = 0 to Layout.crc_bytes - 1 do
    put_char t (Char.unsafe_chr ((crc lsr (8 * i)) land 0xff))
  done;
  t.block_start <- t.len;
  if t.len > Io.buffer_bytes then hand_out t (if start > 0 then start else t.len)

let create ~path meta =
  let io = Io.create path in
  let t =
    {
      io;
      stage = Bytes.create (2 * Io.buffer_bytes);
      len = 0;
      block_start = 0;
      names = [||];
      is_bool = [||];
      slots = [||];
      next_at = 0;
      pend_at = 0;
      prev_at = 0;
      has_pending = false;
      pending_time = 0;
      have_prev = false;
      prev_time = 0;
      labels = Hashtbl.create 8;
      next_label = 0;
      prev_span_start = 0;
      n_samples = 0;
      n_spans = 0;
      closed = false;
    }
  in
  (* The magic is raw (no CRC — a reader must be able to recognize the
     format before trusting any framing); the meta header is the first
     CRC-framed block. *)
  Bytes.blit_string Layout.magic 0 t.stage 0 (String.length Layout.magic);
  t.len <- String.length Layout.magic;
  t.block_start <- t.len;
  reserve t
    (string_bytes meta.Meta.model + string_bytes meta.Meta.engine
    + (2 * Varint.max_bytes) + Layout.crc_bytes);
  put_string t meta.Meta.model;
  put_zigzag t meta.Meta.seed;
  put_uint t meta.Meta.ops;
  put_string t meta.Meta.engine;
  end_block t;
  t

let check_open t = if t.closed then invalid_arg "Trace writer: already closed"

let is_vbool = function Expr.VBool _ -> true | Expr.VInt _ -> false

let write_dict t env =
  let n = List.length env in
  if n > Layout.max_dictionary then invalid_arg "Trace writer: too many signals";
  t.names <- Array.of_list (List.map fst env);
  t.is_bool <- Array.of_list (List.map (fun (_, v) -> is_vbool v) env);
  t.slots <- Array.make (3 * n) 0;
  t.next_at <- 0;
  t.pend_at <- n;
  t.prev_at <- 2 * n;
  reserve t
    (1 + Varint.max_bytes
    + Array.fold_left (fun acc name -> acc + string_bytes name + 1) 0 t.names
    + Layout.crc_bytes);
  put_char t Layout.tag_dict;
  put_uint t n;
  for i = 0 to n - 1 do
    put_string t t.names.(i);
    put_char t (if t.is_bool.(i) then Layout.kind_bool else Layout.kind_int)
  done;
  end_block t

(* Store one value in slot [i] of the incoming row, checking its kind
   against the dictionary. *)
let store t i v =
  match v with
  | Expr.VBool b when t.is_bool.(i) -> t.slots.(t.next_at + i) <- Bool.to_int b
  | Expr.VInt n when not t.is_bool.(i) -> t.slots.(t.next_at + i) <- n
  | Expr.VBool _ | Expr.VInt _ ->
    invalid_arg
      (Printf.sprintf "Trace writer: signal %S changed kind" t.names.(i))

(* Validate an environment into the incoming row: same signals, same
   order, same kinds as the dictionary. *)
let fill_env t env =
  let n = Array.length t.names in
  let i = ref 0 in
  List.iter
    (fun (name, v) ->
      if !i >= n then invalid_arg "Trace writer: sample has extra signals";
      if not (String.equal t.names.(!i) name) then
        invalid_arg
          (Printf.sprintf "Trace writer: signal %d is %S, dictionary says %S"
             !i name t.names.(!i));
      store t !i v;
      incr i)
    env;
  if !i <> n then invalid_arg "Trace writer: sample is missing signals"

(* Encode the pending sample: delta time, change mask, then the
   changed bool values bit-packed and the changed ints as zigzag
   varints, all in dictionary order.  The committed row becomes the
   change-mask baseline before the block is closed, so an IO error
   while closing it leaves the writer consistent. *)
let commit t =
  let slots = t.slots and is_bool = t.is_bool in
  let pend = t.pend_at and prev = t.prev_at in
  let n = Array.length is_bool in
  let first = not t.have_prev in
  reserve t
    (1 + Varint.max_bytes + (2 * ((n + 7) / 8)) + (Varint.max_bytes * n)
    + Layout.crc_bytes);
  put_char t Layout.tag_sample;
  put_uint t (if first then t.pending_time else t.pending_time - t.prev_time);
  (* The change mask and the changed bools' values are bit-packed
     without branching on the data: which signals change is
     data-dependent, and mispredicted branches cost more than the
     packing itself. *)
  let all = Bool.to_int first in
  let bits = ref 0 and fill = ref 0 in
  for i = 0 to n - 1 do
    let changed = all lor Bool.to_int (slots.(pend + i) <> slots.(prev + i)) in
    bits := !bits lor (changed lsl !fill);
    incr fill;
    if !fill = 8 then begin
      put_char t (Char.unsafe_chr !bits);
      bits := 0;
      fill := 0
    end
  done;
  if !fill > 0 then put_char t (Char.unsafe_chr !bits);
  bits := 0;
  fill := 0;
  for i = 0 to n - 1 do
    let changed = all lor Bool.to_int (slots.(pend + i) <> slots.(prev + i)) in
    let take = changed land Bool.to_int is_bool.(i) in
    bits := !bits lor ((slots.(pend + i) land take) lsl !fill);
    fill := !fill + take;
    if !fill = 8 then begin
      put_char t (Char.unsafe_chr !bits);
      bits := 0;
      fill := 0
    end
  done;
  if !fill > 0 then put_char t (Char.unsafe_chr !bits);
  for i = 0 to n - 1 do
    if (not is_bool.(i)) && (first || slots.(pend + i) <> slots.(prev + i)) then
      put_zigzag t slots.(pend + i)
  done;
  t.prev_at <- pend;
  t.pend_at <- prev;
  t.have_prev <- true;
  t.prev_time <- t.pending_time;
  t.has_pending <- false;
  end_block t

(* Make the validated incoming row the pending sample.  A sample is
   only encoded once a strictly later one (or [close]) proves it
   final: same-instant samples overwrite it, last-wins, as in
   Trace_rec. *)
let place t ~time =
  if t.has_pending && time < t.pending_time then
    invalid_arg
      (Printf.sprintf "Trace writer: time went backwards (%d after %d)" time
         t.pending_time);
  if t.has_pending && time > t.pending_time then commit t;
  if not t.has_pending then t.n_samples <- t.n_samples + 1;
  let row = t.pend_at in
  t.pend_at <- t.next_at;
  t.next_at <- row;
  t.has_pending <- true;
  t.pending_time <- time

let sample t ~time env =
  check_open t;
  if t.n_samples = 0 then begin
    (* The first sample fixes the dictionary. *)
    if time < 0 then invalid_arg "Trace writer: negative time";
    write_dict t env
  end;
  fill_env t env;
  place t ~time

let bind t bindings =
  let readers = Array.of_list (List.map snd bindings) in
  let checked = ref false in
  fun ~time ->
    if not !checked then begin
      (* The first sample goes through the env-list front-end, which
         fixes or checks the dictionary against the table's names and
         kinds; from then on a typed reader cannot change kind. *)
      sample t ~time
        (List.map (fun (name, reader) -> (name, Expr.read reader)) bindings);
      checked := true
    end
    else begin
      check_open t;
      let slots = t.slots and next = t.next_at in
      for i = 0 to Array.length readers - 1 do
        match readers.(i) with
        | Expr.Bool_reader f -> slots.(next + i) <- Bool.to_int (f ())
        | Expr.Int_reader f -> slots.(next + i) <- f ()
        | Expr.Value_reader f -> store t i (f ())
      done;
      place t ~time
    end

let span t ~label ~start_time ~end_time =
  check_open t;
  if end_time < start_time then
    invalid_arg "Trace writer: span ends before it starts";
  let id =
    match Hashtbl.find_opt t.labels label with
    | Some id -> id
    | None ->
      let id = t.next_label in
      t.next_label <- id + 1;
      Hashtbl.add t.labels label id;
      (* Its own block: the reader resolves label ids at block
         boundaries, so a label may never share a CRC frame with the
         span that first uses it. *)
      reserve t (1 + string_bytes label + Layout.crc_bytes);
      put_char t Layout.tag_label;
      put_string t label;
      end_block t;
      id
  in
  reserve t (1 + (3 * Varint.max_bytes) + Layout.crc_bytes);
  put_char t Layout.tag_span;
  put_uint t id;
  put_zigzag t (start_time - t.prev_span_start);
  put_uint t (end_time - start_time);
  t.prev_span_start <- start_time;
  t.n_spans <- t.n_spans + 1;
  end_block t

let samples t = t.n_samples
let spans t = t.n_spans
let bytes_written t = Io.flushed t.io + t.len

let close t =
  if not t.closed then begin
    t.closed <- true;
    match
      if t.has_pending then commit t;
      reserve t (1 + (2 * Varint.max_bytes) + Layout.crc_bytes);
      put_char t Layout.tag_end;
      put_uint t t.n_samples;
      put_uint t t.n_spans;
      end_block t;
      hand_out t t.len;
      Io.fsync t.io
    with
    | () -> Io.close t.io
    | exception e ->
      (* Release the descriptor even when the end record cannot be
         written (an injected IO fault); the file is then a trace
         without an end record — torn, and refused by the reader. *)
      Io.close_noerr t.io;
      raise e
  end

(* A failure of [f] is the one to report: closing after it still
   writes what it can and releases the descriptor, but its own error
   must not mask the original one. *)
let with_file ~path meta f =
  let t = create ~path meta in
  match f t with
  | result ->
    close t;
    result
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    (try close t with _ -> ());
    Printexc.raise_with_backtrace e bt
