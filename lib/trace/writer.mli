open Tabv_psl

(** Streaming binary trace writer.

    Create one per recorded run, feed it samples and {!span} calls from
    the testbench hooks (the same hooks that feed the in-memory
    {!Tabv_sim.Trace_rec} recorder), and {!close} it when the
    simulation ends.  Memory is O(signal count): a sample lives in
    dictionary-aligned int slots (bools as 0/1), and only the previous
    valuation (for change masks) and at most one pending sample are
    retained, plus a staging buffer of one {!Tabv_core.Io} buffer.

    Samples come in through one of two front-ends that feed the same
    encoder: {!sample} takes an environment list, and {!bind} reads a
    model's binding table directly (no list, no {!Expr.value} boxing,
    no name compares after the first sample).  Both produce the same
    bytes and raise the same errors.

    Same-instant samples overwrite each other (last-wins), matching
    {!Tabv_sim.Trace_rec.sample}: a TLM run may complete several
    transactions in one instant and checkers observe the final
    environment of the instant.  The pending-sample buffer is what
    makes this streamable — a sample is only encoded once a strictly
    later one (or {!close}) proves it final.

    Every record is one CRC32-framed block.  Blocks are staged and
    handed to {!Tabv_core.Io} about one Io buffer (at most
    {!Tabv_core.Io.buffer_bytes}) at a time, never splitting a block,
    so one flush — one write boundary under the [Fault.Io] hook — may
    carry many records; {!close} writes the rest and fsyncs before
    releasing the file.  A crash mid-run leaves a trace without its end
    record, which the reader refuses anyway; the verified prefix it
    reports is the blocks that were flushed before the crash. *)
type t

(** [create ~path meta] opens [path] for writing and stages the
    header.
    @raise Tabv_core.Io.Io_error when the file cannot be created. *)
val create : path:string -> Meta.t -> t

(** Record the full environment at [time].  The first sample fixes the
    signal dictionary (names, order, bool/int kinds); every later
    sample must present the same signals in the same order.  A refused
    sample leaves the writer as it was.
    @raise Invalid_argument on a negative first time, time going
    backwards, a dictionary mismatch, or a value changing kind.
    @raise Tabv_core.Io.Io_error when a full staging buffer cannot be
    flushed. *)
val sample : t -> time:int -> (string * Expr.value) list -> unit

(** [bind w bindings] is a sampler over a model's binding table:
    [record ~time] records the current values of [bindings], exactly
    as [sample w ~time (env of bindings)] would.  Its first call goes
    through {!sample} (fixing or checking the dictionary); later calls
    read the readers straight into the pending slots.  A
    [Value_reader] is kind-checked on every read.
    @raise Invalid_argument and {!Tabv_core.Io.Io_error} as {!sample}
    does, with the same messages. *)
val bind : t -> (string * Expr.reader) list -> time:int -> unit

(** Record one completed transaction span.
    @raise Invalid_argument if [end_time < start_time]. *)
val span : t -> label:string -> start_time:int -> end_time:int -> unit

(** Samples recorded so far (the pending one counts). *)
val samples : t -> int

val spans : t -> int

(** Bytes encoded so far, flushed or staged (header included; the
    pending sample excluded — it is not encoded until it is final).
    At {!close} this is the file size. *)
val bytes_written : t -> int

(** Encode the pending sample, write the end record (sample/span
    totals — the reader's truncation check), flush, fsync and close
    the file.  The descriptor is released even when this fails.
    Idempotent. *)
val close : t -> unit

(** [with_file ~path meta f] = create, run [f], close.  When [f]
    raises, the writer is still closed (errors while closing are
    dropped) and [f]'s exception is re-raised. *)
val with_file : path:string -> Meta.t -> (t -> 'a) -> 'a
