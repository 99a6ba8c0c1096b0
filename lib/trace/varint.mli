(** LEB128-style variable-length integer codec over the native [int]
    range.

    [write_uint]/[read_uint] carry non-negative ints (62 magnitude
    bits); [write_zigzag]/[read_zigzag] carry signed ints over the
    full 63-bit pattern, mapping small magnitudes to short encodings.
    Readers raise {!Corrupt} on overlong or truncated input. *)

exception Corrupt of string

(** Longest encoding of either kind, in bytes (9). *)
val max_bytes : int

(** [put_uint b pos v] writes [v] into [b] at [pos] and returns the
    position just after it.
    @raise Invalid_argument when [b] ends first. *)
val put_uint : Bytes.t -> int -> int -> int

val put_zigzag : Bytes.t -> int -> int -> int

(** [read_uint next] pulls bytes from [next] (which raises
    [End_of_file] when exhausted).
    @raise Corrupt on an encoding wider than 63 bits, or one whose
    value does not fit the 62 non-negative magnitude bits (a decoded
    uint is never negative).
    @raise End_of_file like [next]. *)
val read_uint : (unit -> char) -> int

val read_zigzag : (unit -> char) -> int
