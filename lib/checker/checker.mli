open Tabv_psl
open Tabv_sim

(** Checker attachment: the RTL checker and the TLM wrapper of
    Sec. IV behind one entry point.

    Every way of hooking a property {!Monitor} to a simulation is an
    {!Attach.mode}; everything else a checker needs — the shared atom
    sampler and the metrics registry — travels in one {!Attach.spec}
    record.

    The paper sizes the wrapper's preallocated instance array [C] by
    the property lifetime; {!array_size} reports that bound and
    {!Monitor.peak_instances} the high-water mark actually reached. *)

module Attach : sig
  (** How evaluation points are generated (Sec. III/IV of the paper):

      - [Clock_edge]: RTL checker semantics — sample at clock events;
        the property's clock context selects the edge and, for named
        contexts ([@clkB_pos]), the matching entry of [clocks].
      - [Transaction]: TLM wrapper semantics — step at the end of
        every transaction of the initiator socket (once per instant).
      - [Transaction_unabstracted]: the paper's reuse experiment — an
        {e unabstracted} RTL property stepped at transaction ends as
        if they were clock edges (sound on TLM-CA only).
      - [Grid]: sample the persistent TLM observable state on the
        reference RTL clock grid [phase + k * clock_period] (see
        DESIGN.md; for [until]-iterated timed operators on sparse
        traces). *)
  type mode =
    | Clock_edge of {
        clock : Clock.t;
        clocks : (string * Clock.t) list;
      }
    | Transaction of Tlm.Initiator.t
    | Transaction_unabstracted of Tlm.Initiator.t
    | Grid of {
        clock_period : int;
        phase : int;
      }

  (** The full attachment request.  [sampler] reads the DUV's
      signals (see {!Sampler.create}); share one across every checker
      observing the same evaluation points.  [metrics] defaults to the
      kernel's registry ({!Kernel.metrics}) — pass an explicit
      registry only to segregate instrumentation. *)
  type spec = {
    sampler : Sampler.t;
    mode : mode;
    metrics : Tabv_obs.Metrics.t option;
  }

  val spec :
    ?metrics:Tabv_obs.Metrics.t ->
    sampler:Sampler.t ->
    mode ->
    spec

  (** Mode constructors. *)

  val clock_edge : ?clocks:(string * Clock.t) list -> Clock.t -> mode

  val transaction : Tlm.Initiator.t -> mode
  val transaction_unabstracted : Tlm.Initiator.t -> mode

  (** [phase] defaults to 1 ns past the grid so same-instant
      transactions complete before sampling.
      @raise Invalid_argument when [clock_period <= 0]. *)
  val grid : ?phase:int -> clock_period:int -> unit -> mode
end

type t

(** [attach spec kernel property] synthesizes the checker and hooks
    it to the evaluation-point source selected by [spec.mode]; the
    checker reads the environment through [spec.sampler].

    When the effective metrics registry is enabled, the checker
    registers pull probes so the registry totals checker activity
    across every property on the kernel: [checker.monitors],
    [checker.activations], [checker.passes], [checker.trivial_passes],
    [checker.steps], [checker.pending], [checker.cache_hits],
    [checker.cache_misses], [checker.failures] (sums) and
    [checker.peak_instances], [checker.peak_distinct_states]
    (maxima).

    @raise Invalid_argument when the property context does not match
    the mode (clock context on a transaction/grid mode, transaction
    context on a clock-edge/unabstracted mode), when a named clock is
    absent from [clocks], or when a grid period is not positive. *)
val attach : Attach.spec -> Kernel.t -> Property.t -> t

val monitor : t -> Monitor.t
val failures : t -> Monitor.failure list

(** {!Monitor.snapshot} of the underlying monitor. *)
val snapshot : t -> Tabv_obs.Checker_snapshot.t

(** Lifetime bound of one checker instance: the maximum number of
    instants with transactions in [(t_fire, t_end]] given the
    reference RTL clock period — [max_eps / clock_period] (Sec. IV,
    point 1; 17 for the paper's [q3] at 10 ns). *)
val array_size : t -> clock_period:int -> int
