open Tabv_psl
open Tabv_sim

(** RTL checker: a {!Monitor} sampled at clock events.

    The property's clock context selects the edge ([@clk_pos],
    [@clk_neg], [@clk] = both edges, the base context defaults to the
    positive edge); a gated context additionally filters evaluation
    points inside the monitor.

    Because edge events are delivered with delta semantics, the checker
    samples signal values {e before} the register updates of the same
    edge — the standard pre-edge sampling of RTL assertion checkers.

    This module is a backward-compatible shim over {!Checker.attach}
    with a {!Checker.Attach.Clock_edge} mode; new code should use
    {!Checker} directly (it additionally takes a metrics registry). *)

type t = Checker.t

(** [attach ?engine ~sampler ?clocks kernel clock property]
    synthesizes the checker (default backend: interned formula
    progression; [`Automaton] selects the explicit-state backend with
    automatic fallback) and hooks it to the clock; the checker reads
    the environment through [sampler].  Checkers given the same
    [sampler] evaluate each distinct atom once per instant.
    Properties with a {e named} clock context ([@clkB_pos]) sample the
    matching entry of [clocks] instead of the default [clock].
    @raise Invalid_argument when the property has a transaction
    context (use {!Wrapper} instead), or names a clock absent from
    [clocks]. *)
val attach :
  ?engine:Monitor.engine ->
  sampler:Sampler.t ->
  ?clocks:(string * Clock.t) list ->
  Kernel.t ->
  Clock.t ->
  Property.t ->
  t

val monitor : t -> Monitor.t
val failures : t -> Monitor.failure list
