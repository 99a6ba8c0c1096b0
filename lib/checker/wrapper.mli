open Tabv_psl
open Tabv_sim

(** TLM checker wrapper (Sec. IV of the paper).

    The wrapper executes checkers at the correct simulation instants:
    it subscribes to the end of every transaction of an initiator
    socket and steps the property's {!Monitor} there.  Timed
    [next_eps^tau] obligations are handled by the progression engine:
    a transaction earlier than the required instant is ignored by the
    pending obligation, one at exactly the instant evaluates the
    operand, and one past it raises the failure.

    The paper sizes a preallocated instance array [C] by the property
    lifetime; [array_size] reports that bound, and
    {!Monitor.peak_instances} the high-water mark actually reached.

    This module is a backward-compatible shim over {!Checker.attach}
    with {!Checker.Attach.Transaction} /
    {!Checker.Attach.Transaction_unabstracted} / {!Checker.Attach.Grid}
    modes; new code should use {!Checker} directly (it additionally
    takes a metrics registry). *)

type t = Checker.t

(** [attach ~sampler kernel initiator property] synthesizes the
    wrapper for a TLM property and hooks it to the socket's
    end-of-transaction events; the wrapper reads the environment
    through [sampler].  [engine] selects the checker backend (see
    {!Monitor.engine}); all wrappers sharing a sampler evaluate each
    distinct atom once per instant (the paper's wrapper pool samples
    the environment once per evaluation point).
    @raise Invalid_argument when the property has a clock context. *)
val attach :
  ?engine:Monitor.engine ->
  sampler:Sampler.t ->
  Kernel.t ->
  Tlm.Initiator.t ->
  Property.t ->
  t

(** Attach a checker synthesized from an {e unabstracted} RTL property
    directly to transaction events, treating each transaction end as if
    it were a clock event.  This is the reuse the paper evaluates on
    TLM-CA models (where one transaction per cycle makes it sound) and
    shows to be incorrect on more abstract models. *)
val attach_unabstracted :
  ?engine:Monitor.engine ->
  sampler:Sampler.t ->
  Kernel.t ->
  Tlm.Initiator.t ->
  Property.t ->
  t

(** Grid-mode wrapper (an extension over the paper; see DESIGN.md).

    Properties whose [next_eps^tau] operators sit under [until]/
    [release] (the paper's [q2]) cannot be discharged on sparse
    approximately-timed traces under the strict Def. III.3 semantics:
    the iterating operator re-anchors the timed operand at every
    event, and no transaction exists at the required instants.

    The grid wrapper fixes this by evaluating the property at every
    instant of the reference RTL clock grid ([phase + k *
    clock_period]), sampling the {e persistent} TLM observable state
    instead of waiting for transactions.  [phase] defaults to 1 ns
    past the grid so that same-instant transactions complete before
    sampling.  The cost is one evaluation per clock period — an
    ablation the benchmark quantifies. *)
val attach_grid :
  ?engine:Monitor.engine ->
  sampler:Sampler.t ->
  Kernel.t ->
  clock_period:int ->
  ?phase:int ->
  Property.t ->
  t

val monitor : t -> Monitor.t
val failures : t -> Monitor.failure list

(** Lifetime bound of one checker instance: the maximum number of
    instants with transactions in [(t_fire, t_end]] given the
    reference RTL clock period — [max_eps / clock_period] (Sec. IV,
    point 1; 17 for the paper's [q3] at 10 ns). *)
val array_size : t -> clock_period:int -> int
