open Tabv_psl

(** Offline checkers over alternative checker generators.

    The paper's wrapper is independent of the checker generator
    (Sec. IV).  This module demonstrates it: one functor over a small
    generator signature (compile a property body, initial state,
    per-evaluation-point context, step, verdict, evaluation-table
    entry) builds an {!Tabv_checker.Offline.OFFLINE_CHECKER} with the
    wrapper behaviour of {!Tabv_checker.Monitor} — the same context
    gating, activation per evaluation point, counters, failure order
    and {!Tabv_obs.Checker_snapshot} — but with one live instance per
    activation kept in a list, the representation the production
    monitor's state multiset replaced.

    Entries are read through {!Tabv_checker.Offline.Entry_env}, the
    environment the production pool reads, so both sides of a
    comparison see the same signal values by the same path. *)

module type S = sig
  (** One property's checker. *)
  type monitor

  include
    Tabv_checker.Offline.OFFLINE_CHECKER
      with type config = Property.t list
       and type result = (Property.t * monitor) list

  (** Accessors with the meaning of their {!Tabv_checker.Monitor}
      namesakes. *)

  val failures : monitor -> Tabv_checker.Monitor.failure list
  val activations : monitor -> int
  val passes : monitor -> int
  val trivial_passes : monitor -> int
  val pending : monitor -> int
  val peak_instances : monitor -> int
  val vacuous : monitor -> bool
  val evaluation_table : monitor -> int list
  val snapshots : result -> Tabv_obs.Checker_snapshot.t list
end

(** The tree-rewriting progression of {!Legacy}; snapshots are tagged
    ["progression-legacy"]. *)
module Legacy : S

(** The explicit-state tables of {!Automaton} (at most 256 states per
    body); snapshots are tagged ["automaton"].  [init] raises
    {!Automaton.Unsupported} on a body that cannot be tabled (timed
    [next_eps^tau] operators, too many atoms, state blow-up). *)
module Automaton : S
