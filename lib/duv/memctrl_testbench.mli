open Tabv_psl

(** Testbenches for the MemCtrl IP (RTL and TLM-AT). *)

(** Expected read-data sequence for a workload (reference model). *)
val reference_reads : Memctrl_iface.op list -> int list

val run_rtl :
  ?properties:Property.t list ->
  ?metrics:Tabv_obs.Metrics.t ->
  ?trace_writer:Tabv_trace.Writer.t ->
  ?gap_cycles:int ->
  ?fault_plan:Tabv_fault.Fault.plan ->
  ?guard:Tabv_sim.Kernel.guard ->
  Memctrl_iface.op list ->
  Testbench.run_result

(** Cycle-accurate TLM: the unabstracted RTL properties are reused
    as-is (one frame transaction per clock period). *)
val run_tlm_ca :
  ?properties:Property.t list ->
  ?metrics:Tabv_obs.Metrics.t ->
  ?trace_writer:Tabv_trace.Writer.t ->
  ?gap_cycles:int ->
  ?fault_plan:Tabv_fault.Fault.plan ->
  ?guard:Tabv_sim.Kernel.guard ->
  Memctrl_iface.op list ->
  Testbench.run_result

(** [write_latency_ns]/[read_latency_ns] override the model latencies
    (defaults 20/30 ns) to emulate a wrong abstraction. *)
val run_tlm_at :
  ?properties:Property.t list ->
  ?metrics:Tabv_obs.Metrics.t ->
  ?trace_writer:Tabv_trace.Writer.t ->
  ?gap_cycles:int ->
  ?write_latency_ns:int ->
  ?read_latency_ns:int ->
  ?fault_plan:Tabv_fault.Fault.plan ->
  ?guard:Tabv_sim.Kernel.guard ->
  Memctrl_iface.op list ->
  Testbench.run_result
