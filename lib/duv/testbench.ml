open Tabv_psl
open Tabv_sim
open Tabv_checker

type checker_stat = Tabv_obs.Checker_snapshot.t = {
  property_name : string;
  engine : string;
  activations : int;
  passes : int;
  trivial_passes : int;
  vacuous : bool;
  peak_instances : int;
  peak_distinct_states : int;
  pending : int;
  steps : int;
  cache_hits : int;
  cache_misses : int;
  failures : Monitor.failure list;
}

type run_result = {
  sim_time_ns : int;
  kernel_activations : int;
  delta_cycles : int;
  transactions : int;
  completed_ops : int;
  outputs : int64 list;
  checker_stats : checker_stat list;
  metrics : (string * Tabv_obs.Metrics.value) list;
  trace : Trace.t option;
  diagnosis : Kernel.diagnosis;
  faults_triggered : int;
}

let total_failures result =
  Tabv_obs.Checker_snapshot.total_failures result.checker_stats

let pp_checker_stat = Tabv_obs.Checker_snapshot.pp
let stat_of_monitor = Monitor.snapshot
let cache_hit_rate = Tabv_obs.Checker_snapshot.cache_hit_rate

let metrics_json ?(run = []) result =
  let open Tabv_core.Report_json in
  let run =
    run
    @ [ ("sim_time_ns", Int result.sim_time_ns);
        ("kernel_activations", Int result.kernel_activations);
        ("delta_cycles", Int result.delta_cycles);
        ("transactions", Int result.transactions);
        ("completed_ops", Int result.completed_ops);
        ("failures", Int (total_failures result));
        ("diagnosis", Tabv_fault.Fault.diagnosis_json result.diagnosis);
        ("faults_triggered", Int result.faults_triggered) ]
  in
  let cache = Progression.cache_stats () in
  let engine =
    engine_cache_json ~cache_hits:cache.Progression.cache_hits
      ~cache_misses:cache.Progression.cache_misses
      ~cache_bypassed:cache.Progression.cache_bypassed
      ~distinct_states:cache.Progression.distinct_states
      ~distinct_transitions:cache.Progression.distinct_transitions
      ~interned_formulas:cache.Progression.interned_formulas ()
  in
  metrics_json ~run ~metrics:result.metrics
    ~properties:(List.map checker_snapshot_json result.checker_stats)
    ~engine ()

(* --- checker-pool plumbing ------------------------------------------ *)

(* One shared atom sampler per checker pool, over the model's binding
   table; when the kernel's metrics registry is live its counters are
   published as pull probes (summed across pools). *)
let pool_sampler kernel bindings =
  let sampler = Sampler.create (Expr.resolver bindings) in
  let metrics = Kernel.metrics kernel in
  if Tabv_obs.Metrics.enabled metrics then begin
    Tabv_obs.Metrics.probe metrics ~combine:`Sum "checker.sampler.queries"
      (fun () -> Sampler.queries sampler);
    Tabv_obs.Metrics.probe metrics ~combine:`Sum "checker.sampler.evals"
      (fun () -> Sampler.evals sampler)
  end;
  sampler

(* Attach one property pool through the unified entry point. *)
let attach_pool kernel mode sampler properties =
  List.map
    (fun p -> Checker.attach (Checker.Attach.spec ~sampler mode) kernel p)
    properties

let metrics_snapshot kernel =
  let m = Kernel.metrics kernel in
  if Tabv_obs.Metrics.enabled m then Tabv_obs.Metrics.snapshot m else []

(* --- trace-writer plumbing ------------------------------------------ *)

(* The streaming binary writer taps the exact hooks that feed the
   in-memory Trace_rec recorder (posedge process at RTL, transaction
   completion at TLM), so a stored trace carries the same evaluation
   points a live checker pool saw.  It samples through the model's
   binding table, the one the checker samplers compile against.
   Disarmed (None) costs nothing; an armed kernel metrics registry
   additionally publishes the writer's volume counters as pull
   probes. *)
let arm_writer kernel writer bindings =
  let metrics = Kernel.metrics kernel in
  if Tabv_obs.Metrics.enabled metrics then begin
    Tabv_obs.Metrics.probe metrics ~combine:`Sum "trace.samples" (fun () ->
        Tabv_trace.Writer.samples writer);
    Tabv_obs.Metrics.probe metrics ~combine:`Sum "trace.spans" (fun () ->
        Tabv_trace.Writer.spans writer);
    Tabv_obs.Metrics.probe metrics ~combine:`Sum "trace.bytes" (fun () ->
        Tabv_trace.Writer.bytes_written writer)
  end;
  Tabv_trace.Writer.bind writer bindings

let write_edges kernel clock bindings = function
  | None -> ()
  | Some writer ->
    let record = arm_writer kernel writer bindings in
    Process.method_process kernel ~name:"trace_bin" ~initialize:false
      ~sensitivity:[ Clock.posedge clock ]
      (fun () -> record ~time:(Kernel.now kernel))

let span_label transaction =
  match transaction.Tlm.payload.Tlm.command with
  | Tlm.Read -> "read"
  | Tlm.Write -> "write"

(* Sample at the transaction end (last-wins within an instant, exactly
   like the Trace_rec hook) and record the begin/end span. *)
let write_transactions kernel initiator bindings = function
  | None -> ()
  | Some writer ->
    let record = arm_writer kernel writer bindings in
    Tlm.Initiator.on_transaction initiator (fun transaction ->
      record ~time:transaction.Tlm.end_time;
      Tabv_trace.Writer.span writer ~label:(span_label transaction)
        ~start_time:transaction.Tlm.start_time
        ~end_time:transaction.Tlm.end_time)

(* --- fault-plan plumbing -------------------------------------------- *)

(* Compile an optional fault plan onto the design through its binding.
   [None] (the default) touches nothing: no interposition is installed
   and the run is byte-identical to a build without the fault
   subsystem. *)
let install_plan binding = function
  | None -> None
  | Some plan when Tabv_fault.Fault.is_empty plan -> None
  | Some plan -> Some (Tabv_fault.Fault.install binding plan)

let faults_triggered_of = function
  | None -> 0
  | Some installed -> Tabv_fault.Fault.triggered installed

let period = 10

(* --- DES56 / RTL --- *)

let run_des56_rtl ?(properties = []) ?metrics ?(record_trace = false)
    ?trace_writer ?(gap_cycles = 2) ?fault ?fault_plan ?guard ops =
  let kernel = Kernel.create ?metrics () in
  let clock = Clock.create kernel ~name:"clk" ~period () in
  let model = Des56_rtl.create ?fault kernel clock in
  let faults = install_plan (Duv_fault.des56_rtl_binding kernel model) fault_plan in
  let bindings = Des56_rtl.bindings model in
  (* All checkers sample the same environment at the same edges: share
     one evaluation-point sampler so each distinct atom is evaluated
     once per instant across the whole checker pool. *)
  let sampler = pool_sampler kernel bindings in
  let checkers =
    attach_pool kernel (Checker.Attach.clock_edge clock) sampler
      properties
  in
  let recorder = Trace_rec.create () in
  if record_trace then
    Process.method_process kernel ~name:"trace" ~initialize:false
      ~sensitivity:[ Clock.posedge clock ]
      (fun () -> Trace_rec.sample recorder ~time:(Kernel.now kernel) (Des56_rtl.env model));
  write_edges kernel clock bindings trace_writer;
  let outputs = ref [] in
  Process.method_process kernel ~name:"collect" ~initialize:false
    ~sensitivity:[ Clock.posedge clock ]
    (fun () ->
      if Signal.read (Des56_rtl.rdy model) then
        outputs := Signal.read (Des56_rtl.out model) :: !outputs);
  Process.spawn kernel ~name:"driver" (fun () ->
    let negedge = Clock.negedge clock in
    Process.wait_event negedge;
    List.iter
      (fun op ->
        Signal.write (Des56_rtl.ds model) true;
        Signal.write (Des56_rtl.decrypt model) op.Des56_iface.decrypt;
        Signal.write (Des56_rtl.key model) op.Des56_iface.key;
        Signal.write (Des56_rtl.indata model) op.Des56_iface.indata;
        Process.wait_event negedge;
        Signal.write (Des56_rtl.ds model) false;
        for _ = 1 to Des56_iface.latency + gap_cycles do
          Process.wait_event negedge
        done)
      ops;
    (* Drain the last result and one extra evaluation point. *)
    for _ = 1 to 3 do
      Process.wait_event negedge
    done;
    Kernel.stop kernel);
  let sim_time_ns = Kernel.run ?guard kernel in
  {
    sim_time_ns;
    kernel_activations = Kernel.activation_count kernel;
    delta_cycles = Kernel.delta_count kernel;
    transactions = 0;
    completed_ops = Des56_rtl.completed model;
    outputs = List.rev !outputs;
    checker_stats = List.map Checker.snapshot checkers;
    metrics = metrics_snapshot kernel;
    trace = (if record_trace then Some (Trace_rec.to_trace recorder) else None);
    diagnosis = Kernel.last_diagnosis kernel;
    faults_triggered = faults_triggered_of faults;
  }

(* --- DES56 / TLM-CA --- *)

let run_des56_tlm_ca ?(properties = []) ?metrics ?(record_trace = false)
    ?trace_writer ?(gap_cycles = 2) ?fault_plan ?guard ops =
  let kernel = Kernel.create ?metrics () in
  let model = Des56_tlm_ca.create kernel in
  let initiator = Tlm.Initiator.create kernel ~name:"des56_ca_init" in
  Tlm.Initiator.bind initiator (Des56_tlm_ca.target model);
  let faults =
    install_plan
      (Duv_fault.des56_tlm_binding kernel initiator (Des56_tlm_ca.observables model))
      fault_plan
  in
  let bindings = Des56_tlm_ca.bindings model in
  let recorder = Trace_rec.create () in
  if record_trace then
    Tlm.Initiator.on_transaction initiator (fun transaction ->
      Trace_rec.sample recorder ~time:transaction.Tlm.end_time
        (Des56_iface.env_of (Des56_tlm_ca.observables model)));
  write_transactions kernel initiator bindings trace_writer;
  let sampler = pool_sampler kernel bindings in
  let checkers =
    attach_pool kernel
      (Checker.Attach.transaction_unabstracted initiator)
      sampler properties
  in
  let outputs = ref [] in
  Process.spawn kernel ~name:"driver" (fun () ->
    Process.wait_ns kernel period;
    let send_frame frame =
      let payload = Tlm.make_payload ~extension:(Des56_iface.Frame frame) Tlm.Write in
      Tlm.Initiator.b_transport initiator payload;
      if frame.Des56_iface.f_rdy then outputs := frame.Des56_iface.f_out :: !outputs;
      Process.wait_ns kernel period
    in
    (* Idle frames hold the previously driven input values, exactly as
       the RTL signals do between strobes. *)
    let held = ref (Des56_iface.make_frame ()) in
    let idle_frame () =
      let h = !held in
      Des56_iface.make_frame ~decrypt:h.Des56_iface.f_decrypt ~key:h.Des56_iface.f_key
        ~indata:h.Des56_iface.f_indata ()
    in
    List.iter
      (fun op ->
        let frame =
          Des56_iface.make_frame ~ds:true ~decrypt:op.Des56_iface.decrypt
            ~key:op.Des56_iface.key ~indata:op.Des56_iface.indata ()
        in
        held := frame;
        send_frame frame;
        for _ = 1 to Des56_iface.latency + gap_cycles do
          send_frame (idle_frame ())
        done)
      ops;
    for _ = 1 to 3 do
      send_frame (idle_frame ())
    done;
    Kernel.stop kernel);
  let sim_time_ns = Kernel.run ?guard kernel in
  {
    sim_time_ns;
    kernel_activations = Kernel.activation_count kernel;
    delta_cycles = Kernel.delta_count kernel;
    transactions = Tlm.Initiator.transaction_count initiator;
    completed_ops = Des56_tlm_ca.completed model;
    outputs = List.rev !outputs;
    checker_stats = List.map Checker.snapshot checkers;
    metrics = metrics_snapshot kernel;
    trace = (if record_trace then Some (Trace_rec.to_trace recorder) else None);
    diagnosis = Kernel.last_diagnosis kernel;
    faults_triggered = faults_triggered_of faults;
  }

(* --- DES56 / TLM-AT --- *)

let run_des56_tlm_at ?(properties = []) ?(grid_properties = []) ?metrics
    ?(record_trace = false) ?trace_writer ?(gap_cycles = 2) ?model_latency_ns
    ?fault_plan ?guard ops =
  let kernel = Kernel.create ?metrics () in
  let model = Des56_tlm_at.create ?latency_ns:model_latency_ns kernel in
  let initiator = Tlm.Initiator.create kernel ~name:"des56_at_init" in
  Tlm.Initiator.bind initiator (Des56_tlm_at.target model);
  let faults =
    install_plan
      (Duv_fault.des56_tlm_binding kernel initiator (Des56_tlm_at.observables model))
      fault_plan
  in
  let bindings = Des56_tlm_at.bindings model in
  let recorder = Trace_rec.create () in
  if record_trace then
    Tlm.Initiator.on_transaction initiator (fun transaction ->
      Trace_rec.sample recorder ~time:transaction.Tlm.end_time
        (Des56_iface.env_of (Des56_tlm_at.observables model)));
  write_transactions kernel initiator bindings trace_writer;
  (* Strict wrappers sample in the deferred-delta phase of transaction
     instants; grid wrappers sample on the clock grid.  The two pools
     observe different instants, so each gets its own shared sampler. *)
  let sampler = pool_sampler kernel bindings in
  let grid_sampler = pool_sampler kernel bindings in
  let checkers =
    attach_pool kernel (Checker.Attach.transaction initiator) sampler
      properties
    @ attach_pool kernel
        (Checker.Attach.grid ~clock_period:Des56_iface.clock_period ())
        grid_sampler grid_properties
  in
  let outputs = ref [] in
  Process.spawn kernel ~name:"driver" (fun () ->
    Process.wait_ns kernel period;
    let transport extension =
      Tlm.Initiator.b_transport initiator (Tlm.make_payload ~extension Tlm.Write)
    in
    List.iter
      (fun op ->
        transport
          (Des56_iface.At_write
             {
               Des56_iface.a_decrypt = op.Des56_iface.decrypt;
               a_key = op.Des56_iface.key;
               a_indata = op.Des56_iface.indata;
             });
        Process.wait_ns kernel period;
        transport Des56_iface.At_idle;
        (* Blocking read: the target returns at its completion
           instant, which is the strobe time plus the model latency. *)
        let response = { Des56_iface.a_out = 0L; a_rdy = false } in
        transport (Des56_iface.At_read response);
        if response.Des56_iface.a_rdy then
          outputs := response.Des56_iface.a_out :: !outputs;
        Process.wait_ns kernel period;
        transport (Des56_iface.At_status { Des56_iface.a_out = 0L; a_rdy = false });
        Process.wait_ns kernel (gap_cycles * period))
      ops;
    Kernel.stop kernel);
  let sim_time_ns = Kernel.run ?guard kernel in
  {
    sim_time_ns;
    kernel_activations = Kernel.activation_count kernel;
    delta_cycles = Kernel.delta_count kernel;
    transactions = Tlm.Initiator.transaction_count initiator;
    completed_ops = Des56_tlm_at.completed model;
    outputs = List.rev !outputs;
    checker_stats = List.map Checker.snapshot checkers;
    metrics = metrics_snapshot kernel;
    trace = (if record_trace then Some (Trace_rec.to_trace recorder) else None);
    diagnosis = Kernel.last_diagnosis kernel;
    faults_triggered = faults_triggered_of faults;
  }

(* --- DES56 / TLM-LT --- *)

let run_des56_tlm_lt ?(properties = []) ?metrics ?(gap_cycles = 2)
    ?fault_plan ?guard ops =
  let kernel = Kernel.create ?metrics () in
  let model = Des56_tlm_lt.create kernel in
  let initiator = Tlm.Initiator.create kernel ~name:"des56_lt_init" in
  Tlm.Initiator.bind initiator (Des56_tlm_lt.target model);
  let faults =
    install_plan
      (Duv_fault.des56_tlm_binding kernel initiator (Des56_tlm_lt.observables model))
      fault_plan
  in
  let bindings = Des56_tlm_lt.bindings model in
  let sampler = pool_sampler kernel bindings in
  let checkers =
    attach_pool kernel (Checker.Attach.transaction initiator) sampler
      properties
  in
  let outputs = ref [] in
  Process.spawn kernel ~name:"driver" (fun () ->
    Process.wait_ns kernel period;
    let transport extension =
      let payload = Tlm.make_payload ~extension Tlm.Write in
      Tlm.Initiator.b_transport initiator payload;
      payload
    in
    List.iter
      (fun op ->
        let payload =
          transport
            (Des56_iface.At_write
               {
                 Des56_iface.a_decrypt = op.Des56_iface.decrypt;
                 a_key = op.Des56_iface.key;
                 a_indata = op.Des56_iface.indata;
               })
        in
        outputs := payload.Tlm.data :: !outputs;
        Process.wait_ns kernel period;
        ignore (transport Des56_iface.At_idle);
        Process.wait_ns kernel (gap_cycles * period))
      ops;
    Process.wait_ns kernel period;
    Kernel.stop kernel);
  let sim_time_ns = Kernel.run ?guard kernel in
  {
    sim_time_ns;
    kernel_activations = Kernel.activation_count kernel;
    delta_cycles = Kernel.delta_count kernel;
    transactions = Tlm.Initiator.transaction_count initiator;
    completed_ops = Des56_tlm_lt.completed model;
    outputs = List.rev !outputs;
    checker_stats = List.map Checker.snapshot checkers;
    metrics = metrics_snapshot kernel;
    trace = None;
    diagnosis = Kernel.last_diagnosis kernel;
    faults_triggered = faults_triggered_of faults;
  }

(* --- ColorConv --- *)

let pack_ycbcr { Colorconv.y; cb; cr } =
  Int64.of_int (y lor (cb lsl 8) lor (cr lsl 16))

let run_colorconv_rtl ?(properties = []) ?metrics ?(record_trace = false)
    ?trace_writer ?(gap_cycles = 2) ?fault_plan ?guard bursts =
  let kernel = Kernel.create ?metrics () in
  let clock = Clock.create kernel ~name:"clk" ~period () in
  let model = Colorconv_rtl.create kernel clock in
  let faults =
    install_plan (Duv_fault.colorconv_rtl_binding kernel model) fault_plan
  in
  let bindings = Colorconv_rtl.bindings model in
  let sampler = pool_sampler kernel bindings in
  let checkers =
    attach_pool kernel (Checker.Attach.clock_edge clock) sampler
      properties
  in
  let recorder = Trace_rec.create () in
  if record_trace then
    Process.method_process kernel ~name:"trace" ~initialize:false
      ~sensitivity:[ Clock.posedge clock ]
      (fun () ->
        Trace_rec.sample recorder ~time:(Kernel.now kernel) (Colorconv_rtl.env model));
  write_edges kernel clock bindings trace_writer;
  let outputs = ref [] in
  Process.method_process kernel ~name:"collect" ~initialize:false
    ~sensitivity:[ Clock.posedge clock ]
    (fun () ->
      if Signal.read (Colorconv_rtl.ovalid model) then
        outputs :=
          pack_ycbcr
            {
              Colorconv.y = Signal.read (Colorconv_rtl.y model);
              cb = Signal.read (Colorconv_rtl.cb model);
              cr = Signal.read (Colorconv_rtl.cr model);
            }
          :: !outputs);
  Process.spawn kernel ~name:"driver" (fun () ->
    let negedge = Clock.negedge clock in
    Process.wait_event negedge;
    List.iter
      (fun burst ->
        List.iter
          (fun pixel ->
            Signal.write (Colorconv_rtl.dv model) true;
            Signal.write (Colorconv_rtl.r model) pixel.Colorconv.r;
            Signal.write (Colorconv_rtl.g model) pixel.Colorconv.g;
            Signal.write (Colorconv_rtl.b model) pixel.Colorconv.b;
            Process.wait_event negedge)
          burst;
        Signal.write (Colorconv_rtl.dv model) false;
        for _ = 1 to gap_cycles do
          Process.wait_event negedge
        done)
      bursts;
    for _ = 1 to Colorconv_iface.latency + 2 do
      Process.wait_event negedge
    done;
    Kernel.stop kernel);
  let sim_time_ns = Kernel.run ?guard kernel in
  {
    sim_time_ns;
    kernel_activations = Kernel.activation_count kernel;
    delta_cycles = Kernel.delta_count kernel;
    transactions = 0;
    completed_ops = Colorconv_rtl.completed model;
    outputs = List.rev !outputs;
    checker_stats = List.map Checker.snapshot checkers;
    metrics = metrics_snapshot kernel;
    trace = (if record_trace then Some (Trace_rec.to_trace recorder) else None);
    diagnosis = Kernel.last_diagnosis kernel;
    faults_triggered = faults_triggered_of faults;
  }

let run_colorconv_tlm_ca ?(properties = []) ?metrics
    ?(record_trace = false) ?trace_writer ?(gap_cycles = 2) ?fault_plan ?guard
    bursts =
  let kernel = Kernel.create ?metrics () in
  let model = Colorconv_tlm_ca.create kernel in
  let initiator = Tlm.Initiator.create kernel ~name:"colorconv_ca_init" in
  Tlm.Initiator.bind initiator (Colorconv_tlm_ca.target model);
  let faults =
    install_plan
      (Duv_fault.colorconv_tlm_binding kernel initiator
         (Colorconv_tlm_ca.observables model))
      fault_plan
  in
  let bindings = Colorconv_tlm_ca.bindings model in
  let recorder = Trace_rec.create () in
  if record_trace then
    Tlm.Initiator.on_transaction initiator (fun transaction ->
      Trace_rec.sample recorder ~time:transaction.Tlm.end_time
        (Colorconv_iface.env_of (Colorconv_tlm_ca.observables model)));
  write_transactions kernel initiator bindings trace_writer;
  let sampler = pool_sampler kernel bindings in
  let checkers =
    attach_pool kernel
      (Checker.Attach.transaction_unabstracted initiator)
      sampler properties
  in
  let outputs = ref [] in
  Process.spawn kernel ~name:"driver" (fun () ->
    Process.wait_ns kernel period;
    let send_frame frame =
      let payload = Tlm.make_payload ~extension:(Colorconv_iface.Frame frame) Tlm.Write in
      Tlm.Initiator.b_transport initiator payload;
      if frame.Colorconv_iface.c_ovalid then
        outputs :=
          pack_ycbcr
            {
              Colorconv.y = frame.Colorconv_iface.c_y;
              cb = frame.Colorconv_iface.c_cb;
              cr = frame.Colorconv_iface.c_cr;
            }
          :: !outputs;
      Process.wait_ns kernel period
    in
    let held = ref (Colorconv_iface.make_frame ()) in
    let idle_frame () =
      let h = !held in
      Colorconv_iface.make_frame ~r:h.Colorconv_iface.c_r ~g:h.Colorconv_iface.c_g
        ~b:h.Colorconv_iface.c_b ()
    in
    List.iter
      (fun burst ->
        List.iter
          (fun pixel ->
            let frame =
              Colorconv_iface.make_frame ~dv:true ~r:pixel.Colorconv.r
                ~g:pixel.Colorconv.g ~b:pixel.Colorconv.b ()
            in
            held := frame;
            send_frame frame)
          burst;
        for _ = 1 to gap_cycles do
          send_frame (idle_frame ())
        done)
      bursts;
    for _ = 1 to Colorconv_iface.latency + 2 do
      send_frame (idle_frame ())
    done;
    Kernel.stop kernel);
  let sim_time_ns = Kernel.run ?guard kernel in
  {
    sim_time_ns;
    kernel_activations = Kernel.activation_count kernel;
    delta_cycles = Kernel.delta_count kernel;
    transactions = Tlm.Initiator.transaction_count initiator;
    completed_ops = Colorconv_tlm_ca.completed model;
    outputs = List.rev !outputs;
    checker_stats = List.map Checker.snapshot checkers;
    metrics = metrics_snapshot kernel;
    trace = (if record_trace then Some (Trace_rec.to_trace recorder) else None);
    diagnosis = Kernel.last_diagnosis kernel;
    faults_triggered = faults_triggered_of faults;
  }

(* TLM-AT agenda: precomputed transaction schedule with deterministic
   ordering at shared instants (reads resolve timed obligations before
   same-instant writes fire new ones). *)
type cc_action =
  | Cc_read
  | Cc_status
  | Cc_write of Colorconv.pixel
  | Cc_idle

let cc_priority = function
  | Cc_idle -> 0
  | Cc_status -> 1
  | Cc_read -> 2
  | Cc_write _ -> 3

let run_colorconv_tlm_at ?(properties = []) ?(grid_properties = [])
    ?metrics ?(record_trace = false) ?trace_writer ?(gap_cycles = 2) ?fault_plan
    ?guard bursts =
  let kernel = Kernel.create ?metrics () in
  let model = Colorconv_tlm_at.create kernel in
  let initiator = Tlm.Initiator.create kernel ~name:"colorconv_at_init" in
  Tlm.Initiator.bind initiator (Colorconv_tlm_at.target model);
  let faults =
    install_plan
      (Duv_fault.colorconv_tlm_binding kernel initiator
         (Colorconv_tlm_at.observables model))
      fault_plan
  in
  let bindings = Colorconv_tlm_at.bindings model in
  let recorder = Trace_rec.create () in
  if record_trace then
    Tlm.Initiator.on_transaction initiator (fun transaction ->
      Trace_rec.sample recorder ~time:transaction.Tlm.end_time
        (Colorconv_iface.env_of (Colorconv_tlm_at.observables model)));
  write_transactions kernel initiator bindings trace_writer;
  let sampler = pool_sampler kernel bindings in
  let grid_sampler = pool_sampler kernel bindings in
  let checkers =
    attach_pool kernel (Checker.Attach.transaction initiator) sampler
      properties
    @ attach_pool kernel
        (Checker.Attach.grid ~clock_period:Colorconv_iface.clock_period ())
        grid_sampler grid_properties
  in
  let latency_ns = Colorconv_iface.latency * period in
  (* Build the agenda. *)
  let agenda = ref [] in
  let add time action = agenda := (time, action) :: !agenda in
  let start = ref period in
  List.iter
    (fun burst ->
      let n = List.length burst in
      List.iteri
        (fun i pixel ->
          let wt = !start + (i * period) in
          add wt (Cc_write pixel);
          add (wt + latency_ns) Cc_read)
        burst;
      let last_write = !start + ((n - 1) * period) in
      add (last_write + period) Cc_idle;
      add (last_write + latency_ns + period) Cc_status;
      start := last_write + period + (gap_cycles * period))
    bursts;
  let agenda =
    List.stable_sort
      (fun (t1, a1) (t2, a2) ->
        if t1 <> t2 then compare t1 t2 else compare (cc_priority a1) (cc_priority a2))
      !agenda
  in
  let outputs = ref [] in
  Process.spawn kernel ~name:"driver" (fun () ->
    let transport extension =
      Tlm.Initiator.b_transport initiator (Tlm.make_payload ~extension Tlm.Write)
    in
    List.iter
      (fun (time, action) ->
        let now = Kernel.now kernel in
        if time > now then Process.wait_ns kernel (time - now);
        match action with
        | Cc_write pixel -> transport (Colorconv_iface.At_write pixel)
        | Cc_idle -> transport Colorconv_iface.At_idle
        | Cc_read ->
          let response =
            { Colorconv_iface.a_valid = false; a_y = 0; a_cb = 0; a_cr = 0 }
          in
          transport (Colorconv_iface.At_read response);
          if response.Colorconv_iface.a_valid then
            outputs :=
              pack_ycbcr
                {
                  Colorconv.y = response.Colorconv_iface.a_y;
                  cb = response.Colorconv_iface.a_cb;
                  cr = response.Colorconv_iface.a_cr;
                }
              :: !outputs
        | Cc_status ->
          transport
            (Colorconv_iface.At_status
               { Colorconv_iface.a_valid = false; a_y = 0; a_cb = 0; a_cr = 0 }))
      agenda;
    (* Let the deferred same-instant checker step of the last
       transaction run before stopping. *)
    Process.wait_ns kernel period;
    Kernel.stop kernel);
  let sim_time_ns = Kernel.run ?guard kernel in
  {
    sim_time_ns;
    kernel_activations = Kernel.activation_count kernel;
    delta_cycles = Kernel.delta_count kernel;
    transactions = Tlm.Initiator.transaction_count initiator;
    completed_ops = Colorconv_tlm_at.completed model;
    outputs = List.rev !outputs;
    checker_stats = List.map Checker.snapshot checkers;
    metrics = metrics_snapshot kernel;
    trace = (if record_trace then Some (Trace_rec.to_trace recorder) else None);
    diagnosis = Kernel.last_diagnosis kernel;
    faults_triggered = faults_triggered_of faults;
  }
