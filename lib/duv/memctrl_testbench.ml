open Tabv_sim
open Tabv_checker

let period = Memctrl_iface.clock_period

let reference_reads ops =
  let memory = Array.make Memctrl_iface.address_space 0 in
  List.filter_map
    (fun op ->
      match op with
      | Memctrl_iface.Write { addr; wdata } ->
        memory.(addr land (Memctrl_iface.address_space - 1)) <- wdata;
        None
      | Memctrl_iface.Read { addr } ->
        Some memory.(addr land (Memctrl_iface.address_space - 1)))
    ops

let op_latency = function
  | Memctrl_iface.Write _ -> Memctrl_iface.write_latency
  | Memctrl_iface.Read _ -> Memctrl_iface.read_latency

let run_rtl ?(properties = []) ?metrics ?trace_writer
    ?(gap_cycles = 2) ?fault_plan ?guard ops =
  let kernel = Kernel.create ?metrics () in
  let clock = Clock.create kernel ~name:"clk" ~period () in
  let model = Memctrl_rtl.create kernel clock in
  let faults =
    Testbench.install_plan (Duv_fault.memctrl_rtl_binding kernel model) fault_plan
  in
  let bindings = Memctrl_rtl.bindings model in
  let sampler = Testbench.pool_sampler kernel bindings in
  let checkers =
    Testbench.attach_pool kernel (Checker.Attach.clock_edge clock)
      sampler properties
  in
  Testbench.write_edges kernel clock bindings trace_writer;
  let outputs = ref [] in
  Process.spawn kernel ~name:"driver" (fun () ->
    let negedge = Clock.negedge clock in
    Process.wait_event negedge;
    List.iter
      (fun op ->
        (match op with
         | Memctrl_iface.Write { addr; wdata } ->
           Signal.write (Memctrl_rtl.req model) true;
           Signal.write (Memctrl_rtl.we model) true;
           Signal.write (Memctrl_rtl.addr model) addr;
           Signal.write (Memctrl_rtl.wdata model) wdata
         | Memctrl_iface.Read { addr } ->
           Signal.write (Memctrl_rtl.req model) true;
           Signal.write (Memctrl_rtl.we model) false;
           Signal.write (Memctrl_rtl.addr model) addr);
        Process.wait_event negedge;
        Signal.write (Memctrl_rtl.req model) false;
        for _ = 1 to op_latency op + gap_cycles do
          Process.wait_event negedge
        done;
        match op with
        | Memctrl_iface.Read _ ->
          outputs := Int64.of_int (Signal.read (Memctrl_rtl.rdata model)) :: !outputs
        | Memctrl_iface.Write _ -> ())
      ops;
    for _ = 1 to 3 do
      Process.wait_event negedge
    done;
    Kernel.stop kernel);
  let sim_time_ns = Kernel.run ?guard kernel in
  {
    Testbench.sim_time_ns;
    kernel_activations = Kernel.activation_count kernel;
    delta_cycles = Kernel.delta_count kernel;
    transactions = 0;
    completed_ops = Memctrl_rtl.completed model;
    outputs = List.rev !outputs;
    checker_stats = List.map Checker.snapshot checkers;
    metrics = Testbench.metrics_snapshot kernel;
    trace = None;
    diagnosis = Kernel.last_diagnosis kernel;
    faults_triggered = Testbench.faults_triggered_of faults;
  }

let run_tlm_ca ?(properties = []) ?metrics ?trace_writer
    ?(gap_cycles = 2) ?fault_plan ?guard ops =
  let kernel = Kernel.create ?metrics () in
  let model = Memctrl_tlm_ca.create kernel in
  let initiator = Tlm.Initiator.create kernel ~name:"memctrl_ca_init" in
  Tlm.Initiator.bind initiator (Memctrl_tlm_ca.target model);
  let faults =
    Testbench.install_plan
      (Duv_fault.memctrl_tlm_binding kernel initiator
         (Memctrl_tlm_ca.observables model))
      fault_plan
  in
  let bindings = Memctrl_tlm_ca.bindings model in
  let sampler = Testbench.pool_sampler kernel bindings in
  let checkers =
    Testbench.attach_pool kernel
      (Checker.Attach.transaction_unabstracted initiator)
      sampler properties
  in
  Testbench.write_transactions kernel initiator bindings trace_writer;
  let outputs = ref [] in
  Process.spawn kernel ~name:"driver" (fun () ->
    Process.wait_ns kernel period;
    let send_frame frame want_read =
      let payload = Tlm.make_payload ~extension:(Memctrl_iface.Frame frame) Tlm.Write in
      Tlm.Initiator.b_transport initiator payload;
      if want_read && frame.Memctrl_iface.m_ack then
        outputs := Int64.of_int frame.Memctrl_iface.m_rdata :: !outputs;
      Process.wait_ns kernel period
    in
    List.iter
      (fun op ->
        let is_read =
          match op with
          | Memctrl_iface.Read _ -> true
          | Memctrl_iface.Write _ -> false
        in
        (match op with
         | Memctrl_iface.Write { addr; wdata } ->
           send_frame (Memctrl_iface.make_frame ~req:true ~we:true ~addr ~wdata ()) false
         | Memctrl_iface.Read { addr } ->
           send_frame (Memctrl_iface.make_frame ~req:true ~addr ()) false);
        for _ = 1 to op_latency op + gap_cycles do
          send_frame (Memctrl_iface.make_frame ()) is_read
        done)
      ops;
    for _ = 1 to 3 do
      send_frame (Memctrl_iface.make_frame ()) false
    done;
    Kernel.stop kernel);
  let sim_time_ns = Kernel.run ?guard kernel in
  {
    Testbench.sim_time_ns;
    kernel_activations = Kernel.activation_count kernel;
    delta_cycles = Kernel.delta_count kernel;
    transactions = Tlm.Initiator.transaction_count initiator;
    completed_ops = Memctrl_tlm_ca.completed model;
    outputs = List.rev !outputs;
    checker_stats = List.map Checker.snapshot checkers;
    metrics = Testbench.metrics_snapshot kernel;
    trace = None;
    diagnosis = Kernel.last_diagnosis kernel;
    faults_triggered = Testbench.faults_triggered_of faults;
  }

let run_tlm_at ?(properties = []) ?metrics ?trace_writer
    ?(gap_cycles = 2) ?write_latency_ns ?read_latency_ns ?fault_plan ?guard ops =
  let kernel = Kernel.create ?metrics () in
  let model = Memctrl_tlm_at.create ?write_latency_ns ?read_latency_ns kernel in
  let initiator = Tlm.Initiator.create kernel ~name:"memctrl_at_init" in
  Tlm.Initiator.bind initiator (Memctrl_tlm_at.target model);
  let faults =
    Testbench.install_plan
      (Duv_fault.memctrl_tlm_binding kernel initiator
         (Memctrl_tlm_at.observables model))
      fault_plan
  in
  let bindings = Memctrl_tlm_at.bindings model in
  let sampler = Testbench.pool_sampler kernel bindings in
  let checkers =
    Testbench.attach_pool kernel
      (Checker.Attach.transaction initiator)
      sampler properties
  in
  Testbench.write_transactions kernel initiator bindings trace_writer;
  let outputs = ref [] in
  Process.spawn kernel ~name:"driver" (fun () ->
    Process.wait_ns kernel period;
    let transport extension =
      Tlm.Initiator.b_transport initiator (Tlm.make_payload ~extension Tlm.Write)
    in
    List.iter
      (fun op ->
        (match op with
         | Memctrl_iface.Write { addr; wdata } ->
           transport (Memctrl_iface.At_write { w_addr = addr; w_data = wdata })
         | Memctrl_iface.Read { addr } ->
           transport (Memctrl_iface.At_read_req { r_addr = addr }));
        Process.wait_ns kernel period;
        transport Memctrl_iface.At_idle;
        let response = { Memctrl_iface.a_ack = false; a_rdata = 0 } in
        transport (Memctrl_iface.At_collect response);
        (match op with
         | Memctrl_iface.Read _ when response.Memctrl_iface.a_ack ->
           outputs := Int64.of_int response.Memctrl_iface.a_rdata :: !outputs
         | Memctrl_iface.Read _ | Memctrl_iface.Write _ -> ());
        Process.wait_ns kernel period;
        transport (Memctrl_iface.At_status { Memctrl_iface.a_ack = false; a_rdata = 0 });
        Process.wait_ns kernel (gap_cycles * period))
      ops;
    Process.wait_ns kernel period;
    Kernel.stop kernel);
  let sim_time_ns = Kernel.run ?guard kernel in
  {
    Testbench.sim_time_ns;
    kernel_activations = Kernel.activation_count kernel;
    delta_cycles = Kernel.delta_count kernel;
    transactions = Tlm.Initiator.transaction_count initiator;
    completed_ops = Memctrl_tlm_at.completed model;
    outputs = List.rev !outputs;
    checker_stats = List.map Checker.snapshot checkers;
    metrics = Testbench.metrics_snapshot kernel;
    trace = None;
    diagnosis = Kernel.last_diagnosis kernel;
    faults_triggered = Testbench.faults_triggered_of faults;
  }
