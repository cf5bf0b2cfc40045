(* Calibrated cost model for the simulated machine.

   The defaults approximate the paper's testbed (dual 8-core Xeon E5-2660,
   Linux 3.13): the absolute values matter less than the orderings the
   paper's argument rests on — a ptrace round trip costs microseconds
   (context switches + TLB/cache effects) while IP-MON's replication-buffer
   work costs tens to hundreds of nanoseconds. *)

type t = {
  syscall_trap_ns : int;
      (* user->kernel->user transition for an untraced syscall *)
  context_switch_ns : int;
      (* one context switch including TLB/cache refill effects *)
  monitor_work_ns : int;
      (* GHUMVEE per-stop bookkeeping (decode, compare dispatch) *)
  copy_fixed_ns : int;
      (* fixed cost of one cross-process copy (process_vm_readv) *)
  copy_ns_per_byte : float;
      (* marginal cross-process copy cost *)
  local_copy_ns_per_byte : float;
      (* marginal same-address-space memcpy cost (RB reads/writes) *)
  rb_write_fixed_ns : int;
      (* IP-MON: append a record header to the replication buffer *)
  rb_read_fixed_ns : int;
      (* IP-MON: locate + validate a record in the replication buffer *)
  arg_compare_ns_per_byte : float;
      (* deep comparison of syscall arguments *)
  futex_wake_ns : int;  (* FUTEX_WAKE syscall incl. target wakeup *)
  futex_wait_ns : int;  (* FUTEX_WAIT syscall setup (not the wait itself) *)
  spin_poll_ns : int;   (* one iteration of a spin-read loop *)
  token_check_ns : int; (* IK-B verifier: authorization-token comparison *)
  ipmon_forward_ns : int;
      (* IK-B interceptor: rewrite PC, load token+RB registers, return to
         IP-MON's syscall entry point *)
  ipmon_restart_ns : int;
      (* IP-MON restarting the forwarded call (second kernel entry) *)
  signal_delivery_ns : int; (* kernel signal frame setup *)
  nic_overhead_ns : int;    (* per-message NIC + stack processing *)
  wire_ns_per_byte : float; (* serialization on a gigabit link: 8 ns/byte *)
  cacheline_bounce_ns : int;
      (* one cross-core cache-line transfer; the master pays one per slave
         per published RB record (the slaves' reads steal the lines) *)
  respawn_spawn_ns : int;
      (* monitor-side cost of forking + attaching a replacement replica
         under the Respawn recovery policy *)
  replay_record_ns : int;
      (* per-record cost of satisfying a respawned replica's syscall from
         the master's recorded call during resynchronization *)
  link_latency_ns : int;
      (* one-way propagation delay of an inter-host link (LAN-scale
         default). In sharded runs this is also the conservative
         synchronization lookahead: a shard may run ahead of its peers by
         exactly this much, so it bounds both fidelity and parallelism. *)
}

let default =
  {
    syscall_trap_ns = 120;
    context_switch_ns = 1_800;
    monitor_work_ns = 650;
    copy_fixed_ns = 480;
    copy_ns_per_byte = 0.12;
    local_copy_ns_per_byte = 0.05;
    rb_write_fixed_ns = 90;
    rb_read_fixed_ns = 70;
    arg_compare_ns_per_byte = 0.06;
    futex_wake_ns = 1_100;
    futex_wait_ns = 900;
    spin_poll_ns = 24;
    token_check_ns = 18;
    ipmon_forward_ns = 160;
    ipmon_restart_ns = 130;
    signal_delivery_ns = 950;
    nic_overhead_ns = 4_500;
    wire_ns_per_byte = 8.0;
    cacheline_bounce_ns = 45;
    respawn_spawn_ns = 450_000;
    replay_record_ns = 400;
    link_latency_ns = 200_000;
  }

(* A hypothetical machine with very cheap context switches: used by the
   ablation benches to show how the CP/IP gap tracks the switch cost. *)
let cheap_switches = { default with context_switch_ns = 300 }

(* One full ptrace stop as seen by the stopped tracee: trap into the kernel,
   switch to the monitor, monitor work, switch back, resume. *)
let ptrace_stop_ns t =
  t.syscall_trap_ns + (2 * t.context_switch_ns) + t.monitor_work_ns

let copy_ns t ~bytes =
  float_of_int t.copy_fixed_ns +. (t.copy_ns_per_byte *. float_of_int bytes)
  |> int_of_float

let local_copy_ns t ~bytes =
  int_of_float (t.local_copy_ns_per_byte *. float_of_int bytes)

let compare_ns t ~bytes =
  int_of_float (t.arg_compare_ns_per_byte *. float_of_int bytes)

let wire_ns t ~bytes =
  t.nic_overhead_ns + int_of_float (t.wire_ns_per_byte *. float_of_int bytes)

let link_latency t = t.link_latency_ns
