(** Calibrated cost model for the simulated machine.

    Defaults approximate the paper's dual-Xeon E5-2660 testbed. The model's
    purpose is structural fidelity: ptrace round trips cost microseconds,
    replication-buffer operations cost nanoseconds, and network latency can
    hide server-side overhead. *)

type t = {
  syscall_trap_ns : int;
  context_switch_ns : int;
  monitor_work_ns : int;
  copy_fixed_ns : int;
  copy_ns_per_byte : float;
  local_copy_ns_per_byte : float;
  rb_write_fixed_ns : int;
  rb_read_fixed_ns : int;
  arg_compare_ns_per_byte : float;
  futex_wake_ns : int;
  futex_wait_ns : int;
  spin_poll_ns : int;
  token_check_ns : int;
  ipmon_forward_ns : int;
  ipmon_restart_ns : int;
  signal_delivery_ns : int;
  nic_overhead_ns : int;
  wire_ns_per_byte : float;
  cacheline_bounce_ns : int;
  respawn_spawn_ns : int;
      (** monitor-side cost of forking + attaching a replacement replica *)
  replay_record_ns : int;
      (** per-record cost of stream-driven resynchronization replay *)
  link_latency_ns : int;
      (** one-way inter-host propagation delay; doubles as the
          conservative-synchronization lookahead of sharded runs *)
}

val default : t
(** The paper-testbed preset. *)

val cheap_switches : t
(** Ablation preset with 6x cheaper context switches. *)

val ptrace_stop_ns : t -> int
(** Cost of one ptrace stop from the tracee's perspective. *)

val copy_ns : t -> bytes:int -> int
(** Cross-process copy cost ([process_vm_readv]-style). *)

val local_copy_ns : t -> bytes:int -> int
(** Same-address-space copy cost (replication-buffer payloads). *)

val compare_ns : t -> bytes:int -> int
(** Deep argument-comparison cost. *)

val wire_ns : t -> bytes:int -> int
(** Per-message network processing + serialization cost (excludes
    propagation latency, which is a property of the link). *)

val link_latency : t -> int
(** The [link_latency_ns] field, as the default per-link latency (and
    lookahead) of multi-host topologies. *)
