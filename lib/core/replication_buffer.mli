(** The IP-MON replication buffer (Section 3.2): a linear buffer in shared
    memory with one record per syscall invocation and one stream per thread
    rank. The master appends and publishes; slaves look up and consume.
    Overflow is resolved by a GHUMVEE-arbitrated reset once all slaves have
    drained, avoiding read-write sharing on head/tail indices. *)

open Remon_kernel

type flags = {
  forwarded_to_monitor : bool; (** master bounced this call to GHUMVEE *)
  expect_block : bool; (** file-map prediction: the call may block *)
}

type entry = {
  seq : int;
  bytes : int;
  mutable call : Syscall.call option; (** master's deep-copied arguments *)
  mutable result : Syscall.result option;
  mutable flags : flags;
  mutable waiters : int; (** slaves on this record's condition variable *)
  mutable consumed : int;
  mutable batch_follower : bool;
      (** published by a ring drain behind an earlier same-rank record: the
          slave's fixed read cost drops to a spin poll (the cache lines
          arrived in the same bounce round) *)
}

type stream = {
  rank : int;
  entries : (int, entry) Hashtbl.t;
  mutable master_next : int;
  slave_next : int array; (** per variant; index 0 unused *)
}

type t = {
  size_bytes : int;
  nreplicas : int;
  streams : (int, stream) Hashtbl.t;
  mutable used_bytes : int;
  mutable signals_pending : bool; (** set by GHUMVEE (Section 3.8) *)
  mutable generation : int;
  active : bool array;
      (** per variant; quarantined replicas stop counting towards drains *)
  mutable tamper : (entry -> unit) option;
      (** fault-injection hook applied to freshly appended records *)
  mutable total_records : int;
  mutable resets : int;
  mutable wakes_issued : int;
  mutable wakes_skipped : int;
  sync_log : Record_log.t;
      (** the record/replay agent's sync-event log rides along *)
  mutable obs : (Remon_obs.Obs.t * (unit -> int)) option;
      (** structured trace sink + virtual-clock reader, set by [Mvee] when
          observability is on; [None] = the zero-cost disabled path *)
}

type Shm.payload += Rb_payload of t
(** How the buffer travels inside its System V segment. *)

val header_bytes : int
val default_size : int (** the paper's 16 MiB *)

val create : size_bytes:int -> nreplicas:int -> t
val stream : t -> int -> stream

val record_bytes : Syscall.call -> int
(** CALCSIZE: header + register args + maximum buffer payload. *)

val would_overflow : t -> bytes:int -> bool
val fits_at_all : t -> bytes:int -> bool

val fully_drained : t -> bool
(** Every slave has consumed every record: safe to reset. *)

val reset : t -> unit
(** GHUMVEE-arbitrated reset; sequence numbers keep increasing. *)

val master_append :
  t -> rank:int -> call:Syscall.call -> expect_block:bool -> forwarded:bool -> entry
(** PRECALL, master side. *)

val master_publish : t -> entry -> Syscall.result -> bool
(** POSTCALL, master side. Returns whether a FUTEX_WAKE is needed (only
    when slaves are already waiting — the Section 3.7 optimization). *)

val slave_lookup : t -> rank:int -> variant:int -> entry option
(** The record this variant must consume next, if the master produced it. *)

val slave_advance : t -> rank:int -> variant:int -> unit

val lag : t -> rank:int -> int
(** Records the master is ahead of the slowest active slave on this
    stream. *)

val deactivate : t -> variant:int -> unit
(** Quarantine support: stop counting [variant] towards drains and
    run-ahead windows. No-op for the master. *)

val reactivate : t -> variant:int -> unit
(** Re-admit a respawned replica, fast-forwarding its consumption
    positions to the master's current positions (its backlog was satisfied
    from the replicated stream, not the buffer). *)

val is_active : t -> variant:int -> bool
