(** IK-B: the in-kernel broker (Sections 3 and 3.1). Decides, for every
    syscall a replica issues, whether IP-MON may complete it unmonitored
    (granting a single-use 64-bit authorization token) or whether it must
    be reported to GHUMVEE. Enforces the Section 3.1 invariants: one-time
    tokens, same thread + same call + IP-MON entry point, revocation when a
    stray syscall follows a grant, and forced monitoring of calls that
    could tamper with IP-MON or expose the RB. *)

open Remon_kernel
open Remon_util

type token_record = {
  value : int64;
  granted_for : Syscall.call;
  mutable live : bool;
  temporal : bool; (** granted by temporal (not spatial) exemption *)
}

type t = {
  kernel : Kernel.t;
  mutable policy : Policy.t;
  rng : Rng.t;
  tokens : (int, token_record) Hashtbl.t; (** tid -> outstanding token *)
  temporal_state : Policy.temporal_state;
  temporal_decisions : (int * int, bool) Hashtbl.t;
      (** one stochastic draw per logical call, shared by all replicas *)
  mutable rb : Replication_buffer.t option;
  mutable route_all : bool; (** VARAN baseline: forward everything *)
  mutable master_proc : Proc.process option;
      (** authoritative fd table for classification (slaves hold stubs) *)
  replaying : (int, unit) Hashtbl.t;
      (** variants resynchronizing from the stream: forced monitored *)
  mutable revocations : int;
  mutable rejected : int;
  mutable grants : int;
  mutable on_violation : Divergence.t -> unit;
  mutable pre_monitor : (Proc.thread -> unit) option;
      (** ring-drain barrier, installed by [Mvee] in ring mode: runs just
          before a replica thread is routed onto the monitored path, so
          pending batched records reach the RB ahead of the lockstep
          rendezvous *)
}

val create : kernel:Kernel.t -> policy:Policy.t -> seed:int -> t
val fresh_token : t -> int64
val revoke : t -> Proc.thread -> unit

val classify : t -> Proc.thread -> Syscall.call -> Kstate.route
(** The interceptor: one routing decision per syscall entry. *)

val verify : t -> Proc.thread -> token:int64 -> call:Syscall.call -> bool
(** The verifier: single-shot token check. *)

val destroy_token : t -> Proc.thread -> unit
(** IP-MON's fallback: destroy before restarting as a monitored call. *)

val consume_token : t -> Proc.thread -> unit
(** Silent invalidation for calls IP-MON aborts without restarting. *)

val set_replaying : t -> variant:int -> bool -> unit
(** While on, every call from [variant] is routed monitored so GHUMVEE can
    replay-verify it against the master's calls in the stream. *)

val was_temporal_grant : t -> Proc.thread -> token:int64 -> bool
val note_approval : t -> Sysno.t -> unit

val install : t -> group_id:int -> unit
(** Hook this broker into the kernel's syscall path, scoped to the replica
    group identified by [group_id] (the group's shm key): a fleet of MVEE
    instances in one kernel each get their own broker. *)

val execute :
  t ->
  Proc.thread ->
  token:int64 ->
  Syscall.call ->
  ret:(Syscall.result -> unit) ->
  fallback:(unit -> unit) ->
  unit
(** Complete a forwarded call through the verifier, or run [fallback]. *)
