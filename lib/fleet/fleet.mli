(** Fleet controller: many MVEE instances behind one load balancer. Lifts
    the intra-instance recovery ladder to fleet scope — whole-instance
    quarantine (the LB routes around the dead port), respawn of a fresh
    generation with exponential backoff, and operator-driven rolling
    restarts under a [max_unavailable] budget. *)

open Remon_kernel
open Remon_sim
open Remon_core
open Remon_workloads

type recovery =
  | No_fleet_recovery
  | Fleet_respawn of { max_respawns : int; backoff_ns : Vtime.t }
      (** per-instance relaunch budget and base backoff (doubled per
          attempt), mirroring the intra-instance [Mvee.Respawn] shape *)

type instance_state = Serving | Down | Restarting

val instance_state_to_string : instance_state -> string

type instance = {
  idx : int;
  port : int;  (** stable across generations *)
  mutable generation : int;
  mutable handle : Mvee.handle option;
  mutable state : instance_state;
  mutable respawns_used : int;
}

type t = {
  kernel : Kernel.t;
  base_config : Mvee.config;
  server : Servers.spec;  (** template; the port is overridden per instance *)
  stats : Servers.stats;  (** shared: fleet-wide served/truncated totals *)
  recovery : recovery;
  faults_for : idx:int -> generation:int -> Fault.plan;
  instances : instance array;
  mutable handles : Mvee.handle list;  (** every generation, for totals *)
  mutable instance_failures : int;
  mutable fleet_respawns : int;
  mutable closed : bool;
}

val create :
  Kernel.t ->
  Mvee.config ->
  server:Servers.spec ->
  base_port:int ->
  instances:int ->
  recovery:recovery ->
  ?faults_for:(idx:int -> generation:int -> Fault.plan) ->
  unit ->
  t
(** Launches [instances] MVEE instances on ports [base_port + idx]. Each
    generation of each instance gets a distinct seed and a fresh fault plan
    from [faults_for] (default: none). *)

val ports : t -> int list

val close : t -> unit
(** Scenario over: stop reacting to instance exits. *)

val restart_instance : t -> instance -> unit
(** Graceful stop (exit 0, no verdict) + relaunch of the next generation
    on the same port. *)

val rolling_restart :
  t ->
  lb:Lb.t ->
  ?max_unavailable:int ->
  ?pause_ns:int ->
  ?start_at:Vtime.t ->
  unit ->
  unit
(** Spawn operator processes that restart the whole fleet, at most
    [max_unavailable] instances out at a time: drain at the LB, wait for
    pinned connections, restart, wait for the new listener, readmit.
    Call before [Kernel.run]. *)

type totals = {
  quarantines : int;  (** intra-instance replica quarantines *)
  respawns : int;  (** intra-instance stream-replay respawns *)
  watchdog_retries : int;
  faults_injected : int;
  verdicts : Divergence.t list;
}

val totals : t -> totals
(** Summed over every generation of every instance. *)

val flush_metrics : t -> totals -> unit
(** Folds the fleet-scope recovery counters into the kernel's metrics
    summary ([Mvee.finish] does this for standalone instances, but fleet
    handles are never finished). No-op without an observability sink. *)
