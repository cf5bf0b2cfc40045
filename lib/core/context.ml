(* Shared state of one replica set ("group"): the monitors, the replication
   machinery, the divergence verdict, and the recovery-policy state. Wired
   up by [Mvee]. *)

open Remon_kernel
open Remon_sim

type slave_wait = Wait_auto | Wait_spin_only | Wait_futex_only

(* What happens when a non-master replica diverges, crashes or stalls.
   [Kill_group] is the paper's behavior: any fault is treated as an attack
   and the whole replica set dies. The other two trade some security margin
   for availability: the faulty replica is detached and the group continues
   degraded (the master keeps serving I/O); [Respawn] additionally replays
   the record log to bring a fresh replica back into the group, with
   exponential backoff and a bounded respawn budget. *)
type failure_policy =
  | Kill_group
  | Quarantine
  | Respawn of { max_respawns : int; backoff_ns : Vtime.t }

type mode = {
  use_token : bool; (* IK-B authorization (off in the VARAN baseline) *)
  lockstep : bool; (* CP monitor enforces lockstep for monitored calls *)
  crash_on_mismatch : bool; (* IP-MON slaves crash intentionally on divergence *)
  per_call_condvar : bool;
      (* Section 3.7 optimization: one condition variable per RB record.
         When off (ablation), every publish pays a FUTEX_WAKE. *)
  slave_wait : slave_wait;
      (* Section 3.7: spin for calls predicted non-blocking, condvar
         otherwise. The ablations force one strategy. *)
  runahead_window : int option;
      (* how many unconsumed records the master may be ahead of the
         slowest slave. [None] = unbounded (VARAN's default); the paper
         wonders aloud what shrinking this window costs - the ablation
         bench answers it. *)
  ring_batch : int;
      (* io_uring-style submission ring: how many completed policy-exempt
         records the master accumulates before draining them into the RB
         in one rendezvous. 1 = ring bypassed, per-record publishes (the
         paper's behavior); the ring ablation sweeps this. *)
  ring_flush_ns : Vtime.t;
      (* ring flush deadline: a partial batch drains this long after its
         first record was submitted, bounding slave staleness *)
}

let remon_mode =
  {
    use_token = true;
    lockstep = true;
    crash_on_mismatch = true;
    per_call_condvar = true;
    slave_wait = Wait_auto;
    runahead_window = None;
    ring_batch = 1;
    ring_flush_ns = Vtime.us 50;
  }

(* VARAN-like: everything replicated in-process, no lockstep, no tokens. *)
let varan_mode =
  { remon_mode with use_token = false; lockstep = false }

type group = {
  kernel : Kernel.t;
  nreplicas : int;
  policy : Policy.t;
  mode : mode;
  rb : Replication_buffer.t;
  file_map : File_map.t;
  epoll_map : Epoll_map.t;
  ikb : Ikb.t;
  shm_key : int; (* SysV key GHUMVEE recognizes as the RB segment *)
  mutable ring : Syscall_ring.t option;
      (* batched submission ring; Some iff [mode.ring_batch] > 1 *)
  mutable replicas : Proc.process array; (* index = variant *)
  mutable divergence : Divergence.t option;
  mutable shutdown : bool;
  mutable ipmon_calls : int;
  mutable ipmon_fallbacks : int;
  (* recovery-policy state *)
  quarantined : bool array; (* per variant; index 0 never set *)
  mutable replica_fault_handler : (variant:int -> Divergence.t -> bool) option;
      (* installed by [Mvee]; returns true when the fault was absorbed
         (replica quarantined / respawn scheduled) instead of escalating *)
  mutable quarantines : int;
  mutable respawns : int;
  mutable watchdog_retries : int;
  mutable degraded_since : Vtime.t option; (* start of current degraded span *)
  mutable degraded_ns : Vtime.t; (* completed degraded spans *)
  mutable caught_up_at : Vtime.t option;
      (* instant the last respawned replica caught up with the stream. The
         group is effectively whole from that point even though [rejoin]
         only runs at the master's next monitored call, so the degraded span
         closes retroactively here, not at rejoin time. *)
}

(* SysV keys at or above this value are treated as MVEE-internal (RB / file
   map) and exempt from GHUMVEE's shared-memory rejection policy. *)
let mvee_shm_key_base = 0x5EC0DE00

(* Every verdict funnels through here (first one wins), so this is also
   the single emission point for divergence events in the trace. [key] is
   the precomputed metric key ("<cat>.<name>"): the concatenation happens
   once at module init, not per event. *)
let obs_instant ?ts g ~cat ~name ~key args =
  match Kernel.obs g.kernel with
  | None -> ()
  | Some o ->
    let ts = match ts with Some t -> t | None -> Kernel.now g.kernel in
    Remon_obs.Trace.instant o.Remon_obs.Obs.trace ~ts ~cat ~name ~pid:0 ~tid:0
      args;
    Remon_obs.Metrics.incr o.Remon_obs.Obs.metrics key

let key_divergence_verdict = "divergence.verdict"
let key_recovery_quarantine = "recovery.quarantine"
let key_recovery_rejoin = "recovery.rejoin"

let set_divergence g v =
  if g.divergence = None then begin
    g.divergence <- Some v;
    obs_instant g ~cat:"divergence" ~name:"verdict" ~key:key_divergence_verdict
      [ ("verdict", Remon_obs.Trace.Str (Divergence.to_string v)) ]
  end

let replica_variant (p : Proc.process) =
  match p.Proc.replica_info with
  | Some { Proc.variant_index; _ } -> Some variant_index
  | None -> None

(* ------------------------------------------------------------------ *)
(* Recovery-policy state *)

let is_quarantined g variant =
  variant >= 0 && variant < Array.length g.quarantined && g.quarantined.(variant)

let active_count g =
  let n = ref 0 in
  Array.iter (fun q -> if not q then incr n) g.quarantined;
  !n

let active_variants g =
  List.filter (fun v -> not g.quarantined.(v)) (List.init g.nreplicas Fun.id)

(* Mark [variant] quarantined and start the degraded clock. The caller is
   responsible for the kernel-side consequences (killing the process,
   purging rendezvous state, deactivating RB streams). *)
let quarantine g ~variant =
  if variant > 0 && not g.quarantined.(variant) then begin
    g.quarantined.(variant) <- true;
    g.quarantines <- g.quarantines + 1;
    obs_instant g ~cat:"recovery" ~name:"quarantine"
      ~key:key_recovery_quarantine
      [ ("variant", Remon_obs.Trace.Int variant) ];
    if g.degraded_since = None then
      g.degraded_since <- Some (Kernel.now g.kernel)
  end

(* A respawned replica caught up with the replicated stream at [at]: from
   that instant the group computes in full strength again, even though the
   lockstep rejoin only happens at the master's next monitored call. *)
let note_caught_up g ~at =
  match g.caught_up_at with
  | Some t when Vtime.(t >= at) -> ()
  | _ -> g.caught_up_at <- Some at

(* A respawned replica finished its replay and re-entered the group. The
   degraded span closes at the recorded caught-up instant (when one exists
   and is sane), not at rejoin time: the gap between catch-up and the
   master's next monitored call is not degraded service. *)
let rejoin g ~variant =
  if g.quarantined.(variant) then begin
    g.quarantined.(variant) <- false;
    let close_at =
      match g.caught_up_at with
      | Some t when Vtime.(t <= Kernel.now g.kernel) -> t
      | _ -> Kernel.now g.kernel
    in
    obs_instant ~ts:close_at g ~cat:"recovery" ~name:"rejoin"
      ~key:key_recovery_rejoin
      [ ("variant", Remon_obs.Trace.Int variant) ];
    if active_count g = g.nreplicas then begin
      (match g.degraded_since with
      | Some t0 when Vtime.(close_at > t0) ->
        g.degraded_ns <- Vtime.add g.degraded_ns (Vtime.sub close_at t0)
      | _ -> ());
      g.degraded_since <- None;
      g.caught_up_at <- None
    end
  end

(* Total degraded time, closing any still-open span at [until]. *)
let degraded_total g ~until =
  match g.degraded_since with
  | Some t0 when Vtime.(until > t0) -> Vtime.add g.degraded_ns (Vtime.sub until t0)
  | _ -> g.degraded_ns

(* Route a non-master replica fault to the recovery policy. Returns true
   when it was absorbed; false means the caller must escalate (the paper's
   kill-the-group verdict). *)
let replica_fault g ~variant verdict =
  match g.replica_fault_handler with
  | Some f -> f ~variant verdict
  | None -> false
