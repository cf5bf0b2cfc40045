(* IP-MON: the in-process monitor (Sections 3.2-3.9, Listing 1).

   One instance is loaded into each replica. IK-B forwards policy-exempt
   syscalls here with a one-time token; the instance runs the four handler
   phases of Listing 1:

     MAYBE_CHECKED  - conditional-policy re-check; bounce to GHUMVEE if the
                      call should have been monitored (step 4')
     CALCSIZE       - replication-buffer space accounting; overflow triggers
                      the GHUMVEE-arbitrated buffer reset
     PRECALL        - master logs deep-copied arguments; slaves cross-check
                      their own arguments and crash intentionally on mismatch
     POSTCALL       - master publishes results (waking waiters only when
                      needed); slaves copy them (spin or condvar wait,
                      depending on the file map's blocking prediction)

   The master replica runs ahead of the slaves: it never waits for them
   except when the linear buffer is full. *)

open Remon_kernel
open Remon_sim
module Rb = Replication_buffer

type instance = {
  group : Context.group;
  variant : int;
  proc : Proc.process;
  mutable entry_addr : int64; (* IP-MON's executable region in this replica *)
  mutable rb_addr : int64; (* where the RB is mapped in this replica *)
}

let err e = Syscall.Error e

let charge = Kstate.charge

(* Replica-context IP-MON events (fallbacks, overflow stalls); the
   per-record append/consume traffic is emitted by [Replication_buffer].
   Metric keys are precomputed at module init, and the event payloads are
   only built once a sink is known to be attached, so the disabled-tracing
   path allocates nothing. *)
let key_fallback = "ipmon.fallback"
let key_overflow_wait = "ipmon.overflow_wait"

let obs_emit (o : Remon_obs.Obs.t) (th : Proc.thread) ~name ~key args =
  Remon_obs.Metrics.incr o.Remon_obs.Obs.metrics key;
  Remon_obs.Trace.instant o.Remon_obs.Obs.trace ~ts:th.Proc.clock ~cat:"ipmon"
    ~name ~pid:th.Proc.proc.Proc.pid ~tid:th.Proc.tid args

(* ------------------------------------------------------------------ *)
(* Phase 1: MAYBE_CHECKED *)

(* Re-checks the conditional policy against the (read-only) file map. For
   temporally-exempted calls the spatial check is skipped: the broker's
   stochastic decision is authoritative. *)
let maybe_checked inst (th : Proc.thread) ~token (call : Syscall.call) =
  let g = inst.group in
  if g.Context.ikb.Ikb.route_all then false (* VARAN: no policy filtering *)
  else if Ikb.was_temporal_grant g.Context.ikb th ~token then false
  else begin
    match Callinfo.fd_of call with
    | Some fd
      when File_map.class_of g.Context.file_map ~fd = Some Proc.Fd_special ->
      (* special files (e.g. the maps file) are always monitored *)
      true
    | fd_opt ->
      let on_socket =
        match fd_opt with
        | None -> false
        | Some fd -> File_map.is_socket g.Context.file_map ~fd
      in
      not (Policy.spatial_allows g.Context.policy call ~on_socket)
  end

(* ------------------------------------------------------------------ *)
(* epoll shadow map maintenance (Section 3.9) *)

let note_epoll inst (call : Syscall.call) =
  match call with
  | Syscall.Epoll_ctl { op = Syscall.Epoll_add | Syscall.Epoll_mod; fd; user_data; _ } ->
    Epoll_map.register inst.group.Context.epoll_map ~variant:inst.variant ~fd
      ~user_data
  | Syscall.Epoll_ctl { op = Syscall.Epoll_del; fd; _ } ->
    Epoll_map.unregister inst.group.Context.epoll_map ~variant:inst.variant ~fd
  | _ -> ()

(* Master's raw result -> logical form stored in the RB (encoded into the
   RB's int64 slots; see Epoll_map.encode). *)
let to_logical inst (result : Syscall.result) =
  match result with
  | Syscall.Ok_epoll events ->
    let logical = Epoll_map.to_logical inst.group.Context.epoll_map events in
    Syscall.Ok_epoll
      (List.map (fun (l, ev) -> (Epoll_map.encode l, ev)) logical)
  | r -> r

(* Logical form -> this variant's view. *)
let from_logical inst (result : Syscall.result) =
  match result with
  | Syscall.Ok_epoll encoded ->
    let logical = List.map (fun (v, ev) -> (Epoll_map.decode v, ev)) encoded in
    Syscall.Ok_epoll
      (Epoll_map.to_variant inst.group.Context.epoll_map ~variant:inst.variant
         logical)
  | r -> r

(* ------------------------------------------------------------------ *)
(* The entry point IK-B forwards to (Figure 2, steps 2-4) *)

let rec invoke inst (th : Proc.thread) ~token ~(call : Syscall.call)
    ~(return : Syscall.result -> unit) =
  let g = inst.group in
  g.Context.ipmon_calls <- g.Context.ipmon_calls + 1;
  if g.Context.shutdown then do_fallback inst th ~call ~return
  else if maybe_checked inst th ~token call then do_fallback inst th ~call ~return
  else begin
    (* CALCSIZE *)
    let bytes = Rb.record_bytes call in
    if not (Rb.fits_at_all g.Context.rb ~bytes) then
      do_fallback inst th ~call ~return
    else if inst.variant = 0 then begin
      match g.Context.ring with
      | Some ring -> master_ring_path inst ring th ~token ~call ~return ~bytes
      | None -> master_path inst th ~token ~call ~return ~bytes
    end
    else slave_path inst th ~token ~call ~return
  end

(* Step 4': destroy the token, restart the call as a monitored call. A
   toplevel function (not a per-call closure) so the fast path allocates
   nothing preparing for a fallback that almost never happens. *)
and do_fallback inst th ~call ~return =
  let g = inst.group in
  let k = g.Context.kernel in
  g.Context.ipmon_fallbacks <- g.Context.ipmon_fallbacks + 1;
  (match Kernel.obs k with
  | None -> ()
  | Some o ->
    obs_emit o th ~name:"fallback" ~key:key_fallback
      [ ("call", Remon_obs.Trace.Str (Syscall.to_string call)) ]);
  (* ring mode: the master is about to enter the monitored path, which acts
     as a batch barrier — pending records must reach the RB first so the
     slaves can line up for the rendezvous *)
  (match g.Context.ring with
  | Some ring when inst.variant = 0 ->
    Syscall_ring.flush ~th ring Syscall_ring.Barrier
  | _ -> ());
  Ikb.destroy_token g.Context.ikb th;
  charge th (Kernel.cost k).Cost_model.ipmon_restart_ns;
  Kernel.monitor_path k th call ~return

and master_window_ok g (th : Proc.thread) =
  match g.Context.mode.Context.runahead_window with
  | None -> true
  | Some w -> Rb.lag g.Context.rb ~rank:th.Proc.rank < w

(* Master fast path, per-record publishes (ring off). The common case —
   no overflow, open run-ahead window — runs straight through with no
   intermediate closures; the stall machinery lives in [master_path_slow]. *)
and master_path inst th ~token ~call ~return ~bytes =
  let g = inst.group in
  if
    (not (Rb.would_overflow g.Context.rb ~bytes)) && master_window_ok g th
  then master_proceed inst th ~token ~call ~return ~bytes
  else master_path_slow inst th ~token ~call ~return ~bytes

and master_proceed inst th ~token ~call ~return ~bytes =
  let g = inst.group in
  let k = g.Context.kernel in
  let cost = Kernel.cost k in
  (* PRECALL: deep-copy arguments + metadata into the RB *)
  let expect_block = Callinfo.may_block g.Context.file_map call in
  charge th
    (cost.Cost_model.rb_write_fixed_ns
    + Cost_model.local_copy_ns cost ~bytes:(Syscall.arg_bytes call));
  (Kernel.stats k).Kstate.rb_bytes <- (Kernel.stats k).Kstate.rb_bytes + bytes;
  note_epoll inst call;
  let entry =
    Rb.master_append g.Context.rb ~rank:th.Proc.rank
      ~call:(Callinfo.normalize call) ~expect_block ~forwarded:false
  in
  Kernel.kick k (* slaves may be waiting for this record *);
  (* inlined [Ikb.execute]: verify the one-time token, then run stop-free *)
  charge th cost.Cost_model.token_check_ns;
  if Ikb.verify g.Context.ikb th ~token ~call then
    Kernel.execute_raw k th call ~ret:(fun r ->
        (* POSTCALL: replicate results *)
        let logical = to_logical inst r in
        charge th
          (cost.Cost_model.rb_write_fixed_ns
          + Cost_model.local_copy_ns cost ~bytes:(Syscall.result_bytes r));
        let need_wake = Rb.master_publish g.Context.rb entry logical in
        (* fast-path calls also land in the replicated stream (no-op unless
           Mvee turned capture on) *)
        Record_log.append_call g.Context.rb.Rb.sync_log ~rank:th.Proc.rank
          ~call:(Callinfo.normalize call) ~result:r;
        (* slaves pulling the record bounce its cache lines back and forth *)
        charge th
          ((g.Context.nreplicas - 1) * cost.Cost_model.cacheline_bounce_ns);
        (* per-record condvars (Section 3.7): skip the wake when nobody
           waits; the ablation mode wakes unconditionally *)
        if need_wake || not g.Context.mode.Context.per_call_condvar then
          charge th cost.Cost_model.futex_wake_ns;
        Kernel.kick k;
        return r)
  else begin
    (Kernel.stats k).Kstate.tokens_rejected <-
      (Kernel.stats k).Kstate.tokens_rejected + 1;
    do_fallback inst th ~call ~return
  end

and master_path_slow inst th ~token ~call ~return ~bytes =
  let g = inst.group in
  let k = g.Context.kernel in
  let cost = Kernel.cost k in
  let proceed () = master_proceed inst th ~token ~call ~return ~bytes in
  let proceed_windowed () =
    if master_window_ok g th then proceed ()
    else
      (* bounded run-ahead: the master stalls until the slowest slave
         catches up to within the window *)
      Kernel.wait_until k th ~what:"ipmon master: run-ahead window full"
        ~poll:(fun () -> if master_window_ok g th then Some () else None)
        ~on_ready:(fun () -> proceed ())
  in
  if Rb.would_overflow g.Context.rb ~bytes then begin
    (* Linear-buffer overflow: signal GHUMVEE, wait for the slaves to
       drain, reset (Section 3.2). The signalling syscall costs the master
       a ptrace round trip. *)
    (match Kernel.obs k with
    | None -> ()
    | Some o ->
      obs_emit o th ~name:"overflow_wait" ~key:key_overflow_wait
        [ ("used_bytes", Remon_obs.Trace.Int g.Context.rb.Rb.used_bytes) ]);
    charge th (Cost_model.ptrace_stop_ns cost);
    Kernel.wait_until k th ~what:"rb overflow: waiting for slaves to drain"
      ~poll:(fun () -> if Rb.fully_drained g.Context.rb then Some () else None)
      ~on_ready:(fun () ->
        Rb.reset g.Context.rb;
        Kernel.kick k;
        proceed_windowed ())
  end
  else proceed_windowed ()

(* Master path with the submission ring (mode.ring_batch > 1): the call
   executes immediately — run-ahead is unchanged — but PRECALL/POSTCALL
   park the record in the ring; the per-record RB fixed costs, the wake
   and the cache-line bounces are paid once per batch drain instead. *)
and master_ring_path inst ring th ~token ~call ~return ~bytes =
  let g = inst.group in
  let k = g.Context.kernel in
  let cost = Kernel.cost k in
  (* CALCSIZE, batch-aware: the RB must keep room for the whole pending
     batch plus this record. Drain first; if that is not enough space the
     arbitrated reset takes over, exactly as in the unbatched path. *)
  if
    Rb.would_overflow g.Context.rb
      ~bytes:(bytes + Syscall_ring.pending_bytes ring)
  then Syscall_ring.flush ~th ring Syscall_ring.Overflow;
  let window_ok () =
    match g.Context.mode.Context.runahead_window with
    | None -> true
    | Some w ->
      (* ring-pending records of this rank are invisible to [Rb.lag] but
         count towards the master's logical run-ahead *)
      Rb.lag g.Context.rb ~rank:th.Proc.rank
      + Syscall_ring.pending_rank ring ~rank:th.Proc.rank
      < w
  in
  let proceed () =
    let expect_block = Callinfo.may_block g.Context.file_map call in
    (* PRECALL: local copy into the ring slot; the RB fixed-cost write is
       deferred to the drain *)
    charge th (Cost_model.local_copy_ns cost ~bytes:(Syscall.arg_bytes call));
    (Kernel.stats k).Kstate.rb_bytes <- (Kernel.stats k).Kstate.rb_bytes + bytes;
    note_epoll inst call;
    charge th cost.Cost_model.token_check_ns;
    if not (Ikb.verify g.Context.ikb th ~token ~call) then begin
      (Kernel.stats k).Kstate.tokens_rejected <-
        (Kernel.stats k).Kstate.tokens_rejected + 1;
      do_fallback inst th ~call ~return
    end
    else begin
      let normalized = Callinfo.normalize call in
      match Callinfo.disposition call with
      | Callinfo.All_call ->
        (* every replica runs this call locally: slaves only need the
           record's *presence*, never its result, so it is published at
           submission — a terminal call (exit_group) or an in-replica
           rendezvous (futex) can therefore never strand the batch *)
        let slot =
          Syscall_ring.submit ring ~th ~call:normalized ~expect_block
        in
        Syscall_ring.complete ~th ring slot Syscall.Ok_unit;
        (* a terminal call never returns: push the batch out now rather
           than leaving the slaves to the flush deadline *)
        (match call with
        | Syscall.Exit _ | Syscall.Exit_group _ ->
          Syscall_ring.flush ~th ring Syscall_ring.Barrier
        | _ -> ());
        Kernel.execute_raw k th call ~ret:return
      | Callinfo.Master_call ->
        let slot =
          Syscall_ring.submit ring ~th ~call:normalized ~expect_block
        in
        Kernel.execute_raw k th call ~ret:(fun r ->
            (* POSTCALL: the result parks next to its arguments; the batch
               publish happens at the drain *)
            let logical = to_logical inst r in
            charge th
              (Cost_model.local_copy_ns cost ~bytes:(Syscall.result_bytes r));
            Syscall_ring.complete ~th ring slot logical;
            return r)
    end
  in
  if Rb.would_overflow g.Context.rb ~bytes then begin
    (match Kernel.obs k with
    | None -> ()
    | Some o ->
      obs_emit o th ~name:"overflow_wait" ~key:key_overflow_wait
        [ ("used_bytes", Remon_obs.Trace.Int g.Context.rb.Rb.used_bytes) ]);
    charge th (Cost_model.ptrace_stop_ns cost);
    Kernel.wait_until k th ~what:"rb overflow: waiting for slaves to drain"
      ~poll:(fun () -> if Rb.fully_drained g.Context.rb then Some () else None)
      ~on_ready:(fun () ->
        Rb.reset g.Context.rb;
        Kernel.kick k;
        if window_ok () then proceed ()
        else
          Kernel.wait_until k th ~what:"ipmon master: run-ahead window full"
            ~poll:(fun () -> if window_ok () then Some () else None)
            ~on_ready:(fun () -> proceed ()))
  end
  else if window_ok () then proceed ()
  else begin
    (* drain so the slaves can actually catch up — ring-pending records
       are invisible to them until flushed *)
    Syscall_ring.flush ~th ring Syscall_ring.Barrier;
    Kernel.wait_until k th ~what:"ipmon master: run-ahead window full"
      ~poll:(fun () -> if window_ok () then Some () else None)
      ~on_ready:(fun () -> proceed ())
  end

and slave_path inst th ~token ~call ~return =
  let g = inst.group in
  let k = g.Context.kernel in
  let cost = Kernel.cost k in
  let rank = th.Proc.rank in
  let variant = inst.variant in
  (* wait for the master's record for this call. In ring mode the record
     may be parked in the master's submission ring: pull it directly out
     of the shared slots ([Syscall_ring.demand]) instead of sleeping
     until the master's flush deadline. *)
  Kernel.wait_until k th ~what:"ipmon slave: waiting for master record"
    ~poll:(fun () ->
      match Rb.slave_lookup g.Context.rb ~rank ~variant with
      | Some e -> Some e
      | None -> (
        match g.Context.ring with
        | Some ring when Syscall_ring.demand ring ~th ~rank ->
          Rb.slave_lookup g.Context.rb ~rank ~variant
        | _ -> None))
    ~on_ready:(fun (entry : Rb.entry) ->
      (* a batch follower's cache lines arrived with the drain's first
         record: its fixed read cost is one spin poll, not a fresh pull *)
      charge th
        ((if entry.Rb.batch_follower then cost.Cost_model.spin_poll_ns
          else cost.Cost_model.rb_read_fixed_ns)
        + Cost_model.compare_ns cost ~bytes:(Syscall.arg_bytes call));
      match entry.Rb.call with
      | None ->
        (* the record carries no payload (lost/dropped): nothing to verify
           against — consume the slot and bounce to the monitored path,
           where GHUMVEE's watchdog catches a master that never shows up *)
        Rb.slave_advance g.Context.rb ~rank ~variant;
        do_fallback inst th ~call ~return
      | Some recorded when entry.Rb.flags.Rb.forwarded_to_monitor ->
        (* master bounced this call to GHUMVEE; follow it *)
        ignore recorded;
        Rb.slave_advance g.Context.rb ~rank ~variant;
        do_fallback inst th ~call ~return
      | Some recorded ->
        if not (Syscall.equal_call (Callinfo.normalize call) recorded) then begin
          (* PRECALL sanity check failed: argument divergence. *)
          let verdict =
            Divergence.Args_mismatch
              {
                rank;
                index = th.Proc.syscall_index;
                expected = Divergence.render_call recorded;
                got = Divergence.render_call call;
                variant;
                detector = Divergence.By_ipmon;
              }
          in
          if Context.replica_fault g ~variant verdict then
            (* the recovery policy quarantined (and killed) this replica:
               the continuation dies with it *)
            ()
          else begin
            (* default: crash intentionally so GHUMVEE observes it via
               ptrace and shuts the MVEE down (Section 3.3) *)
            Context.set_divergence g verdict;
            Kernel.post_signal k inst.proc Sigdefs.sigsegv;
            return (err Errno.EINTR)
          end
        end
        else begin
          note_epoll inst call;
          match Callinfo.disposition call with
          | Callinfo.All_call ->
            (* process-local call: consume the record, execute locally
               (inlined [Ikb.execute]) *)
            Rb.slave_advance g.Context.rb ~rank ~variant;
            Kernel.kick k;
            charge th cost.Cost_model.token_check_ns;
            if Ikb.verify g.Context.ikb th ~token ~call then
              Kernel.execute_raw k th call ~ret:return
            else begin
              (Kernel.stats k).Kstate.tokens_rejected <-
                (Kernel.stats k).Kstate.tokens_rejected + 1;
              do_fallback inst th ~call ~return
            end
          | Callinfo.Master_call ->
            (* abort the original call; the one-time token goes unused *)
            Ikb.consume_token g.Context.ikb th;
            (* ring mode: when a batch drain already published the result
               alongside the record, the slave's first read finds it — one
               spin poll, no sleep. This is the batching win on the slave
               side: one wake services the whole batch. *)
            let immediate =
              g.Context.ring <> None && entry.Rb.result <> None
            in
            let use_futex =
              match g.Context.mode.Context.slave_wait with
              | Context.Wait_auto -> entry.Rb.flags.Rb.expect_block
              | Context.Wait_spin_only -> false
              | Context.Wait_futex_only -> true
            in
            let wait_cost =
              if immediate then cost.Cost_model.spin_poll_ns
              else if use_futex then
                (* optimized per-record condition variable (Section 3.7) *)
                cost.Cost_model.futex_wait_ns
              else (* spin-read loop *) 2 * cost.Cost_model.spin_poll_ns
            in
            entry.Rb.waiters <- entry.Rb.waiters + 1;
            Kernel.wait_until k th ~what:"ipmon slave: waiting for results"
              ~poll:(fun () -> entry.Rb.result)
              ~on_ready:(fun logical ->
                entry.Rb.waiters <- entry.Rb.waiters - 1;
                charge th
                  (wait_cost
                  + Cost_model.local_copy_ns cost
                      ~bytes:(Syscall.result_bytes logical));
                let r = from_logical inst logical in
                (* fd-allocating calls (VARAN handles these in-process):
                   install stub descriptors so numbering stays aligned *)
                List.iter
                  (fun fd ->
                    Hashtbl.replace inst.proc.Proc.fds fd
                      (Proc.make_desc (Proc.Replicated_handle fd)))
                  (Callinfo.fds_created call r);
                List.iter
                  (fun fd -> Hashtbl.remove inst.proc.Proc.fds fd)
                  (Callinfo.fds_closed call r);
                Rb.slave_advance g.Context.rb ~rank ~variant;
                Kernel.kick k (* unblock a master waiting on drain *);
                return r)
        end)

(* ------------------------------------------------------------------ *)
(* Initialization (Section 3.5): runs inside the replica, in program
   context, before the application's main. *)

let rx = { Syscall.pr = true; pw = false; px = true }

let init ?(calls = Classification.ipmon_supported) (g : Context.group) ~variant
    : instance =
  let th = Sched.self () in
  let proc = th.Proc.proc in
  let inst = { group = g; variant; proc; entry_addr = 0L; rb_addr = 0L } in
  (* map IP-MON's executable region (its entry point lives here) *)
  (match
     Vm.map proc.Proc.vm ~len:65536 ~prot:rx ~backing:Vm.Ipmon_code ~tag:"ipmon"
   with
  | Ok r -> inst.entry_addr <- r.Vm.start
  | Error _ -> failwith "ipmon: cannot map code region");
  (* create/attach the replication buffer segment (SysV IPC, arbitrated by
     GHUMVEE: the key marks it as MVEE-internal) *)
  let rb_size = g.Context.rb.Rb.size_bytes in
  let shmid =
    match
      Sched.syscall (Syscall.Shmget { key = g.Context.shm_key; size = rb_size; create = true })
    with
    | Syscall.Ok_int id -> id
    | r -> failwith (Format.asprintf "ipmon: shmget failed: %a" Syscall.pp_result r)
  in
  (match Sched.syscall (Syscall.Shmat { shmid; readonly = false }) with
  | Syscall.Ok_int64 addr ->
    inst.rb_addr <- addr;
    (* attach the RB structure to the segment payload (master only) *)
    (match Shm.find (Kernel.shm_registry g.Context.kernel) shmid with
    | Ok seg ->
      if seg.Shm.payload = None then
        seg.Shm.payload <- Some (Rb.Rb_payload g.Context.rb)
    | Error _ -> ())
  | r -> failwith (Format.asprintf "ipmon: shmat failed: %a" Syscall.pp_result r));
  (* attach the read-only file map (Section 3.6) *)
  let fm_shmid =
    match
      Sched.syscall
        (Syscall.Shmget { key = g.Context.shm_key + 1; size = 4096; create = true })
    with
    | Syscall.Ok_int id -> id
    | _ -> failwith "ipmon: file-map shmget failed"
  in
  (match Sched.syscall (Syscall.Shmat { shmid = fm_shmid; readonly = true }) with
  | Syscall.Ok_int64 _ -> ()
  | _ -> failwith "ipmon: file-map shmat failed");
  (* register with IK-B through the new kernel syscall; the invoke closure
     is staged kernel-side because closures cannot travel through the
     syscall interface *)
  Kernel.prepare_ipmon g.Context.kernel ~pid:proc.Proc.pid
    {
      Proc.unmonitored = Sysno.Set.of_list calls;
      rb_addr = inst.rb_addr;
      entry_addr = inst.entry_addr;
      invoke =
        (fun th ~token ~call ~return -> invoke inst th ~token ~call ~return);
    };
  (match
     Sched.syscall
       (Syscall.Ipmon_register
          { calls; rb_addr = inst.rb_addr; entry_addr = inst.entry_addr })
   with
  | Syscall.Ok_int 0 -> ()
  | Syscall.Error e ->
    failwith ("ipmon: registration rejected: " ^ Errno.to_string e)
  | _ -> failwith "ipmon: registration failed");
  Ikb.(g.Context.ikb.rb <- Some g.Context.rb);
  inst
