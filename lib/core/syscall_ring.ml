(* io_uring-style batched syscall submission/completion ring.

   In the paper's IP-MON, every policy-exempt call pays its replication
   overhead record by record: two fixed-cost RB writes (argument append,
   result publish), a cache-line bounce per slave, and — unless the
   per-record condition variable says nobody waits — a FUTEX_WAKE. The
   ring amortizes those fixed costs the way io_uring amortizes syscall
   entry: the master executes each exempt call immediately (run-ahead is
   unchanged) but parks the completed record in a local submission ring
   instead of the shared RB. When the ring drains — on a full batch, a
   flush deadline, a monitored-call barrier, or an imminent RB overflow —
   the whole batch lands in the RB in one rendezvous: one pair of
   fixed-cost RB writes, one wake, one round of cache-line traffic.

   Determinism: slot drain order is submission order, and within one
   thread rank at most one record can be incomplete (a thread cannot
   issue call N+1 before call N returned), so per-rank RB streams see
   exactly the sequence they would have seen unbatched. Verdicts,
   digests, and trace bytes are invariant under the batch size; only
   virtual time moves — which is precisely the ablation variable.

   The ring holds no [Context] reference so it sits below the MVEE
   layers; [Mvee] owns one per group when [Context.mode.ring_batch] > 1. *)

open Remon_kernel
open Remon_sim
module Rb = Replication_buffer

type flush_reason = Full | Deadline | Barrier | Overflow | Demand

let flush_reason_to_string = function
  | Full -> "full"
  | Deadline -> "deadline"
  | Barrier -> "barrier"
  | Overflow -> "overflow"
  | Demand -> "demand"

(* One submission slot; pooled and recycled so steady-state batching
   allocates nothing per call. *)
type slot = {
  mutable rank : int;
  mutable call : Syscall.call; (* normalized by the submitter *)
  mutable result : Syscall.result; (* logical form; valid when [filled] *)
  mutable filled : bool; (* completion arrived; drainable *)
  mutable expect_block : bool;
}

type t = {
  rb : Rb.t;
  kernel : Kernel.t;
  nreplicas : int;
  batch : int; (* filled records that trigger a drain *)
  flush_ns : Vtime.t; (* deadline: drain this long after first submit *)
  wake_always : bool;
      (* single-condvar ablation (mode.per_call_condvar = false): every
         drain pays the FUTEX_WAKE even with no demander, mirroring the
         unbatched path's unconditional per-record wake *)
  mutable slots : slot array; (* indices [0, len): live, submission order *)
  mutable len : int;
  mutable filled_count : int;
  mutable pending_bytes : int; (* RB space the live slots will occupy *)
  mutable epoch : int; (* bumped per drain; stale deadline timers bail *)
  mutable timer_armed : bool;
  mutable demand : bool;
      (* a slave is sleeping on an in-flight slot: publish at completion
         instead of batching further (the ring's analogue of the RB's
         per-record condvar waiter count). Re-asserted by the demanding
         slave on every re-poll, cleared at each drain. *)
  (* statistics *)
  mutable submitted : int;
  mutable flushes : int;
  mutable flushes_full : int;
  mutable flushes_deadline : int;
  mutable flushes_barrier : int;
  mutable flushes_overflow : int;
  mutable flushes_demand : int;
  mutable records_flushed : int;
  mutable max_batch : int; (* largest single drain *)
}

let fresh_slot () =
  {
    rank = 0;
    call = Syscall.Getpid;
    result = Syscall.Ok_unit;
    filled = false;
    expect_block = false;
  }

let create ~rb ~kernel ~nreplicas ~batch ~flush_ns ~wake_always =
  {
    rb;
    kernel;
    nreplicas;
    batch = max 1 batch;
    flush_ns;
    wake_always;
    slots = Array.init (max 8 (batch + 4)) (fun _ -> fresh_slot ());
    len = 0;
    filled_count = 0;
    pending_bytes = 0;
    epoch = 0;
    timer_armed = false;
    demand = false;
    submitted = 0;
    flushes = 0;
    flushes_full = 0;
    flushes_deadline = 0;
    flushes_barrier = 0;
    flushes_overflow = 0;
    flushes_demand = 0;
    records_flushed = 0;
    max_batch = 0;
  }

let pending t = t.len
let pending_bytes t = t.pending_bytes

(* Records of [rank] not yet drained; counts towards the master's logical
   run-ahead even though [Rb.lag] cannot see them. *)
let pending_rank t ~rank =
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    if t.slots.(i).rank = rank then incr n
  done;
  !n

(* Drain every completed slot into the RB, in submission order; incomplete
   slots (their calls still executing) compact to the front and stay
   pending. Fixed replication costs are charged once per drain, to the
   flushing thread — a deadline drain runs in monitor context and charges
   nobody, which is exactly the batching win the ablation measures. *)
let rec flush ?th t reason =
  if t.filled_count > 0 then begin
    let n = t.len in
    (* Wake-skip, inherited from the per-record condvar optimization
       (Section 3.7): only a drain triggered by a sleeping demander pays
       the FUTEX_WAKE; spinning slaves pick the batch up by polling. *)
    let wake = t.demand || t.wake_always in
    let drained = ref 0 in
    let keep = ref 0 in
    let seen_ranks = ref [] in
    for i = 0 to n - 1 do
      let s = t.slots.(i) in
      if s.filled then begin
        let entry =
          Rb.master_append t.rb ~rank:s.rank ~call:s.call
            ~expect_block:s.expect_block ~forwarded:false
        in
        (* append+publish are atomic from the slaves' view, so no slave can
           have registered on the record's condvar yet: the per-drain batch
           wake below replaces the per-record wake decision *)
        ignore (Rb.master_publish t.rb entry s.result);
        (* records behind an earlier same-rank record of this drain reach
           the slave in the same cache-line bounce round: its fixed read
           cost drops to a spin poll *)
        if List.mem s.rank !seen_ranks then entry.Rb.batch_follower <- true
        else seen_ranks := s.rank :: !seen_ranks;
        Record_log.append_call t.rb.Rb.sync_log ~rank:s.rank ~call:s.call
          ~result:s.result;
        t.pending_bytes <-
          t.pending_bytes
          - (Rb.record_bytes s.call + Syscall.result_bytes s.result);
        s.filled <- false;
        incr drained
      end
      else begin
        (* swap, not overwrite: the records behind [keep] stay pooled *)
        let tmp = t.slots.(!keep) in
        t.slots.(!keep) <- s;
        t.slots.(i) <- tmp;
        incr keep
      end
    done;
    t.len <- !keep;
    t.filled_count <- 0;
    t.epoch <- t.epoch + 1;
    t.timer_armed <- false;
    t.demand <- false;
    t.flushes <- t.flushes + 1;
    (match reason with
    | Full -> t.flushes_full <- t.flushes_full + 1
    | Deadline -> t.flushes_deadline <- t.flushes_deadline + 1
    | Barrier -> t.flushes_barrier <- t.flushes_barrier + 1
    | Overflow -> t.flushes_overflow <- t.flushes_overflow + 1
    | Demand -> t.flushes_demand <- t.flushes_demand + 1);
    t.records_flushed <- t.records_flushed + !drained;
    if !drained > t.max_batch then t.max_batch <- !drained;
    Record_log.append_flush t.rb.Rb.sync_log
      ~reason:(flush_reason_to_string reason)
      ~count:!drained;
    (* fixed costs, once per drain instead of once per record: the append
       and publish writes, one round of cache-line bounces as the slaves
       pull the fresh records, and — only when someone sleeps — the wake *)
    (match th with
    | None -> ()
    | Some th ->
      let c = Kernel.cost t.kernel in
      Kstate.charge th
        ((2 * c.Cost_model.rb_write_fixed_ns)
        + (if wake then c.Cost_model.futex_wake_ns else 0)
        + ((t.nreplicas - 1) * c.Cost_model.cacheline_bounce_ns)));
    (* parked slaves re-poll and find the whole batch *)
    Kernel.kick t.kernel;
    if t.len > 0 then arm_timer t ~from:(Kernel.now t.kernel)
  end

(* Deadline timer: drains a stale partial batch [flush_ns] after its first
   record was submitted. Runs in monitor context (charges no replica). A
   timer that fires over an epoch with nothing completed simply disarms —
   it does NOT re-arm itself, so a ring wedged by a killed process cannot
   keep the event loop alive; the next submit/complete re-arms. *)
and arm_timer t ~from =
  if not t.timer_armed then begin
    t.timer_armed <- true;
    let epoch = t.epoch in
    Kernel.schedule t.kernel ~time:(Vtime.add from t.flush_ns) (fun () ->
        if t.epoch = epoch then begin
          t.timer_armed <- false;
          if t.filled_count > 0 then flush t Deadline
        end)
  end

let grow t =
  let old = t.slots in
  let n = Array.length old in
  t.slots <-
    Array.init (2 * n) (fun i -> if i < n then old.(i) else fresh_slot ())

(* Reserve the next slot. The caller executes the call and hands the
   logical result to [complete]; until then the slot is in flight and a
   drain skips over it. *)
let submit t ~(th : Proc.thread) ~call ~expect_block =
  if t.len = Array.length t.slots then grow t;
  let s = t.slots.(t.len) in
  t.len <- t.len + 1;
  s.rank <- th.Proc.rank;
  s.call <- call;
  s.filled <- false;
  s.expect_block <- expect_block;
  t.submitted <- t.submitted + 1;
  t.pending_bytes <- t.pending_bytes + Rb.record_bytes call;
  if not t.timer_armed then arm_timer t ~from:th.Proc.clock;
  s

let complete ?th t (s : slot) result =
  s.result <- result;
  s.filled <- true;
  t.filled_count <- t.filled_count + 1;
  t.pending_bytes <- t.pending_bytes + Syscall.result_bytes result;
  if t.filled_count >= t.batch then flush ?th t Full
  else if t.demand then
    (* a slave went to sleep on this in-flight record: publish now and pay
       the wake — batching further would trade its latency for nothing *)
    flush ?th t Demand
  else if not t.timer_armed then
    (* a slot that completed after its batch's deadline already fired
       still needs a bounded wait for company *)
    arm_timer t
      ~from:(match th with Some th -> th.Proc.clock | None -> Kernel.now t.kernel)

(* Slave side: the record [rank] needs next is still in the ring. The
   slots live in the same shared segment as the RB (io_uring-style), so a
   polling slave drains the completed prefix itself: one extra poll of the
   ring tail, no wake (the demander is the one awake), and none of the
   master's per-drain freight — the master keeps computing, which is the
   other half of the batching win. If the wanted record is still in
   flight, leave the demand flag up so [complete] publishes immediately.
   Returns true when records actually reached the RB (the caller's lookup
   will now succeed). *)
let demand t ~(th : Proc.thread) ~rank =
  if pending_rank t ~rank = 0 then false
  else begin
    let drained =
      if t.filled_count > 0 then begin
        Kstate.charge th (Kernel.cost t.kernel).Cost_model.spin_poll_ns;
        flush t Demand;
        true
      end
      else false
    in
    if pending_rank t ~rank > 0 then t.demand <- true;
    drained
  end
