(* The IP-MON replication buffer (Section 3.2).

   A linear (non-circular) buffer in shared memory. Each replica thread only
   advances its own position; when the master would overflow the buffer it
   signals GHUMVEE, which waits for all replicas to drain and resets the
   buffer — avoiding read-write sharing on head/tail indices.

   Each syscall invocation gets its own record with its own condition
   variable (Section 3.7): slaves wait only on the record they need, and the
   master skips the FUTEX_WAKE entirely when nobody is waiting. *)

open Remon_kernel

type flags = {
  forwarded_to_monitor : bool; (* master bounced this call to GHUMVEE *)
  expect_block : bool; (* file-map prediction: the call may block *)
}

type entry = {
  seq : int;
  bytes : int; (* space this record occupies in the buffer *)
  mutable call : Syscall.call option; (* master's deep-copied arguments *)
  mutable result : Syscall.result option;
  mutable flags : flags;
  mutable waiters : int; (* slaves waiting on this record's condvar *)
  mutable consumed : int; (* slaves that copied the result *)
  mutable batch_follower : bool;
      (* published by a ring drain behind an earlier record of the same
         rank: its cache lines arrived in the same bounce round, so the
         slave's fixed read cost drops to a spin poll *)
}

(* One record stream per thread rank: replica threads are matched by rank,
   and each (master-thread, slave-thread) pair has its own stream, so
   per-thread positions are single-writer. *)
type stream = {
  rank : int;
  entries : (int, entry) Hashtbl.t; (* seq -> record *)
  mutable master_next : int;
  slave_next : int array; (* per variant; index 0 unused *)
}

type t = {
  size_bytes : int;
  nreplicas : int;
  streams : (int, stream) Hashtbl.t;
  mutable used_bytes : int;
  mutable signals_pending : bool; (* set by GHUMVEE (Section 3.8) *)
  mutable generation : int; (* bumped at each reset *)
  active : bool array;
      (* per variant; quarantined replicas stop counting towards drains so
         the master can keep publishing while the group runs degraded *)
  mutable tamper : (entry -> unit) option;
      (* fault-injection hook: may drop (call <- None) or corrupt a freshly
         appended record before the slaves see it *)
  (* statistics *)
  mutable total_records : int;
  mutable resets : int;
  mutable wakes_issued : int;
  mutable wakes_skipped : int;
  (* record/replay sync-event log (Section 2.3) rides in the same segment *)
  sync_log : Record_log.t;
  mutable obs : (Remon_obs.Obs.t * (unit -> int)) option;
      (* structured trace sink + virtual-clock reader, set by [Mvee] when
         observability is on; None = zero-cost disabled path *)
}

(* The RB travels in a System V segment; higher layers find it there. *)
type Shm.payload += Rb_payload of t

let header_bytes = 64

let create ~size_bytes ~nreplicas =
  {
    size_bytes;
    nreplicas;
    streams = Hashtbl.create 8;
    used_bytes = 0;
    signals_pending = false;
    generation = 0;
    active = Array.make nreplicas true;
    tamper = None;
    total_records = 0;
    resets = 0;
    wakes_issued = 0;
    wakes_skipped = 0;
    sync_log = Record_log.create ~nreplicas;
    obs = None;
  }

let default_size = 16 * 1024 * 1024 (* the paper's 16 MiB *)

(* RB events belong to the monitor context, not any replica: pid/tid 0.
   Occupancy rides along as a high-water-mark metric on every event.
   Metric keys for the fixed event vocabulary are interned at module init:
   the per-record tallies do not concatenate strings. *)
let rb_key = function
  | "append" -> "rb.append"
  | "consume" -> "rb.consume"
  | "reset" -> "rb.reset"
  | n -> "rb." ^ n

let obs_event t ~name args =
  match t.obs with
  | None -> ()
  | Some (o, now) ->
    Remon_obs.Trace.instant o.Remon_obs.Obs.trace ~ts:(now ()) ~cat:"rb" ~name
      ~pid:0 ~tid:0 args;
    Remon_obs.Metrics.incr o.Remon_obs.Obs.metrics (rb_key name);
    Remon_obs.Metrics.hwm o.Remon_obs.Obs.metrics "rb.used_bytes" t.used_bytes

(* Perfetto-graphable occupancy track. *)
let obs_occupancy t =
  match t.obs with
  | None -> ()
  | Some (o, now) ->
    Remon_obs.Trace.counter o.Remon_obs.Obs.trace ~ts:(now ()) ~cat:"rb"
      ~name:"rb.used_bytes" ~pid:0 ~tid:0
      [ ("used_bytes", Remon_obs.Trace.Int t.used_bytes) ]

let stream t rank =
  match Hashtbl.find_opt t.streams rank with
  | Some s -> s
  | None ->
    let s =
      {
        rank;
        entries = Hashtbl.create 64;
        master_next = 0;
        slave_next = Array.make t.nreplicas 0;
      }
    in
    Hashtbl.replace t.streams rank s;
    s

let record_bytes (call : Syscall.call) =
  header_bytes + Syscall.arg_bytes call

(* Would appending a record of [bytes] overflow the linear buffer? *)
let would_overflow t ~bytes = t.used_bytes + bytes > t.size_bytes

let fits_at_all t ~bytes = bytes <= t.size_bytes

(* All active slaves have consumed every record: safe to reset. Quarantined
   variants no longer pull records and must not wedge the master. *)
let fully_drained t =
  Hashtbl.fold
    (fun _ s acc ->
      let ok = ref acc in
      for v = 1 to t.nreplicas - 1 do
        if t.active.(v) && s.slave_next.(v) < s.master_next then ok := false
      done;
      !ok)
    t.streams true

(* GHUMVEE-arbitrated reset: clears all records and reclaims the space.
   Caller must have established that the buffer is drained. *)
let reset t =
  Hashtbl.iter (fun _ s -> Hashtbl.reset s.entries) t.streams;
  t.used_bytes <- 0;
  t.generation <- t.generation + 1;
  t.resets <- t.resets + 1;
  obs_event t ~name:"reset" [ ("generation", Remon_obs.Trace.Int t.generation) ];
  obs_occupancy t

(* Master side: append the record for its next call on [rank]'s stream. *)
let master_append t ~rank ~call ~expect_block ~forwarded =
  let s = stream t rank in
  let bytes = record_bytes call in
  let e =
    {
      seq = s.master_next;
      bytes;
      call = Some call;
      result = None;
      flags = { forwarded_to_monitor = forwarded; expect_block };
      waiters = 0;
      consumed = 0;
      batch_follower = false;
    }
  in
  Hashtbl.replace s.entries e.seq e;
  s.master_next <- s.master_next + 1;
  t.used_bytes <- t.used_bytes + bytes;
  t.total_records <- t.total_records + 1;
  obs_event t ~name:"append"
    [
      ("rank", Remon_obs.Trace.Int rank);
      ("seq", Remon_obs.Trace.Int e.seq);
      ("bytes", Remon_obs.Trace.Int bytes);
    ];
  obs_occupancy t;
  (match t.tamper with Some f -> f e | None -> ());
  e

(* Master side: publish the result and decide whether a FUTEX_WAKE is
   needed (only when slaves are already waiting on this record). *)
let master_publish t e result =
  e.result <- Some result;
  t.used_bytes <- t.used_bytes + Syscall.result_bytes result;
  (match t.obs with
  | None -> ()
  | Some (o, _) ->
    Remon_obs.Metrics.hwm o.Remon_obs.Obs.metrics "rb.used_bytes" t.used_bytes);
  if e.waiters > 0 then begin
    t.wakes_issued <- t.wakes_issued + 1;
    true
  end
  else begin
    t.wakes_skipped <- t.wakes_skipped + 1;
    false
  end

(* Slave side: the record this variant must consume next on [rank]. *)
let slave_lookup t ~rank ~variant =
  let s = stream t rank in
  Hashtbl.find_opt s.entries s.slave_next.(variant)

let slave_advance t ~rank ~variant =
  let s = stream t rank in
  let seq = s.slave_next.(variant) in
  (match Hashtbl.find_opt s.entries seq with
  | Some e -> e.consumed <- e.consumed + 1
  | None -> ());
  s.slave_next.(variant) <- seq + 1;
  obs_event t ~name:"consume"
    [
      ("rank", Remon_obs.Trace.Int rank);
      ("variant", Remon_obs.Trace.Int variant);
      ("seq", Remon_obs.Trace.Int seq);
    ];
  (* Drop the record once every active slave has moved past it: lookups
     only ever target [slave_next] positions, so a record behind all of
     them is unreachable and would otherwise pin the simulator's memory
     until the next buffer reset. [used_bytes] is untouched — the record
     still occupies simulated buffer space until GHUMVEE resets it. *)
  let drained = ref true in
  for v = 1 to t.nreplicas - 1 do
    if t.active.(v) && s.slave_next.(v) <= seq then drained := false
  done;
  if !drained then Hashtbl.remove s.entries seq

(* How many records the master is ahead of the slowest slave on [rank]'s
   stream; bounds the run-ahead window ablation. *)
let lag t ~rank =
  let s = stream t rank in
  let slowest = ref s.master_next in
  for v = 1 to t.nreplicas - 1 do
    if t.active.(v) && s.slave_next.(v) < !slowest then slowest := s.slave_next.(v)
  done;
  s.master_next - !slowest

(* ------------------------------------------------------------------ *)
(* Quarantine / rejoin support *)

(* Stop counting [variant] towards drains and run-ahead windows. *)
let deactivate t ~variant = if variant > 0 then t.active.(variant) <- false

(* Re-admit a (respawned) replica: it resumes consumption at the master's
   current position — its backlog was satisfied from the stream, not the
   buffer, so the stale positions are fast-forwarded. *)
let reactivate t ~variant =
  if variant > 0 then begin
    t.active.(variant) <- true;
    Hashtbl.iter (fun _ s -> s.slave_next.(variant) <- s.master_next) t.streams
  end

let is_active t ~variant = t.active.(variant)
