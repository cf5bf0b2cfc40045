(* The replicated stream in the shared segment (Section 2.3).

   The record/replay agent embedded in each replica forces all replicas to
   acquire user-space locks in the order the master acquired them, removing
   scheduling non-determinism that would otherwise make replicas issue
   different syscall sequences. The master appends (lock, thread-rank)
   events; each slave consumes them in order, gating its own acquisitions.

   While capturing, the same stream also carries every replicated master
   call, signal and ring flush. A freshly respawned replica reads its
   rank's calls from it — verified against the master's stream and
   satisfied from the recorded results — until it has caught up and can
   rejoin the group; a recording is a copy of it. Every consumer is an int
   cursor that steps over the events that are not its own. *)

open Remon_kernel

type event =
  | Call of { rank : int; call : Syscall.call; result : Syscall.result }
  | Lock of { lock_id : int; thread_rank : int }
  | Signal of { rank : int; signo : int }
  | Flush of { reason : string; count : int }

type t = {
  mutable events : event array;
  mutable len : int;
  locks : int array; (* per-variant lock cursor; index 0 unused *)
  mutable capture : bool;
  mutable on_call : (rank:int -> unit) option;
      (* fired after each appended call; GHUMVEE uses it to feed records
         to replaying replicas waiting at the head of the stream *)
}

let create ~nreplicas =
  {
    events = Array.make 64 (Lock { lock_id = 0; thread_rank = 0 });
    len = 0;
    locks = Array.make nreplicas 0;
    capture = false;
    on_call = None;
  }

let capture t = t.capture <- true
let length t = t.len
let events t = Array.sub t.events 0 t.len
let get t i = if i < t.len then Some t.events.(i) else None

let push t ev =
  if t.len = Array.length t.events then begin
    let bigger = Array.make (2 * t.len) ev in
    Array.blit t.events 0 bigger 0 t.len;
    t.events <- bigger
  end;
  t.events.(t.len) <- ev;
  t.len <- t.len + 1

let append_lock t ~lock_id ~thread_rank = push t (Lock { lock_id; thread_rank })

let append_call t ~rank ~call ~result =
  if t.capture then begin
    push t (Call { rank; call; result });
    match t.on_call with Some f -> f ~rank | None -> ()
  end

let append_signal t ~rank ~signo =
  if t.capture then push t (Signal { rank; signo })

let append_flush t ~reason ~count =
  if t.capture then push t (Flush { reason; count })

let set_on_call t f = t.on_call <- Some f

(* ------------------------------------------------------------------ *)
(* Cursors *)

let rec seek_lock t pos =
  if pos >= t.len then pos
  else
    match t.events.(pos) with
    | Lock _ -> pos
    | Call _ | Signal _ | Flush _ -> seek_lock t (pos + 1)

let rec seek_call t ~rank pos =
  if pos >= t.len then pos
  else
    match t.events.(pos) with
    | Call c when c.rank = rank -> pos
    | Call _ | Lock _ | Signal _ | Flush _ -> seek_call t ~rank (pos + 1)

(* The next lock event for [variant]; the cursor keeps the skipped
   position even when there is none yet. *)
let peek t ~variant =
  let pos = seek_lock t t.locks.(variant) in
  t.locks.(variant) <- pos;
  get t pos

let advance t ~variant = t.locks.(variant) <- seek_lock t t.locks.(variant) + 1

(* A respawned replica restarts from the beginning: it must re-consume the
   whole lock-order history to reproduce the master's schedule. *)
let reset_variant t ~variant = t.locks.(variant) <- 0
