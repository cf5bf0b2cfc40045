(* Versioned binary recordings of a replicated run. See the interface for
   the layout; the encoding discipline lives in [Syswire]. *)

open Remon_kernel

let version = 1
let magic = "RMRC"

type header = {
  backend : string;
  nreplicas : int;
  seed : int;
  level : string;
  on_failure : string;
  faults : string;
  workload : string;
  shm_key : int; (* the group's SysV key; 0 = unknown (allocate fresh) *)
}

type event = Record_log.event =
  | Call of { rank : int; call : Syscall.call; result : Syscall.result }
  | Lock of { lock_id : int; thread_rank : int }
  | Signal of { rank : int; signo : int }
  | Flush of { reason : string; count : int }

type t = {
  header : header;
  events : event array;
  verdict : (string * string) option;
}

let equal_event a b =
  match (a, b) with
  | Call a, Call b ->
    a.rank = b.rank
    && Syscall.equal_call a.call b.call
    && Syscall.equal_result a.result b.result
  | Lock a, Lock b -> a.lock_id = b.lock_id && a.thread_rank = b.thread_rank
  | Signal a, Signal b -> a.rank = b.rank && a.signo = b.signo
  | Flush a, Flush b -> a.reason = b.reason && a.count = b.count
  | _ -> false

(* Agrees with comparing [to_string] outputs: the encoding is a
   deterministic, injective function of exactly these fields. *)
let equal a b =
  a.header = b.header
  && a.verdict = b.verdict
  && Array.length a.events = Array.length b.events
  && Array.for_all2 equal_event a.events b.events

let event_to_string = function
  | Call { rank; call; result } ->
    Printf.sprintf "call  rank=%d %s -> %s" rank (Syscall.to_string call)
      (Format.asprintf "%a" Syscall.pp_result result)
  | Lock { lock_id; thread_rank } ->
    Printf.sprintf "lock  id=%d rank=%d" lock_id thread_rank
  | Signal { rank; signo } -> Printf.sprintf "signal rank=%d signo=%d" rank signo
  | Flush { reason; count } -> Printf.sprintf "flush %s count=%d" reason count

(* ------------------------------------------------------------------ *)
(* Serialization *)

let write_event w = function
  | Call { rank; call; result } ->
    Syswire.W.u8 w 0;
    Syswire.W.uint w rank;
    Syswire.write_call w call;
    Syswire.write_result w result
  | Lock { lock_id; thread_rank } ->
    Syswire.W.u8 w 1;
    Syswire.W.int w lock_id;
    Syswire.W.uint w thread_rank
  | Signal { rank; signo } ->
    Syswire.W.u8 w 2;
    Syswire.W.uint w rank;
    Syswire.W.uint w signo
  | Flush { reason; count } ->
    Syswire.W.u8 w 3;
    Syswire.W.str w reason;
    Syswire.W.uint w count

let read_event r =
  match Syswire.R.u8 r with
  | 0 ->
    let rank = Syswire.R.uint r in
    let call = Syswire.read_call r in
    let result = Syswire.read_result r in
    Call { rank; call; result }
  | 1 ->
    let lock_id = Syswire.R.int r in
    Lock { lock_id; thread_rank = Syswire.R.uint r }
  | 2 ->
    let rank = Syswire.R.uint r in
    Signal { rank; signo = Syswire.R.uint r }
  | 3 ->
    let reason = Syswire.R.str r in
    Flush { reason; count = Syswire.R.uint r }
  | _ -> raise (Syswire.Fail (Syswire.Corrupt "bad event tag"))

let write_header w h =
  Syswire.W.str w h.backend;
  Syswire.W.uint w h.nreplicas;
  Syswire.W.int w h.seed;
  Syswire.W.str w h.level;
  Syswire.W.str w h.on_failure;
  Syswire.W.str w h.faults;
  Syswire.W.str w h.workload;
  Syswire.W.uint w h.shm_key

let read_header r =
  let backend = Syswire.R.str r in
  let nreplicas = Syswire.R.uint r in
  let seed = Syswire.R.int r in
  let level = Syswire.R.str r in
  let on_failure = Syswire.R.str r in
  let faults = Syswire.R.str r in
  let workload = Syswire.R.str r in
  let shm_key = Syswire.R.uint r in
  { backend; nreplicas; seed; level; on_failure; faults; workload; shm_key }

let to_string t =
  let w = Syswire.W.create ~initial:4096 () in
  String.iter (fun c -> Syswire.W.u8 w (Char.code c)) magic;
  Syswire.W.u8 w version;
  write_header w t.header;
  Syswire.W.uint w (Array.length t.events);
  Array.iter (write_event w) t.events;
  (match t.verdict with
  | None -> Syswire.W.bool w false
  | Some (cls, rendered) ->
    Syswire.W.bool w true;
    Syswire.W.str w cls;
    Syswire.W.str w rendered);
  (* checksum over every byte written so far: any bit flip that still
     decodes structurally is caught here *)
  let body = Syswire.W.contents w in
  Syswire.W.str w (Digest.string body);
  Syswire.W.contents w

let of_string s =
  try
    let r = Syswire.R.of_string s in
    for i = 0 to String.length magic - 1 do
      if Syswire.R.u8 r <> Char.code magic.[i] then
        raise (Syswire.Fail (Syswire.Corrupt "bad magic"))
    done;
    let v = Syswire.R.u8 r in
    if v <> version then
      raise
        (Syswire.Fail (Syswire.Corrupt (Printf.sprintf "unsupported version %d" v)));
    let header = read_header r in
    let n = Syswire.R.uint r in
    if n > Syswire.R.remaining r then raise (Syswire.Fail Syswire.Truncated);
    let rec read_events acc i =
      if i = 0 then List.rev acc else read_events (read_event r :: acc) (i - 1)
    in
    let events = Array.of_list (read_events [] n) in
    let verdict =
      if Syswire.R.bool r then begin
        let cls = Syswire.R.str r in
        Some (cls, Syswire.R.str r)
      end
      else None
    in
    let body_len = Syswire.R.pos r in
    let sum = Syswire.R.str r in
    if Syswire.R.remaining r <> 0 then
      raise (Syswire.Fail (Syswire.Corrupt "trailing bytes"));
    if not (String.equal sum (Digest.substring s 0 body_len)) then
      raise (Syswire.Fail (Syswire.Corrupt "checksum mismatch"));
    Ok { header; events; verdict }
  with Syswire.Fail e -> Error e

let to_file t path =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (to_string t);
  close_out oc;
  Sys.rename tmp path

let of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string s
  | exception Sys_error msg -> Error (Syswire.Corrupt msg)
  | exception End_of_file -> Error Syswire.Truncated

let with_workload t workload = { t with header = { t.header with workload } }

(* ------------------------------------------------------------------ *)
(* Digests *)

let stream_digest t =
  let w = Syswire.W.create ~initial:4096 () in
  Array.iter (write_event w) t.events;
  Digest.to_hex (Digest.string (Syswire.W.contents w))
