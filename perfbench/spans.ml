(* Outside-in layer timing. Spans are recorded around calls into the
   program's public entry points and hook fields; nothing inside the
   simulator is changed. A span's self time is its duration minus the time
   covered by the spans it encloses, attributed by the live span stack, so
   a ptrace stop counts as a child of [Dispatch] when it happens during a
   syscall entry and as a top-level span when it runs as a scheduled event.

   One accumulator per simulated host: a host's events only ever run on
   one domain, so sharded runs share no mutable state here. *)

open Remon_kernel

type layer = Dispatch | Ikb | Ipmon | Ghumvee | Encode | Decode | Replay

let index = function
  | Dispatch -> 0
  | Ikb -> 1
  | Ipmon -> 2
  | Ghumvee -> 3
  | Encode -> 4
  | Decode -> 5
  | Replay -> 6

let max_depth = 256

(* Per-process hook state: the wrapped closures, so a hook is wrapped once
   and re-wrapped only if the program installs a fresh one. *)
type hooks = {
  mutable on_stop : (Proc.thread -> Proc.stop_reason -> unit) option;
  mutable invoke :
    (Proc.thread ->
    token:int64 ->
    call:Syscall.call ->
    return:(Syscall.result -> unit) ->
    unit)
    option;
}

type acc = {
  self_ns : int array; (* by [index] *)
  calls : int array;
  child_ns : int array; (* by depth: time covered by closed child spans *)
  mutable depth : int;
  mutable top_ns : int; (* total duration of top-level spans *)
  procs : (int, hooks) Hashtbl.t;
}

let create () =
  {
    self_ns = Array.make 7 0;
    calls = Array.make 7 0;
    child_ns = Array.make max_depth 0;
    depth = 0;
    top_ns = 0;
    procs = Hashtbl.create 8;
  }

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let span acc layer f =
  let d = acc.depth in
  if d >= max_depth then failwith "Spans.span: nesting deeper than max_depth";
  acc.child_ns.(d) <- 0;
  acc.depth <- d + 1;
  let t0 = now_ns () in
  let close () =
    let dur = now_ns () - t0 in
    let i = index layer in
    acc.depth <- d;
    acc.self_ns.(i) <- acc.self_ns.(i) + dur - acc.child_ns.(d);
    acc.calls.(i) <- acc.calls.(i) + 1;
    if d = 0 then acc.top_ns <- acc.top_ns + dur
    else acc.child_ns.(d - 1) <- acc.child_ns.(d - 1) + dur
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let hooks_of acc pid =
  match Hashtbl.find_opt acc.procs pid with
  | Some h -> h
  | None ->
    let h = { on_stop = None; invoke = None } in
    Hashtbl.replace acc.procs pid h;
    h

let installed mine current =
  match mine with Some f -> f == current | None -> false

(* Wrap the process's tracer [on_stop] and IP-MON [invoke] if they are not
   the closures this accumulator installed. IP-MON registers at run time
   (through a syscall), so this runs on every syscall entry. *)
let wrap_process acc (p : Proc.process) =
  let h = hooks_of acc p.Proc.pid in
  (match p.Proc.tracer with
  | Some tr when not (installed h.on_stop tr.Proc.on_stop) ->
    let inner = tr.Proc.on_stop in
    let w th reason = span acc Ghumvee (fun () -> inner th reason) in
    tr.Proc.on_stop <- w;
    h.on_stop <- Some w
  | _ -> ());
  match p.Proc.ipmon_registered with
  | Some reg when not (installed h.invoke reg.Proc.invoke) ->
    let inner = reg.Proc.invoke in
    let w th ~token ~call ~return =
      span acc Ipmon (fun () -> inner th ~token ~call ~return)
    in
    p.Proc.ipmon_registered <- Some { reg with Proc.invoke = w };
    h.invoke <- Some w
  | _ -> ()

(* Install the wrappers on one kernel: the scheduler's syscall handler (the
   dispatch entry point) and every registered IK-B broker's [classify].
   Call after the replica set is launched, before the first event. *)
let instrument acc (k : Kernel.t) =
  let sched = Kernel.sched k in
  let handler = sched.Sched.syscall_handler in
  sched.Sched.syscall_handler <-
    (fun th call ~return ->
      wrap_process acc th.Proc.proc;
      span acc Dispatch (fun () -> handler th call ~return));
  let wrap_broker (b : Kstate.broker) =
    let classify = b.Kstate.classify in
    { b with Kstate.classify = (fun th call -> span acc Ikb (fun () -> classify th call)) }
  in
  Hashtbl.filter_map_inplace (fun _ b -> Some (wrap_broker b)) k.Kstate.brokers;
  k.Kstate.broker <- Option.map wrap_broker k.Kstate.broker

let sum accs =
  let t = create () in
  List.iter
    (fun a ->
      Array.iteri (fun i v -> t.self_ns.(i) <- t.self_ns.(i) + v) a.self_ns;
      Array.iteri (fun i v -> t.calls.(i) <- t.calls.(i) + v) a.calls;
      t.top_ns <- t.top_ns + a.top_ns)
    accs;
  t

let self_s acc layer = float_of_int acc.self_ns.(index layer) /. 1e9
let calls acc layer = acc.calls.(index layer)
