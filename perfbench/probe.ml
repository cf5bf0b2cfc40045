(* A fixed host-speed probe, independent of the simulator's code: a small
   discrete-event loop of effect-handler coroutines over a binary heap,
   doing the simulator's kind of work (closure and continuation
   allocation, heap sifts, hashtable churn). Its duration tracks the speed
   the host gives this process at the moment, and it never changes with
   the program under test. *)

type _ Effect.t += Yield : int -> unit Effect.t

let fibers = 2_000
let steps = 40

let run () =
  let heap = ref [||] and size = ref 0 and seq = ref 0 and now = ref 0 in
  let less (t1, s1, _) (t2, s2, _) = t1 < t2 || (t1 = t2 && s1 < s2) in
  let push x =
    if !size = Array.length !heap then begin
      let a = Array.make (max 16 (2 * !size)) x in
      Array.blit !heap 0 a 0 !size;
      heap := a
    end;
    let a = !heap and i = ref !size in
    incr size;
    while !i > 0 && less x a.((!i - 1) / 2) do
      a.(!i) <- a.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    a.(!i) <- x
  in
  let pop () =
    let a = !heap in
    let top = a.(0) in
    decr size;
    let x = a.(!size) and i = ref 0 and go = ref true in
    while !go do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < !size && less a.(l + 1) a.(l) then l + 1 else l in
      if l < !size && less a.(c) x then begin
        a.(!i) <- a.(c);
        i := c
      end
      else go := false
    done;
    if !size > 0 then a.(!i) <- x;
    top
  in
  let schedule dt k =
    incr seq;
    push (!now + dt, !seq, k)
  in
  let table = Hashtbl.create 1024 in
  let fiber id () =
    let x = ref id in
    for step = 1 to steps do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      Hashtbl.replace table ((id * steps) + step) (string_of_int !x);
      if step > 4 then Hashtbl.remove table ((id * steps) + step - 4);
      Effect.perform (Yield (1 + (!x mod 1000)))
    done
  in
  let handler =
    {
      Effect.Deep.retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield dt ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                schedule dt (fun () -> Effect.Deep.continue k ()))
          | _ -> None);
    }
  in
  for id = 0 to fibers - 1 do
    schedule id (fun () -> Effect.Deep.match_with (fiber id) () handler)
  done;
  while !size > 0 do
    let t, _, k = pop () in
    now := t;
    k ()
  done;
  ignore (Sys.opaque_identity (Hashtbl.length table))

let seconds () =
  let t0 = Monotonic_clock.now () in
  run ();
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9
