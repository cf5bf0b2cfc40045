(* Multi-host world: conservative-parallel (PDES) shard runner.

   Each simulated host owns a whole kernel — processes, scheduler, event
   queue, VFS, network — outright, and each shard (one domain) runs a
   contiguous block of hosts. The only cross-host
   state is the set of typed [Link]s between the per-host [Hostnet]
   gateways, and every link carries a fixed positive latency that doubles
   as the conservative synchronizer's lookahead.

   The runner is barrier-synchronous (CMB-style null messages collapsed
   into a coordinator round):

     1. E_i  = min(next local event time, earliest queued inbound message)
     2. compute per-host frontiers F_i ("host i cannot act, and hence
        cannot send, before F_i") and execution bounds bound_i ("no
        message host i has not yet seen can arrive before bound_i") —
        see the two modes below
     3. every shard takes its hosts in turn: it drains the host's inbound
        messages with at < bound_i, scheduling each as a pre-lane local
        event at its delivery time so they run in canonical (at, src
        host, link seq) order, then runs the host's events strictly below
        bound_i ([Sched.run_before])
     4. barrier; repeat until every E_i is infinite.

   [Fixed] mode is the single-latency bound: F_i = min(E_i, min_j E_j + L)
   and bound_i = min over j <> i of F_j + L, over all host pairs (the
   closed form of the full-mesh fixed point — with one uniform latency the
   relaxation converges in one pass, so it reduces to the global minimum
   and second minimum of F). It is retained as the reference algorithm and
   as the conservative-safety oracle for the property tests.

   [Adaptive] mode (the default) extends the fixed point with per-pair
   earliest-output guarantees so a bound can advance past a single link
   latency when inbound links are provably idle. For each *active* ordered
   host pair (j, i) — active pairs are tracked lazily, a superset of pairs
   that may ever exchange a message — S_ji is a sound lower bound on the
   next instant j may send a message towards i:

     S_ji = F_j                      if j holds the capability to send to
                                     i spontaneously (a remote route or a
                                     live connection towards i —
                                     [Hostnet.sends_to])
     S_ji = min(peek(link i->j),     otherwise: j can only send to i as a
                S_ij + L)            *reaction* to a message from i, and
                                     the earliest such message arrives at
                                     the earliest queued one or one
                                     latency after i's own next send

     F_i     = min(E_i, min over inbound pairs (S_ji + L))
     bound_i = min over inbound pairs (S_ji + L)   (infinity if no pairs)

   Initialized at infinity and relaxed monotonically downward to the
   greatest fixed point (Bellman-Ford style; every pass only lowers
   values, floored by the E's and queued-message peeks, so it
   terminates).

   Soundness sketch (the full argument is DESIGN.md §16): suppose for
   contradiction some host j sends a message towards i at a virtual time
   tau < S_ji, and take the earliest such violation in the round. Either
   j held the send capability at round start — then S_ji = F_j, and F_j
   <= tau because j cannot execute an event before its frontier — or j
   acquired the capability during the round, which in this kernel happens
   only by *reacting* to an inbound message from i (connection creation
   via SYN arrival; routes are static and pre-run). That message arrived
   at some sigma <= tau, and it was either already queued on link i->j at
   bound time (sigma >= peek(i->j) >= S_ji) or sent by i during the round
   (sigma >= S_ij + L >= S_ji, no earlier violation). Both contradict
   tau < S_ji. The invariant making peek sufficient is that every message
   drained in an earlier round has also been *executed* in that round
   (drained messages satisfy at < bound, and shards run strictly to their
   bound), so un-executed cross-host work lives only on links whenever
   bounds are computed.

   Every drained message is additionally checked against the destination
   kernel's clock — a conservative violation raises [Conservative_violation]
   immediately instead of silently reordering, so the property tests (and
   every production run) have teeth.

   Placement and draining: host i runs on shard [shard_of ~n ~shards i] =
   i * shards / n, contiguous blocks. The topology builders number linked
   hosts next to each other (a herd cell is hosts 2c and 2c+1), so most
   link traffic stays inside one domain. Each shard drains its own hosts'
   inbound links at the start of its parallel phase, host by host, right
   before running that host. That is safe while other shards run: a
   sender executing concurrently acts at or after its S_ji, so it can only
   append messages with at >= bound_i, and it appends them to the tail of
   a FIFO that is already ordered by [at]. The drained prefix is therefore
   a pure function of virtual time, whichever domain drains and whenever.
   Inbound pairs are kept sorted by source host, and each link's queue is
   in (at, seq) order; the pre-lane of the scheduler keeps insertion
   order at a time tie, so scheduling link after link in source order
   makes the event queue deliver in the canonical (at, src, seq) order
   without a sort.

   Determinism across shard counts: rounds are identical whether shards
   run sequentially or on domains — bounds depend only on post-barrier
   state, the set and delivery order of drained messages depend only on
   virtual time, link sequence numbers are assigned by the
   (single-threaded) sending host in its own deterministic event order,
   and hosts share no other state. Placement is not part of the contract.
   The [shards = 1] path is the very same round body (drain host, run
   host) with the domain barrier elided, so outcome digests, recordings
   and traces are byte-identical at any shard count. Adaptive and fixed
   mode partition the same event executions into different rounds;
   because drained messages are delivered through the scheduler's
   pre-lane (ahead of any same-instant local event, regardless of
   insertion round), the per-host event order — and hence every
   observable outcome — is also identical across modes.

   Scale: links and pair records are created lazily (first use), under a
   world mutex — a million-connection world touches a few thousand host
   pairs, not an eager n^2 mesh. *)

open Remon_kernel
open Remon_sim

type mode = Fixed | Adaptive

exception Conservative_violation of {
  src : int;
  dst : int;
  at : Vtime.t;
  clock : Vtime.t;
}

let () =
  Printexc.register_printer (function
    | Conservative_violation { src; dst; at; clock } ->
      Some
        (Printf.sprintf
           "World.Conservative_violation: message from host %d at %dns is \
            behind host %d's clock %dns"
           src (Vtime.to_int_ns at) dst (Vtime.to_int_ns clock))
    | _ -> None)

type host = { idx : int; kernel : Kernel.t; hostnet : Hostnet.t }

(* One direction of an active host pair. [p_rev] is the opposite
   direction; both are created together with their links. *)
type pair = {
  p_src : int;
  p_dst : int;
  p_link : Link.t; (* carries p_src -> p_dst *)
  mutable p_s : Vtime.t; (* S_{src,dst} relaxation scratch *)
  p_rev : pair;
}

type t = {
  hosts : host array;
  link_latency : Vtime.t;
  mu : Mutex.t; (* guards pairs/in_pairs mutation (lazy creation) *)
  pairs : (int, pair) Hashtbl.t; (* src * n + dst -> pair *)
  in_pairs : pair list array;
      (* inbound pairs per destination host, sorted by source host *)
  frontier : Vtime.t array; (* F_i scratch *)
  bound : Vtime.t array; (* per-round execution bounds *)
  mutable mode : mode;
  mutable rounds : int;
}

(* Saturating add: [Vtime.infinity] is [max_int], so a plain add would
   wrap around. *)
let ( +! ) a b = if Vtime.is_finite a then Vtime.add a b else Vtime.infinity

let ensure_pair t ~src ~dst =
  let n = Array.length t.hosts in
  let key = (src * n) + dst in
  Mutex.lock t.mu;
  let p =
    match Hashtbl.find_opt t.pairs key with
    | Some p -> p
    | None ->
      let fwd = Link.create ~src ~dst ~latency:t.link_latency in
      let bwd = Link.create ~src:dst ~dst:src ~latency:t.link_latency in
      let rec pa =
        { p_src = src; p_dst = dst; p_link = fwd; p_s = Vtime.infinity; p_rev = pb }
      and pb =
        { p_src = dst; p_dst = src; p_link = bwd; p_s = Vtime.infinity; p_rev = pa }
      in
      Hashtbl.replace t.pairs key pa;
      Hashtbl.replace t.pairs ((dst * n) + src) pb;
      let rec insert p = function
        | q :: rest when q.p_src < p.p_src -> q :: insert p rest
        | l -> p :: l
      in
      t.in_pairs.(dst) <- insert pa t.in_pairs.(dst);
      t.in_pairs.(src) <- insert pb t.in_pairs.(src);
      pa
  in
  Mutex.unlock t.mu;
  p

let create ?(link_latency = Vtime.ns (Cost_model.link_latency Cost_model.default))
    ~n ~(mk : int -> Kernel.t) () =
  if n < 1 then invalid_arg "World.create: need at least one host";
  let kernels = Array.init n mk in
  let hostnets = Array.init n (fun i -> Hostnet.create ~host:i kernels.(i)) in
  let hosts =
    Array.init n (fun i ->
        { idx = i; kernel = kernels.(i); hostnet = hostnets.(i) })
  in
  let t =
    {
      hosts;
      link_latency;
      mu = Mutex.create ();
      pairs = Hashtbl.create 64;
      in_pairs = Array.make n [];
      frontier = Array.make n Vtime.infinity;
      bound = Array.make n Vtime.infinity;
      mode = Adaptive;
      rounds = 0;
    }
  in
  (* links come into existence on first use; the gateway asks us *)
  Array.iter
    (fun h ->
      Hostnet.set_link_resolver h.hostnet (fun ~dst ->
          (ensure_pair t ~src:h.idx ~dst).p_link))
    hosts;
  t

let n_hosts t = Array.length t.hosts
let kernel t i = t.hosts.(i).kernel
let hostnet t i = t.hosts.(i).hostnet
let rounds t = t.rounds

(* Declare that [port] is served from [host]. [initiators] is the set of
   hosts that may ever *connect* to it (defaults to every host); only
   those get the route entry — the owning host falls through to its local
   listener table either way — and only those become active pairs with the
   owner. Narrowing the initiator set is what lets adaptive lookahead
   decouple unrelated host groups. *)
let route ?initiators t ~port ~host =
  let inits =
    match initiators with
    | Some l -> l
    | None -> List.init (Array.length t.hosts) Fun.id
  in
  List.iter
    (fun i ->
      Hostnet.add_route t.hosts.(i).hostnet ~port ~host;
      if i <> host then ignore (ensure_pair t ~src:i ~dst:host : pair))
    inits

let link_stats t =
  Hashtbl.fold (fun _ p acc -> p :: acc) t.pairs []
  |> List.map (fun p ->
         let sent, bytes = Link.stats p.p_link in
         (p.p_src, p.p_dst, sent, bytes))
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* The synchronizer *)

(* E_i: the earliest instant host i could possibly act — its next local
   event or the earliest queued inbound message. *)
let compute_horizons t =
  let n = Array.length t.hosts in
  let live = ref false in
  for i = 0 to n - 1 do
    let h = t.hosts.(i) in
    let local = Sched.next_event_time (Kernel.sched h.kernel) in
    let e =
      List.fold_left
        (fun acc p -> Vtime.min acc (Link.peek_at p.p_link))
        local t.in_pairs.(i)
    in
    t.frontier.(i) <- e;
    if Vtime.is_finite e then live := true
  done;
  !live

(* Fixed (single-latency) bounds over all host pairs: the closed form of
   the uniform-latency full-mesh fixed point. O(n). *)
let fixed_bounds t =
  let n = Array.length t.hosts in
  let l = t.link_latency in
  let gm = ref Vtime.infinity in
  for i = 0 to n - 1 do
    gm := Vtime.min !gm t.frontier.(i)
  done;
  (* F_i = min(E_i, gm + L); then bound_i needs min over j <> i of F_j,
     i.e. the global minimum — or the second minimum at its unique
     argmin. *)
  let m1 = ref Vtime.infinity and m2 = ref Vtime.infinity and arg = ref (-1) in
  for i = 0 to n - 1 do
    let f = Vtime.min t.frontier.(i) (!gm +! l) in
    t.frontier.(i) <- f;
    if Vtime.(f < !m1) then begin
      m2 := !m1;
      m1 := f;
      arg := i
    end
    else if Vtime.(f < !m2) then m2 := f
  done;
  if n = 1 then t.bound.(0) <- Vtime.infinity
  else
    for i = 0 to n - 1 do
      t.bound.(i) <- (if i = !arg then !m2 else !m1) +! l
    done

(* Adaptive bounds: relax per-pair earliest-output guarantees S and the
   frontiers F downward to their (greatest) fixed point. Touches only
   active pairs, so the cost is O(pairs * passes), and hosts with no
   active pairs get an infinite bound — they are provably isolated and
   run to completion in one round. *)
let adaptive_bounds t =
  let n = Array.length t.hosts in
  let l = t.link_latency in
  Hashtbl.iter (fun _ p -> p.p_s <- Vtime.infinity) t.pairs;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      (* S for each inbound pair (j -> i), then F_i from them *)
      let f = ref t.frontier.(i) in
      List.iter
        (fun p ->
          let j = p.p_src in
          let sv =
            if Hostnet.sends_to t.hosts.(j).hostnet i then t.frontier.(j)
            else
              Vtime.min (Link.peek_at p.p_rev.p_link) (p.p_rev.p_s +! l)
          in
          if Vtime.compare sv p.p_s < 0 then begin
            p.p_s <- sv;
            changed := true
          end;
          f := Vtime.min !f (p.p_s +! l))
        t.in_pairs.(i);
      if Vtime.(!f < t.frontier.(i)) then begin
        t.frontier.(i) <- !f;
        changed := true
      end
    done
  done;
  for i = 0 to n - 1 do
    t.bound.(i) <-
      List.fold_left
        (fun acc p -> Vtime.min acc (p.p_s +! l))
        Vtime.infinity t.in_pairs.(i)
  done

(* Computes E, F and the per-host bounds; returns [true] while there is
   work left anywhere. *)
let compute_bounds t =
  let live = compute_horizons t in
  (if live then
     match t.mode with
     | Fixed -> fixed_bounds t
     | Adaptive -> adaptive_bounds t);
  live

(* Drain every inbound message of host [i] below its bound and schedule
   each as a pre-lane local event at its delivery time. Runs on the shard
   that owns [i], before it runs [i]; see the header for why concurrent
   senders cannot change what is drained. Links are visited in source
   order and each is FIFO in (at, seq), so the pre-lane's tie order makes
   delivery follow the canonical (at, src, seq) order. [in_pairs] is read
   under the world mutex: lazy pair creation may replace it meanwhile. *)
let drain_host t i =
  let h = t.hosts.(i) in
  let bound = t.bound.(i) in
  let sched = Kernel.sched h.kernel in
  let clock = Sched.now sched in
  Mutex.lock t.mu;
  let pairs = t.in_pairs.(i) in
  Mutex.unlock t.mu;
  List.iter
    (fun p ->
      let src = p.p_src in
      List.iter
        (fun (m : Link.msg) ->
          (* the conservative contract, checked on every delivery: a
             message must never arrive behind the destination's clock *)
          if Vtime.(m.Link.at < clock) then
            raise
              (Conservative_violation { src; dst = i; at = m.Link.at; clock });
          Sched.schedule_pre sched ~time:m.Link.at (fun () ->
              Hostnet.apply h.hostnet ~src m))
        (Link.drain_before p.p_link ~bound))
    pairs

(* One host's share of a round: drain its inbound links, then run it
   strictly below its bound. *)
let run_host t i =
  drain_host t i;
  Sched.run_before (Kernel.sched t.hosts.(i).kernel) ~bound:t.bound.(i)

(* ------------------------------------------------------------------ *)
(* Execution *)

(* Contiguous blocks: host [i] of [n] runs on shard [i * shards / n].
   Block sizes differ by at most one, and hosts numbered next to each
   other share a shard — which is how the topology builders number
   linked hosts (a herd cell is hosts 2c and 2c+1). *)
let shard_of ~n ~shards i = i * min shards n / n

(* The conservative round loop; [phase] runs every shard's hosts for one
   round and returns once all of them reached their bound. *)
let round_loop t ~phase =
  while compute_bounds t do
    t.rounds <- t.rounds + 1;
    phase ()
  done

(* Parallel rounds on persistent domains. The barrier is a mutex/condvar
   phase counter rather than a spin loop: shards may outnumber cores (the
   determinism contract must hold on a 1-CPU box too), and a spinning
   coordinator would stall the very workers it waits for. The monitor
   gives the happens-before edges both ways — the coordinator's bounds are
   visible to workers, worker event processing and draining (and lazy
   pair creation, which is additionally guarded by the world mutex) is
   visible to the next bound computation. Every shard, the coordinator's
   included, keeps its exception in [failures] and stops there, as the
   sequential loop would at that host. After the barrier the coordinator
   re-raises the lowest shard's, unchanged and with its backtrace: blocks
   are contiguous, so that is the failure of the lowest host, which is
   the one [shards = 1] raises whatever the thread timing. *)
let run_par t ~shards ~run_shard =
  let m = Mutex.create () in
  let cv = Condition.create () in
  let phase = ref 0 in
  let done_count = ref 0 in
  let stop = ref false in
  let failures = Array.make shards None in
  let run_caught s =
    try run_shard s
    with e -> failures.(s) <- Some (e, Printexc.get_raw_backtrace ())
  in
  let worker s =
    let seen = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock m;
      while !phase = !seen && not !stop do
        Condition.wait cv m
      done;
      seen := !phase;
      let stopping = !stop in
      Mutex.unlock m;
      if stopping then running := false
      else begin
        run_caught s;
        Mutex.lock m;
        incr done_count;
        Condition.broadcast cv;
        Mutex.unlock m
      end
    done
  in
  let domains =
    List.init (shards - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
  in
  let release_and_join () =
    Mutex.lock m;
    stop := true;
    Condition.broadcast cv;
    Mutex.unlock m;
    List.iter Domain.join domains
  in
  let parallel_phase () =
    Mutex.lock m;
    done_count := 0;
    incr phase;
    Condition.broadcast cv;
    Mutex.unlock m;
    run_caught 0;
    Mutex.lock m;
    while !done_count < shards - 1 do
      Condition.wait cv m
    done;
    Mutex.unlock m;
    Option.iter
      (fun (e, bt) -> Printexc.raise_with_backtrace e bt)
      (Array.find_map Fun.id failures)
  in
  (try round_loop t ~phase:parallel_phase
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     release_and_join ();
     Printexc.raise_with_backtrace e bt);
  release_and_join ()

let run ?(shards = 1) ?(mode = Adaptive) t =
  if shards < 1 then invalid_arg "World.run: shards must be >= 1";
  t.mode <- mode;
  let n = Array.length t.hosts in
  let shards = min shards n in
  let owned = Array.make shards [] in
  for i = n - 1 downto 0 do
    let s = shard_of ~n ~shards i in
    owned.(s) <- i :: owned.(s)
  done;
  let run_shard s = List.iter (run_host t) owned.(s) in
  if shards = 1 then round_loop t ~phase:(fun () -> run_shard 0)
  else run_par t ~shards ~run_shard
