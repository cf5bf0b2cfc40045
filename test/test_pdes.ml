(* Sharded (PDES) runs: cross-host gateway socket semantics, and the
   determinism contract — the same scenario run with any shard count must
   produce byte-identical digests, recordings and trace exports. *)

open Remon_kernel
open Remon_core
open Remon_sim
open Remon_workloads

let sys = Sched.syscall

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Harness: a small world with hand-written process bodies per host. *)

let make_world ?(latency = Vtime.us 200) n =
  World.create ~link_latency:latency ~n
    ~mk:(fun i -> Kernel.create ~seed:(41 + i) ())
    ()

let spawn w i name body =
  ignore
    (Kernel.spawn_process (World.kernel w i) ~name ~vm_seed:(17 + i) (fun () ->
         body ()))

(* ------------------------------------------------------------------ *)
(* Cross-host socket semantics *)

let test_cross_host_echo () =
  let w = make_world 2 in
  World.route w ~port:7000 ~host:0;
  let got = ref "" and eof = ref false and reply = ref "" in
  spawn w 0 "server" (fun () ->
      let sfd = Api.socket () in
      Api.bind sfd 7000;
      Api.listen sfd 8;
      let a = Api.accept sfd in
      got := Api.recv_exactly a.Syscall.conn_fd 5;
      ignore (Api.send a.Syscall.conn_fd "world!");
      Api.close a.Syscall.conn_fd);
  spawn w 1 "client" (fun () ->
      let fd = Api.socket () in
      Api.connect_retry fd 7000;
      ignore (Api.send fd "hello");
      reply := Api.recv_exactly fd 6;
      (* server closed: FIN arrives, reads hit EOF after the drain *)
      eof := String.length (Api.recv fd 64) = 0;
      Api.close fd);
  World.run w;
  check_string "request" "hello" !got;
  check_string "reply" "world!" !reply;
  check_bool "eof after fin" true !eof

let test_cross_host_refused () =
  let w = make_world 2 in
  (* routed to host 0, but nothing ever listens there *)
  World.route w ~port:7999 ~host:0;
  let refused = ref false and exhausted = ref false in
  spawn w 1 "client" (fun () ->
      let fd = Api.socket () in
      (match sys (Syscall.Connect (fd, 7999)) with
      | Syscall.Error Errno.ECONNREFUSED -> refused := true
      | _ -> ());
      (try Api.connect_retry ~attempts:3 fd 7999
       with Api.Connect_retries_exhausted _ -> exhausted := true));
  World.run w;
  check_bool "blocking connect refused" true !refused;
  check_bool "retry budget exhausted" true !exhausted

let test_cross_host_bulk_backpressure () =
  (* Far more data than any buffer: the credit window must throttle the
     sender and every byte must arrive, in order. *)
  let total = 1_000_000 in
  let chunk = String.init 4096 (fun i -> Char.chr (i land 0xff)) in
  let w = make_world 2 in
  World.route w ~port:7000 ~host:0;
  let received = Buffer.create total in
  spawn w 0 "sink" (fun () ->
      let sfd = Api.socket () in
      Api.bind sfd 7000;
      Api.listen sfd 8;
      let a = Api.accept sfd in
      let rec drain () =
        let d = Api.recv a.Syscall.conn_fd 65536 in
        if String.length d > 0 then begin
          Buffer.add_string received d;
          (* a slow consumer: forces the window to close periodically *)
          Api.compute 20_000;
          drain ()
        end
      in
      drain ();
      Api.close a.Syscall.conn_fd);
  spawn w 1 "source" (fun () ->
      let fd = Api.socket () in
      Api.connect_retry fd 7000;
      let sent = ref 0 in
      while !sent < total do
        let n = min (String.length chunk) (total - !sent) in
        let wrote = Api.send fd (String.sub chunk 0 n) in
        sent := !sent + wrote
      done;
      Api.close fd);
  World.run w;
  check_int "bytes delivered" total (Buffer.length received);
  (* spot-check content integrity at a few offsets *)
  let all = Buffer.contents received in
  List.iter
    (fun off ->
      check_int
        (Printf.sprintf "byte at %d" off)
        (off mod 4096 land 0xff)
        (Char.code all.[off]))
    [ 0; 4095; 40960; 999_999 ]

let test_cross_host_half_close () =
  (* shutdown(SHUT_WR) then read the response: the classic pattern that
     breaks if FIN tears down both directions *)
  let w = make_world 2 in
  World.route w ~port:7000 ~host:0;
  let request = ref "" and response = ref "" in
  spawn w 0 "server" (fun () ->
      let sfd = Api.socket () in
      Api.bind sfd 7000;
      Api.listen sfd 8;
      let a = Api.accept sfd in
      (* read until EOF — only the client's half-close ends this *)
      let buf = Buffer.create 64 in
      let rec drain () =
        let d = Api.recv a.Syscall.conn_fd 64 in
        if String.length d > 0 then begin
          Buffer.add_string buf d;
          drain ()
        end
      in
      drain ();
      request := Buffer.contents buf;
      ignore (Api.send a.Syscall.conn_fd ("ack:" ^ Buffer.contents buf));
      Api.close a.Syscall.conn_fd);
  spawn w 1 "client" (fun () ->
      let fd = Api.socket () in
      Api.connect_retry fd 7000;
      ignore (Api.send fd "GET /");
      ignore (Api.retrying "shutdown" (Syscall.Shutdown (fd, Syscall.Shut_wr)));
      response := Api.recv_exactly fd 9;
      Api.close fd);
  World.run w;
  check_string "request survives half-close" "GET /" !request;
  check_string "response flows after half-close" "ack:GET /" !response

let test_cross_host_reset_on_closed_peer () =
  (* data racing a peer close: the remote stack answers RST and the local
     writer observes EPIPE instead of blocking on exhausted credit *)
  let w = make_world 2 in
  World.route w ~port:7000 ~host:0;
  let epipe = ref false in
  spawn w 0 "slammer" (fun () ->
      let sfd = Api.socket () in
      Api.bind sfd 7000;
      Api.listen sfd 8;
      let a = Api.accept sfd in
      Api.close a.Syscall.conn_fd);
  spawn w 1 "writer" (fun () ->
      let fd = Api.socket () in
      (* like any real network writer: EPIPE, not death by SIGPIPE *)
      Api.sigaction Sigdefs.sigpipe Syscall.Sig_ignore;
      Api.connect_retry fd 7000;
      (try
         for _ = 1 to 500 do
           ignore (Api.send fd (String.make 1024 'x'));
           Api.nanosleep 100_000
         done
       with Api.Sys_error (Errno.EPIPE, _) -> epipe := true);
      Api.close fd);
  World.run w;
  check_bool "writer sees EPIPE after RST" true !epipe;
  let _, _, resets = Hostnet.stats (World.hostnet w 0) in
  check_bool "server gateway sent a reset" true (resets > 0)

let test_three_host_fan_in () =
  (* two client hosts hammer one server host concurrently; conn ids must
     not collide and every request must be answered *)
  let w = make_world 3 in
  World.route w ~port:7000 ~host:0;
  let answered = Array.make 2 0 in
  spawn w 0 "server" (fun () ->
      let sfd = Api.socket () in
      Api.bind sfd 7000;
      Api.listen sfd 16;
      for _ = 1 to 10 do
        let a = Api.accept sfd in
        let q = Api.recv_exactly a.Syscall.conn_fd 4 in
        ignore (Api.send a.Syscall.conn_fd ("re:" ^ q));
        Api.close a.Syscall.conn_fd
      done);
  for c = 0 to 1 do
    spawn w (c + 1)
      (Printf.sprintf "client%d" c)
      (fun () ->
        for r = 1 to 5 do
          let fd = Api.socket () in
          Api.connect_retry fd 7000;
          ignore (Api.send fd (Printf.sprintf "%d-%02d" c r));
          let rep = Api.recv_exactly fd 7 in
          if String.length rep = 7 && String.sub rep 0 3 = "re:" then
            answered.(c) <- answered.(c) + 1;
          Api.close fd
        done)
  done;
  World.run w;
  check_int "client 0 answered" 5 answered.(0);
  check_int "client 1 answered" 5 answered.(1)

let test_tie_delivers_in_source_order () =
  (* hosts 2 and 1 connect at the same virtual instant (routes declared in
     that order, so the pairs are created 2 first): the SYNs tie on
     delivery time, and the canonical (at, src, seq) order hands host 0
     host 1's connection first, at any shard count *)
  let order shards =
    let w = make_world 3 in
    World.route w ~port:7000 ~host:0 ~initiators:[ 2; 1 ];
    let got = Buffer.create 2 in
    spawn w 0 "server" (fun () ->
        let sfd = Api.socket () in
        Api.bind sfd 7000;
        Api.listen sfd 8;
        for _ = 1 to 2 do
          let a = Api.accept sfd in
          Buffer.add_string got (Api.recv_exactly a.Syscall.conn_fd 1);
          Api.close a.Syscall.conn_fd
        done);
    List.iter
      (fun c ->
        spawn w c "client" (fun () ->
            let fd = Api.socket () in
            Api.connect_retry fd 7000;
            ignore (Api.send fd (string_of_int c));
            Api.close fd))
      [ 1; 2 ];
    World.run ~shards w;
    Buffer.contents got
  in
  List.iter
    (fun shards ->
      check_string (Printf.sprintf "accept order, shards %d" shards) "12"
        (order shards))
    [ 1; 2; 3 ]

let test_conservative_violation () =
  (* host 1's clock is pushed to 10 ms before the run, so the SYN host 0
     sends at the start reaches it in its past. The typed fail-stop must
     surface from World.run with the same payload whether host 1 is
     drained on the calling domain (shards 1) or on a worker (shards 2). *)
  let provoke shards =
    let w = make_world 2 in
    World.route w ~port:7000 ~host:1;
    let s1 = Kernel.sched (World.kernel w 1) in
    Sched.schedule s1 ~time:(Vtime.ms 10) ignore;
    Sched.run s1;
    spawn w 0 "client" (fun () ->
        ignore (sys (Syscall.Connect (Api.socket (), 7000))));
    match World.run ~shards w with
    | () -> Alcotest.failf "shards %d: stale message was delivered" shards
    | exception World.Conservative_violation { src; dst; at; clock } ->
      (src, dst, Vtime.to_int_ns at, Vtime.to_int_ns clock)
  in
  let ((src, dst, at, clock) as v1) = provoke 1 in
  check_int "sender" 0 src;
  check_int "destination" 1 dst;
  check_int "destination clock" 10_000_000 clock;
  check_bool "delivery at least one latency after the start" true
    (at >= 200_000 && at < clock);
  check_bool "same violation at shards 2" true (provoke 2 = v1)

let test_lowest_violation_wins () =
  (* two independent pairs 0->1 and 2->3 break the contract in the same
     round, on different shards from 2 shards up. World.run must raise
     host 1's violation, as the sequential loop does, whatever order the
     shards finish in; repeated because a timing-dependent pick would only
     fail some of the time *)
  let provoke shards =
    let w = make_world 4 in
    World.route w ~port:7000 ~host:1 ~initiators:[ 0 ];
    World.route w ~port:7001 ~host:3 ~initiators:[ 2 ];
    List.iter
      (fun (host, ms) ->
        let s = Kernel.sched (World.kernel w host) in
        Sched.schedule s ~time:(Vtime.ms ms) ignore;
        Sched.run s)
      [ (1, 10); (3, 20) ];
    List.iter
      (fun (host, port) ->
        spawn w host "client" (fun () ->
            ignore (sys (Syscall.Connect (Api.socket (), port)))))
      [ (0, 7000); (2, 7001) ];
    match World.run ~shards w with
    | () -> Alcotest.failf "shards %d: stale messages were delivered" shards
    | exception World.Conservative_violation { src; dst; clock; _ } ->
      (src, dst, Vtime.to_int_ns clock)
  in
  let v1 = provoke 1 in
  check_bool "host 1's violation at shards 1" true (v1 = (0, 1, 10_000_000));
  List.iter
    (fun shards ->
      for _ = 1 to 10 do
        check_bool
          (Printf.sprintf "same violation at shards %d" shards)
          true (provoke shards = v1)
      done)
    [ 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* The determinism contract *)

let compare_results label (a : Topology.result) (b : Topology.result) =
  check_string (label ^ ": digest") a.Topology.digest b.Topology.digest;
  check_int (label ^ ": recording count")
    (List.length a.Topology.recordings)
    (List.length b.Topology.recordings);
  List.iter2
    (fun (h1, r1) (h2, r2) ->
      check_int (label ^ ": recording host") h1 h2;
      check_string
        (Printf.sprintf "%s: recording bytes (host %d)" label h1)
        (Recording.to_string r1) (Recording.to_string r2))
    a.Topology.recordings b.Topology.recordings;
  List.iter2
    (fun (h1, t1) (h2, t2) ->
      check_int (label ^ ": trace host") h1 h2;
      check_string (Printf.sprintf "%s: trace (host %d)" label h1) t1 t2)
    a.Topology.traces b.Topology.traces

let test_shard_invariance_corpus () =
  List.iter
    (fun sc ->
      let label = Printf.sprintf "scenario %d" sc.Topology.id in
      let r1 = Topology.run ~shards:1 ~with_obs:true sc in
      (* the runs must do real work, or the comparison is vacuous *)
      check_bool (label ^ ": responses flowed") true (r1.Topology.responses > 0);
      check_bool (label ^ ": multiple rounds") true (r1.Topology.rounds > 1);
      let r2 = Topology.run ~shards:2 ~with_obs:true sc in
      compare_results (label ^ " 1v2") r1 r2;
      let rn =
        Topology.run ~shards:(sc.Topology.server_hosts + 1) ~with_obs:true sc
      in
      compare_results (label ^ " 1vN") r1 rn)
    (Topology.corpus ~n:4)

let test_shard_invariance_with_faults () =
  (* chaos on host 0 (delay or crash) must not perturb shard invariance *)
  let base =
    {
      Topology.id = 900;
      seed = 424_242;
      server_hosts = 3;
      nreplicas = 2;
      backend = Mvee.Remon;
      arch = Servers.Epoll_loop;
      requests_per_server = 10;
      concurrency = 2;
      requests_per_conn = 2;
      link_latency = Vtime.us 250;
      faults = "delay@9:1=800us";
      record = true;
    }
  in
  List.iter
    (fun faults ->
      let sc = { base with Topology.faults } in
      let r1 = Topology.run ~shards:1 sc in
      let r4 = Topology.run ~shards:4 sc in
      compare_results ("faults=" ^ faults) r1 r4)
    [ "delay@9:1=800us"; "crash@15:1" ]

let test_digest_independent_of_obs () =
  let sc = List.hd (Topology.corpus ~n:1) in
  let bare = Topology.run ~shards:1 sc in
  let traced = Topology.run ~shards:1 ~with_obs:true sc in
  check_string "digest ignores tracing" bare.Topology.digest
    traced.Topology.digest;
  check_bool "traces collected when asked" true
    (List.length traced.Topology.traces > 0)

let test_oversubscribed_shards () =
  (* more shards than hosts: clamped, still identical *)
  let sc = List.hd (Topology.corpus ~n:1) in
  let r1 = Topology.run ~shards:1 sc in
  let r9 = Topology.run ~shards:9 sc in
  compare_results "oversubscribed" r1 r9

(* ------------------------------------------------------------------ *)
(* Adaptive lookahead: conservative safety and mode invariance.

   The fixed (single-latency) mode is the reference CMB algorithm, so it
   doubles as the conservative-safety oracle: if the adaptive bounds ever
   let a cross-host message act earlier than the single-latency bound
   would allow, some delivery interleaving changes and the digest
   diverges. On top of that, World's drain raises
   World.Conservative_violation if a drained message's delivery time is
   already in a shard's past — the direct "never delivered early" check,
   always on, in every run below. *)

let test_mode_invariance_corpus () =
  List.iter
    (fun sc ->
      let label = Printf.sprintf "scenario %d" sc.Topology.id in
      let ad = Topology.run ~shards:1 sc in
      let fx1 = Topology.run ~shards:1 ~mode:World.Fixed sc in
      compare_results (label ^ " adaptive v fixed") ad fx1;
      let fx2 = Topology.run ~shards:2 ~mode:World.Fixed sc in
      compare_results (label ^ " adaptive v fixed s2") ad fx2)
    (Topology.corpus ~n:2)

let test_block_placement () =
  (* the 2000-host herd of the perf runs: cell c is server 2c and client
     2c+1, and its whole link traffic must stay on one shard *)
  let n = 2000 and shards = 2 in
  for c = 0 to (n / 2) - 1 do
    let shard i = World.shard_of ~n ~shards i in
    if shard (2 * c) <> shard ((2 * c) + 1) then
      Alcotest.failf "cell %d straddles shards" c
  done;
  let counts = Array.make shards 0 in
  for i = 0 to n - 1 do
    let s = World.shard_of ~n ~shards i in
    counts.(s) <- counts.(s) + 1
  done;
  let lo = Array.fold_left min max_int counts
  and hi = Array.fold_left max 0 counts in
  check_bool "shard host counts differ by at most one" true (hi - lo <= 1)

let test_herd_invariance () =
  let herd =
    {
      Topology.h_seed = 7;
      cells = 3;
      conns_per_cell = 5;
      rounds_per_conn = 2;
      payload = 32;
      think_ns = 1_000_000;
      stagger_ns = 200_000;
      h_link_latency = Vtime.us 150;
    }
  in
  let r1 = Topology.run_herd ~shards:1 herd in
  check_int "every request served" (3 * 5 * 2) r1.Topology.hr_served;
  check_int "every response arrived" (3 * 5 * 2) r1.Topology.hr_responses;
  check_int "no errors" 0 r1.Topology.hr_errors;
  check_bool "multiple rounds" true (r1.Topology.hr_rounds > 1);
  let r2 = Topology.run_herd ~shards:2 herd in
  let rn = Topology.run_herd ~shards:6 herd in
  let fx = Topology.run_herd ~shards:2 ~mode:World.Fixed herd in
  check_string "herd digest 1v2" r1.Topology.hr_digest r2.Topology.hr_digest;
  check_string "herd digest 1vN" r1.Topology.hr_digest rn.Topology.hr_digest;
  (* 6 hosts: at shards 3 every cell sits on one shard, at shards 4 the
     middle cell (hosts 2, 3) is split, so cross-shard delivery runs too *)
  let same_shard shards c =
    let shard i = World.shard_of ~n:6 ~shards i in
    shard (2 * c) = shard ((2 * c) + 1)
  in
  check_bool "shards 3 keeps cells together" true
    (List.for_all (same_shard 3) [ 0; 1; 2 ]);
  check_bool "shards 4 splits a cell" false (same_shard 4 1);
  List.iter
    (fun shards ->
      let r = Topology.run_herd ~shards herd in
      check_string
        (Printf.sprintf "herd digest 1v%d" shards)
        r1.Topology.hr_digest r.Topology.hr_digest;
      check_string
        (Printf.sprintf "herd digest fixed v %d" shards)
        fx.Topology.hr_digest r.Topology.hr_digest)
    [ 3; 4 ];
  check_string "herd digest adaptive v fixed" r1.Topology.hr_digest
    fx.Topology.hr_digest;
  check_bool "adaptive needs no more rounds than fixed" true
    (r1.Topology.hr_rounds <= fx.Topology.hr_rounds)

let gen_herd =
  QCheck2.Gen.(
    map
      (fun ((cells, conns, rounds), (payload, think_us, stagger_us), lat_us, seed) ->
        {
          Topology.h_seed = seed;
          cells;
          conns_per_cell = conns;
          rounds_per_conn = rounds;
          payload;
          think_ns = think_us * 1_000;
          stagger_ns = stagger_us * 1_000;
          h_link_latency = Vtime.us lat_us;
        })
      (quad
         (triple (int_range 1 4) (int_range 1 6) (int_range 1 3))
         (triple (int_range 1 96) (int_range 0 1500) (int_range 10 800))
         (int_range 50 400) (int_range 0 10_000)))

let prop_adaptive_conservative =
  QCheck2.Test.make
    ~name:"adaptive lookahead never beats the single-latency oracle" ~count:25
    gen_herd
    (fun herd ->
      (* sharded adaptive vs sequential fixed: one digest check covers
         both axes at once, and each run re-verifies the in-kernel
         delivered-in-the-past fail-stop *)
      let ad = Topology.run_herd ~shards:2 herd in
      let fx = Topology.run_herd ~shards:1 ~mode:World.Fixed herd in
      if ad.Topology.hr_digest <> fx.Topology.hr_digest then
        QCheck2.Test.fail_reportf
          "digest diverged for %s:\nadaptive(s2): %s\nfixed(s1):    %s"
          (Topology.render_herd herd) ad.Topology.hr_digest
          fx.Topology.hr_digest;
      true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "pdes"
    [
      ( "gateway",
        [
          Alcotest.test_case "cross-host echo + EOF" `Quick
            test_cross_host_echo;
          Alcotest.test_case "connect refused over the wire" `Quick
            test_cross_host_refused;
          Alcotest.test_case "bulk transfer under credit backpressure" `Quick
            test_cross_host_bulk_backpressure;
          Alcotest.test_case "half-close keeps the reverse path" `Quick
            test_cross_host_half_close;
          Alcotest.test_case "reset on data-after-close" `Quick
            test_cross_host_reset_on_closed_peer;
          Alcotest.test_case "three-host fan-in" `Quick test_three_host_fan_in;
          Alcotest.test_case "delivery ties break by source host" `Quick
            test_tie_delivers_in_source_order;
          Alcotest.test_case "stale message fails stop, typed" `Quick
            test_conservative_violation;
          Alcotest.test_case "lowest host's violation wins" `Quick
            test_lowest_violation_wins;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "corpus: shards 1 = 2 = N" `Slow
            test_shard_invariance_corpus;
          Alcotest.test_case "fault chaos is shard-invariant" `Slow
            test_shard_invariance_with_faults;
          Alcotest.test_case "digest independent of tracing" `Quick
            test_digest_independent_of_obs;
          Alcotest.test_case "shards clamp to host count" `Quick
            test_oversubscribed_shards;
          Alcotest.test_case "block placement keeps cells together" `Quick
            test_block_placement;
        ] );
      ( "adaptive lookahead",
        [
          Alcotest.test_case "corpus: adaptive = fixed" `Slow
            test_mode_invariance_corpus;
          Alcotest.test_case "herd: shards and modes agree" `Quick
            test_herd_invariance;
          QCheck_alcotest.to_alcotest prop_adaptive_conservative;
        ] );
    ]
