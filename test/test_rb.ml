(* Tests for the replication buffer, the file map, the epoll shadow map and
   the record/replay log — the shared-memory substrate of IP-MON. *)

open Remon_kernel
open Remon_core
module Rb = Replication_buffer

let mk ?(size = 4096) ?(nreplicas = 2) () = Rb.create ~size_bytes:size ~nreplicas

let read_call = Syscall.Read (4, 64)

let test_rb_basic_flow () =
  let rb = mk () in
  let e = Rb.master_append rb ~rank:0 ~call:read_call ~expect_block:false ~forwarded:false in
  Alcotest.(check int) "seq starts at 0" 0 e.Rb.seq;
  (* slave sees the record, but no result yet *)
  (match Rb.slave_lookup rb ~rank:0 ~variant:1 with
  | Some e' ->
    Alcotest.(check bool) "same record" true (e == e');
    Alcotest.(check bool) "no result yet" true (e'.Rb.result = None)
  | None -> Alcotest.fail "slave should see the record");
  let need_wake = Rb.master_publish rb e (Syscall.Ok_data "abc") in
  Alcotest.(check bool) "no waiters: wake skipped" false need_wake;
  Alcotest.(check int) "wakes skipped counted" 1 rb.Rb.wakes_skipped;
  Rb.slave_advance rb ~rank:0 ~variant:1;
  Alcotest.(check bool) "record consumed" true
    (Rb.slave_lookup rb ~rank:0 ~variant:1 = None)

let test_rb_wake_only_with_waiters () =
  let rb = mk () in
  let e = Rb.master_append rb ~rank:0 ~call:read_call ~expect_block:true ~forwarded:false in
  e.Rb.waiters <- 1;
  let need_wake = Rb.master_publish rb e (Syscall.Ok_data "x") in
  Alcotest.(check bool) "waiter present: wake issued" true need_wake;
  Alcotest.(check int) "wakes issued counted" 1 rb.Rb.wakes_issued

let test_rb_overflow_and_reset () =
  let rb = mk ~size:600 () in
  let big = Syscall.Read (4, 256) in
  Alcotest.(check bool) "record fits at all" true
    (Rb.fits_at_all rb ~bytes:(Rb.record_bytes big));
  let e1 = Rb.master_append rb ~rank:0 ~call:big ~expect_block:false ~forwarded:false in
  ignore (Rb.master_publish rb e1 (Syscall.Ok_data (String.make 256 'a')));
  Alcotest.(check bool) "second record would overflow" true
    (Rb.would_overflow rb ~bytes:(Rb.record_bytes big));
  Alcotest.(check bool) "not drained while slave lags" false (Rb.fully_drained rb);
  Rb.slave_advance rb ~rank:0 ~variant:1;
  Alcotest.(check bool) "drained after slave consumes" true (Rb.fully_drained rb);
  Rb.reset rb;
  Alcotest.(check int) "space reclaimed" 0 rb.Rb.used_bytes;
  Alcotest.(check int) "reset counted" 1 rb.Rb.resets;
  Alcotest.(check bool) "no more overflow" false
    (Rb.would_overflow rb ~bytes:(Rb.record_bytes big));
  (* positions keep increasing across resets *)
  let e2 = Rb.master_append rb ~rank:0 ~call:big ~expect_block:false ~forwarded:false in
  Alcotest.(check int) "seq continues after reset" 1 e2.Rb.seq

let test_rb_too_large_record () =
  let rb = mk ~size:128 () in
  Alcotest.(check bool) "oversized record rejected by CALCSIZE" false
    (Rb.fits_at_all rb ~bytes:(Rb.record_bytes (Syscall.Read (4, 4096))))

let test_rb_streams_independent () =
  let rb = mk ~nreplicas:3 () in
  let e0 = Rb.master_append rb ~rank:0 ~call:read_call ~expect_block:false ~forwarded:false in
  let e1 = Rb.master_append rb ~rank:1 ~call:read_call ~expect_block:false ~forwarded:false in
  Alcotest.(check int) "per-rank sequences independent" 0 e1.Rb.seq;
  ignore (Rb.master_publish rb e0 (Syscall.Ok_int 1));
  ignore (Rb.master_publish rb e1 (Syscall.Ok_int 2));
  (* variants consume independently *)
  Rb.slave_advance rb ~rank:0 ~variant:1;
  Alcotest.(check bool) "variant 2 still sees rank-0 record" true
    (Rb.slave_lookup rb ~rank:0 ~variant:2 <> None);
  Alcotest.(check bool) "variant 1 done with rank 0" true
    (Rb.slave_lookup rb ~rank:0 ~variant:1 = None)

let prop_rb_fifo =
  (* slaves always observe records in append order with matching payloads *)
  QCheck2.Test.make ~name:"rb preserves per-rank fifo order" ~count:100
    QCheck2.Gen.(list_size (int_range 1 40) (int_range 1 64))
    (fun sizes ->
      let rb = Rb.create ~size_bytes:(1 lsl 20) ~nreplicas:2 in
      let expected =
        List.mapi
          (fun i n ->
            let call = Syscall.Read (i, n) in
            let e =
              Rb.master_append rb ~rank:0 ~call ~expect_block:false ~forwarded:false
            in
            ignore (Rb.master_publish rb e (Syscall.Ok_int n));
            call)
          sizes
      in
      List.for_all
        (fun call ->
          match Rb.slave_lookup rb ~rank:0 ~variant:1 with
          | Some e ->
            let ok = e.Rb.call = Some call in
            Rb.slave_advance rb ~rank:0 ~variant:1;
            ok
          | None -> false)
        expected)

let prop_rb_used_bytes =
  QCheck2.Test.make ~name:"used_bytes grows monotonically until reset" ~count:100
    QCheck2.Gen.(list_size (int_range 1 30) (int_range 0 128))
    (fun sizes ->
      let rb = Rb.create ~size_bytes:(1 lsl 22) ~nreplicas:2 in
      let ok = ref true in
      let prev = ref 0 in
      List.iter
        (fun n ->
          let e =
            Rb.master_append rb ~rank:0 ~call:(Syscall.Read (3, n))
              ~expect_block:false ~forwarded:false
          in
          ignore (Rb.master_publish rb e (Syscall.Ok_data (String.make n 'x')));
          if rb.Rb.used_bytes < !prev then ok := false;
          prev := rb.Rb.used_bytes)
        sizes;
      !ok)

(* ---- file map ---- *)

let test_file_map_basic () =
  let fm = File_map.create () in
  Alcotest.(check bool) "unknown fd has no class" true (File_map.class_of fm ~fd:5 = None);
  File_map.set fm ~fd:5 ~cls:Proc.Fd_socket ~nonblocking:false;
  Alcotest.(check bool) "socket classified" true (File_map.is_socket fm ~fd:5);
  Alcotest.(check bool) "blocking socket may block" true (File_map.may_block fm ~fd:5);
  File_map.set_nonblocking fm ~fd:5 true;
  Alcotest.(check bool) "nonblocking fd never blocks" false (File_map.may_block fm ~fd:5);
  File_map.clear fm ~fd:5;
  Alcotest.(check bool) "cleared" true (File_map.class_of fm ~fd:5 = None)

let test_file_map_bounds () =
  let fm = File_map.create () in
  (* out-of-range fds must not crash and never block *)
  File_map.set fm ~fd:99999 ~cls:Proc.Fd_regular ~nonblocking:false;
  Alcotest.(check bool) "oob fd ignored" true (File_map.class_of fm ~fd:99999 = None);
  Alcotest.(check bool) "negative fd" true (File_map.class_of fm ~fd:(-1) = None)

(* ---- epoll shadow map ---- *)

let test_epoll_map_roundtrip () =
  let em = Epoll_map.create ~nreplicas:2 in
  Epoll_map.register em ~variant:0 ~fd:7 ~user_data:0xAAAAL;
  Epoll_map.register em ~variant:1 ~fd:7 ~user_data:0xBBBBL;
  let master_events = [ (0xAAAAL, Syscall.ev_in) ] in
  let logical = Epoll_map.to_logical em master_events in
  Alcotest.(check bool) "translated to fd" true
    (fst (List.hd logical) = Epoll_map.Lfd 7);
  let slave_view = Epoll_map.to_variant em ~variant:1 logical in
  Alcotest.(check bool) "slave sees its own pointer" true
    (Int64.equal (fst (List.hd slave_view)) 0xBBBBL)

let test_epoll_map_reregister () =
  let em = Epoll_map.create ~nreplicas:2 in
  Epoll_map.register em ~variant:0 ~fd:3 ~user_data:1L;
  Epoll_map.register em ~variant:0 ~fd:3 ~user_data:2L;
  Alcotest.(check bool) "stale reverse binding dropped" true
    (Epoll_map.fd_of em ~variant:0 ~user_data:1L = None);
  Alcotest.(check bool) "new binding live" true
    (Epoll_map.fd_of em ~variant:0 ~user_data:2L = Some 3);
  Epoll_map.unregister em ~variant:0 ~fd:3;
  Alcotest.(check bool) "unregistered" true
    (Epoll_map.user_data_of em ~variant:0 ~fd:3 = None)

let prop_epoll_map_translation =
  QCheck2.Test.make ~name:"epoll translation is a bijection on registered fds"
    ~count:100
    QCheck2.Gen.(list_size (int_range 1 20) (int_range 0 100))
    (fun fds ->
      let fds = List.sort_uniq compare fds in
      let em = Epoll_map.create ~nreplicas:2 in
      List.iter
        (fun fd ->
          Epoll_map.register em ~variant:0 ~fd
            ~user_data:(Int64.of_int (0x1000 + fd));
          Epoll_map.register em ~variant:1 ~fd
            ~user_data:(Int64.of_int (0x2000 + fd)))
        fds;
      let master = List.map (fun fd -> (Int64.of_int (0x1000 + fd), Syscall.ev_in)) fds in
      let logical = Epoll_map.to_logical em master in
      let slave = Epoll_map.to_variant em ~variant:1 logical in
      List.for_all2
        (fun fd (ud, _) -> Int64.equal ud (Int64.of_int (0x2000 + fd)))
        fds slave)

(* ---- replicated stream (record log) ---- *)

let lock_rank = function
  | Some (Record_log.Lock l) -> Some l.thread_rank
  | Some _ | None -> None

let test_record_log_order () =
  let log = Record_log.create ~nreplicas:2 in
  Record_log.append_lock log ~lock_id:1 ~thread_rank:2;
  Record_log.append_lock log ~lock_id:1 ~thread_rank:1;
  (match lock_rank (Record_log.peek log ~variant:1) with
  | Some rank -> Alcotest.(check int) "first event rank" 2 rank
  | None -> Alcotest.fail "expected event");
  Record_log.advance log ~variant:1;
  (match lock_rank (Record_log.peek log ~variant:1) with
  | Some rank -> Alcotest.(check int) "second event rank" 1 rank
  | None -> Alcotest.fail "expected second event");
  Record_log.advance log ~variant:1;
  Alcotest.(check bool) "log drained" true (Record_log.peek log ~variant:1 = None)

let prop_record_log_growth =
  QCheck2.Test.make ~name:"record log grows without losing events" ~count:50
    QCheck2.Gen.(int_range 1 500)
    (fun n ->
      let log = Record_log.create ~nreplicas:2 in
      for i = 0 to n - 1 do
        Record_log.append_lock log ~lock_id:(i mod 7) ~thread_rank:(i mod 3)
      done;
      let ok = ref true in
      for i = 0 to n - 1 do
        (match Record_log.peek log ~variant:1 with
        | Some (Record_log.Lock l) ->
          if l.lock_id <> i mod 7 || l.thread_rank <> i mod 3 then ok := false
        | Some _ | None -> ok := false);
        Record_log.advance log ~variant:1
      done;
      !ok && Record_log.length log = n)

(* Model check of the one stream and its cursors: random interleavings of
   lock, call, signal and flush appends, with capture on and off. Each
   call carries a unique id in its result so order is observable. *)
type op = Op_lock of int * int | Op_call of int | Op_signal | Op_flush

let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 0 300)
      (frequency
         [
           (3, map2 (fun l r -> Op_lock (l, r)) (int_range 0 5) (int_range 0 2));
           (4, map (fun r -> Op_call r) (int_range 0 2));
           (1, pure Op_signal);
           (1, pure Op_flush);
         ]))

let nranks = 3

let prop_stream_cursors =
  QCheck2.Test.make ~name:"stream cursors read their own events" ~count:200
    QCheck2.Gen.(pair bool gen_ops)
    (fun (capture, ops) ->
      let log = Record_log.create ~nreplicas:2 in
      if capture then Record_log.capture log;
      (* one call cursor per rank, polled after every append: at the head
         it must find nothing, and the next call once one is appended *)
      let cursors = Array.make nranks 0 in
      let seen = Array.make nranks [] in
      let ok = ref true in
      let poll rank =
        let rec go () =
          let pos = Record_log.seek_call log ~rank cursors.(rank) in
          cursors.(rank) <- pos;
          match Record_log.get log pos with
          | Some (Record_log.Call { result = Syscall.Ok_int id; _ }) ->
            seen.(rank) <- id :: seen.(rank);
            cursors.(rank) <- pos + 1;
            go ()
          | Some _ -> ok := false
          | None -> if pos <> Record_log.length log then ok := false
        in
        go ()
      in
      List.iteri
        (fun id op ->
          (match op with
          | Op_lock (lock_id, thread_rank) ->
            Record_log.append_lock log ~lock_id ~thread_rank
          | Op_call rank ->
            Record_log.append_call log ~rank ~call:Syscall.Gettimeofday
              ~result:(Syscall.Ok_int id)
          | Op_signal -> Record_log.append_signal log ~rank:0 ~signo:10
          | Op_flush -> Record_log.append_flush log ~reason:"full" ~count:1);
          for rank = 0 to nranks - 1 do
            let before = List.length seen.(rank) in
            poll rank;
            let expected =
              match op with Op_call r when capture && r = rank -> 1 | _ -> 0
            in
            if List.length seen.(rank) - before <> expected then ok := false
          done)
        ops;
      (* the lock cursor yields exactly the lock subsequence *)
      let locks =
        List.filter_map
          (function Op_lock (l, r) -> Some (l, r) | _ -> None)
          ops
      in
      let rec drain acc =
        match Record_log.peek log ~variant:1 with
        | Some (Record_log.Lock l) ->
          Record_log.advance log ~variant:1;
          drain ((l.lock_id, l.thread_rank) :: acc)
        | Some _ -> None
        | None -> Some (List.rev acc)
      in
      let calls rank =
        if not capture then []
        else
          List.concat
            (List.mapi
               (fun id -> function Op_call r when r = rank -> [ id ] | _ -> [])
               ops)
      in
      let kept = if capture then List.length ops else List.length locks in
      !ok
      && drain [] = Some locks
      && List.for_all
           (fun rank -> List.rev seen.(rank) = calls rank)
           (List.init nranks Fun.id)
      && Record_log.length log = kept
      && Array.length (Record_log.events log) = kept)

let tc = Alcotest.test_case

let () =
  Alcotest.run "replication-substrate"
    [
      ( "replication-buffer",
        [
          tc "basic master/slave flow" `Quick test_rb_basic_flow;
          tc "wake only with waiters" `Quick test_rb_wake_only_with_waiters;
          tc "overflow + arbitrated reset" `Quick test_rb_overflow_and_reset;
          tc "oversized record rejected" `Quick test_rb_too_large_record;
          tc "per-rank streams independent" `Quick test_rb_streams_independent;
          QCheck_alcotest.to_alcotest prop_rb_fifo;
          QCheck_alcotest.to_alcotest prop_rb_used_bytes;
        ] );
      ( "file-map",
        [
          tc "classify + blocking prediction" `Quick test_file_map_basic;
          tc "bounds" `Quick test_file_map_bounds;
        ] );
      ( "epoll-map",
        [
          tc "pointer translation round trip" `Quick test_epoll_map_roundtrip;
          tc "re-registration" `Quick test_epoll_map_reregister;
          QCheck_alcotest.to_alcotest prop_epoll_map_translation;
        ] );
      ( "record-log",
        [
          tc "fifo order per variant" `Quick test_record_log_order;
          QCheck_alcotest.to_alcotest prop_record_log_growth;
          QCheck_alcotest.to_alcotest prop_stream_cursors;
        ] );
    ]
