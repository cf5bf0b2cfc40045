(* Property tests for the binary wire codec (Syswire) and the recording
   container (Recording): encode/decode round-trip identity over randomized
   calls, results and event streams, and totality on malformed input —
   truncated or bit-flipped recordings must fail with a typed error, never
   an escaping exception or an out-of-bounds read. *)

open Remon_kernel
open Remon_core

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_small = QCheck2.Gen.int_range 0 4096
let gen_fd = QCheck2.Gen.int_range 0 255
let gen_i64 = QCheck2.Gen.(map Int64.of_int int)
let gen_str = QCheck2.Gen.(string_size ~gen:printable (int_range 0 40))

let gen_flags =
  QCheck2.Gen.(
    map
      (fun (read, write, create, (trunc, append, nonblock)) ->
        { Syscall.read; write; create; trunc; append; nonblock })
      (quad bool bool bool (triple bool bool bool)))

let gen_events =
  QCheck2.Gen.(
    map
      (fun (pollin, pollout, pollhup, pollerr) ->
        { Syscall.pollin; pollout; pollhup; pollerr })
      (quad bool bool bool bool))

let gen_prot =
  QCheck2.Gen.(
    map (fun (pr, pw, px) -> { Syscall.pr; pw; px }) (triple bool bool bool))

let gen_timeout = QCheck2.Gen.(option (int_range 0 1_000_000))

let gen_itimer =
  QCheck2.Gen.(
    map
      (fun (interval_ns, value_ns) -> { Syscall.interval_ns; value_ns })
      (pair gen_small gen_small))

(* One generator case per payload shape the codec distinguishes; every
   field that feeds [W.uint] stays non-negative by construction. *)
let gen_call : Syscall.call QCheck2.Gen.t =
  let open QCheck2.Gen in
  oneof
    [
      oneofl
        [
          Syscall.Gettimeofday; Syscall.Time; Syscall.Getpid; Syscall.Gettid;
          Syscall.Getcwd; Syscall.Uname; Syscall.Sched_yield; Syscall.Sync;
          Syscall.Pipe; Syscall.Epoll_create; Syscall.Fork;
          Syscall.Rt_sigreturn; Syscall.Pause; Syscall.Setsid;
        ];
      map (fun c -> Syscall.Clock_gettime c) (oneofl [ `Realtime; `Monotonic ]);
      map (fun n -> Syscall.Nanosleep n) gen_small;
      map (fun n -> Syscall.Getrandom n) gen_small;
      map
        (fun (addr, expected, timeout_ns) ->
          Syscall.Futex (Syscall.Futex_wait { addr; expected; timeout_ns }))
        (triple gen_i64 gen_small gen_timeout);
      map
        (fun (addr, count) ->
          Syscall.Futex (Syscall.Futex_wake { addr; count }))
        (pair gen_i64 gen_small);
      map
        (fun (fd, op) -> Syscall.Ioctl (fd, op))
        (pair gen_fd
           (oneofl
              [
                Syscall.Fionread; Syscall.Fionbio true; Syscall.Fionbio false;
                Syscall.Tiocgwinsz;
              ]));
      map
        (fun (fd, op) -> Syscall.Fcntl (fd, op))
        (pair gen_fd
           (oneof
              [
                return Syscall.F_getfl;
                map (fun nonblock -> Syscall.F_setfl { nonblock }) bool;
                map (fun n -> Syscall.F_dupfd n) gen_fd;
              ]));
      map (fun p -> Syscall.Stat p) gen_str;
      map (fun fd -> Syscall.Fstat fd) gen_fd;
      map
        (fun (fd, off, whence) -> Syscall.Lseek (fd, off, whence))
        (triple gen_fd (int_range (-4096) 4096)
           (oneofl [ Syscall.Seek_set; Syscall.Seek_cur; Syscall.Seek_end ]));
      map (fun (p, a) -> Syscall.Getxattr (p, a)) (pair gen_str gen_str);
      map
        (fun (addr, len) -> Syscall.Madvise { addr; len })
        (pair gen_i64 gen_small);
      map (fun (fd, n) -> Syscall.Read (fd, n)) (pair gen_fd gen_small);
      map
        (fun (fd, lens) -> Syscall.Readv (fd, lens))
        (pair gen_fd (list_size (int_range 0 6) gen_small));
      map
        (fun (fd, n, off) -> Syscall.Pread64 (fd, n, off))
        (triple gen_fd gen_small gen_small);
      map
        (fun (readfds, writefds, timeout_ns) ->
          Syscall.Select { readfds; writefds; timeout_ns })
        (triple
           (list_size (int_range 0 5) gen_fd)
           (list_size (int_range 0 5) gen_fd)
           gen_timeout);
      map
        (fun (fds, timeout_ns) -> Syscall.Poll { fds; timeout_ns })
        (pair (list_size (int_range 0 5) (pair gen_fd gen_events)) gen_timeout);
      map (fun (fd, s) -> Syscall.Write (fd, s)) (pair gen_fd gen_str);
      map
        (fun (fd, ss) -> Syscall.Writev (fd, ss))
        (pair gen_fd (list_size (int_range 0 4) gen_str));
      map
        (fun (fd, s, off) -> Syscall.Pwrite64 (fd, s, off))
        (triple gen_fd gen_str gen_small);
      map
        (fun (epfd, max_events, timeout_ns) ->
          Syscall.Epoll_wait { epfd; max_events; timeout_ns })
        (triple gen_fd (int_range 1 64) gen_timeout);
      map
        (fun ((epfd, op, fd), (events, user_data)) ->
          Syscall.Epoll_ctl { epfd; op; fd; events; user_data })
        (pair
           (triple gen_fd
              (oneofl [ Syscall.Epoll_add; Syscall.Epoll_mod; Syscall.Epoll_del ])
              gen_fd)
           (pair gen_events gen_i64));
      map (fun (fd, s) -> Syscall.Sendto (fd, s)) (pair gen_fd gen_str);
      map
        (fun (out_fd, in_fd, count) -> Syscall.Sendfile { out_fd; in_fd; count })
        (triple gen_fd gen_fd gen_small);
      map (fun (p, f) -> Syscall.Open (p, f)) (pair gen_str gen_flags);
      map (fun fd -> Syscall.Close fd) gen_fd;
      map
        (fun (d, t) -> Syscall.Socket (d, t))
        (pair
           (oneofl [ Syscall.Af_inet; Syscall.Af_unix ])
           (oneofl [ Syscall.Sock_stream; Syscall.Sock_dgram ]));
      map (fun (fd, port) -> Syscall.Bind (fd, port)) (pair gen_fd gen_small);
      map
        (fun (fd, nonblock) -> Syscall.Accept4 { fd; nonblock })
        (pair gen_fd bool);
      map (fun (a, b) -> Syscall.Rename (a, b)) (pair gen_str gen_str);
      map
        (fun (len, prot, kind) -> Syscall.Mmap { len; prot; kind })
        (triple gen_small gen_prot
           (oneof
              [
                return Syscall.Map_anon;
                return Syscall.Map_shared_anon;
                map (fun fd -> Syscall.Map_file fd) gen_fd;
              ]));
      map
        (fun (addr, len) -> Syscall.Munmap { addr; len })
        (pair gen_i64 gen_small);
      map
        (fun (addr, old_len, new_len) -> Syscall.Mremap { addr; old_len; new_len })
        (triple gen_i64 gen_small gen_small);
      map (fun n -> Syscall.Brk n) gen_small;
      map (fun n -> Syscall.Exit n) (int_range 0 255);
      map (fun (pid, sg) -> Syscall.Kill (pid, sg)) (pair gen_small (int_range 1 31));
      map
        (fun (sg, act) -> Syscall.Rt_sigaction (sg, act))
        (pair (int_range 1 31)
           (oneof
              [
                return Syscall.Sig_default;
                return Syscall.Sig_ignore;
                map (fun id -> Syscall.Sig_handler id) gen_small;
              ]));
      map
        (fun (how, sigs) -> Syscall.Rt_sigprocmask (how, sigs))
        (pair
           (oneofl [ Syscall.Sig_block; Syscall.Sig_unblock; Syscall.Sig_setmask ])
           (list_size (int_range 0 5) (int_range 1 31)));
      map
        (fun (key, size, create) -> Syscall.Shmget { key; size; create })
        (triple gen_small gen_small bool);
      map
        (fun (shmid, readonly) -> Syscall.Shmat { shmid; readonly })
        (pair gen_small bool);
      map (fun addr -> Syscall.Shmdt { addr }) gen_i64;
      map
        (fun (calls, rb_addr, entry_addr) ->
          Syscall.Ipmon_register { calls; rb_addr; entry_addr })
        (triple
           (map
              (fun n -> List.filteri (fun i _ -> i mod (n + 1) = 0) Sysno.all)
              (int_range 0 7))
           gen_i64 gen_i64);
      map (fun i -> Syscall.Setitimer i) gen_itimer;
    ]

let gen_errno =
  QCheck2.Gen.oneofl
    [
      Errno.EPERM; Errno.ENOENT; Errno.EINTR; Errno.EIO; Errno.EBADF;
      Errno.EAGAIN; Errno.ENOMEM; Errno.EACCES; Errno.EFAULT; Errno.EEXIST;
      Errno.EINVAL; Errno.ENFILE; Errno.EMFILE; Errno.ENOSPC; Errno.EPIPE;
      Errno.ECONNRESET; Errno.ECONNREFUSED; Errno.ETIMEDOUT; Errno.ENOSYS;
    ]

let gen_stat =
  QCheck2.Gen.(
    map
      (fun ((st_ino, st_size), (st_kind, st_mtime_ns)) ->
        { Syscall.st_ino; st_size; st_kind; st_mtime_ns })
      (pair (pair gen_small gen_small)
         (pair (oneofl [ `Reg; `Dir; `Fifo; `Sock; `Special ]) gen_small)))

let gen_result : Syscall.result QCheck2.Gen.t =
  let open QCheck2.Gen in
  oneof
    [
      return Syscall.Ok_unit;
      map (fun n -> Syscall.Ok_int n) int;
      map (fun n -> Syscall.Ok_int64 n) gen_i64;
      map (fun s -> Syscall.Ok_data s) gen_str;
      map (fun s -> Syscall.Ok_str s) gen_str;
      map (fun s -> Syscall.Ok_stat s) gen_stat;
      map (fun (a, b) -> Syscall.Ok_pair (a, b)) (pair gen_fd gen_fd);
      map
        (fun l -> Syscall.Ok_poll l)
        (list_size (int_range 0 5) (pair gen_fd gen_events));
      map
        (fun l -> Syscall.Ok_epoll l)
        (list_size (int_range 0 5) (pair gen_i64 gen_events));
      map
        (fun (conn_fd, peer_port) -> Syscall.Ok_accept { conn_fd; peer_port })
        (pair gen_fd gen_small);
      map (fun l -> Syscall.Ok_dents l) (list_size (int_range 0 5) gen_str);
      map (fun i -> Syscall.Ok_itimer i) gen_itimer;
      map (fun e -> Syscall.Error e) gen_errno;
    ]

let gen_event : Recording.event QCheck2.Gen.t =
  let open QCheck2.Gen in
  oneof
    [
      map
        (fun ((rank, call), result) -> Recording.Call { rank; call; result })
        (pair (pair (int_range 0 7) gen_call) gen_result);
      map
        (fun (lock_id, thread_rank) -> Recording.Lock { lock_id; thread_rank })
        (pair gen_small (int_range 0 7));
      map
        (fun (rank, signo) -> Recording.Signal { rank; signo })
        (pair (int_range 0 7) (int_range 1 31));
      map
        (fun (reason, count) -> Recording.Flush { reason; count })
        (pair (oneofl [ "full"; "deadline"; "barrier"; "overflow"; "demand" ])
           gen_small);
    ]

let gen_recording : Recording.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  map
    (fun ((backend, seed, workload), (events, verdict)) ->
      {
        Recording.header =
          {
            Recording.backend;
            nreplicas = 2;
            seed;
            level = "SOCKET_RW_LEVEL";
            on_failure = "kill-group";
            faults = "";
            workload;
            shm_key = 0;
          };
        events = Array.of_list events;
        verdict;
      })
    (pair
       (triple
          (oneofl [ "native"; "ghumvee"; "varan"; "remon" ])
          gen_small gen_str)
       (pair
          (list_size (int_range 0 40) gen_event)
          (option (pair gen_str gen_str))))

(* ------------------------------------------------------------------ *)
(* Round-trip identity *)

let prop_call_roundtrip =
  QCheck2.Test.make ~name:"call encode/decode round-trips" ~count:2000 gen_call
    (fun call ->
      let w = Syswire.W.create () in
      Syswire.write_call w call;
      let r = Syswire.R.of_string (Syswire.W.contents w) in
      let back = Syswire.read_call r in
      Syscall.equal_call call back && Syswire.R.remaining r = 0)

let prop_result_roundtrip =
  QCheck2.Test.make ~name:"result encode/decode round-trips" ~count:2000
    gen_result (fun result ->
      let w = Syswire.W.create () in
      Syswire.write_result w result;
      let r = Syswire.R.of_string (Syswire.W.contents w) in
      let back = Syswire.read_result r in
      Syscall.equal_result result back && Syswire.R.remaining r = 0)

let prop_recording_roundtrip =
  QCheck2.Test.make ~name:"recording serialize/parse round-trips" ~count:300
    gen_recording (fun t ->
      match Recording.of_string (Recording.to_string t) with
      | Ok back -> Recording.equal t back
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Structural equality agrees with byte equality — the contract that lets
   the replayer compare recordings without encoding them *)

type mutation =
  | Header_field of int  (** which of the eight header fields *)
  | Verdict
  | Event of int * Recording.event  (** replace event [i mod n] *)
  | Drop_last

let gen_mutation =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> Header_field i) (int_range 0 7);
        pure Verdict;
        map (fun (i, ev) -> Event (i, ev)) (pair (int_range 0 1000) gen_event);
        pure Drop_last;
      ])

let mutate (t : Recording.t) = function
  | Header_field i ->
    let h = t.Recording.header in
    let header =
      match i with
      | 0 -> { h with Recording.backend = h.Recording.backend ^ "x" }
      | 1 -> { h with Recording.nreplicas = h.Recording.nreplicas + 1 }
      | 2 -> { h with Recording.seed = h.Recording.seed + 1 }
      | 3 -> { h with Recording.level = h.Recording.level ^ "x" }
      | 4 -> { h with Recording.on_failure = h.Recording.on_failure ^ "x" }
      | 5 -> { h with Recording.faults = h.Recording.faults ^ "x" }
      | 6 -> { h with Recording.workload = h.Recording.workload ^ "x" }
      | _ -> { h with Recording.shm_key = h.Recording.shm_key + 1 }
    in
    { t with Recording.header }
  | Verdict ->
    let verdict =
      match t.Recording.verdict with
      | None -> Some ("divergence", "")
      | Some (cls, rendered) -> Some (cls, rendered ^ "x")
    in
    { t with Recording.verdict }
  | Event (i, ev) ->
    let events = Array.copy t.Recording.events in
    let n = Array.length events in
    if n > 0 then events.(i mod n) <- ev;
    { t with Recording.events }
  | Drop_last ->
    let events = t.Recording.events in
    let n = Array.length events in
    { t with Recording.events = Array.sub events 0 (max 0 (n - 1)) }

let equal_iff_same_bytes a b =
  Recording.equal a b
  = String.equal (Recording.to_string a) (Recording.to_string b)

let prop_equal_self =
  QCheck2.Test.make ~name:"equal = byte equality on (t, t)" ~count:300
    gen_recording (fun t -> Recording.equal t t && equal_iff_same_bytes t t)

let prop_equal_mutated =
  QCheck2.Test.make ~name:"equal = byte equality on (t, mutate t)" ~count:1000
    QCheck2.Gen.(pair gen_recording gen_mutation)
    (fun (t, m) -> equal_iff_same_bytes t (mutate t m))

(* ------------------------------------------------------------------ *)
(* Totality on malformed input: typed error, never an exception *)

let decodes_with_typed_error s =
  match Recording.of_string s with
  | Ok _ -> false (* malformed input must not parse *)
  | Error (Syswire.Truncated | Syswire.Corrupt _) -> true
  | exception _ -> false

let prop_truncation_is_typed =
  QCheck2.Test.make ~name:"every strict prefix fails with a typed error"
    ~count:60
    QCheck2.Gen.(pair gen_recording (int_range 0 1_000_000))
    (fun (t, cut) ->
      let s = Recording.to_string t in
      let cut = cut mod String.length s in
      decodes_with_typed_error (String.sub s 0 cut))

let prop_bitflip_is_typed =
  QCheck2.Test.make ~name:"any single bit flip fails with a typed error"
    ~count:200
    QCheck2.Gen.(triple gen_recording (int_range 0 1_000_000) (int_range 0 7))
    (fun (t, pos, bit) ->
      let s = Bytes.of_string (Recording.to_string t) in
      let pos = pos mod Bytes.length s in
      Bytes.set s pos
        (Char.chr (Char.code (Bytes.get s pos) lxor (1 lsl bit)));
      decodes_with_typed_error (Bytes.to_string s))

let prop_trailing_bytes_rejected =
  QCheck2.Test.make ~name:"trailing bytes are rejected" ~count:60 gen_recording
    (fun t -> decodes_with_typed_error (Recording.to_string t ^ "\x00"))

let test_bad_magic () =
  match Recording.of_string "NOPE\x01rest" with
  | Error (Syswire.Corrupt _) -> ()
  | Error Syswire.Truncated -> Alcotest.fail "expected Corrupt, got Truncated"
  | Ok _ -> Alcotest.fail "bad magic parsed"

let test_unknown_version () =
  (* valid magic, version from the future: must fail typed, not raise *)
  let s = Recording.to_string (QCheck2.Gen.generate1 gen_recording) in
  let s = Bytes.of_string s in
  Bytes.set s 4 '\x63';
  match Recording.of_string (Bytes.to_string s) with
  | Error (Syswire.Corrupt msg) ->
    Alcotest.(check bool) "mentions version" true
      (String.length msg > 0)
  | Error Syswire.Truncated -> Alcotest.fail "expected Corrupt, got Truncated"
  | Ok _ -> Alcotest.fail "unknown version parsed"

let test_empty_and_garbage () =
  List.iter
    (fun s ->
      match Recording.of_string s with
      | Ok _ -> Alcotest.failf "garbage %S parsed" s
      | Error _ -> ())
    [ ""; "R"; "RMRC"; "RMRC\x01"; String.make 64 '\xff'; String.make 3 '\x00' ]

(* Varint edge cases straight through the W/R modules. *)
let test_varint_edges () =
  let round_int n =
    let w = Syswire.W.create () in
    Syswire.W.int w n;
    let r = Syswire.R.of_string (Syswire.W.contents w) in
    Alcotest.(check int) (Printf.sprintf "int %d" n) n (Syswire.R.int r)
  in
  List.iter round_int [ 0; 1; -1; 63; 64; -64; -65; max_int; min_int + 1 ];
  let round_i64 n =
    let w = Syswire.W.create () in
    Syswire.W.i64 w n;
    let r = Syswire.R.of_string (Syswire.W.contents w) in
    Alcotest.(check int64) (Int64.to_string n) n (Syswire.R.i64 r)
  in
  List.iter round_i64 [ 0L; 1L; -1L; Int64.max_int; Int64.min_int ];
  (* overlong/unterminated varints must fail typed *)
  (match Syswire.R.uint (Syswire.R.of_string (String.make 12 '\xff')) with
  | _ -> Alcotest.fail "overlong varint decoded"
  | exception Syswire.Fail _ -> ());
  match Syswire.R.uint (Syswire.R.of_string "\xff") with
  | _ -> Alcotest.fail "unterminated varint decoded"
  | exception Syswire.Fail _ -> ()

let () =
  Alcotest.run "wire"
    [
      ( "roundtrip",
        [
          QCheck_alcotest.to_alcotest prop_call_roundtrip;
          QCheck_alcotest.to_alcotest prop_result_roundtrip;
          QCheck_alcotest.to_alcotest prop_recording_roundtrip;
          QCheck_alcotest.to_alcotest prop_equal_self;
          QCheck_alcotest.to_alcotest prop_equal_mutated;
        ] );
      ( "malformed",
        [
          QCheck_alcotest.to_alcotest prop_truncation_is_typed;
          QCheck_alcotest.to_alcotest prop_bitflip_is_typed;
          QCheck_alcotest.to_alcotest prop_trailing_bytes_rejected;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "unknown version" `Quick test_unknown_version;
          Alcotest.test_case "empty and garbage" `Quick test_empty_and_garbage;
          Alcotest.test_case "varint edges" `Quick test_varint_edges;
        ] );
    ]
