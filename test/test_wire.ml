(* Property tests for the binary wire codec (Syswire) and the recording
   container (Recording): encode/decode round-trip identity over randomized
   calls, results and event streams, and totality on malformed input —
   truncated or bit-flipped recordings must fail with a typed error, never
   an escaping exception or an out-of-bounds read. *)

open Remon_kernel
open Remon_core

(* ------------------------------------------------------------------ *)
(* Golden samples: every call constructor and every sub-variant, keyed
   by the syscall number, so the compiler demands samples for a new
   constructor. Integer fields include the zigzag edge values. *)

let addr = 0x7f00_dead_b000L
let all_ev =
  { Syscall.pollin = true; pollout = true; pollhup = true; pollerr = true }
let itimer = { Syscall.interval_ns = 1_000_000; value_ns = -1 }
let all_flags =
  {
    Syscall.o_rdwr with
    Syscall.create = true;
    trunc = true;
    append = true;
    nonblock = true;
  }

let samples (s : Sysno.t) : Syscall.call list =
  let open Syscall in
  match s with
  | Sysno.Gettimeofday -> [ Gettimeofday ]
  | Sysno.Clock_gettime -> [ Clock_gettime `Realtime; Clock_gettime `Monotonic ]
  | Sysno.Time -> [ Time ]
  | Sysno.Getpid -> [ Getpid ]
  | Sysno.Gettid -> [ Gettid ]
  | Sysno.Getpgrp -> [ Getpgrp ]
  | Sysno.Getppid -> [ Getppid ]
  | Sysno.Getgid -> [ Getgid ]
  | Sysno.Getegid -> [ Getegid ]
  | Sysno.Getuid -> [ Getuid ]
  | Sysno.Geteuid -> [ Geteuid ]
  | Sysno.Getcwd -> [ Getcwd ]
  | Sysno.Getpriority -> [ Getpriority ]
  | Sysno.Getrusage -> [ Getrusage ]
  | Sysno.Times -> [ Times ]
  | Sysno.Capget -> [ Capget ]
  | Sysno.Getitimer -> [ Getitimer ]
  | Sysno.Sysinfo -> [ Sysinfo ]
  | Sysno.Uname -> [ Uname ]
  | Sysno.Sched_yield -> [ Sched_yield ]
  | Sysno.Nanosleep -> [ Nanosleep 0; Nanosleep max_int; Nanosleep min_int ]
  | Sysno.Getpgid -> [ Getpgid ]
  | Sysno.Getsid -> [ Getsid ]
  | Sysno.Getrlimit -> [ Getrlimit 7 ]
  | Sysno.Sched_getaffinity -> [ Sched_getaffinity ]
  | Sysno.Clock_getres -> [ Clock_getres ]
  | Sysno.Getrandom -> [ Getrandom 32 ]
  | Sysno.Futex ->
    [
      Futex (Futex_wait { addr; expected = 0; timeout_ns = None });
      Futex
        (Futex_wait
           { addr = Int64.min_int; expected = -1; timeout_ns = Some 5000 });
      Futex (Futex_wake { addr = Int64.max_int; count = max_int });
    ]
  | Sysno.Ioctl ->
    [
      Ioctl (0, Fionread); Ioctl (1, Fionbio true); Ioctl (1, Fionbio false);
      Ioctl (2, Tiocgwinsz);
    ]
  | Sysno.Fcntl ->
    [
      Fcntl (3, F_getfl); Fcntl (3, F_setfl { nonblock = true });
      Fcntl (3, F_setfl { nonblock = false }); Fcntl (3, F_dupfd 10);
    ]
  | Sysno.Access -> [ Access "/etc/passwd" ]
  | Sysno.Faccessat -> [ Faccessat "" ]
  | Sysno.Lseek ->
    [
      Lseek (3, 0, Seek_set); Lseek (3, -4096, Seek_cur);
      Lseek (3, min_int, Seek_end);
    ]
  | Sysno.Stat -> [ Stat "/data/in.txt" ]
  | Sysno.Lstat -> [ Lstat "/data/link" ]
  | Sysno.Fstat -> [ Fstat 3 ]
  | Sysno.Fstatat -> [ Fstatat "/tmp" ]
  | Sysno.Getdents -> [ Getdents 4 ]
  | Sysno.Readlink -> [ Readlink "/proc/self/exe" ]
  | Sysno.Readlinkat -> [ Readlinkat "exe" ]
  | Sysno.Getxattr -> [ Getxattr ("/a", "user.x") ]
  | Sysno.Lgetxattr -> [ Lgetxattr ("/b", "") ]
  | Sysno.Fgetxattr -> [ Fgetxattr (5, "user.y") ]
  | Sysno.Alarm -> [ Alarm 0 ]
  | Sysno.Setitimer -> [ Setitimer itimer ]
  | Sysno.Timerfd_gettime -> [ Timerfd_gettime 6 ]
  | Sysno.Madvise -> [ Madvise { addr; len = 4096 } ]
  | Sysno.Fadvise64 -> [ Fadvise64 7 ]
  | Sysno.Statfs -> [ Statfs "/" ]
  | Sysno.Fstatfs -> [ Fstatfs 8 ]
  | Sysno.Getdents64 -> [ Getdents64 9 ]
  | Sysno.Readahead -> [ Readahead 10 ]
  | Sysno.Mincore -> [ Mincore { addr = 0L; len = 0 } ]
  | Sysno.Read -> [ Read (3, 4096) ]
  | Sysno.Readv -> [ Readv (3, [ 1; 2; 3 ]); Readv (3, []) ]
  | Sysno.Pread64 -> [ Pread64 (3, 100, 1 lsl 40) ]
  | Sysno.Preadv -> [ Preadv (3, [ 64; 64 ], 4096) ]
  | Sysno.Select ->
    [
      Select { readfds = [ 0; 1 ]; writefds = []; timeout_ns = None };
      Select { readfds = []; writefds = [ 2 ]; timeout_ns = Some 0 };
    ]
  | Sysno.Poll ->
    [
      Poll { fds = [ (3, ev_in); (4, all_ev) ]; timeout_ns = Some 100 };
      Poll { fds = []; timeout_ns = None };
    ]
  | Sysno.Pselect6 ->
    [ Pselect6 { readfds = [ 7 ]; writefds = [ 8; 9 ]; timeout_ns = Some 1 } ]
  | Sysno.Ppoll -> [ Ppoll { fds = [ (5, ev_out) ]; timeout_ns = None } ]
  | Sysno.Sync -> [ Sync ]
  | Sysno.Syncfs -> [ Syncfs 3 ]
  | Sysno.Fsync -> [ Fsync 3 ]
  | Sysno.Fdatasync -> [ Fdatasync 3 ]
  | Sysno.Timerfd_settime -> [ Timerfd_settime (6, itimer) ]
  | Sysno.Msync -> [ Msync { addr; len = 8192 } ]
  | Sysno.Flock ->
    [ Flock (3, Lock_sh); Flock (3, Lock_ex); Flock (3, Lock_un) ]
  | Sysno.Chmod -> [ Chmod ("/f", 0o644) ]
  | Sysno.Fchmod -> [ Fchmod (3, 0o600) ]
  | Sysno.Chown -> [ Chown ("/f", 1000, -1) ]
  | Sysno.Utimensat -> [ Utimensat "/f" ]
  | Sysno.Write -> [ Write (1, "hello"); Write (1, "") ]
  | Sysno.Writev -> [ Writev (1, [ "a"; "bc" ]) ]
  | Sysno.Pwrite64 -> [ Pwrite64 (3, "xyz", 4096) ]
  | Sysno.Pwritev -> [ Pwritev (3, [ "p"; "q" ], 0) ]
  | Sysno.Epoll_wait ->
    [ Epoll_wait { epfd = 4; max_events = 64; timeout_ns = Some (-1) } ]
  | Sysno.Recvfrom -> [ Recvfrom (5, 1500) ]
  | Sysno.Recvmsg -> [ Recvmsg (5, 9000) ]
  | Sysno.Recvmmsg -> [ Recvmmsg (5, 8, 1500) ]
  | Sysno.Getsockname -> [ Getsockname 5 ]
  | Sysno.Getpeername -> [ Getpeername 5 ]
  | Sysno.Getsockopt -> [ Getsockopt (5, 4) ]
  | Sysno.Sendto -> [ Sendto (5, "ping") ]
  | Sysno.Sendmsg -> [ Sendmsg (5, "\x00\xff") ]
  | Sysno.Sendmmsg -> [ Sendmmsg (5, [ "a"; "b" ]); Sendmmsg (5, []) ]
  | Sysno.Sendfile -> [ Sendfile { out_fd = 5; in_fd = 3; count = 65536 } ]
  | Sysno.Epoll_ctl ->
    [
      Epoll_ctl
        { epfd = 4; op = Epoll_add; fd = 5; events = ev_in; user_data = addr };
      Epoll_ctl
        { epfd = 4; op = Epoll_mod; fd = 5; events = all_ev; user_data = -1L };
      Epoll_ctl
        { epfd = 4; op = Epoll_del; fd = 5; events = ev_none; user_data = 0L };
    ]
  | Sysno.Setsockopt -> [ Setsockopt (5, 2, 1) ]
  | Sysno.Shutdown ->
    [ Shutdown (5, Shut_rd); Shutdown (5, Shut_wr); Shutdown (5, Shut_rdwr) ]
  | Sysno.Open -> [ Open ("/f", o_rdonly); Open ("/g", all_flags) ]
  | Sysno.Openat -> [ Openat ("/h", o_wronly) ]
  | Sysno.Creat -> [ Creat "/new" ]
  | Sysno.Close -> [ Close 3 ]
  | Sysno.Dup -> [ Dup 3 ]
  | Sysno.Dup2 -> [ Dup2 (3, 10) ]
  | Sysno.Dup3 -> [ Dup3 (3, 11) ]
  | Sysno.Pipe2 -> [ Pipe2 { nonblock = true }; Pipe2 { nonblock = false } ]
  | Sysno.Eventfd -> [ Eventfd 0 ]
  | Sysno.Pipe -> [ Pipe ]
  | Sysno.Socket ->
    [ Socket (Af_inet, Sock_stream); Socket (Af_unix, Sock_dgram) ]
  | Sysno.Socketpair ->
    [ Socketpair (Af_unix, Sock_stream); Socketpair (Af_inet, Sock_dgram) ]
  | Sysno.Bind -> [ Bind (5, 8080) ]
  | Sysno.Listen -> [ Listen (5, 128) ]
  | Sysno.Accept -> [ Accept 5 ]
  | Sysno.Accept4 ->
    [
      Accept4 { fd = 5; nonblock = true }; Accept4 { fd = 5; nonblock = false };
    ]
  | Sysno.Connect -> [ Connect (6, 8080) ]
  | Sysno.Epoll_create -> [ Epoll_create ]
  | Sysno.Timerfd_create -> [ Timerfd_create ]
  | Sysno.Unlink -> [ Unlink "/old" ]
  | Sysno.Rename -> [ Rename ("/a", "/b") ]
  | Sysno.Mkdir -> [ Mkdir "/d" ]
  | Sysno.Rmdir -> [ Rmdir "/d" ]
  | Sysno.Truncate -> [ Truncate ("/f", 0) ]
  | Sysno.Ftruncate -> [ Ftruncate (3, 1 lsl 62) ]
  | Sysno.Mkdirat -> [ Mkdirat "sub" ]
  | Sysno.Unlinkat -> [ Unlinkat "sub/x" ]
  | Sysno.Renameat -> [ Renameat ("x", "y") ]
  | Sysno.Link -> [ Link ("/a", "/c") ]
  | Sysno.Linkat -> [ Linkat ("a", "c") ]
  | Sysno.Symlink -> [ Symlink ("/a", "/s") ]
  | Sysno.Symlinkat -> [ Symlinkat ("a", "s") ]
  | Sysno.Umask -> [ Umask 0o22 ]
  | Sysno.Mmap ->
    let rw = { pr = true; pw = true; px = false } in
    [
      Mmap { len = 4096; prot = rw; kind = Map_anon };
      Mmap
        {
          len = 8192;
          prot = { pr = true; pw = false; px = true };
          kind = Map_shared_anon;
        };
      Mmap
        {
          len = 0;
          prot = { pr = false; pw = false; px = false };
          kind = Map_file 3;
        };
    ]
  | Sysno.Munmap -> [ Munmap { addr; len = 4096 } ]
  | Sysno.Mprotect ->
    [
      Mprotect { addr; len = 4096; prot = { pr = true; pw = true; px = true } };
    ]
  | Sysno.Mremap -> [ Mremap { addr; old_len = 4096; new_len = 8192 } ]
  | Sysno.Brk -> [ Brk 0 ]
  | Sysno.Mlock -> [ Mlock { addr; len = 1 } ]
  | Sysno.Munlock -> [ Munlock { addr; len = 1 } ]
  | Sysno.Clone -> [ Clone 1 ]
  | Sysno.Fork -> [ Fork ]
  | Sysno.Execve -> [ Execve "/bin/true" ]
  | Sysno.Exit -> [ Exit 0 ]
  | Sysno.Exit_group -> [ Exit_group 1 ]
  | Sysno.Wait4 -> [ Wait4 (-1) ]
  | Sysno.Kill -> [ Kill (1000, 9) ]
  | Sysno.Tgkill -> [ Tgkill (1000, 5000, 11) ]
  | Sysno.Setrlimit -> [ Setrlimit (7, 1024) ]
  | Sysno.Prlimit64 -> [ Prlimit64 (7, -(1 lsl 62)) ]
  | Sysno.Sched_setaffinity -> [ Sched_setaffinity 3 ]
  | Sysno.Setsid -> [ Setsid ]
  | Sysno.Rt_sigaction ->
    [
      Rt_sigaction (10, Sig_default); Rt_sigaction (10, Sig_ignore);
      Rt_sigaction (10, Sig_handler 3);
    ]
  | Sysno.Rt_sigprocmask ->
    [
      Rt_sigprocmask (Sig_block, [ 10; 12 ]); Rt_sigprocmask (Sig_unblock, []);
      Rt_sigprocmask (Sig_setmask, [ 1 ]);
    ]
  | Sysno.Rt_sigreturn -> [ Rt_sigreturn ]
  | Sysno.Sigaltstack -> [ Sigaltstack ]
  | Sysno.Pause -> [ Pause ]
  | Sysno.Shmget ->
    [
      Shmget { key = 0x5eed; size = 1 lsl 20; create = true };
      Shmget { key = 0; size = 0; create = false };
    ]
  | Sysno.Shmat ->
    [
      Shmat { shmid = 1; readonly = true };
      Shmat { shmid = 2; readonly = false };
    ]
  | Sysno.Shmdt -> [ Shmdt { addr } ]
  | Sysno.Shmctl ->
    [ Shmctl { shmid = 1; rmid = true }; Shmctl { shmid = 1; rmid = false } ]
  | Sysno.Ipmon_register ->
    [
      Ipmon_register { calls = Sysno.all; rb_addr = addr; entry_addr = 0L };
      Ipmon_register { calls = []; rb_addr = 0L; entry_addr = Int64.min_int };
    ]

let sample_calls = List.concat_map samples Sysno.all

(* Every errno in wire-tag order. *)
let errnos =
  Errno.
    [
      EPERM; ENOENT; ESRCH; EINTR; EIO; EBADF; EAGAIN; ENOMEM; EACCES; EFAULT;
      EBUSY; EEXIST; ENOTDIR; EISDIR; EINVAL; ENFILE; EMFILE; ENOSPC; ESPIPE;
      EPIPE; ERANGE; ENOSYS; ENOTEMPTY; ELOOP; ENOTSOCK; EDESTADDRREQ;
      EMSGSIZE; EPROTONOSUPPORT; EOPNOTSUPP; EADDRINUSE; EADDRNOTAVAIL;
      ENETUNREACH; ECONNABORTED; ECONNRESET; ENOBUFS; EISCONN; ENOTCONN;
      ETIMEDOUT; ECONNREFUSED; EALREADY; EINPROGRESS; ECHILD; EDEADLK;
      ENAMETOOLONG; EIDRM; ETIME; EREMOTEIO; EKEYREJECTED;
    ]

let sample_results : Syscall.result list =
  let open Syscall in
  let stat st_kind =
    Ok_stat { st_ino = 42; st_size = 1 lsl 33; st_kind; st_mtime_ns = -7 }
  in
  [
    Ok_unit; Ok_int 0; Ok_int (-1); Ok_int max_int; Ok_int min_int;
    Ok_int64 Int64.min_int; Ok_int64 Int64.max_int; Ok_data "";
    Ok_data "\x00\xff"; Ok_str "linux"; Ok_pair (3, 4);
    Ok_poll [ (3, ev_in); (4, all_ev) ]; Ok_poll [];
    Ok_epoll [ (addr, ev_out); (-1L, ev_none) ];
    Ok_accept { conn_fd = 7; peer_port = 40000 }; Ok_dents [ "."; ".." ];
    Ok_dents []; Ok_itimer itimer;
  ]
  @ List.map stat [ `Reg; `Dir; `Fifo; `Sock; `Special ]
  @ List.map (fun e -> Error e) errnos

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
      oneofl sample_calls;
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
      oneofl sample_results;
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

(* ------------------------------------------------------------------ *)
(* Golden samples: exhaustive round trip and pinned bytes *)

let encode write v =
  let w = Syswire.W.create () in
  write w v;
  Syswire.W.contents w

(* [v] decodes back from its encoding with nothing left over, and every
   strict prefix of the encoding fails with [Syswire.Fail]. *)
let check_golden ~name ~equal write read v =
  let s = encode write v in
  let r = Syswire.R.of_string s in
  Alcotest.(check bool) (name ^ " round-trips") true (equal v (read r));
  Alcotest.(check int) (name ^ " consumed") 0 (Syswire.R.remaining r);
  for cut = 0 to String.length s - 1 do
    match read (Syswire.R.of_string (String.sub s 0 cut)) with
    | _ -> Alcotest.failf "%s: prefix of %d bytes decoded" name cut
    | exception Syswire.Fail _ -> ()
  done

let test_golden_keys () =
  List.iter
    (fun s ->
      let calls = samples s in
      Alcotest.(check bool) (Sysno.to_string s ^ " has samples") true
        (calls <> []);
      List.iter
        (fun c ->
          Alcotest.(check string) (Syscall.to_string c) (Sysno.to_string s)
            (Sysno.to_string (Syscall.number c)))
        calls)
    Sysno.all

let test_golden_calls () =
  List.iter
    (fun c ->
      check_golden ~name:(Syscall.to_string c) ~equal:Syscall.equal_call
        Syswire.write_call Syswire.read_call c)
    sample_calls

let test_golden_results () =
  List.iter
    (fun res ->
      check_golden
        ~name:(Format.asprintf "%a" Syscall.pp_result res)
        ~equal:Syscall.equal_result Syswire.write_result Syswire.read_result
        res)
    sample_results

(* The concatenated encodings of every sample, pinned: a change here is a
   change to the RMRC byte format. *)
let test_golden_bytes () =
  let w = Syswire.W.create () in
  List.iter (Syswire.write_call w) sample_calls;
  List.iter (Syswire.write_result w) sample_results;
  Alcotest.(check string) "md5 of every sample's encoding"
    "67180ab176170f1d94a1913f9b09ef16"
    (Digest.to_hex (Digest.string (Syswire.W.contents w)))

(* [W.int] writes the same bytes as [W.i64] of the same value: at the
   zigzag edges (2^62 itself is [min_int]) and at random ints. *)
let test_int_is_i64 () =
  let random =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:10_000
      QCheck2.Gen.int
  in
  List.iter
    (fun n ->
      Alcotest.(check string) (string_of_int n)
        (encode Syswire.W.i64 (Int64.of_int n))
        (encode Syswire.W.int n))
    ([ 0; 1; -1; 64; -64; 1 lsl 61; -(1 lsl 61); max_int; min_int ] @ random)

(* ------------------------------------------------------------------ *)
(* The Sysno and Errno tables *)

let test_sysno_table () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Sysno.to_string s) true
        (Sysno.of_index (Sysno.index s) = Some s))
    Sysno.all;
  Alcotest.(check int) "slots = number of calls" Sysno.slots
    (List.length Sysno.all);
  Alcotest.(check bool) "none below 0" true (Sysno.of_index (-1) = None);
  Alcotest.(check bool) "none at slots" true
    (Sysno.of_index Sysno.slots = None);
  let names = List.map Sysno.to_string Sysno.all in
  Alcotest.(check int) "names distinct" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_errno_table () =
  List.iteri
    (fun i e ->
      Alcotest.(check int) (Errno.to_string e) i (Errno.index e);
      Alcotest.(check bool) (Errno.to_string e) true
        (Errno.of_index (Errno.index e) = Some e))
    errnos;
  let n = Array.length Errno.table in
  Alcotest.(check int) "table covers every errno" (List.length errnos) n;
  Alcotest.(check bool) "none below 0" true (Errno.of_index (-1) = None);
  Alcotest.(check bool) "none at length" true (Errno.of_index n = None);
  let names = List.map Errno.to_string errnos in
  Alcotest.(check int) "names distinct" n
    (List.length (List.sort_uniq compare names))

(* Tags one past each table decode to [Corrupt], never an exception. *)
let test_tag_past_table () =
  let corrupt name read s =
    match read (Syswire.R.of_string s) with
    | _ -> Alcotest.failf "%s decoded" name
    | exception Syswire.Fail (Syswire.Corrupt _) -> ()
    | exception Syswire.Fail Syswire.Truncated ->
      Alcotest.failf "%s: Truncated, expected Corrupt" name
  in
  corrupt "call tag = slots" Syswire.read_call
    (encode Syswire.W.uint Sysno.slots);
  corrupt "errno tag = table length" Syswire.read_result
    (encode Syswire.W.u8 12 ^ encode Syswire.W.uint (Array.length Errno.table));
  corrupt "ipmon_register sysno = slots" Syswire.read_call
    (encode Syswire.W.uint (Sysno.index Sysno.Ipmon_register)
    ^ encode Syswire.W.uint 1
    ^ encode Syswire.W.uint Sysno.slots)

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
      ( "golden",
        [
          Alcotest.test_case "samples keyed by number" `Quick test_golden_keys;
          Alcotest.test_case "calls round-trip, prefixes fail" `Quick
            test_golden_calls;
          Alcotest.test_case "results round-trip, prefixes fail" `Quick
            test_golden_results;
          Alcotest.test_case "encodings pinned" `Quick test_golden_bytes;
          Alcotest.test_case "int writes as i64" `Quick test_int_is_i64;
        ] );
      ( "tables",
        [
          Alcotest.test_case "sysno index and names" `Quick test_sysno_table;
          Alcotest.test_case "errno index and names" `Quick test_errno_table;
          Alcotest.test_case "tag past the table is corrupt" `Quick
            test_tag_past_table;
        ] );
    ]
