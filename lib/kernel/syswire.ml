(* Binary wire codec for syscall values (recordings, reproducer files).

   Varint-based (LEB128, zigzag for signed fields). Each [Syscall.call]
   constructor is tagged with its dense [Sysno.index], so the tag space is
   stable as long as the syscall table is append-only; results and errnos
   carry their own small tag spaces. Decoding is fully bounds-checked and
   total: malformed input raises [Fail] with a typed [error] — never an
   out-of-bounds read, an unbounded allocation, or an escaping generic
   exception. That is the deliberate contrast with [Marshal], which is
   none of those things on corrupted bytes.

   Every wire form is a ['a codec]: a writer and a reader built together
   from the combinators below, so the two cannot disagree on field order.
   [call_case] gives each syscall number its form, in one exhaustive
   match. *)

type error = Truncated | Corrupt of string

let error_to_string = function
  | Truncated -> "truncated input"
  | Corrupt msg -> "corrupt input: " ^ msg

exception Fail of error

let fail e = raise (Fail e)
let corrupt msg = fail (Corrupt msg)

(* ------------------------------------------------------------------ *)
(* Writer *)

module W = struct
  type t = { buf : Buffer.t }

  let create ?(initial = 256) () = { buf = Buffer.create initial }
  let u8 t n = Buffer.add_char t.buf (Char.chr (n land 0xff))

  (* LEB128 of [n]'s bit pattern, read as unsigned: [lsr] brings in
     zeros, so a negative [n] takes nine bytes and then stops. *)
  let rec leb128 buf n =
    if n land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      leb128 buf (n lsr 7)
    end

  let uint t n =
    if n < 0 then invalid_arg "Syswire.W.uint: negative";
    leb128 t.buf n

  (* Zigzag + LEB128 over the full 64-bit range. *)
  let i64 t v =
    let zz = Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63) in
    let rec go zz =
      if Int64.equal (Int64.logand zz (Int64.lognot 0x7fL)) 0L then
        Buffer.add_char t.buf (Char.chr (Int64.to_int zz land 0x7f))
      else begin
        Buffer.add_char t.buf (Char.chr (0x80 lor (Int64.to_int zz land 0x7f)));
        go (Int64.shift_right_logical zz 7)
      end
    in
    go zz

  (* The same bytes as [i64 t (Int64.of_int n)], without boxing: the
     64-bit zigzag of a 63-bit int is below 2^63, so it is exactly the
     native zigzag's bit pattern. *)
  let int t n = leb128 t.buf ((n lsl 1) lxor (n asr 62))
  let bool t b = u8 t (if b then 1 else 0)

  let str t s =
    uint t (String.length s);
    Buffer.add_string t.buf s

  let contents t = Buffer.contents t.buf
end

(* ------------------------------------------------------------------ *)
(* Reader *)

module R = struct
  type t = { data : string; mutable pos : int; limit : int }

  let of_string ?(pos = 0) ?len s =
    let limit = match len with Some l -> pos + l | None -> String.length s in
    if pos < 0 || limit > String.length s || pos > limit then
      invalid_arg "Syswire.R.of_string: bad slice";
    { data = s; pos; limit }

  let pos t = t.pos
  let remaining t = t.limit - t.pos

  let u8 t =
    if t.pos >= t.limit then fail Truncated;
    let b = Char.code t.data.[t.pos] in
    t.pos <- t.pos + 1;
    b

  let uint t =
    let rec go shift acc =
      if shift > 62 then corrupt "overlong varint"
      else begin
        let b = u8 t in
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b < 0x80 then acc else go (shift + 7) acc
      end
    in
    let n = go 0 0 in
    if n < 0 then corrupt "varint out of range";
    n

  let i64 t =
    let rec go shift acc =
      if shift > 63 then corrupt "overlong varint"
      else begin
        let b = u8 t in
        let acc =
          Int64.logor acc (Int64.shift_left (Int64.of_int (b land 0x7f)) shift)
        in
        if b < 0x80 then acc else go (shift + 7) acc
      end
    in
    let zz = go 0 0L in
    Int64.logxor
      (Int64.shift_right_logical zz 1)
      (Int64.neg (Int64.logand zz 1L))

  let int t =
    let v = i64 t in
    let n = Int64.to_int v in
    if not (Int64.equal (Int64.of_int n) v) then corrupt "int out of range";
    n

  let bool t =
    match u8 t with 0 -> false | 1 -> true | _ -> corrupt "bad bool"

  let str t =
    let n = uint t in
    if n > remaining t then fail Truncated;
    let s = String.sub t.data t.pos n in
    t.pos <- t.pos + n;
    s
end

(* ------------------------------------------------------------------ *)
(* Codecs *)

type 'a codec = { write : W.t -> 'a -> unit; read : R.t -> 'a }

let unit = { write = (fun _ () -> ()); read = (fun _ -> ()) }
let u8 = { write = W.u8; read = R.u8 }
let uint = { write = W.uint; read = R.uint }
let int = { write = W.int; read = R.int }
let i64 = { write = W.i64; read = R.i64 }
let bool = { write = W.bool; read = R.bool }
let str = { write = W.str; read = R.str }

let pair a b =
  {
    write =
      (fun w (x, y) ->
        a.write w x;
        b.write w y);
    read =
      (fun r ->
        let x = a.read r in
        let y = b.read r in
        (x, y));
  }

let triple a b c =
  {
    write =
      (fun w (x, y, z) ->
        a.write w x;
        b.write w y;
        c.write w z);
    read =
      (fun r ->
        let x = a.read r in
        let y = b.read r in
        let z = c.read r in
        (x, y, z));
  }

let option c =
  {
    write =
      (fun w -> function
        | None -> W.bool w false
        | Some x ->
          W.bool w true;
          c.write w x);
    read = (fun r -> if R.bool r then Some (c.read r) else None);
  }

(* Each element costs at least one byte, so a length exceeding the bytes
   left is provably truncated — checked before any allocation. *)
let list c =
  {
    write =
      (fun w l ->
        W.uint w (List.length l);
        List.iter (c.write w) l);
    read =
      (fun r ->
        let n = R.uint r in
        if n > R.remaining r then fail Truncated;
        List.init n (fun _ -> c.read r));
  }

let map inj proj c =
  { write = (fun w v -> c.write w (proj v)); read = (fun r -> inj (c.read r)) }

(* Booleans packed into one byte, bit [i] from [bits.(i)]; [make] rebuilds
   the value from the byte. A set bit past the last flag is corrupt. *)
let flags what (bits : ('a -> bool) array) (make : int -> 'a) =
  let bad = "bad " ^ what and n = Array.length bits in
  {
    write =
      (fun w v ->
        let b = ref 0 in
        for i = 0 to n - 1 do
          if bits.(i) v then b := !b lor (1 lsl i)
        done;
        W.u8 w !b);
    read =
      (fun r ->
        let b = R.u8 r in
        if b lsr n <> 0 then corrupt bad;
        make b);
  }

let bit b i = b land (1 lsl i) <> 0

(* One constructor of a variant: the codec of its fields, the injection
   that builds it and the projection that takes it apart. A projection is
   only applied to its own constructor. *)
type 'v case =
  | Case : { fields : 'f codec; inj : 'f -> 'v; proj : 'v -> 'f } -> 'v case

let case fields inj proj = Case { fields; inj; proj }
let const v = Case { fields = unit; inj = (fun () -> v); proj = (fun _ -> ()) }
let other _ = invalid_arg "Syswire: projection applied to another constructor"

(* The tag [tag v] in the [tagc] codec, then the fields of
   [cases.(tag v)]: [tag v] must be the position of [v]'s case. *)
let tagged tagc what tag cases =
  let bad = "bad " ^ what in
  {
    write =
      (fun w v ->
        let i = tag v in
        tagc.write w i;
        match cases.(i) with Case k -> k.fields.write w (k.proj v));
    read =
      (fun r ->
        let i = tagc.read r in
        if i >= Array.length cases then corrupt bad;
        match cases.(i) with Case k -> k.inj (k.fields.read r));
  }

let sum what tag cases = tagged u8 what tag cases

(* A sum of constant constructors, tagged by position in [values].
   Constant constructors are immediates, so [==] tells them apart. *)
let enum what values =
  let rec position v i =
    if i = Array.length values then invalid_arg ("Syswire: unlisted " ^ what)
    else if values.(i) == v then i
    else position v (i + 1)
  in
  sum what (fun v -> position v 0) (Array.map const values)

(* A value numbered by a dense table index, as [Sysno] and [Errno] do. *)
let indexed what index of_index =
  let bad = "bad " ^ what in
  let of_tag i = match of_index i with Some v -> v | None -> corrupt bad in
  map of_tag index uint

let sysno = indexed "sysno index" Sysno.index Sysno.of_index
let errno = indexed "errno tag" Errno.index Errno.of_index

(* ------------------------------------------------------------------ *)
(* Syscall field types *)

let events =
  flags "poll events"
    Syscall.
      [|
        (fun e -> e.pollin); (fun e -> e.pollout); (fun e -> e.pollhup);
        (fun e -> e.pollerr);
      |]
    (fun b ->
      Syscall.
        {
          pollin = bit b 0;
          pollout = bit b 1;
          pollhup = bit b 2;
          pollerr = bit b 3;
        })

let open_flags =
  flags "open flags"
    Syscall.
      [|
        (fun f -> f.read); (fun f -> f.write); (fun f -> f.create);
        (fun f -> f.trunc); (fun f -> f.append); (fun f -> f.nonblock);
      |]
    (fun b ->
      Syscall.
        {
          read = bit b 0;
          write = bit b 1;
          create = bit b 2;
          trunc = bit b 3;
          append = bit b 4;
          nonblock = bit b 5;
        })

let prot =
  flags "prot"
    Syscall.[| (fun p -> p.pr); (fun p -> p.pw); (fun p -> p.px) |]
    (fun b -> Syscall.{ pr = bit b 0; pw = bit b 1; px = bit b 2 })

let itimer =
  map
    (fun (interval_ns, value_ns) -> Syscall.{ interval_ns; value_ns })
    (fun s -> Syscall.(s.interval_ns, s.value_ns))
    (pair int int)

let ints = list int
let strs = list str
let timeout = option int
let pollfds = list (pair int events)
let clock = enum "clock id" [| `Realtime; `Monotonic |]
let whence = enum "whence" Syscall.[| Seek_set; Seek_cur; Seek_end |]
let domain = enum "socket domain" Syscall.[| Af_inet; Af_unix |]
let socktype = enum "socket type" Syscall.[| Sock_stream; Sock_dgram |]
let flock_op = enum "flock op" Syscall.[| Lock_sh; Lock_ex; Lock_un |]
let epoll_op = enum "epoll op" Syscall.[| Epoll_add; Epoll_mod; Epoll_del |]
let shutdown_how = enum "shutdown how" Syscall.[| Shut_rd; Shut_wr; Shut_rdwr |]

let sigmask_how =
  enum "sigmask how" Syscall.[| Sig_block; Sig_unblock; Sig_setmask |]

let stat_kind = enum "stat kind" [| `Reg; `Dir; `Fifo; `Sock; `Special |]

let stat =
  map
    (fun ((st_ino, st_size), (st_kind, st_mtime_ns)) ->
      Syscall.{ st_ino; st_size; st_kind; st_mtime_ns })
    (fun s -> Syscall.((s.st_ino, s.st_size), (s.st_kind, s.st_mtime_ns)))
    (pair (pair int int) (pair stat_kind int))

let futex_op =
  let open Syscall in
  sum "futex op"
    (function Futex_wait _ -> 0 | Futex_wake _ -> 1)
    [|
      case (triple i64 int timeout)
        (fun (addr, expected, timeout_ns) ->
          Futex_wait { addr; expected; timeout_ns })
        (function
          | Futex_wait { addr; expected; timeout_ns } ->
            (addr, expected, timeout_ns)
          | op -> other op);
      case (pair i64 int) (fun (addr, count) -> Futex_wake { addr; count })
        (function Futex_wake { addr; count } -> (addr, count) | op -> other op);
    |]

let ioctl_op =
  let open Syscall in
  sum "ioctl op"
    (function Fionread -> 0 | Fionbio _ -> 1 | Tiocgwinsz -> 2)
    [|
      const Fionread;
      case bool (fun b -> Fionbio b) (function Fionbio b -> b | op -> other op);
      const Tiocgwinsz;
    |]

let fcntl_op =
  let open Syscall in
  sum "fcntl op"
    (function F_getfl -> 0 | F_setfl _ -> 1 | F_dupfd _ -> 2)
    [|
      const F_getfl;
      case bool (fun nonblock -> F_setfl { nonblock })
        (function F_setfl { nonblock } -> nonblock | op -> other op);
      case int (fun n -> F_dupfd n) (function F_dupfd n -> n | op -> other op);
    |]

let map_kind =
  let open Syscall in
  sum "map kind"
    (function Map_anon -> 0 | Map_shared_anon -> 1 | Map_file _ -> 2)
    [|
      const Map_anon;
      const Map_shared_anon;
      case int (fun fd -> Map_file fd)
        (function Map_file fd -> fd | k -> other k);
    |]

let sig_action =
  let open Syscall in
  sum "sigaction"
    (function Sig_default -> 0 | Sig_ignore -> 1 | Sig_handler _ -> 2)
    [|
      const Sig_default;
      const Sig_ignore;
      case int (fun id -> Sig_handler id)
        (function Sig_handler id -> id | a -> other a);
    |]

(* ------------------------------------------------------------------ *)
(* Calls *)

(* The fields that follow each call's [Sysno.index] tag. *)
let call_case : Sysno.t -> Syscall.call case =
  let open Syscall in
  function
  | Sysno.Gettimeofday -> const Gettimeofday
  | Sysno.Clock_gettime ->
    case clock (fun x -> Clock_gettime x)
      (function Clock_gettime x -> x | c -> other c)
  | Sysno.Time -> const Time
  | Sysno.Getpid -> const Getpid
  | Sysno.Gettid -> const Gettid
  | Sysno.Getpgrp -> const Getpgrp
  | Sysno.Getppid -> const Getppid
  | Sysno.Getgid -> const Getgid
  | Sysno.Getegid -> const Getegid
  | Sysno.Getuid -> const Getuid
  | Sysno.Geteuid -> const Geteuid
  | Sysno.Getcwd -> const Getcwd
  | Sysno.Getpriority -> const Getpriority
  | Sysno.Getrusage -> const Getrusage
  | Sysno.Times -> const Times
  | Sysno.Capget -> const Capget
  | Sysno.Getitimer -> const Getitimer
  | Sysno.Sysinfo -> const Sysinfo
  | Sysno.Uname -> const Uname
  | Sysno.Sched_yield -> const Sched_yield
  | Sysno.Nanosleep ->
    case int (fun x -> Nanosleep x) (function Nanosleep x -> x | c -> other c)
  | Sysno.Getpgid -> const Getpgid
  | Sysno.Getsid -> const Getsid
  | Sysno.Getrlimit ->
    case int (fun x -> Getrlimit x) (function Getrlimit x -> x | c -> other c)
  | Sysno.Sched_getaffinity -> const Sched_getaffinity
  | Sysno.Clock_getres -> const Clock_getres
  | Sysno.Getrandom ->
    case int (fun x -> Getrandom x) (function Getrandom x -> x | c -> other c)
  | Sysno.Futex ->
    case futex_op (fun x -> Futex x) (function Futex x -> x | c -> other c)
  | Sysno.Ioctl ->
    case (pair int ioctl_op) (fun (x, y) -> Ioctl (x, y))
      (function Ioctl (x, y) -> (x, y) | c -> other c)
  | Sysno.Fcntl ->
    case (pair int fcntl_op) (fun (x, y) -> Fcntl (x, y))
      (function Fcntl (x, y) -> (x, y) | c -> other c)
  | Sysno.Access ->
    case str (fun x -> Access x) (function Access x -> x | c -> other c)
  | Sysno.Faccessat ->
    case str (fun x -> Faccessat x) (function Faccessat x -> x | c -> other c)
  | Sysno.Lseek ->
    case (triple int int whence) (fun (x, y, z) -> Lseek (x, y, z))
      (function Lseek (x, y, z) -> (x, y, z) | c -> other c)
  | Sysno.Stat ->
    case str (fun x -> Stat x) (function Stat x -> x | c -> other c)
  | Sysno.Lstat ->
    case str (fun x -> Lstat x) (function Lstat x -> x | c -> other c)
  | Sysno.Fstat ->
    case int (fun x -> Fstat x) (function Fstat x -> x | c -> other c)
  | Sysno.Fstatat ->
    case str (fun x -> Fstatat x) (function Fstatat x -> x | c -> other c)
  | Sysno.Getdents ->
    case int (fun x -> Getdents x) (function Getdents x -> x | c -> other c)
  | Sysno.Readlink ->
    case str (fun x -> Readlink x) (function Readlink x -> x | c -> other c)
  | Sysno.Readlinkat ->
    case str (fun x -> Readlinkat x) (function Readlinkat x -> x | c -> other c)
  | Sysno.Getxattr ->
    case (pair str str) (fun (x, y) -> Getxattr (x, y))
      (function Getxattr (x, y) -> (x, y) | c -> other c)
  | Sysno.Lgetxattr ->
    case (pair str str) (fun (x, y) -> Lgetxattr (x, y))
      (function Lgetxattr (x, y) -> (x, y) | c -> other c)
  | Sysno.Fgetxattr ->
    case (pair int str) (fun (x, y) -> Fgetxattr (x, y))
      (function Fgetxattr (x, y) -> (x, y) | c -> other c)
  | Sysno.Alarm ->
    case int (fun x -> Alarm x) (function Alarm x -> x | c -> other c)
  | Sysno.Setitimer ->
    case itimer (fun x -> Setitimer x)
      (function Setitimer x -> x | c -> other c)
  | Sysno.Timerfd_gettime ->
    case int (fun x -> Timerfd_gettime x)
      (function Timerfd_gettime x -> x | c -> other c)
  | Sysno.Madvise ->
    case (pair i64 int) (fun (addr, len) -> Madvise { addr; len })
      (function Madvise { addr; len } -> (addr, len) | c -> other c)
  | Sysno.Fadvise64 ->
    case int (fun x -> Fadvise64 x) (function Fadvise64 x -> x | c -> other c)
  | Sysno.Statfs ->
    case str (fun x -> Statfs x) (function Statfs x -> x | c -> other c)
  | Sysno.Fstatfs ->
    case int (fun x -> Fstatfs x) (function Fstatfs x -> x | c -> other c)
  | Sysno.Getdents64 ->
    case int (fun x -> Getdents64 x) (function Getdents64 x -> x | c -> other c)
  | Sysno.Readahead ->
    case int (fun x -> Readahead x) (function Readahead x -> x | c -> other c)
  | Sysno.Mincore ->
    case (pair i64 int) (fun (addr, len) -> Mincore { addr; len })
      (function Mincore { addr; len } -> (addr, len) | c -> other c)
  | Sysno.Read ->
    case (pair int int) (fun (x, y) -> Read (x, y))
      (function Read (x, y) -> (x, y) | c -> other c)
  | Sysno.Readv ->
    case (pair int ints) (fun (x, y) -> Readv (x, y))
      (function Readv (x, y) -> (x, y) | c -> other c)
  | Sysno.Pread64 ->
    case (triple int int int) (fun (x, y, z) -> Pread64 (x, y, z))
      (function Pread64 (x, y, z) -> (x, y, z) | c -> other c)
  | Sysno.Preadv ->
    case (triple int ints int) (fun (x, y, z) -> Preadv (x, y, z))
      (function Preadv (x, y, z) -> (x, y, z) | c -> other c)
  | Sysno.Select ->
    case (triple ints ints timeout)
      (fun (readfds, writefds, timeout_ns) ->
        Select { readfds; writefds; timeout_ns })
      (function
        | Select { readfds; writefds; timeout_ns } ->
          (readfds, writefds, timeout_ns)
        | c -> other c)
  | Sysno.Poll ->
    case (pair pollfds timeout)
      (fun (fds, timeout_ns) -> Poll { fds; timeout_ns })
      (function Poll { fds; timeout_ns } -> (fds, timeout_ns) | c -> other c)
  | Sysno.Pselect6 ->
    case (triple ints ints timeout)
      (fun (readfds, writefds, timeout_ns) ->
        Pselect6 { readfds; writefds; timeout_ns })
      (function
        | Pselect6 { readfds; writefds; timeout_ns } ->
          (readfds, writefds, timeout_ns)
        | c -> other c)
  | Sysno.Ppoll ->
    case (pair pollfds timeout)
      (fun (fds, timeout_ns) -> Ppoll { fds; timeout_ns })
      (function Ppoll { fds; timeout_ns } -> (fds, timeout_ns) | c -> other c)
  | Sysno.Sync -> const Sync
  | Sysno.Syncfs ->
    case int (fun x -> Syncfs x) (function Syncfs x -> x | c -> other c)
  | Sysno.Fsync ->
    case int (fun x -> Fsync x) (function Fsync x -> x | c -> other c)
  | Sysno.Fdatasync ->
    case int (fun x -> Fdatasync x) (function Fdatasync x -> x | c -> other c)
  | Sysno.Timerfd_settime ->
    case (pair int itimer) (fun (x, y) -> Timerfd_settime (x, y))
      (function Timerfd_settime (x, y) -> (x, y) | c -> other c)
  | Sysno.Msync ->
    case (pair i64 int) (fun (addr, len) -> Msync { addr; len })
      (function Msync { addr; len } -> (addr, len) | c -> other c)
  | Sysno.Flock ->
    case (pair int flock_op) (fun (x, y) -> Flock (x, y))
      (function Flock (x, y) -> (x, y) | c -> other c)
  | Sysno.Chmod ->
    case (pair str int) (fun (x, y) -> Chmod (x, y))
      (function Chmod (x, y) -> (x, y) | c -> other c)
  | Sysno.Fchmod ->
    case (pair int int) (fun (x, y) -> Fchmod (x, y))
      (function Fchmod (x, y) -> (x, y) | c -> other c)
  | Sysno.Chown ->
    case (triple str int int) (fun (x, y, z) -> Chown (x, y, z))
      (function Chown (x, y, z) -> (x, y, z) | c -> other c)
  | Sysno.Utimensat ->
    case str (fun x -> Utimensat x) (function Utimensat x -> x | c -> other c)
  | Sysno.Write ->
    case (pair int str) (fun (x, y) -> Write (x, y))
      (function Write (x, y) -> (x, y) | c -> other c)
  | Sysno.Writev ->
    case (pair int strs) (fun (x, y) -> Writev (x, y))
      (function Writev (x, y) -> (x, y) | c -> other c)
  | Sysno.Pwrite64 ->
    case (triple int str int) (fun (x, y, z) -> Pwrite64 (x, y, z))
      (function Pwrite64 (x, y, z) -> (x, y, z) | c -> other c)
  | Sysno.Pwritev ->
    case (triple int strs int) (fun (x, y, z) -> Pwritev (x, y, z))
      (function Pwritev (x, y, z) -> (x, y, z) | c -> other c)
  | Sysno.Epoll_wait ->
    case (triple int int timeout)
      (fun (epfd, max_events, timeout_ns) ->
        Epoll_wait { epfd; max_events; timeout_ns })
      (function
        | Epoll_wait { epfd; max_events; timeout_ns } ->
          (epfd, max_events, timeout_ns)
        | c -> other c)
  | Sysno.Recvfrom ->
    case (pair int int) (fun (x, y) -> Recvfrom (x, y))
      (function Recvfrom (x, y) -> (x, y) | c -> other c)
  | Sysno.Recvmsg ->
    case (pair int int) (fun (x, y) -> Recvmsg (x, y))
      (function Recvmsg (x, y) -> (x, y) | c -> other c)
  | Sysno.Recvmmsg ->
    case (triple int int int) (fun (x, y, z) -> Recvmmsg (x, y, z))
      (function Recvmmsg (x, y, z) -> (x, y, z) | c -> other c)
  | Sysno.Getsockname ->
    case int (fun x -> Getsockname x)
      (function Getsockname x -> x | c -> other c)
  | Sysno.Getpeername ->
    case int (fun x -> Getpeername x)
      (function Getpeername x -> x | c -> other c)
  | Sysno.Getsockopt ->
    case (pair int int) (fun (x, y) -> Getsockopt (x, y))
      (function Getsockopt (x, y) -> (x, y) | c -> other c)
  | Sysno.Sendto ->
    case (pair int str) (fun (x, y) -> Sendto (x, y))
      (function Sendto (x, y) -> (x, y) | c -> other c)
  | Sysno.Sendmsg ->
    case (pair int str) (fun (x, y) -> Sendmsg (x, y))
      (function Sendmsg (x, y) -> (x, y) | c -> other c)
  | Sysno.Sendmmsg ->
    case (pair int strs) (fun (x, y) -> Sendmmsg (x, y))
      (function Sendmmsg (x, y) -> (x, y) | c -> other c)
  | Sysno.Sendfile ->
    case (triple int int int)
      (fun (out_fd, in_fd, count) -> Sendfile { out_fd; in_fd; count })
      (function
        | Sendfile { out_fd; in_fd; count } -> (out_fd, in_fd, count)
        | c -> other c)
  | Sysno.Epoll_ctl ->
    case
      (pair (triple int epoll_op int) (pair events i64))
      (fun ((epfd, op, fd), (events, user_data)) ->
        Epoll_ctl { epfd; op; fd; events; user_data })
      (function
        | Epoll_ctl { epfd; op; fd; events; user_data } ->
          ((epfd, op, fd), (events, user_data))
        | c -> other c)
  | Sysno.Setsockopt ->
    case (triple int int int) (fun (x, y, z) -> Setsockopt (x, y, z))
      (function Setsockopt (x, y, z) -> (x, y, z) | c -> other c)
  | Sysno.Shutdown ->
    case (pair int shutdown_how) (fun (x, y) -> Shutdown (x, y))
      (function Shutdown (x, y) -> (x, y) | c -> other c)
  | Sysno.Open ->
    case (pair str open_flags) (fun (x, y) -> Open (x, y))
      (function Open (x, y) -> (x, y) | c -> other c)
  | Sysno.Openat ->
    case (pair str open_flags) (fun (x, y) -> Openat (x, y))
      (function Openat (x, y) -> (x, y) | c -> other c)
  | Sysno.Creat ->
    case str (fun x -> Creat x) (function Creat x -> x | c -> other c)
  | Sysno.Close ->
    case int (fun x -> Close x) (function Close x -> x | c -> other c)
  | Sysno.Dup -> case int (fun x -> Dup x) (function Dup x -> x | c -> other c)
  | Sysno.Dup2 ->
    case (pair int int) (fun (x, y) -> Dup2 (x, y))
      (function Dup2 (x, y) -> (x, y) | c -> other c)
  | Sysno.Dup3 ->
    case (pair int int) (fun (x, y) -> Dup3 (x, y))
      (function Dup3 (x, y) -> (x, y) | c -> other c)
  | Sysno.Pipe2 ->
    case bool (fun nonblock -> Pipe2 { nonblock })
      (function Pipe2 { nonblock } -> nonblock | c -> other c)
  | Sysno.Eventfd ->
    case int (fun x -> Eventfd x) (function Eventfd x -> x | c -> other c)
  | Sysno.Pipe -> const Pipe
  | Sysno.Socket ->
    case (pair domain socktype) (fun (x, y) -> Socket (x, y))
      (function Socket (x, y) -> (x, y) | c -> other c)
  | Sysno.Socketpair ->
    case (pair domain socktype) (fun (x, y) -> Socketpair (x, y))
      (function Socketpair (x, y) -> (x, y) | c -> other c)
  | Sysno.Bind ->
    case (pair int int) (fun (x, y) -> Bind (x, y))
      (function Bind (x, y) -> (x, y) | c -> other c)
  | Sysno.Listen ->
    case (pair int int) (fun (x, y) -> Listen (x, y))
      (function Listen (x, y) -> (x, y) | c -> other c)
  | Sysno.Accept ->
    case int (fun x -> Accept x) (function Accept x -> x | c -> other c)
  | Sysno.Accept4 ->
    case (pair int bool) (fun (fd, nonblock) -> Accept4 { fd; nonblock })
      (function Accept4 { fd; nonblock } -> (fd, nonblock) | c -> other c)
  | Sysno.Connect ->
    case (pair int int) (fun (x, y) -> Connect (x, y))
      (function Connect (x, y) -> (x, y) | c -> other c)
  | Sysno.Epoll_create -> const Epoll_create
  | Sysno.Timerfd_create -> const Timerfd_create
  | Sysno.Unlink ->
    case str (fun x -> Unlink x) (function Unlink x -> x | c -> other c)
  | Sysno.Rename ->
    case (pair str str) (fun (x, y) -> Rename (x, y))
      (function Rename (x, y) -> (x, y) | c -> other c)
  | Sysno.Mkdir ->
    case str (fun x -> Mkdir x) (function Mkdir x -> x | c -> other c)
  | Sysno.Rmdir ->
    case str (fun x -> Rmdir x) (function Rmdir x -> x | c -> other c)
  | Sysno.Truncate ->
    case (pair str int) (fun (x, y) -> Truncate (x, y))
      (function Truncate (x, y) -> (x, y) | c -> other c)
  | Sysno.Ftruncate ->
    case (pair int int) (fun (x, y) -> Ftruncate (x, y))
      (function Ftruncate (x, y) -> (x, y) | c -> other c)
  | Sysno.Mkdirat ->
    case str (fun x -> Mkdirat x) (function Mkdirat x -> x | c -> other c)
  | Sysno.Unlinkat ->
    case str (fun x -> Unlinkat x) (function Unlinkat x -> x | c -> other c)
  | Sysno.Renameat ->
    case (pair str str) (fun (x, y) -> Renameat (x, y))
      (function Renameat (x, y) -> (x, y) | c -> other c)
  | Sysno.Link ->
    case (pair str str) (fun (x, y) -> Link (x, y))
      (function Link (x, y) -> (x, y) | c -> other c)
  | Sysno.Linkat ->
    case (pair str str) (fun (x, y) -> Linkat (x, y))
      (function Linkat (x, y) -> (x, y) | c -> other c)
  | Sysno.Symlink ->
    case (pair str str) (fun (x, y) -> Symlink (x, y))
      (function Symlink (x, y) -> (x, y) | c -> other c)
  | Sysno.Symlinkat ->
    case (pair str str) (fun (x, y) -> Symlinkat (x, y))
      (function Symlinkat (x, y) -> (x, y) | c -> other c)
  | Sysno.Umask ->
    case int (fun x -> Umask x) (function Umask x -> x | c -> other c)
  | Sysno.Mmap ->
    case (triple int prot map_kind)
      (fun (len, prot, kind) -> Mmap { len; prot; kind })
      (function Mmap { len; prot; kind } -> (len, prot, kind) | c -> other c)
  | Sysno.Munmap ->
    case (pair i64 int) (fun (addr, len) -> Munmap { addr; len })
      (function Munmap { addr; len } -> (addr, len) | c -> other c)
  | Sysno.Mprotect ->
    case (triple i64 int prot)
      (fun (addr, len, prot) -> Mprotect { addr; len; prot })
      (function
        | Mprotect { addr; len; prot } -> (addr, len, prot)
        | c -> other c)
  | Sysno.Mremap ->
    case (triple i64 int int)
      (fun (addr, old_len, new_len) -> Mremap { addr; old_len; new_len })
      (function
        | Mremap { addr; old_len; new_len } -> (addr, old_len, new_len)
        | c -> other c)
  | Sysno.Brk -> case int (fun x -> Brk x) (function Brk x -> x | c -> other c)
  | Sysno.Mlock ->
    case (pair i64 int) (fun (addr, len) -> Mlock { addr; len })
      (function Mlock { addr; len } -> (addr, len) | c -> other c)
  | Sysno.Munlock ->
    case (pair i64 int) (fun (addr, len) -> Munlock { addr; len })
      (function Munlock { addr; len } -> (addr, len) | c -> other c)
  | Sysno.Clone ->
    case int (fun x -> Clone x) (function Clone x -> x | c -> other c)
  | Sysno.Fork -> const Fork
  | Sysno.Execve ->
    case str (fun x -> Execve x) (function Execve x -> x | c -> other c)
  | Sysno.Exit ->
    case int (fun x -> Exit x) (function Exit x -> x | c -> other c)
  | Sysno.Exit_group ->
    case int (fun x -> Exit_group x) (function Exit_group x -> x | c -> other c)
  | Sysno.Wait4 ->
    case int (fun x -> Wait4 x) (function Wait4 x -> x | c -> other c)
  | Sysno.Kill ->
    case (pair int int) (fun (x, y) -> Kill (x, y))
      (function Kill (x, y) -> (x, y) | c -> other c)
  | Sysno.Tgkill ->
    case (triple int int int) (fun (x, y, z) -> Tgkill (x, y, z))
      (function Tgkill (x, y, z) -> (x, y, z) | c -> other c)
  | Sysno.Setrlimit ->
    case (pair int int) (fun (x, y) -> Setrlimit (x, y))
      (function Setrlimit (x, y) -> (x, y) | c -> other c)
  | Sysno.Prlimit64 ->
    case (pair int int) (fun (x, y) -> Prlimit64 (x, y))
      (function Prlimit64 (x, y) -> (x, y) | c -> other c)
  | Sysno.Sched_setaffinity ->
    case int (fun x -> Sched_setaffinity x)
      (function Sched_setaffinity x -> x | c -> other c)
  | Sysno.Setsid -> const Setsid
  | Sysno.Rt_sigaction ->
    case (pair int sig_action) (fun (x, y) -> Rt_sigaction (x, y))
      (function Rt_sigaction (x, y) -> (x, y) | c -> other c)
  | Sysno.Rt_sigprocmask ->
    case (pair sigmask_how ints) (fun (x, y) -> Rt_sigprocmask (x, y))
      (function Rt_sigprocmask (x, y) -> (x, y) | c -> other c)
  | Sysno.Rt_sigreturn -> const Rt_sigreturn
  | Sysno.Sigaltstack -> const Sigaltstack
  | Sysno.Pause -> const Pause
  | Sysno.Shmget ->
    case (triple int int bool)
      (fun (key, size, create) -> Shmget { key; size; create })
      (function
        | Shmget { key; size; create } -> (key, size, create)
        | c -> other c)
  | Sysno.Shmat ->
    case (pair int bool) (fun (shmid, readonly) -> Shmat { shmid; readonly })
      (function Shmat { shmid; readonly } -> (shmid, readonly) | c -> other c)
  | Sysno.Shmdt ->
    case i64 (fun addr -> Shmdt { addr })
      (function Shmdt { addr } -> addr | c -> other c)
  | Sysno.Shmctl ->
    case (pair int bool) (fun (shmid, rmid) -> Shmctl { shmid; rmid })
      (function Shmctl { shmid; rmid } -> (shmid, rmid) | c -> other c)
  | Sysno.Ipmon_register ->
    case (triple (list sysno) i64 i64)
      (fun (calls, rb_addr, entry_addr) ->
        Ipmon_register { calls; rb_addr; entry_addr })
      (function
        | Ipmon_register { calls; rb_addr; entry_addr } ->
          (calls, rb_addr, entry_addr)
        | c -> other c)

let call =
  tagged uint "call tag"
    (fun c -> Sysno.index (Syscall.number c))
    (Array.init Sysno.slots (fun i ->
         call_case (Option.get (Sysno.of_index i))))

let write_call = call.write
let read_call = call.read

(* ------------------------------------------------------------------ *)
(* Results *)

let result =
  let open Syscall in
  sum "result tag"
    (function
      | Ok_unit -> 0
      | Ok_int _ -> 1
      | Ok_int64 _ -> 2
      | Ok_data _ -> 3
      | Ok_str _ -> 4
      | Ok_stat _ -> 5
      | Ok_pair _ -> 6
      | Ok_poll _ -> 7
      | Ok_epoll _ -> 8
      | Ok_accept _ -> 9
      | Ok_dents _ -> 10
      | Ok_itimer _ -> 11
      | Error _ -> 12)
    [|
      const Ok_unit;
      case int (fun n -> Ok_int n) (function Ok_int n -> n | r -> other r);
      case i64 (fun v -> Ok_int64 v) (function Ok_int64 v -> v | r -> other r);
      case str (fun s -> Ok_data s) (function Ok_data s -> s | r -> other r);
      case str (fun s -> Ok_str s) (function Ok_str s -> s | r -> other r);
      case stat (fun s -> Ok_stat s) (function Ok_stat s -> s | r -> other r);
      case (pair int int) (fun (a, b) -> Ok_pair (a, b))
        (function Ok_pair (a, b) -> (a, b) | r -> other r);
      case pollfds (fun l -> Ok_poll l)
        (function Ok_poll l -> l | r -> other r);
      case (list (pair i64 events)) (fun l -> Ok_epoll l)
        (function Ok_epoll l -> l | r -> other r);
      case (pair int int)
        (fun (conn_fd, peer_port) -> Ok_accept { conn_fd; peer_port })
        (function
          | Ok_accept { conn_fd; peer_port } -> (conn_fd, peer_port)
          | r -> other r);
      case strs (fun l -> Ok_dents l) (function Ok_dents l -> l | r -> other r);
      case itimer (fun s -> Ok_itimer s)
        (function Ok_itimer s -> s | r -> other r);
      case errno (fun e -> Error e) (function Error e -> e | r -> other r);
    |]

let write_result = result.write
let read_result = result.read
