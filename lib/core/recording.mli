(** Versioned binary recordings of a replicated run (deployable
    record/replay, after rr). A recording is a header, a slice of the
    group's replicated stream ({!Record_log}: syscalls with normalized args
    and results, lock-order events, signal deliveries and ring-flush
    boundaries, in master order) and the verdict, serialized with the
    {!Remon_kernel.Syswire} codec.

    File layout (format version 1):
    {v
    magic   "RMRC"                          4 bytes
    version u8 = 1
    header  backend / nreplicas / seed / level / on_failure / faults /
            workload (strings via the CLI's converters)
    events  uint count, then per event: u8 tag + payload
    trailer verdict (class + rendered, optional) then the MD5 of every
            preceding byte; no trailing bytes allowed
    v}

    Versioning policy: the magic never changes; a reader rejects any
    version it does not know with a typed error. Within version 1 the
    syscall tag space is [Sysno.index], which is append-only. *)

open Remon_kernel

val version : int

type header = {
  backend : string;  (** {!Mvee.backend_to_string} *)
  nreplicas : int;
  seed : int;
  level : string;  (** classification level, or ["monitor-all"] *)
  on_failure : string;  (** {!Mvee.on_failure_to_string} *)
  faults : string;  (** fault plan, {!Fault.to_string} *)
  workload : string;  (** registry name; [""] for ad-hoc bodies *)
  shm_key : int;
      (** the group's SysV key — allocated from a process-global counter,
          so it must be pinned for shm traffic to replay byte-identically;
          [0] = unknown *)
}

type event = Record_log.event =
  | Call of { rank : int; call : Syscall.call; result : Syscall.result }
      (** one replicated master call on thread [rank] *)
  | Lock of { lock_id : int; thread_rank : int }
      (** user-space lock acquisition order (Section 2.3 agent) *)
  | Signal of { rank : int; signo : int }  (** delivered/injected signal *)
  | Flush of { reason : string; count : int }  (** ring drain boundary *)

type t = { header : header; events : event array; verdict : (string * string) option }
(** [verdict = Some (class, rendered)]; [None] = clean run. *)

val equal_event : event -> event -> bool

val equal : t -> t -> bool
(** Header, verdict and events (via {!equal_event}) all equal. The
    encoding is deterministic and injective — tagged, length-prefixed, no
    floats — so [equal a b] holds exactly when
    [String.equal (to_string a) (to_string b)]; use it to compare two
    in-memory recordings without serializing either. *)

val event_to_string : event -> string

(* {1 Serialization} *)

val to_string : t -> string
val of_string : string -> (t, Syswire.error) result
(** Total: malformed input — truncation, bit flips, bad tags, trailing
    bytes, checksum mismatch — yields [Error], never an exception. *)

val to_file : t -> string -> unit
(** Atomic (tmp + rename) write. *)

val of_file : string -> (t, Syswire.error) result

val with_workload : t -> string -> t

(* {1 Digests} *)

val stream_digest : t -> string
(** MD5 (hex) over the serialized event stream alone — header-independent,
    so the same execution recorded under different labels compares equal. *)
