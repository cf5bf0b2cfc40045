(** The replicated stream in the shared segment (Section 2.3): one
    append-only, master-ordered array of events that every consumer reads
    through its own int cursor.

    - The record/replay agent's lock-order cursors (one per variant) read
      the [Lock] events to replay the master's acquisition order.
    - A respawned replica's call cursors (one per thread rank, kept by
      GHUMVEE) read that rank's [Call] events to resynchronize with the
      group.
    - A recording ({!Recording}) is a slice of the stream.

    A cursor moves past every event that is not its own, also when a poll
    finds nothing, so each cursor does work linear in the stream length.

    Memory bound: while capturing, one event per replicated master call,
    delivered signal and ring flush, plus one per lock acquisition; without
    capture, the lock events only. Nothing is compacted: the stream lives
    as long as the group. *)

open Remon_kernel

type event =
  | Call of { rank : int; call : Syscall.call; result : Syscall.result }
      (** one replicated master call on thread [rank] *)
  | Lock of { lock_id : int; thread_rank : int }
      (** user-space lock acquisition order (Section 2.3 agent) *)
  | Signal of { rank : int; signo : int }  (** delivered/injected signal *)
  | Flush of { reason : string; count : int }  (** ring drain boundary *)

type t

val create : nreplicas:int -> t

val capture : t -> unit
(** Keep every event from now on. Off by default: [Mvee] turns it on when
    the run is recorded or the recovery policy is [Respawn]; otherwise only
    [Lock] events are kept. *)

val length : t -> int
val events : t -> event array
(** A copy of the whole stream. *)

(** {1 Appending (master side)} *)

val append_lock : t -> lock_id:int -> thread_rank:int -> unit
(** Always kept. *)

val append_call :
  t -> rank:int -> call:Syscall.call -> result:Syscall.result -> unit
(** No-op unless capturing. *)

val append_signal : t -> rank:int -> signo:int -> unit
(** No-op unless capturing. *)

val append_flush : t -> reason:string -> count:int -> unit
(** No-op unless capturing. *)

val set_on_call : t -> (rank:int -> unit) -> unit
(** Callback fired after each appended [Call]; GHUMVEE uses it to feed
    replaying replicas waiting at the head of their call cursor. *)

(** {1 Lock-order cursors} *)

val peek : t -> variant:int -> event option
(** The next [Lock] event for [variant], if the master has produced it. *)

val advance : t -> variant:int -> unit
(** Move [variant]'s lock cursor past its next [Lock] event. *)

val reset_variant : t -> variant:int -> unit
(** Rewind [variant]'s lock cursor to 0; a respawned replica re-consumes
    the whole lock-order history. *)

(** {1 Call cursors} *)

val seek_call : t -> rank:int -> int -> int
(** [seek_call t ~rank pos] is the index of the first [Call] on [rank] at
    or after [pos], or [length t] when the master has produced none yet. *)

val get : t -> int -> event option
(** The event at an index; [None] at or past the head. *)
