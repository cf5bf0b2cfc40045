(** Multi-host world: conservative-parallel (PDES) shard runner.

    Each simulated host owns a whole kernel; hosts interact only through
    typed inter-host links with a fixed positive latency (the lookahead).
    [run] drives all hosts in barrier-synchronous conservative rounds —
    sequentially with [shards = 1], on OCaml 5 domains otherwise — and the
    round structure is identical either way, so every observable outcome
    (digests, recordings, traces) is byte-identical at any shard count,
    and identical between the two lookahead modes. *)

open Remon_kernel
open Remon_sim

type t

type mode =
  | Fixed
      (** single-latency lookahead over all host pairs — the reference
          algorithm and the conservative-safety oracle *)
  | Adaptive
      (** per-pair earliest-output guarantees: bounds advance past a
          single link latency when inbound links are provably idle
          (default) *)

val create :
  ?link_latency:Vtime.t -> n:int -> mk:(int -> Kernel.t) -> unit -> t
(** [create ~n ~mk ()] builds [n] hosts; host [i]'s kernel is [mk i].
    Links are created lazily on first use (no eager n^2 mesh).
    [link_latency] defaults to the cost model's inter-host latency
    ({!Cost_model.link_latency} of the default model) and must be
    positive — it is the conservative lookahead. *)

val n_hosts : t -> int
val kernel : t -> int -> Kernel.t
val hostnet : t -> int -> Hostnet.t

val route : ?initiators:int list -> t -> port:int -> host:int -> unit
(** Statically declare that [port] is served from [host]; connects from
    initiator hosts are carried over the links. [initiators] is the set of
    hosts that may ever connect to the port (default: every host) —
    narrowing it is what lets adaptive lookahead decouple unrelated host
    groups. Routing must be set up before [run]. *)

exception Conservative_violation of {
  src : int;
  dst : int;
  at : Vtime.t;  (** the message's delivery time *)
  clock : Vtime.t;  (** the destination's clock when it drained it *)
}
(** A message from host [src] would be delivered to host [dst] behind
    [dst]'s clock: the conservative contract is broken. Checked on every
    delivery, in every mode, and raised out of {!run} unchanged whichever
    shard detected it. If hosts fail in the same round on several shards,
    {!run} raises the lowest host's failure, as it does at one shard. *)

val run : ?shards:int -> ?mode:mode -> t -> unit
(** Runs every host to completion. [shards] is clamped to the host count;
    [shards = 1] (default) is the sequential reference execution. Host [i]
    runs on shard {!shard_of}[ ~n ~shards i], and each shard drains its
    own hosts' inbound links before running them, so there is no serial
    drain between rounds. [mode] defaults to [Adaptive]; outcomes are
    byte-identical at any shard count and in either mode, only the round
    partitioning differs. Raises {!Conservative_violation} on a broken
    conservative contract. *)

val shard_of : n:int -> shards:int -> int -> int
(** [shard_of ~n ~shards i] is the shard that runs host [i] of [n]:
    [i * shards / n] with [shards] clamped to [n] as in {!run}. Shards are
    contiguous blocks whose sizes differ by at most one, so hosts numbered
    next to each other share a shard. Placement never affects outcomes. *)

val rounds : t -> int
(** Conservative rounds executed so far (a parallelism diagnostic). *)

val link_stats : t -> (int * int * int * int) list
(** Per-link [(src, dst, messages, data_bytes)] tallies for every link
    created so far, sorted by [(src, dst)]. *)
