(** Offline replay of {!Recording} files: re-executes the recorded
    configuration in a fresh kernel (optionally under a different backend —
    a first-class mode), compares the replayed stream against the
    recording, and on a fork runs time-travel divergence bisection: it
    locates the first record where the replica's visible stream forks from
    the recorded master stream.

    Both recordings are in memory, so nothing is serialized to compare
    them: identity is {!Recording.equal} (equivalent to comparing the RMRC
    bytes), and the fork point is one left-to-right {!Recording.equal_event}
    scan that stops at the first differing record. *)

type report = {
  recorded : Recording.t;
  replayed : Recording.t;
  identical : bool;
      (** same backend and {!Recording.equal} — i.e. byte-identical
          serializations — the same-backend replay oracle *)
  verdict_class_agrees : bool;
      (** verdict-class equality — the cross-backend replay oracle *)
  divergence : Divergence.replay_divergence option;
      (** bisection result when the event streams fork; [None] when the
          streams are identical (even if the verdicts differ) *)
}

val config_of_header :
  ?backend:Mvee.backend -> Recording.header -> (Mvee.config, string) result
(** Reconstruct the run configuration a recording describes. [?backend]
    overrides the recorded backend (replay-under-a-different-backend).
    Recording is re-enabled so the replay captures its own stream. *)

val bisect :
  ?context:int ->
  recorded:Recording.t ->
  replayed:Recording.t ->
  unit ->
  Divergence.replay_divergence option
(** Scan both event streams left to right for the first divergent record
    (or the shorter length when one stream is a prefix of the other);
    [None] when the streams are equal. The scan stops at the fork.
    [?context] is the half-width K of the report's ±K-record window
    (default 3). *)

val replay :
  ?backend:Mvee.backend ->
  ?context:int ->
  ?obs:Remon_obs.Obs.t ->
  Recording.t ->
  body:(Mvee.env -> unit) ->
  (report, string) result
(** Re-execute the recording's configuration with [body] (the workload the
    recording names; the caller resolves it — core cannot depend on the
    workload registry) and compare. [?obs] receives the replay run's
    structured trace plus [replay.*] instants marking begin/verdict/fork. *)
