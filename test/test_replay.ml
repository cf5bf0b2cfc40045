(* Deployable record/replay: record -> offline replay identity on every
   backend, replay-under-a-different-backend verdict agreement, divergence
   bisection (must match a ground-truth linear scan exactly), and the
   double-respawn recovery regression. *)

open Remon_kernel
open Remon_core
open Remon_sim

let sys = Sched.syscall

let all_backends = [ Mvee.Native; Mvee.Ghumvee_only; Mvee.Varan; Mvee.Remon ]

let config ?(backend = Mvee.Remon) ?(faults = [])
    ?(on_failure = Mvee.Kill_group) () =
  {
    Mvee.default_config with
    backend;
    policy = Policy.spatial Classification.Socket_rw_level;
    faults;
    on_failure;
    record = true;
  }

(* Mixed stream: exempt fast-path calls plus a monitored open/write/close
   rendezvous every few iterations, so recordings carry both kinds. *)
let mixed_body ?(iters = 60) () (_env : Mvee.env) =
  for i = 1 to iters do
    ignore (sys Syscall.Gettimeofday);
    Sched.compute (Vtime.us 40);
    if i mod 5 = 0 then begin
      match
        sys
          (Syscall.Open
             ("/tmp/replay.txt", { Syscall.o_rdwr with create = true }))
      with
      | Syscall.Ok_int fd ->
        ignore (sys (Syscall.Write (fd, "x")));
        ignore (sys (Syscall.Close fd))
      | _ -> ()
    end
  done

let record cfg body =
  let o = Mvee.run_program cfg ~name:"rec" ~body in
  match o.Mvee.recording with
  | Some r -> r
  | None -> Alcotest.fail "run captured no recording"

let replay_exn ?backend recorded ~body =
  match Replayer.replay ?backend recorded ~body with
  | Ok rep -> rep
  | Error msg -> Alcotest.failf "replay failed: %s" msg

(* ------------------------------------------------------------------ *)
(* Same-backend replay is byte-identical, on every backend. *)

let test_replay_identity backend () =
  let body = mixed_body () in
  let recorded = record (config ~backend ()) body in
  (* Native is the unmonitored baseline: no replicated stream exists, so
     its recording is the empty stream — identity must hold regardless. *)
  if backend <> Mvee.Native then
    Alcotest.(check bool)
      "recorded something" true
      (Array.length recorded.Recording.events > 0);
  let rep = replay_exn recorded ~body in
  Alcotest.(check bool) "byte-identical" true rep.Replayer.identical;
  Alcotest.(check string) "stream digest"
    (Recording.stream_digest recorded)
    (Recording.stream_digest rep.Replayer.replayed);
  Alcotest.(check bool) "verdict class agrees" true
    rep.Replayer.verdict_class_agrees;
  Alcotest.(check bool) "no divergence" true (rep.Replayer.divergence = None)

(* A violating run replays byte-identically too, verdict included: the
   recording is the reproducer for the very failure it captured. *)
let test_replay_violation_identity () =
  let body = mixed_body () in
  let faults = [ Fault.spec ~kind:Fault.Corrupt_args ~variant:1 ~at:25 ] in
  let recorded = record (config ~backend:Mvee.Ghumvee_only ~faults ()) body in
  Alcotest.(check bool)
    "run has a verdict" true
    (recorded.Recording.verdict <> None);
  let rep = replay_exn recorded ~body in
  Alcotest.(check bool) "byte-identical" true rep.Replayer.identical;
  Alcotest.(check bool) "verdict class agrees" true
    rep.Replayer.verdict_class_agrees

(* ------------------------------------------------------------------ *)
(* Replay under a different backend: verdict classes must agree even
   though the streams legitimately differ. *)

let test_cross_backend target () =
  let body = mixed_body () in
  let recorded = record (config ~backend:Mvee.Remon ()) body in
  let rep = replay_exn ~backend:target recorded ~body in
  Alcotest.(check string)
    "replayed under the requested backend"
    (Mvee.backend_to_string target)
    rep.Replayer.replayed.Recording.header.Recording.backend;
  Alcotest.(check bool) "verdict classes agree" true
    rep.Replayer.verdict_class_agrees;
  if target <> Mvee.Remon then
    Alcotest.(check bool)
      "cross-backend replay never claims byte identity" false
      rep.Replayer.identical

(* ------------------------------------------------------------------ *)
(* Bisection *)

let tamper recording k =
  let events = Array.copy recording.Recording.events in
  events.(k) <-
    (match events.(k) with
    | Recording.Call c -> Recording.Call { c with rank = c.rank + 1 }
    | Recording.Lock l -> Recording.Lock { l with lock_id = l.lock_id + 1 }
    | Recording.Signal s -> Recording.Signal { s with signo = s.signo + 1 }
    | Recording.Flush f -> Recording.Flush { f with count = f.count + 1 });
  { recording with Recording.events }

(* Ground truth by linear scan, for checking the bisection against. *)
let linear_fork (a : Recording.t) (b : Recording.t) =
  let na = Array.length a.Recording.events in
  let nb = Array.length b.Recording.events in
  let n = min na nb in
  let rec go i =
    if i >= n then if na = nb then None else Some n
    else if
      Recording.equal_event a.Recording.events.(i) b.Recording.events.(i)
    then go (i + 1)
    else Some i
  in
  go 0

let test_bisect_pinpoints () =
  let recorded = record (config ()) (mixed_body ()) in
  let n = Array.length recorded.Recording.events in
  Alcotest.(check bool) "enough events to bisect" true (n > 20);
  List.iter
    (fun k ->
      let tampered = tamper recorded k in
      match Replayer.bisect ~recorded ~replayed:tampered () with
      | None -> Alcotest.failf "tamper@%d: no divergence reported" k
      | Some d ->
        Alcotest.(check int)
          (Printf.sprintf "tamper@%d: exact rank" k)
          k d.Divergence.first_rank;
        Alcotest.(check bool) "recorded event rendered" true
          (d.Divergence.recorded_ev <> None);
        Alcotest.(check bool) "replayed event rendered" true
          (d.Divergence.replayed_ev <> None);
        Alcotest.(check bool) "context window non-empty" true
          (d.Divergence.context <> []))
    [ 0; 1; n / 2; n - 1 ];
  Alcotest.(check bool)
    "identical streams: no divergence" true
    (Replayer.bisect ~recorded ~replayed:recorded () = None)

let test_bisect_truncation () =
  let recorded = record (config ()) (mixed_body ()) in
  let n = Array.length recorded.Recording.events in
  let m = n / 3 in
  let truncated =
    {
      recorded with
      Recording.events = Array.sub recorded.Recording.events 0 m;
    }
  in
  match Replayer.bisect ~recorded ~replayed:truncated () with
  | None -> Alcotest.fail "truncated stream: no divergence reported"
  | Some d ->
    Alcotest.(check int) "fork at the truncation point" m
      d.Divergence.first_rank;
    Alcotest.(check int) "totals" n d.Divergence.total_recorded;
    Alcotest.(check int) "totals" m d.Divergence.total_replayed

(* Clean vs fault-injected run of the same configuration: the bisection
   must land exactly where a linear scan does. *)
let test_bisect_matches_linear_scan () =
  let body = mixed_body () in
  let clean = record (config ~backend:Mvee.Ghumvee_only ()) body in
  let faults = [ Fault.spec ~kind:Fault.Corrupt_args ~variant:1 ~at:25 ] in
  let faulted = record (config ~backend:Mvee.Ghumvee_only ~faults ()) body in
  let expected = linear_fork clean faulted in
  Alcotest.(check bool) "the fault forked the stream" true (expected <> None);
  match (Replayer.bisect ~recorded:clean ~replayed:faulted (), expected) with
  | Some d, Some k ->
    Alcotest.(check int) "bisection = linear scan" k
      d.Divergence.first_rank
  | None, _ -> Alcotest.fail "bisect reported no divergence"
  | _, None -> assert false

(* ------------------------------------------------------------------ *)
(* Replay against an altered recording: identity covers every field the
   file carries, and the fork is reported where the alteration sits. *)

let test_replay_tampered_event () =
  let body = mixed_body () in
  let recorded = record (config ()) body in
  let n = Array.length recorded.Recording.events in
  List.iter
    (fun k ->
      let rep = replay_exn (tamper recorded k) ~body in
      Alcotest.(check bool)
        (Printf.sprintf "tamper@%d: not identical" k)
        false rep.Replayer.identical;
      match rep.Replayer.divergence with
      | None -> Alcotest.failf "tamper@%d: no divergence reported" k
      | Some d ->
        Alcotest.(check int)
          (Printf.sprintf "tamper@%d: fork rank" k)
          k d.Divergence.first_rank)
    [ 0; n / 2; n - 1 ]

let test_replay_verdict_only () =
  let body = mixed_body () in
  let recorded = record (config ()) body in
  Alcotest.(check bool) "clean run" true (recorded.Recording.verdict = None);
  let altered =
    { recorded with Recording.verdict = Some ("divergence", "altered") }
  in
  let rep = replay_exn altered ~body in
  Alcotest.(check bool) "not identical" false rep.Replayer.identical;
  Alcotest.(check bool) "verdict classes differ" false
    rep.Replayer.verdict_class_agrees;
  Alcotest.(check bool) "streams equal: no divergence" true
    (rep.Replayer.divergence = None)

(* ------------------------------------------------------------------ *)
(* Double respawn: two injected slave crashes under a Respawn budget of 3
   must both recover (stream catch-up after reset_variant), leaving a clean
   verdict and the twice-respawned slave exiting 0. The respawned replicas
   read the same stream the recording is cut from, and it still replays
   identically. *)

let test_double_respawn () =
  let faults =
    [
      Fault.spec ~kind:(Fault.Crash Sigdefs.sigsegv) ~variant:1 ~at:12;
      Fault.spec ~kind:(Fault.Crash Sigdefs.sigsegv) ~variant:1 ~at:20;
    ]
  in
  let cfg =
    config
      ~on_failure:(Mvee.Respawn { max_respawns = 3; backoff_ns = Vtime.us 200 })
      ~faults ()
  in
  let body = mixed_body ~iters:200 () in
  let o = Mvee.run_program cfg ~name:"respawn2" ~body in
  Alcotest.(check int) "both crashes recovered" 2 o.Mvee.respawns;
  Alcotest.(check int) "both faults fired" 2 o.Mvee.faults_injected;
  Alcotest.(check bool) "clean verdict" true (o.Mvee.verdict = None);
  Alcotest.(check bool)
    "twice-respawned slave finished cleanly" true
    (List.mem (1, 0) o.Mvee.exit_codes);
  match o.Mvee.recording with
  | None -> Alcotest.fail "run captured no recording"
  | Some recorded ->
    Alcotest.(check bool)
      "replays identically" true (replay_exn recorded ~body).Replayer.identical

(* The stream does not depend on which consumers read it: a fault-free run
   records the same events whether only the recording (Kill_group,
   Quarantine) or also the respawn machinery (Respawn) turns capture on.
   The digest pins the stream of `remon run -w parsec.blackscholes -b remon
   --record`. *)
let test_stream_independent_of_policy () =
  let profile =
    match Remon_workloads.Registry.find "parsec.blackscholes" with
    | Some (Remon_workloads.Registry.Profile_workload p) -> p
    | _ -> Alcotest.fail "parsec.blackscholes is not a profile workload"
  in
  (* the key the CLI's run draws: its native baseline run takes the first *)
  let shm_key = Some (Context.mvee_shm_key_base + 32) in
  let recorded on_failure =
    let r =
      Remon_workloads.Runner.run_profile profile
        { (config ~on_failure ()) with Mvee.shm_key }
    in
    match r.Remon_workloads.Runner.outcome.Mvee.recording with
    | Some r -> r
    | None -> Alcotest.fail "run captured no recording"
  in
  let base = recorded Mvee.Kill_group in
  Alcotest.(check string) "stream digest" "6bb56a9618db6126aaf428591f6241ae"
    (Recording.stream_digest base);
  List.iter
    (fun (label, on_failure) ->
      let r = recorded on_failure in
      Alcotest.(check bool)
        (label ^ ": same events as kill-group") true
        (Recording.equal base { r with Recording.header = base.Recording.header }))
    [
      ("quarantine", Mvee.Quarantine);
      ("respawn", Mvee.Respawn { max_respawns = 3; backoff_ns = Vtime.ms 1 });
    ]

let () =
  Alcotest.run "replay"
    [
      ( "identity",
        List.map
          (fun b ->
            Alcotest.test_case
              (Printf.sprintf "record/replay identical (%s)"
                 (Mvee.backend_to_string b))
              `Quick (test_replay_identity b))
          all_backends
        @ [
            Alcotest.test_case "violating run replays identically" `Quick
              test_replay_violation_identity;
          ] );
      ( "cross-backend",
        List.map
          (fun b ->
            Alcotest.test_case
              (Printf.sprintf "verdict agreement under %s"
                 (Mvee.backend_to_string b))
              `Quick (test_cross_backend b))
          all_backends );
      ( "bisection",
        [
          Alcotest.test_case "pinpoints a tampered record" `Quick
            test_bisect_pinpoints;
          Alcotest.test_case "fork at truncation point" `Quick
            test_bisect_truncation;
          Alcotest.test_case "matches a linear scan on injected faults" `Quick
            test_bisect_matches_linear_scan;
        ] );
      ( "altered",
        [
          Alcotest.test_case "tampered event forks at its rank" `Quick
            test_replay_tampered_event;
          Alcotest.test_case "verdict-only change is not identical" `Quick
            test_replay_verdict_only;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "double respawn recovers twice" `Quick
            test_double_respawn;
          Alcotest.test_case "stream independent of policy" `Quick
            test_stream_independent_of_policy;
        ] );
    ]
