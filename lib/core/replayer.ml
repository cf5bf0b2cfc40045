(* Offline replay + time-travel divergence bisection over recordings:
   in-memory recordings are compared structurally, never re-encoded. *)

open Remon_kernel
open Remon_sim

type report = {
  recorded : Recording.t;
  replayed : Recording.t;
  identical : bool;
  verdict_class_agrees : bool;
  divergence : Divergence.replay_divergence option;
}

let config_of_header ?backend (h : Recording.header) =
  match Mvee.backend_of_string h.Recording.backend with
  | None -> Error (Printf.sprintf "unknown backend %S" h.Recording.backend)
  | Some recorded_backend -> (
    let backend = Option.value backend ~default:recorded_backend in
    match Mvee.on_failure_of_string h.Recording.on_failure with
    | None ->
      Error (Printf.sprintf "unknown failure policy %S" h.Recording.on_failure)
    | Some on_failure -> (
      let policy =
        if h.Recording.level = "monitor-all" then Some Policy.monitor_everything
        else
          Option.map Policy.spatial
            (Classification.level_of_string h.Recording.level)
      in
      match policy with
      | None -> Error (Printf.sprintf "unknown level %S" h.Recording.level)
      | Some policy -> (
        match Fault.of_string h.Recording.faults with
        | Error msg -> Error msg
        | Ok faults ->
          Ok
            {
              Mvee.default_config with
              Mvee.backend;
              nreplicas = h.Recording.nreplicas;
              seed = h.Recording.seed;
              policy;
              on_failure;
              faults;
              record = true;
              shm_key =
                (if h.Recording.shm_key > 0 then Some h.Recording.shm_key
                 else None);
            })))

(* ------------------------------------------------------------------ *)
(* Bisection: locate the fork *)

let render_opt events i =
  if i >= 0 && i < Array.length events then
    Some (Recording.event_to_string events.(i))
  else None

(* First index where the streams differ, or the shorter length when one
   is a prefix of the other; [None] when they are equal. *)
let fork_index (a : Recording.event array) (b : Recording.event array) =
  let na = Array.length a and nb = Array.length b in
  let n = min na nb in
  let rec go i =
    if i = n then if na = nb then None else Some n
    else if Recording.equal_event a.(i) b.(i) then go (i + 1)
    else Some i
  in
  go 0

let bisect ?(context = 3) ~(recorded : Recording.t) ~(replayed : Recording.t)
    () =
  let rec_evs = recorded.Recording.events in
  let rep_evs = replayed.Recording.events in
  match fork_index rec_evs rep_evs with
  | None -> None
  | Some first ->
    let na = Array.length rec_evs and nb = Array.length rep_evs in
    let thread_rank, syscall =
      let of_event = function
        | Recording.Call { rank; call; _ } ->
          (Some rank, Some (Divergence.render_call call))
        | Recording.Lock { thread_rank; _ } -> (Some thread_rank, None)
        | Recording.Signal { rank; _ } -> (Some rank, None)
        | Recording.Flush _ -> (None, None)
      in
      if first < na then of_event rec_evs.(first)
      else if first < nb then of_event rep_evs.(first)
      else (None, None)
    in
    let ctx = ref [] in
    for i = min (max na nb - 1) (first + context) downto max 0 (first - context)
    do
      ctx := (i, render_opt rec_evs i, render_opt rep_evs i) :: !ctx
    done;
    Some
      {
        Divergence.first_rank = first;
        total_recorded = na;
        total_replayed = nb;
        thread_rank;
        syscall;
        recorded_ev = render_opt rec_evs first;
        replayed_ev = render_opt rep_evs first;
        context = !ctx;
      }

(* ------------------------------------------------------------------ *)
(* Replay *)

let obs_instant obs ~ts ~name args =
  match obs with
  | None -> ()
  | Some o ->
    Remon_obs.Trace.instant o.Remon_obs.Obs.trace ~ts ~cat:"replay" ~name
      ~pid:0 ~tid:0 args

let replay ?backend ?context ?obs (recorded : Recording.t) ~body =
  match config_of_header ?backend recorded.Recording.header with
  | Error _ as e -> e
  | Ok config ->
    (* same defaults as [Mvee.run_program] so the replayed kernel's timing
       model matches the recording run's *)
    let kernel =
      Kernel.create ~seed:config.Mvee.seed ~net_latency:(Vtime.us 50) ()
    in
    (match obs with Some o -> Kernel.set_obs kernel o | None -> ());
    obs_instant obs ~ts:Vtime.zero ~name:"replay.begin"
      [
        ( "backend",
          Remon_obs.Trace.Str (Mvee.backend_to_string config.Mvee.backend) );
        ("events", Remon_obs.Trace.Int (Array.length recorded.Recording.events));
      ];
    let h = Mvee.launch kernel config ~name:"replay" ~body in
    Kernel.run kernel;
    let outcome = Mvee.finish h in
    let replayed =
      match outcome.Mvee.recording with
      | Some r -> Recording.with_workload r recorded.Recording.header.Recording.workload
      | None -> assert false (* config.record = true *)
    in
    let same_backend =
      String.equal replayed.Recording.header.Recording.backend
        recorded.Recording.header.Recording.backend
    in
    let identical = same_backend && Recording.equal recorded replayed in
    let class_of (r : Recording.t) =
      match r.Recording.verdict with Some (cls, _) -> Some cls | None -> None
    in
    let verdict_class_agrees = class_of recorded = class_of replayed in
    (* identical recordings carry identical event streams; otherwise the
       scan finds the fork, or [None] when only the header or verdict
       differs *)
    let divergence =
      if identical then None else bisect ?context ~recorded ~replayed ()
    in
    obs_instant obs ~ts:(Kernel.now kernel) ~name:"replay.end"
      [
        ("identical", Remon_obs.Trace.Int (if identical then 1 else 0));
        ( "first_divergent",
          Remon_obs.Trace.Int
            (match divergence with
            | Some d -> d.Divergence.first_rank
            | None -> -1) );
      ];
    Ok { recorded; replayed; identical; verdict_class_agrees; divergence }
