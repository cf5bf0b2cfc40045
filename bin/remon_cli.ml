(* remon: command-line front end to the ReMon reproduction.

     remon list                          enumerate registered workloads
     remon run -w parsec.dedup           run a workload under an MVEE config
     remon attack [-b varan]             stage the Section 4 attack scenarios
     remon fleet --rate 0.004            chaos a fleet behind a load balancer
     remon pdes --shards 4 --verify      sharded multi-host run + determinism check
     remon policy                        print the Table 1 classification *)

open Cmdliner
open Remon_core
open Remon_sim
open Remon_workloads

(* ------------------------------------------------------------------ *)
(* Shared options *)

let backend_conv =
  let parse = function
    | "native" -> Ok Mvee.Native
    | "ghumvee" -> Ok Mvee.Ghumvee_only
    | "varan" -> Ok Mvee.Varan
    | "remon" -> Ok Mvee.Remon
    | s -> Error (`Msg (Printf.sprintf "unknown backend %S" s))
  in
  let print fmt b = Format.pp_print_string fmt (Mvee.backend_to_string b) in
  Arg.conv (parse, print)

let level_conv =
  let parse s =
    match Classification.level_of_string s with
    | Some l -> Ok (Some l)
    | None ->
      if s = "all" || s = "monitor-all" then Ok None
      else Error (`Msg (Printf.sprintf "unknown level %S" s))
  in
  let print fmt = function
    | Some l -> Format.pp_print_string fmt (Classification.level_to_string l)
    | None -> Format.pp_print_string fmt "monitor-all"
  in
  Arg.conv (parse, print)

let backend_arg =
  Arg.(
    value
    & opt backend_conv Mvee.Remon
    & info [ "b"; "backend" ] ~docv:"BACKEND"
        ~doc:"MVEE backend: native, ghumvee, varan or remon.")

let replicas_arg =
  Arg.(
    value & opt int 2
    & info [ "n"; "replicas" ] ~docv:"N" ~doc:"Number of replicas.")

let level_arg =
  Arg.(
    value
    & opt level_conv (Some Classification.Socket_rw_level)
    & info [ "l"; "level" ] ~docv:"LEVEL"
        ~doc:
          "Spatial exemption level: base, nonsocket_ro, nonsocket_rw, \
           socket_ro, socket_rw, or monitor-all.")

let latency_arg =
  Arg.(
    value & opt float 0.1
    & info [ "latency" ] ~docv:"MS" ~doc:"One-way network latency in ms.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let faults_conv =
  let parse s =
    match Fault.of_string s with Ok p -> Ok p | Error msg -> Error (`Msg msg)
  in
  let print fmt p = Format.pp_print_string fmt (Fault.to_string p) in
  Arg.conv (parse, print)

let faults_arg =
  Arg.(
    value
    & opt faults_conv []
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Deterministic fault-injection plan: comma-separated \
           KIND@AT[:VARIANT][=PARAM] specs, e.g. \
           'crash@12:1,delay@30:1=5ms,droprb@5'. Kinds: crash, kill, args, \
           delay, sockerr, again, droprb, corruptrb.")

let on_failure_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "kill-group" ] | [ "kill" ] -> Ok Mvee.Kill_group
    | [ "quarantine" ] -> Ok Mvee.Quarantine
    | "respawn" :: rest -> (
      let max_respawns =
        match rest with
        | [] -> Some 3
        | [ n ] -> int_of_string_opt n
        | _ -> None
      in
      match max_respawns with
      | Some max_respawns ->
        Ok (Mvee.Respawn { max_respawns; backoff_ns = Vtime.ms 1 })
      | None -> Error (`Msg (Printf.sprintf "bad respawn budget in %S" s)))
    | _ ->
      Error
        (`Msg
           (Printf.sprintf
              "unknown failure policy %S (kill-group, quarantine, respawn[:N])"
              s))
  in
  let print fmt = function
    | Mvee.Kill_group -> Format.pp_print_string fmt "kill-group"
    | Mvee.Quarantine -> Format.pp_print_string fmt "quarantine"
    | Mvee.Respawn { max_respawns; _ } ->
      Format.fprintf fmt "respawn:%d" max_respawns
  in
  Arg.conv (parse, print)

let on_failure_arg =
  Arg.(
    value
    & opt on_failure_conv Mvee.Kill_group
    & info [ "on-failure" ] ~docv:"POLICY"
        ~doc:
          "Recovery policy for non-master replica faults: kill-group (the \
           paper's behavior), quarantine (detach and continue degraded), or \
           respawn[:N] (quarantine, then replay the master's calls to bring a \
           fresh replica back; at most N respawns, default 3).")

let config_of backend nreplicas level seed faults on_failure =
  {
    Mvee.default_config with
    Mvee.backend;
    nreplicas;
    seed;
    policy =
      (match level with
      | Some l -> Policy.spatial l
      | None -> Policy.monitor_everything);
    faults;
    on_failure;
  }

(* ------------------------------------------------------------------ *)
(* Observability plumbing *)

module Obs = Remon_obs.Obs

(* Traces are test oracles: the write must be atomic so a concurrent
   reader (or an interrupted run) never sees a torn file. *)
let write_file_atomic path data =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc data;
  close_out oc;
  Sys.rename tmp path

let print_metrics rows =
  Printf.printf "\nmetrics:\n";
  List.iter (fun (k, v) -> Printf.printf "  %-44s %s\n" k v) rows

(* Dump the trace and/or print the metrics summary collected in [o]. *)
let finalize_obs ~trace_file ~metrics o =
  (match trace_file with
  | Some path ->
    write_file_atomic path (Obs.export_string o);
    Printf.printf "\ntrace written      : %s (%d events)\n" path
      (Remon_util.Vec.length o.Obs.trace.Remon_obs.Trace.events)
  | None -> ());
  if metrics then print_metrics (Obs.summary (Some o))

(* ------------------------------------------------------------------ *)
(* Commands *)

let list_cmd =
  let run () =
    List.iter
      (fun (name, w) -> Printf.printf "%-28s %s\n" name (Registry.describe w))
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List registered workloads.") Term.(const run $ const ())

(* --repeat mode: fan consecutive seeds out over the domain pool and print
   one summary row per seed, in seed order. When tracing is requested the
   base seed's run carries the sink; each job allocates its own [Obs.t]
   inside its own domain, so the exported bytes cannot depend on the
   domain count — that is the determinism contract the CI diff checks. *)
let run_repeated workload config latency ~repeat ~domains ~trace_file ~metrics =
  let seeds = List.init repeat (fun i -> config.Mvee.seed + i) in
  Printf.printf "running %d seeds (%d..%d) over %d domain(s)\n\n" repeat
    config.Mvee.seed
    (config.Mvee.seed + repeat - 1)
    domains;
  let want_obs seed =
    if (trace_file <> None || metrics) && seed = config.Mvee.seed then
      Some (Obs.create ())
    else None
  in
  let rows =
    match workload with
    | Registry.Profile_workload profile ->
      Remon_util.Pool.map ~domains
        (fun seed ->
          let config = { config with Mvee.seed = seed } in
          let obs = want_obs seed in
          let row =
            try
              let native =
                Runner.run_profile profile { config with Mvee.backend = Mvee.Native }
              in
              let under = Runner.run_profile ?obs profile config in
              let o = under.Runner.outcome in
              Printf.sprintf "seed %-6d normalized %.3f  syscalls %-7d faults %-3d verdict %s"
                seed
                (Vtime.to_float_ns under.Runner.duration
                /. Vtime.to_float_ns native.Runner.duration)
                o.Mvee.syscalls o.Mvee.faults_injected
                (match o.Mvee.verdict with
                | None -> "clean"
                | Some v -> Divergence.to_string v)
            with Runner.Mvee_terminated v ->
              Printf.sprintf "seed %-6d terminated: %s" seed (Divergence.to_string v)
          in
          (row, obs))
        seeds
    | Registry.Server_workload (server, client) ->
      Remon_util.Pool.map ~domains
        (fun seed ->
          let config = { config with Mvee.seed = seed } in
          let obs = want_obs seed in
          let row =
            try
              let native =
                Runner.run_server_bench ~latency ~server ~client
                  { config with Mvee.backend = Mvee.Native }
              in
              let under =
                Runner.run_server_bench ~latency ?obs ~server ~client config
              in
              Printf.sprintf "seed %-6d overhead %-8s responses %d  %s" seed
                (Remon_util.Table.fmt_pct
                   (Vtime.to_float_ns under.Runner.client_duration
                    /. Vtime.to_float_ns native.Runner.client_duration
                   -. 1.))
                under.Runner.responses
                (Latency.summary_to_string under.Runner.latency)
            with Runner.Mvee_terminated v ->
              Printf.sprintf "seed %-6d terminated: %s" seed (Divergence.to_string v)
          in
          (row, obs))
        seeds
  in
  List.iter (fun (row, _) -> print_endline row) rows;
  List.iter
    (fun (_, obs) ->
      match obs with
      | Some o -> finalize_obs ~trace_file ~metrics o
      | None -> ())
    rows

(* Publish the recording a run captured ([--record FILE]); the workload
   name is patched in so `remon replay` can resolve the body again. *)
let dump_recording ~record ~workload_name (outcome : Mvee.outcome option) =
  match (record, outcome) with
  | Some path, Some { Mvee.recording = Some r; _ } ->
    let r = Recording.with_workload r workload_name in
    Recording.to_file r path;
    Printf.printf "recording written  : %s (%d events, digest %s)\n" path
      (Array.length r.Recording.events)
      (Recording.stream_digest r)
  | Some path, _ ->
    Printf.eprintf "recording NOT written to %s: no stream captured\n" path
  | None, _ -> ()

let run_workload name backend nreplicas level latency seed faults on_failure
    trace_lines trace_file metrics repeat domains record =
  match Registry.find name with
  | None ->
    Printf.eprintf "unknown workload %S; try `remon list`\n" name;
    exit 2
  | Some workload -> (
    if record <> None && repeat > 1 then begin
      Printf.eprintf "--record needs a single run (drop --repeat)\n";
      exit 2
    end;
    let config = config_of backend nreplicas level seed faults on_failure in
    let config = { config with Mvee.record = record <> None } in
    let latency = Vtime.of_float_ns (latency *. 1e6) in
    if repeat > 1 then begin
      Printf.printf "workload : %s\n" (Registry.describe workload);
      Printf.printf "backend  : %s, %d replica(s), policy %s\n\n"
        (Mvee.backend_to_string backend)
        nreplicas
        (Policy.to_string config.Mvee.policy);
      run_repeated workload config latency ~repeat ~domains ~trace_file ~metrics
    end
    else
    let obs = if trace_file <> None || metrics then Some (Obs.create ()) else None in
    let dump_trace kernel =
      if trace_lines > 0 then begin
        Printf.printf "\nsyscall trace (first %d lines):\n" trace_lines;
        List.iteri
          (fun i line -> if i < trace_lines then Printf.printf "  %s\n" line)
          (Remon_kernel.Kernel.trace kernel)
      end
    in
    Printf.printf "workload : %s\n" (Registry.describe workload);
    Printf.printf "backend  : %s, %d replica(s), policy %s\n\n"
      (Mvee.backend_to_string backend)
      nreplicas
      (Policy.to_string config.Mvee.policy);
    try match workload with
    | Registry.Profile_workload profile ->
      let native = Runner.run_profile profile { config with Mvee.backend = Mvee.Native } in
      let under =
        if trace_lines > 0 then begin
          let kernel = Remon_kernel.Kernel.create ~seed:config.Mvee.seed () in
          Remon_kernel.Kernel.enable_tracing kernel;
          (match obs with
          | Some o -> Remon_kernel.Kernel.set_obs kernel o
          | None -> ());
          let h = Mvee.launch kernel config ~name ~body:(Profile.body profile) in
          Remon_kernel.Kernel.run kernel;
          let outcome = Mvee.finish h in
          dump_trace kernel;
          { Runner.duration = outcome.Mvee.duration; outcome }
        end
        else Runner.run_profile ?obs profile config
      in
      let o = under.Runner.outcome in
      Printf.printf "native runtime     : %s\n" (Vtime.to_string native.Runner.duration);
      Printf.printf "mvee runtime       : %s (normalized %.2f)\n"
        (Vtime.to_string under.Runner.duration)
        (Vtime.to_float_ns under.Runner.duration
        /. Vtime.to_float_ns native.Runner.duration);
      Printf.printf "syscalls           : %d (monitored %d, fast-path %d)\n"
        o.Mvee.syscalls o.Mvee.monitored o.Mvee.ipmon_fastpath;
      Printf.printf "ptrace stops       : %d, rendezvous %d\n" o.Mvee.ptrace_stops
        o.Mvee.rendezvous;
      Printf.printf "rb records/resets  : %d/%d\n" o.Mvee.rb_records o.Mvee.rb_resets;
      (match o.Mvee.verdict with
      | Some v -> Printf.printf "verdict            : %s\n" (Divergence.to_string v)
      | None -> ());
      if faults <> [] || o.Mvee.faults_injected > 0 then begin
        Printf.printf "faults injected    : %d (plan: %s)\n" o.Mvee.faults_injected
          (Fault.to_string faults);
        Printf.printf "quarantines        : %d, respawns %d, watchdog retries %d\n"
          o.Mvee.quarantines o.Mvee.respawns o.Mvee.watchdog_retries;
        Printf.printf "degraded time      : %s\n" (Vtime.to_string o.Mvee.degraded_ns)
      end;
      dump_recording ~record ~workload_name:name (Some o);
      (match obs with Some o -> finalize_obs ~trace_file ~metrics o | None -> ())
    | Registry.Server_workload (server, client) ->
      let native =
        Runner.run_server_bench ~latency ~server ~client
          { config with Mvee.backend = Mvee.Native }
      in
      let under = Runner.run_server_bench ~latency ?obs ~server ~client config in
      Printf.printf "native client time : %s\n"
        (Vtime.to_string native.Runner.client_duration);
      Printf.printf "mvee client time   : %s (overhead %s)\n"
        (Vtime.to_string under.Runner.client_duration)
        (Remon_util.Table.fmt_pct
           (Vtime.to_float_ns under.Runner.client_duration
            /. Vtime.to_float_ns native.Runner.client_duration
           -. 1.));
      Printf.printf "responses          : %d (transport errors %d, truncated %d)\n"
        under.Runner.responses under.Runner.transport_errors
        under.Runner.truncated_requests;
      Printf.printf "request latency    : %s\n"
        (Latency.summary_to_string under.Runner.latency);
      Printf.printf "  (native          : %s)\n"
        (Latency.summary_to_string native.Runner.latency);
      dump_recording ~record ~workload_name:name
        (Some under.Runner.server_outcome);
      (match obs with Some o -> finalize_obs ~trace_file ~metrics o | None -> ())
    with Runner.Mvee_terminated v ->
      (* a fatal verdict (e.g. under --faults with the kill-group policy)
         is a legitimate outcome, not a crash — dump what was collected
         before exiting, it is exactly what a failure wants looked at.
         The recording especially: it reproduces this very verdict. *)
      Printf.printf "mvee terminated    : %s\n" (Divergence.to_string v);
      dump_recording ~record ~workload_name:name !Runner.last_outcome;
      (match obs with Some o -> finalize_obs ~trace_file ~metrics o | None -> ());
      exit 1)

let run_cmd =
  let name_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workload name (see `remon list`).")
  in
  let trace_lines_arg =
    Arg.(
      value & opt int 0
      & info [ "trace-lines" ] ~docv:"N"
          ~doc:"Print the first N human-readable syscall-trace lines.")
  in
  let trace_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a structured trace of the MVEE run to FILE in Chrome \
             trace-event JSON (load it in Perfetto / chrome://tracing). \
             Identical seeds produce byte-identical files, independent of \
             --domains. With --repeat, the base seed's run is traced.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print the metrics summary: per-syscall latency histograms, \
             rendezvous and route counts, RB occupancy high-water marks, \
             ptrace round-trips.")
  in
  let repeat_arg =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Run the workload N times with consecutive seeds (seed, seed+1, \
             ...) and print one summary row per seed.")
  in
  let domains_arg =
    Arg.(
      value
      & opt int (Remon_util.Pool.default_domains ())
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Fan --repeat runs out over D domains (default: \
             REMON_DOMAINS or the machine's core count minus one).")
  in
  let record_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE"
          ~doc:
            "Capture the master's full replicated stream (syscalls, \
             lock-order decisions, signal deliveries, ring flushes) into \
             FILE as a versioned binary recording; replay it offline with \
             `remon replay FILE`. Written even when the run is killed by a \
             verdict — the recording reproduces that verdict.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a workload under an MVEE configuration.")
    Term.(
      const run_workload $ name_arg $ backend_arg $ replicas_arg $ level_arg
      $ latency_arg $ seed_arg $ faults_arg $ on_failure_arg $ trace_lines_arg
      $ trace_file_arg $ metrics_arg $ repeat_arg $ domains_arg $ record_arg)

(* ------------------------------------------------------------------ *)
(* remon replay FILE: offline replay + divergence bisection *)

let print_header (h : Recording.header) =
  Printf.printf "format    : v%d\n" Recording.version;
  Printf.printf "backend   : %s, %d replica(s)\n" h.Recording.backend
    h.Recording.nreplicas;
  Printf.printf "workload  : %s\n"
    (if h.Recording.workload = "" then "<unnamed>" else h.Recording.workload);
  Printf.printf "seed      : %d, level %s, on-failure %s\n" h.Recording.seed
    h.Recording.level h.Recording.on_failure;
  if h.Recording.faults <> "" then
    Printf.printf "faults    : %s\n" h.Recording.faults

let replay_recording file backend context show_events trace_file metrics =
  match Recording.of_file file with
  | Error e ->
    Printf.eprintf "cannot load %s: %s\n" file (Remon_kernel.Syswire.error_to_string e);
    exit 2
  | Ok recorded -> (
    let h = recorded.Recording.header in
    print_header h;
    Printf.printf "events    : %d (stream digest %s)\n"
      (Array.length recorded.Recording.events)
      (Recording.stream_digest recorded);
    (match recorded.Recording.verdict with
    | Some (_, rendered) -> Printf.printf "verdict   : %s\n" rendered
    | None -> Printf.printf "verdict   : clean\n");
    if show_events > 0 then begin
      Printf.printf "\nfirst %d records:\n" show_events;
      Array.iteri
        (fun i ev ->
          if i < show_events then
            Printf.printf "  %6d  %s\n" i (Recording.event_to_string ev))
        recorded.Recording.events
    end;
    match Registry.find h.Recording.workload with
    | None ->
      Printf.eprintf
        "\nworkload %S is not in the registry (a test-harness recording?); \
         cannot re-execute it here. The header, digest and records above \
         are still authoritative.\n"
        h.Recording.workload;
      exit 2
    | Some (Registry.Server_workload _) ->
      Printf.eprintf
        "\nserver workloads need a live client fleet; offline replay \
         re-executes profile workloads only.\n";
      exit 2
    | Some (Registry.Profile_workload profile) -> (
      let obs =
        if trace_file <> None || metrics then Some (Obs.create ()) else None
      in
      Printf.printf "\nreplaying under %s...\n"
        (match backend with
        | Some b -> Mvee.backend_to_string b
        | None -> h.Recording.backend);
      match
        Replayer.replay ?backend ?context ?obs recorded
          ~body:(Profile.body profile)
      with
      | Error msg ->
        Printf.eprintf "replay failed: %s\n" msg;
        exit 2
      | Ok report ->
        let cross = backend <> None && Some h.Recording.backend <> Option.map Mvee.backend_to_string backend in
        Printf.printf "replayed  : %d events (stream digest %s)\n"
          (Array.length report.Replayer.replayed.Recording.events)
          (Recording.stream_digest report.Replayer.replayed);
        (match report.Replayer.replayed.Recording.verdict with
        | Some (_, rendered) -> Printf.printf "verdict   : %s\n" rendered
        | None -> Printf.printf "verdict   : clean\n");
        Printf.printf "identical : %s\n"
          (if report.Replayer.identical then "yes (byte-identical recording)"
           else "no");
        Printf.printf "verdicts  : %s\n"
          (if report.Replayer.verdict_class_agrees then "same class"
           else "DIFFERENT class");
        (match report.Replayer.divergence with
        | Some d ->
          Printf.printf "\n%s\n" (Divergence.replay_divergence_to_string d)
        | None -> ());
        (match obs with
        | Some o -> finalize_obs ~trace_file ~metrics o
        | None -> ());
        (* exit 0 = replay agrees with the recording: byte-identical on
           the same backend, verdict-class agreement across backends *)
        let ok =
          if cross then report.Replayer.verdict_class_agrees
          else report.Replayer.identical
        in
        exit (if ok then 0 else 1)))

let replay_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Recording written by `remon run --record`.")
  in
  let backend_override_arg =
    Arg.(
      value
      & opt (some backend_conv) None
      & info [ "b"; "backend" ] ~docv:"BACKEND"
          ~doc:
            "Replay under this backend instead of the recorded one \
             (cross-backend replay compares verdict classes, not bytes).")
  in
  let context_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "context" ] ~docv:"K"
          ~doc:
            "Half-width of the record window printed around the first \
             divergence (default 3).")
  in
  let show_events_arg =
    Arg.(
      value & opt int 0
      & info [ "show-events" ] ~docv:"N"
          ~doc:"Print the first N decoded records before replaying.")
  in
  let trace_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write the replay run's structured trace to FILE.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ] ~doc:"Print the replay run's metrics summary.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a recording offline: re-execute its configuration, check \
          the replayed stream against the recorded one byte for byte, and \
          on a fork locate the first divergent record.")
    Term.(
      const replay_recording $ file_arg $ backend_override_arg $ context_arg
      $ show_events_arg $ trace_file_arg $ metrics_arg)

let attack_cmd =
  let run backend nreplicas level seed =
    let config = config_of backend nreplicas level seed [] Mvee.Kill_group in
    List.iter
      (fun r -> Format.printf "%a@." Attack.pp_report r)
      (Attack.all_scenarios ~config ())
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Stage the Section 4 attack scenarios.")
    Term.(const run $ backend_arg $ replicas_arg $ level_arg $ seed_arg)

let fleet_cmd =
  let module Fchaos = Remon_fleet.Chaos in
  let module Lb = Remon_fleet.Lb in
  let instances_arg =
    Arg.(
      value & opt int 3
      & info [ "i"; "instances" ] ~docv:"N"
          ~doc:"MVEE instances behind the load balancer.")
  in
  let rate_arg =
    Arg.(
      value & opt float 0.0
      & info [ "rate" ] ~docv:"P"
          ~doc:
            "Chaos fault rate: per-syscall-index probability of an injected \
             fault (crash, delay or transient socket error) in each \
             instance's plan. Masters are fair game.")
  in
  let requests_arg =
    Arg.(
      value & opt int 150
      & info [ "requests" ] ~docv:"N" ~doc:"Total client requests.")
  in
  let workers_arg =
    Arg.(
      value & opt int 6
      & info [ "workers" ] ~docv:"N" ~doc:"Open-loop client workers.")
  in
  let no_recovery_arg =
    Arg.(
      value & flag
      & info [ "no-recovery" ]
          ~doc:
            "Disable the recovery ladder (intra-instance respawn and fleet \
             respawn): the availability-floor baseline.")
  in
  let policy_arg =
    let policy_conv =
      let parse = function
        | "round-robin" | "rr" -> Ok Lb.Round_robin
        | "least-conns" | "lc" -> Ok Lb.Least_conns
        | s -> Error (`Msg (Printf.sprintf "unknown LB policy %S" s))
      in
      let print fmt = function
        | Lb.Round_robin -> Format.pp_print_string fmt "round-robin"
        | Lb.Least_conns -> Format.pp_print_string fmt "least-conns"
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt policy_conv Lb.Round_robin
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Load-balancing policy: round-robin or least-conns.")
  in
  let rolling_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "rolling" ] ~docv:"MAX_UNAVAILABLE"
          ~doc:
            "Run a rolling restart of the whole fleet under the live \
             traffic, at most MAX_UNAVAILABLE instances out at once.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print the metrics summary (fleet probe/eject/respawn counters \
             included).")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a structured trace of the chaos scenario to FILE in \
             Chrome trace-event JSON (instance_down/instance_respawn and \
             recovery instants included).")
  in
  let run backend nreplicas instances rate requests workers no_recovery policy
      rolling seed metrics trace_file =
    let cfg =
      {
        Fchaos.default_cfg with
        Fchaos.backend;
        nreplicas;
        instances;
        fault_rate = rate;
        requests;
        workers;
        recovery = not no_recovery;
        policy;
        rolling;
        seed;
        trace = metrics;
      }
    in
    let obs =
      if trace_file <> None then Some (Remon_obs.Obs.create ()) else None
    in
    Printf.printf "fleet    : %d x %s (%d replicas), LB %s\n" instances
      (Mvee.backend_to_string backend)
      nreplicas
      (match policy with
      | Lb.Round_robin -> "round-robin"
      | Lb.Least_conns -> "least-conns");
    Printf.printf "traffic  : %d requests over %d open-loop workers\n" requests
      workers;
    Printf.printf "chaos    : rate %.4f, recovery %s%s\n\n" rate
      (if no_recovery then "off" else "on")
      (match rolling with
      | Some mu -> Printf.sprintf ", rolling restart (max-unavailable %d)" mu
      | None -> "");
    let r = Fchaos.run_scenario ?obs cfg in
    Printf.printf "availability       : %.3f (%d/%d, %d dropped)\n"
      r.Fchaos.availability r.Fchaos.succeeded r.Fchaos.attempted
      r.Fchaos.failed;
    Printf.printf "client latency     : %s\n"
      (Latency.summary_to_string r.Fchaos.client_latency);
    Printf.printf "lb                 : %d proxied, %d failovers, %d errors\n"
      r.Fchaos.lb_proxied r.Fchaos.failovers r.Fchaos.lb_errors;
    Printf.printf "health             : %d ejections, %d readmissions\n"
      r.Fchaos.ejections r.Fchaos.readmissions;
    Printf.printf "fleet recovery     : %d instances down, %d fleet respawns\n"
      r.Fchaos.instance_failures r.Fchaos.fleet_respawns;
    Printf.printf "intra-instance     : %d quarantines, %d respawns, %d \
                   watchdog retries\n"
      r.Fchaos.quarantines r.Fchaos.respawns r.Fchaos.watchdog_retries;
    Printf.printf "faults injected    : %d\n" r.Fchaos.faults_injected;
    Printf.printf "connect retries    : %d\n" r.Fchaos.connect_retries;
    if r.Fchaos.verdict_classes <> [] then
      Printf.printf "verdicts           : %s\n"
        (String.concat ", " r.Fchaos.verdict_classes);
    if metrics then print_metrics r.Fchaos.metrics;
    match obs with
    | Some o -> finalize_obs ~trace_file ~metrics:false o
    | None -> ()
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Run an MVEE fleet behind a load balancer under chaos: injected \
          faults, health-probe ejection, fleet respawn and rolling restarts.")
    Term.(
      const run $ backend_arg $ replicas_arg $ instances_arg $ rate_arg
      $ requests_arg $ workers_arg $ no_recovery_arg $ policy_arg
      $ rolling_arg $ seed_arg $ metrics_arg $ trace_arg)

let pdes_cmd =
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ]
          ~docv:"N"
          ~doc:
            "Host shards run on OCaml domains (1 = sequential reference; \
             clamped to the host count). Outcomes are byte-identical at \
             every value.")
  in
  let hosts_arg =
    Arg.(
      value & opt int 4
      & info [ "hosts" ] ~docv:"N"
          ~doc:
            "Simulated server hosts, one MVEE group each; a client host is \
             added on top.")
  in
  let requests_arg =
    Arg.(
      value & opt int 60
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per server group.")
  in
  let latency_arg =
    Arg.(
      value & opt int 200
      & info [ "link-latency-us" ] ~docv:"US"
          ~doc:
            "Inter-host link latency in microseconds — also the \
             conservative synchronizer's lookahead.")
  in
  let pdes_faults_arg =
    Arg.(
      value & opt string ""
      & info [ "faults" ] ~docv:"PLAN"
          ~doc:"Fault plan for the host-0 group (same syntax as run).")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Re-run sequentially (shards=1) and fail unless digests and \
             recordings match byte-for-byte.")
  in
  let connections_arg =
    Arg.(
      value & opt int 0
      & info [ "connections" ] ~docv:"N"
          ~doc:
            "Run the herd tier instead of the MVEE topology: N simulated \
             connections spread over many echo cells (two hosts each). \
             Scales to ~10^6.")
  in
  let fixed_arg =
    Arg.(
      value & flag
      & info [ "fixed-lookahead" ]
          ~doc:
            "Use the single-latency (fixed) lookahead instead of adaptive \
             per-pair bounds. Outcomes are byte-identical either way; only \
             round counts and wall clock differ.")
  in
  let report_memory ~connections =
    (* stderr only: stdout must stay byte-identical across shard counts,
       and GC numbers never are *)
    let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
    Printf.eprintf "peak heap          : %d words (%d MiB)\n" heap_words
      (heap_words * (Sys.word_size / 8) / (1024 * 1024));
    if connections > 0 then
      Printf.eprintf "bytes/connection   : %d (end-to-end peak)\n"
        (heap_words * (Sys.word_size / 8) / connections);
    Printf.eprintf "stream pair cost   : %d bytes (flat-state probe)\n%!"
      (Topology.stream_pair_cost_bytes ())
  in
  let run backend nreplicas shards hosts requests latency_us faults seed
      verify connections fixed =
    let mode = if fixed then World.Fixed else World.Adaptive in
    if connections > 0 then begin
      let herd = Topology.herd_of_connections ~seed connections in
      Printf.eprintf "shards   : %d\n%!" shards;
      let r = Topology.run_herd ~shards ~mode herd in
      print_string r.Topology.hr_digest;
      Printf.eprintf "rounds             : %d\n" r.Topology.hr_rounds;
      Printf.eprintf "events             : %d\n" r.Topology.hr_events;
      report_memory ~connections:r.Topology.hr_connections;
      if verify then begin
        let ref_r = Topology.run_herd ~shards:1 herd in
        let ok = r.Topology.hr_digest = ref_r.Topology.hr_digest in
        Printf.printf "\nverify vs shards=1: %s\n"
          (if ok then "identical" else "DIVERGED");
        if not ok then exit 1
      end
    end
    else begin
      let sc =
        {
          Topology.id = 0;
          seed;
          server_hosts = hosts;
          nreplicas;
          backend;
          arch = Servers.Epoll_loop;
          requests_per_server = requests;
          concurrency = 4;
          requests_per_conn = 4;
          link_latency = Vtime.us latency_us;
          faults;
          record = true;
        }
      in
      (* the shard count goes to stderr: stdout must be byte-identical for
         every --shards value, so CI can diff it directly *)
      Printf.printf "%s\n\n" (Topology.render sc);
      Printf.eprintf "shards   : %d\n%!" shards;
      let r = Topology.run ~shards ~mode sc in
      print_string r.Topology.digest;
      Printf.eprintf "rounds             : %d\n" r.Topology.rounds;
      report_memory ~connections:0;
      if verify then begin
        let ref_r = Topology.run ~shards:1 sc in
        let ok =
          r.Topology.digest = ref_r.Topology.digest
          && List.length r.Topology.recordings
             = List.length ref_r.Topology.recordings
          && List.for_all2
               (fun (h1, a) (h2, b) ->
                 h1 = h2 && Recording.to_string a = Recording.to_string b)
               r.Topology.recordings ref_r.Topology.recordings
        in
        Printf.printf "\nverify vs shards=1: %s\n"
          (if ok then "identical" else "DIVERGED");
        if not ok then exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "pdes"
       ~doc:
         "Run a multi-host MVEE topology under the sharded \
          conservative-parallel simulator; outcomes are byte-identical at \
          every shard count.")
    Term.(
      const run $ backend_arg $ replicas_arg $ shards_arg $ hosts_arg
      $ requests_arg $ latency_arg $ pdes_faults_arg $ seed_arg $ verify_arg
      $ connections_arg $ fixed_arg)

let policy_cmd =
  let run () =
    List.iter
      (fun (lvl, uncond, cond) ->
        Printf.printf "%s\n" (Classification.level_to_string lvl);
        Printf.printf "  unconditional: %s\n"
          (String.concat ", " (List.map Remon_kernel.Sysno.to_string uncond));
        if cond <> [] then
          Printf.printf "  conditional  : %s\n"
            (String.concat ", " (List.map Remon_kernel.Sysno.to_string cond)))
      (Classification.table1 ())
  in
  Cmd.v
    (Cmd.info "policy" ~doc:"Print the Table 1 syscall classification.")
    Term.(const run $ const ())

let () =
  let doc = "ReMon MVEE reproduction: secure and efficient application monitoring" in
  let info = Cmd.info "remon" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            replay_cmd;
            attack_cmd;
            fleet_cmd;
            pdes_cmd;
            policy_cmd;
          ]))
