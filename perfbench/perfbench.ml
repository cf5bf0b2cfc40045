(* One repetition of one benchmark workload, in a fresh process, printed as
   one JSON line. run.py starts one process per repetition (the peak-heap
   reading is a process-global high-water mark) and aggregates.

     perfbench.exe rep WORKLOAD SEED TRACE SHARDS
     perfbench.exe reference WORKLOAD SEED
     perfbench.exe probe

   [rep] measures: set-up is host time up to the first simulated event,
   run is host time from there to the checked result. With TRACE = 1 the
   layer wrappers of {!Spans} are installed. [reference] prints the
   virtual-result digest the correctness gate compares against; for the
   herd it comes from [Topology.run_herd] at one shard. [probe] times the
   host-speed probe of {!Probe}. *)

open Remon_sim
open Remon_kernel
open Remon_core
open Remon_workloads

let workloads = [ "mvee-dense"; "herd-100k"; "ghumvee-replay" ]

(* mvee-dense: the paper's hot path (dispatch -> IK-B -> IP-MON -> RB) at
   the syscall density of its densest benchmarks. ghumvee-replay: the same
   shape, every call through the cross-process monitor, recorded and
   replayed. The seed names the profile, which keys its op stream. *)
let profile ~seed ~calls =
  Profile.make
    ~name:(Printf.sprintf "perfbench.%d" seed)
    ~threads:4 ~density_hz:120_000. ~calls ~mix:Profile.mix_file_rw
    ~description:"benchmark: syscall-dense file read/write mix" ()

let dense_calls = 30_000
let replay_calls = 10_000

let herd ~seed = Topology.herd_of_connections ~seed 100_000

type run = {
  setup_s : float;
  run_s : float;
  syscalls : int;
  digest : string;
  attempted : int;
  failed : int;
  layers : (string * Emit.v) list;
}

let secs t0 t1 = float_of_int (t1 - t0) /. 1e9
let per a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let render_exits codes =
  String.concat ";" (List.map (fun (v, c) -> Printf.sprintf "%d:%d" v c) codes)

let verdict_string (o : Mvee.outcome) =
  match o.Mvee.verdict with None -> "clean" | Some v -> Divergence.to_string v

(* The virtual results of an MVEE run that the gate pins. *)
let mvee_digest (o : Mvee.outcome) (st : Kstate.counters) =
  Printf.sprintf
    "duration=%d exits=%s syscalls=%d plain=%d ipmon=%d monitored=%d \
     tokens=%d/%d rb_records=%d rb_resets=%d rb_bytes=%d rendezvous=%d \
     stops=%d fallbacks=%d verdict=%s"
    (Vtime.to_int_ns o.Mvee.duration)
    (render_exits o.Mvee.exit_codes)
    o.Mvee.syscalls st.Kstate.plain o.Mvee.ipmon_fastpath o.Mvee.monitored
    o.Mvee.tokens_granted o.Mvee.tokens_rejected o.Mvee.rb_records
    o.Mvee.rb_resets st.Kstate.rb_bytes o.Mvee.rendezvous o.Mvee.ptrace_stops
    o.Mvee.ipmon_fallbacks (verdict_string o)

(* Each replica process is one operation; a non-clean verdict fails them
   all, a nonzero exit fails its replica. *)
let mvee_ops (o : Mvee.outcome) =
  let n = List.length o.Mvee.exit_codes in
  let bad = List.length (List.filter (fun (_, c) -> c <> 0) o.Mvee.exit_codes) in
  (n, if o.Mvee.verdict <> None then n else bad)

let int k v = (k, Emit.Int v)
let num k v = (k, Emit.Num v)

(* Counters read from the program's public stats, summed over kernels. *)
let queue_layers kernels ~syscalls =
  let sum f = List.fold_left (fun a k -> a + f k) 0 kernels in
  let eq f = sum (fun k -> f (Event_queue.stats (Kernel.sched k).Sched.events)) in
  let st f = sum (fun k -> f (Kernel.stats k)) in
  let events = sum (fun k -> (Kernel.sched k).Sched.events_processed) in
  [
    int "event_queue.events" events;
    int "event_queue.adds" (eq (fun s -> s.Event_queue.adds));
    int "event_queue.cancels" (eq (fun s -> s.Event_queue.cancels));
    int "event_queue.lazy_drops" (eq (fun s -> s.Event_queue.lazy_drops));
    num "event_queue.events_per_syscall" (per events syscalls);
    int "dispatch.route_plain" (st (fun s -> s.Kstate.plain));
    int "dispatch.route_ipmon" (st (fun s -> s.Kstate.ipmon_fastpath));
    int "dispatch.route_monitored" (st (fun s -> s.Kstate.monitored));
    int "ikb.tokens_granted" (st (fun s -> s.Kstate.tokens_granted));
    int "ikb.tokens_rejected" (st (fun s -> s.Kstate.tokens_rejected));
    int "replication_buffer.bytes" (st (fun s -> s.Kstate.rb_bytes));
  ]

let span_layers (acc : Spans.acc) ~run_s =
  let s l = Spans.self_s acc l and c l = Spans.calls acc l in
  let ns_per l = if c l = 0 then 0. else s l *. 1e9 /. float_of_int (c l) in
  [
    int "dispatch.calls" (c Dispatch);
    num "dispatch.self_s" (s Dispatch);
    num "dispatch.ns_per_call" (ns_per Dispatch);
    int "ikb.classify_calls" (c Ikb);
    num "ikb.classify_s" (s Ikb);
    int "ipmon.calls" (c Ipmon);
    num "ipmon.self_s" (s Ipmon);
    int "ghumvee.stops" (c Ghumvee);
    num "ghumvee.self_s" (s Ghumvee);
    num "ghumvee.ns_per_stop" (ns_per Ghumvee);
    num "recording.encode_s" (s Encode);
    num "recording.decode_s" (s Decode);
    num "replayer.replay_s" (s Replay);
    num "unattributed_s" (run_s -. (float_of_int acc.Spans.top_ns /. 1e9));
  ]

let mvee_layers (o : Mvee.outcome) =
  [
    int "ipmon.fallbacks" o.Mvee.ipmon_fallbacks;
    int "replication_buffer.records" o.Mvee.rb_records;
    int "replication_buffer.resets" o.Mvee.rb_resets;
    int "ghumvee.rendezvous" o.Mvee.rendezvous;
  ]

(* The MVEE workloads. [record] selects ghumvee-replay: the run is
   recorded, encoded, decoded and replayed, and replay must be
   byte-identical. *)
let run_mvee ~seed ~traced ~record ~t0 =
  let acc = Spans.create () in
  let timed layer f = if traced then Spans.span acc layer f else f () in
  let profile, config =
    if record then
      ( profile ~seed ~calls:replay_calls,
        { (Runner.cfg_ghumvee ~seed ()) with Mvee.record = true } )
    else
      ( profile ~seed ~calls:dense_calls,
        Runner.cfg_remon ~seed Classification.Nonsocket_rw_level )
  in
  let body = Profile.body profile in
  let k = Kernel.create ~seed ~net_latency:(Vtime.us 50) () in
  let h = Mvee.launch k config ~name:profile.Profile.name ~body in
  if traced then Spans.instrument acc k;
  let t1 = Spans.now_ns () in
  Kernel.run k;
  let o = Mvee.finish h in
  let st = Kernel.stats k in
  let attempted, failed = mvee_ops o in
  let digest = mvee_digest o st in
  let digest, attempted, failed, rec_layers =
    if not record then (digest, attempted, failed, [])
    else
      let r = Option.get o.Mvee.recording in
      let bytes = timed Encode (fun () -> Recording.to_string r) in
      let decoded =
        match timed Decode (fun () -> Recording.of_string bytes) with
        | Ok d -> d
        | Error e -> failwith ("recording does not decode: " ^ Syswire.error_to_string e)
      in
      let identical =
        match timed Replay (fun () -> Replayer.replay decoded ~body) with
        | Ok rep -> rep.Replayer.identical
        | Error e -> failwith ("replay failed: " ^ e)
      in
      ( Printf.sprintf "%s stream=%s events=%d identical=%b" digest
          (Recording.stream_digest r) (Array.length r.Recording.events) identical,
        attempted + 1,
        (failed + if identical then 0 else 1),
        [
          int "recording.events" (Array.length r.Recording.events);
          int "recording.bytes" (String.length bytes);
        ] )
  in
  let t2 = Spans.now_ns () in
  let run_s = secs t1 t2 in
  {
    setup_s = secs t0 t1;
    run_s;
    syscalls = st.Kstate.syscalls;
    digest;
    attempted;
    failed;
    layers =
      queue_layers [ k ] ~syscalls:st.Kstate.syscalls
      @ mvee_layers o @ rec_layers
      @ if traced then span_layers acc ~run_s else [];
  }

let run_herd ~seed ~traced ~shards ~t0 =
  let t = Herd.setup (herd ~seed) in
  let n = World.n_hosts t.Herd.world in
  let kernels = List.init n (World.kernel t.Herd.world) in
  let accs = List.map (fun _ -> Spans.create ()) kernels in
  if traced then List.iter2 Spans.instrument accs kernels;
  let t1 = Spans.now_ns () in
  World.run ~shards t.Herd.world;
  let t_world = Spans.now_ns () in
  let digest = Herd.digest t in
  let t2 = Spans.now_ns () in
  let syscalls = List.fold_left (fun a k -> a + (Kernel.stats k).Kstate.syscalls) 0 kernels in
  let opened, refused, resets = Herd.hostnet_stats t in
  let msgs, bytes = Herd.link_totals t in
  let rounds = World.rounds t.Herd.world in
  let run_s = secs t1 t2 in
  {
    setup_s = secs t0 t1;
    run_s;
    syscalls;
    digest;
    attempted = Herd.connections t + Herd.echoes t;
    failed = Herd.failures t;
    layers =
      queue_layers kernels ~syscalls
      @ [
          int "hostnet.opened" opened;
          int "hostnet.refused" refused;
          int "hostnet.resets" resets;
          int "link.msgs" msgs;
          int "link.bytes" bytes;
          int "net.connections" (Herd.connections t);
          num "world.setup_s" (secs t0 t1);
          num "world.run_s" (secs t1 t_world);
          int "world.rounds" rounds;
          num "world.msgs_per_round" (per msgs rounds);
        ]
      @ if traced then span_layers (Spans.sum accs) ~run_s else [];
  }

let run_workload name ~seed ~traced ~shards ~t0 =
  match name with
  | "mvee-dense" -> run_mvee ~seed ~traced ~record:false ~t0
  | "ghumvee-replay" -> run_mvee ~seed ~traced ~record:true ~t0
  | "herd-100k" -> run_herd ~seed ~traced ~shards ~t0
  | w -> invalid_arg ("unknown workload " ^ w)

let rep name ~seed ~traced ~shards =
  let g0 = Gc.quick_stat () in
  let t0 = Spans.now_ns () in
  let r = run_workload name ~seed ~traced ~shards ~t0 in
  (* quick_stat, not Gc.minor_words: it counts every domain's allocation *)
  let g1 = Gc.quick_stat () in
  let minor = g1.Gc.minor_words -. g0.Gc.minor_words in
  Emit.line
    (Emit.Obj
       [
         ("workload", Str name);
         int "seed" seed;
         ("traced", Bool traced);
         int "shards" shards;
         ("ocaml", Str Sys.ocaml_version);
         num "setup_s" r.setup_s;
         num "run_s" r.run_s;
         int "syscalls" r.syscalls;
         num "minor_words" minor;
         int "top_heap_words" g1.Gc.top_heap_words;
         int "word_bytes" (Sys.word_size / 8);
         int "attempted" r.attempted;
         int "failed" r.failed;
         ("digest", Str r.digest);
         ("digest_md5", Str (Digest.to_hex (Digest.string r.digest)));
         ( "layers",
           Obj
             (r.layers
             @ [
                 int "gc.minor_collections"
                   (g1.Gc.minor_collections - g0.Gc.minor_collections);
                 int "gc.major_collections"
                   (g1.Gc.major_collections - g0.Gc.major_collections);
                 num "gc.promoted_words" (g1.Gc.promoted_words -. g0.Gc.promoted_words);
               ]) );
       ])

let reference name ~seed =
  let digest =
    match name with
    | "herd-100k" -> (Topology.run_herd ~shards:1 (herd ~seed)).Topology.hr_digest
    | _ -> (run_workload name ~seed ~traced:false ~shards:1 ~t0:(Spans.now_ns ())).digest
  in
  Emit.line
    (Emit.Obj
       [
         ("workload", Str name);
         int "seed" seed;
         ("digest", Str digest);
         ("digest_md5", Str (Digest.to_hex (Digest.string digest)));
       ])

let usage () =
  prerr_endline
    "usage: perfbench.exe rep WORKLOAD SEED TRACE SHARDS\n\
    \       perfbench.exe reference WORKLOAD SEED\n\
    \       perfbench.exe probe";
  exit 2

let () =
  let workload w = if List.mem w workloads then w else usage () in
  let number s = match int_of_string_opt s with Some n -> n | None -> usage () in
  match Array.to_list Sys.argv |> List.tl with
  | [ "rep"; w; seed; trace; shards ] ->
    rep (workload w) ~seed:(number seed) ~traced:(number trace = 1)
      ~shards:(max 1 (number shards))
  | [ "reference"; w; seed ] -> reference (workload w) ~seed:(number seed)
  | [ "probe" ] -> Emit.line (Emit.Obj [ num "probe_s" (Probe.seconds ()) ])
  | _ -> usage ()
