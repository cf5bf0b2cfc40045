(* The herd shape of [Topology.run_herd], rebuilt from the public World,
   Kernel and Api functions so the benchmark can reach each host's kernel
   (syscall counts, dispatch wrappers) and split set-up from the run.
   [digest] renders the same text as [Topology.herd_result.hr_digest]; the
   reference digests are made with [Topology.run_herd] at one shard, so a
   match also proves this copy of the shape faithful and shard-invariant. *)

open Remon_kernel
open Remon_core
open Remon_workloads

type cell = {
  mutable accepted : int;
  mutable served : int;
  mutable closed : int;
  mutable responses : int;
  mutable connect_errors : int;
  mutable transport_errors : int;
}

let port cell = 10_000 + cell

let send_all fd data =
  let len = String.length data in
  let rec go off =
    if off < len then begin
      let n = Api.send fd (String.sub data off (len - off)) in
      if n <= 0 then raise (Api.Sys_error (Errno.EPIPE, "send")) else go (off + n)
    end
  in
  go 0

let server (h : Topology.herd) ~port ~st () =
  let lfd = Api.socket () in
  Api.bind lfd port;
  Api.listen lfd h.conns_per_cell;
  let fds =
    Array.init h.conns_per_cell (fun _ ->
        let a = Api.accept lfd in
        st.accepted <- st.accepted + 1;
        a.Syscall.conn_fd)
  in
  for _ = 1 to h.rounds_per_conn do
    Array.iter
      (fun fd ->
        try
          let req = Api.recv_exactly fd h.payload in
          if String.length req = h.payload then begin
            send_all fd req;
            st.served <- st.served + 1
          end
        with Api.Sys_error _ -> st.transport_errors <- st.transport_errors + 1)
      fds
  done;
  Array.iter
    (fun fd ->
      (try if Api.recv fd 1 = "" then st.closed <- st.closed + 1
       with Api.Sys_error _ -> st.transport_errors <- st.transport_errors + 1);
      Api.close fd)
    fds;
  Api.close lfd;
  Api.exit_group 0

let client (h : Topology.herd) ~cell ~port ~st () =
  Api.nanosleep ((cell + 1) * h.stagger_ns);
  let fds =
    Array.init h.conns_per_cell (fun _ ->
        let fd = Api.socket () in
        Api.set_nonblocking fd true;
        (match Api.retrying "connect" (Syscall.Connect (fd, port)) with
        | Syscall.Ok_int _ | Syscall.Ok_unit | Syscall.Error Errno.EINPROGRESS -> ()
        | _ -> st.connect_errors <- st.connect_errors + 1);
        fd)
  in
  Api.nanosleep (3 * Remon_sim.Vtime.to_int_ns h.h_link_latency);
  Array.iter (fun fd -> Api.set_nonblocking fd false) fds;
  let req = String.make h.payload 'q' in
  for _ = 1 to h.rounds_per_conn do
    Array.iter
      (fun fd ->
        try send_all fd req
        with Api.Sys_error _ -> st.transport_errors <- st.transport_errors + 1)
      fds;
    Array.iter
      (fun fd ->
        try
          if String.length (Api.recv_exactly fd h.payload) = h.payload then
            st.responses <- st.responses + 1
          else st.transport_errors <- st.transport_errors + 1
        with Api.Sys_error _ -> st.transport_errors <- st.transport_errors + 1)
      fds;
    Api.nanosleep h.think_ns
  done;
  Array.iter (fun fd -> try Api.close fd with Api.Sys_error _ -> ()) fds;
  Api.exit_group 0

type t = { herd : Topology.herd; world : World.t; cells : cell array }

(* Everything up to the first simulated event: hosts, routes, processes. *)
let setup (h : Topology.herd) =
  let world =
    World.create ~link_latency:h.h_link_latency ~n:(2 * h.cells)
      ~mk:(fun i -> Kernel.create ~seed:(h.h_seed + (i * 101)) ())
      ()
  in
  let cells =
    Array.init h.cells (fun _ ->
        {
          accepted = 0;
          served = 0;
          closed = 0;
          responses = 0;
          connect_errors = 0;
          transport_errors = 0;
        })
  in
  for c = 0 to h.cells - 1 do
    let server_host = 2 * c and client_host = (2 * c) + 1 in
    let port = port c and st = cells.(c) in
    World.route world ~port ~host:server_host ~initiators:[ client_host ];
    ignore
      (Kernel.spawn_process (World.kernel world server_host)
         ~name:(Printf.sprintf "herd-srv%d" c) ~vm_seed:(h.h_seed + (c * 13))
         (server h ~port ~st)
        : Proc.process);
    ignore
      (Kernel.spawn_process (World.kernel world client_host)
         ~name:(Printf.sprintf "herd-cli%d" c)
         ~vm_seed:(h.h_seed + (c * 13) + 7)
         (client h ~cell:c ~port ~st)
        : Proc.process)
  done;
  { herd = h; world; cells }

let total t f = Array.fold_left (fun a st -> a + f st) 0 t.cells
let connections t = t.herd.cells * t.herd.conns_per_cell
let echoes t = connections t * t.herd.rounds_per_conn

(* Failed operations: connect and transport errors, plus every echo that
   came back short or never came back. *)
let failures t =
  total t (fun st -> st.connect_errors + st.transport_errors)
  + (echoes t - total t (fun st -> st.responses))

let hostnet_stats t =
  let o = ref 0 and rf = ref 0 and rs = ref 0 in
  for i = 0 to World.n_hosts t.world - 1 do
    let a, b, c = Hostnet.stats (World.hostnet t.world i) in
    o := !o + a;
    rf := !rf + b;
    rs := !rs + c
  done;
  (!o, !rf, !rs)

let link_totals t =
  List.fold_left
    (fun (m, b) (_, _, msgs, bytes) -> (m + msgs, b + bytes))
    (0, 0) (World.link_stats t.world)

let cell_hash t =
  let mix h v = (h * 0x100000001B3) + v + 1 in
  Array.fold_left
    (fun h st ->
      let h = mix h st.accepted in
      let h = mix h st.served in
      let h = mix h st.closed in
      let h = mix h st.responses in
      let h = mix h st.connect_errors in
      mix h st.transport_errors)
    0x1099511628211 t.cells
  land max_int

let digest t =
  let opened, refused, resets = hostnet_stats t in
  let msgs, bytes = link_totals t in
  let b = Buffer.create 512 in
  Printf.bprintf b "%s\n" (Topology.render_herd t.herd);
  Printf.bprintf b
    "connections=%d accepted=%d served=%d responses=%d closed=%d \
     conn_errors=%d transport_errors=%d\n"
    (connections t)
    (total t (fun st -> st.accepted))
    (total t (fun st -> st.served))
    (total t (fun st -> st.responses))
    (total t (fun st -> st.closed))
    (total t (fun st -> st.connect_errors))
    (total t (fun st -> st.transport_errors));
  Printf.bprintf b "gw opened=%d refused=%d resets=%d\n" opened refused resets;
  Printf.bprintf b "links msgs=%d bytes=%d\n" msgs bytes;
  Printf.bprintf b "cellhash=%016x\n" (cell_hash t);
  Buffer.contents b
