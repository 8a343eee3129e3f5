open Dex_net
open Dex_runtime

module Registry = Dex_metrics.Registry

type role = Correct | Mute | Equivocator | Churn

module Make (L : Dex_core.Protocol_lane.LANE) = struct
  (* The replica core — consensus callbacks, apply loop, catch-up,
     admission — assembled from the pipeline stages. This module adds the
     parts that touch sockets and threads: the client listener, the batcher
     thread, and deployment orchestration. *)
  include Replica.Make (L)

  (* ----------------------------- the service ----------------------------- *)

  (* --- threaded service (io_mode = Threads) --- *)

  let track_thread t th =
    Mutex.lock t.lock;
    t.threads <- th :: t.threads;
    Mutex.unlock t.lock

  let conn_reader t sock () =
    let ic = Unix.in_channel_of_descr sock in
    let oc = Unix.out_channel_of_descr sock in
    (try
       while t.running do
         handle_request t ~sink:(Chan oc) (Wire.read_request ic)
       done
     with
    | End_of_file | Sys_error _ | Unix.Unix_error _ | Dex_codec.Codec.Decode_error _ -> ());
    try Unix.close sock with Unix.Unix_error _ -> ()

  let acceptor t sock () =
    try
      while t.running do
        let conn, _ = Unix.accept sock in
        (try Unix.setsockopt conn Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        Mutex.lock t.lock;
        t.client_socks <- conn :: t.client_socks;
        let live = t.running in
        Mutex.unlock t.lock;
        (* Lost race with [stop_threads]'s shutdown sweep: fail the reader
           out ourselves, or its join would wait on a blocked read forever. *)
        if not live then (try Unix.shutdown conn Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        track_thread t (Thread.create (conn_reader t conn) ())
      done
    with Unix.Unix_error _ | Sys_error _ -> ()

  let batcher t () =
    while t.running do
      Thread.delay t.cfg.batch_delay;
      install_pending_snapshot t;
      batcher_tick t
    done

  (* --- event-driven service (io_mode = Reactor) --- *)

  (* One-shot cut timer, armed under [t.lock]: fire when the just-admitted
     request (or the oldest pending one) turns settle-eligible, with a small
     margin so the tick lands on the eligible side of the cutoff. The
     periodic [batch_timer] remains the safety net (watchdog, GC, missed
     edges), so a timer that fires fractionally early costs one cadence. *)
  let arm_cut r t =
    if t.running && not t.cut_armed then begin
      t.cut_armed <- true;
      let oldest = Admission.oldest t.admission in
      let margin = t.cut_margin in
      let delay =
        if oldest = Float.infinity then t.cfg.settle +. margin
        else Float.max margin (t.cfg.settle -. (Unix.gettimeofday () -. oldest) +. margin)
      in
      (* Tracked (in [t.cut_timer]) so [stop_threads] can cancel it, and the
         callback re-checks [running]: the reactor can outlive this replica
         incarnation under crash/restart, and an orphaned one-shot must not
         tick a stopped instance's batcher. Called under [t.lock]. *)
      t.cut_timer <-
        Some
          (Reactor.after r delay (fun () ->
               Mutex.lock t.lock;
               t.cut_armed <- false;
               t.cut_timer <- None;
               let live = t.running in
               Mutex.unlock t.lock;
               if live then batcher_tick t))
    end

  let ev_conn_closed t conn =
    Mutex.lock t.lock;
    t.client_conns <- List.filter (fun c -> c != conn) t.client_conns;
    Mutex.unlock t.lock

  (* Accepted client connection: incremental request reassembly straight
     into [handle_request], replies through the connection's coalescing
     write queue. A malformed frame raises out of [feed], and the reactor
     tears down exactly this client. *)
  let attach_client t r sock =
    (try Unix.setsockopt sock Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    let reader = Dex_codec.Codec.Frame.Reader.create Wire.request_codec in
    let cell = ref None in
    let on_bytes buf len =
      let reqs = Dex_codec.Codec.Frame.Reader.feed reader buf len in
      match !cell with
      | None -> ()
      | Some c -> List.iter (fun req -> handle_request t ~sink:(Evc c) req) reqs
    in
    let on_close () = match !cell with Some c -> ev_conn_closed t c | None -> () in
    match Reactor.Conn.attach r sock ~on_bytes ~on_close with
    | c ->
      cell := Some c;
      Mutex.lock t.lock;
      t.client_conns <- c :: t.client_conns;
      Mutex.unlock t.lock
    | exception Invalid_argument msg ->
      prerr_endline msg;
      (try Unix.close sock with Unix.Unix_error _ -> ())

  let accept_ready t r sock () =
    let rec loop () =
      match Unix.accept sock with
      | conn, _ ->
        attach_client t r conn;
        loop ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> ()
    in
    loop ()

  let reactor_tick t =
    install_pending_snapshot t;
    batcher_tick t;
    Mutex.lock t.lock;
    List.iter
      (fun c -> Dex_metrics.Registry.set_max t.g_client_hwm (Reactor.Conn.hwm c))
      t.client_conns;
    Mutex.unlock t.lock

  (* --- lifecycle --- *)

  let start_service ?(port = 0) t =
    if t.running then invalid_arg "Server.start_service: already running";
    t.running <- true;
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen sock 64;
    let bound =
      match Unix.getsockname sock with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false
    in
    t.listener <- Some sock;
    t.service_port <- Some bound;
    (match t.service_reactor with
    | None ->
      t.threads <- [ Thread.create (acceptor t sock) (); Thread.create (batcher t) () ]
    | Some r ->
      Unix.set_nonblock sock;
      t.schedule_cut <- arm_cut r;
      t.batch_timer <- Some (Reactor.every r t.cfg.batch_delay (fun () -> reactor_tick t));
      Reactor.on_readable r sock (accept_ready t r sock));
    bound

  let service_port t = t.service_port

  (* Join every service thread. The list is re-read until it drains: the
     acceptor registers reader threads concurrently, and it is itself on the
     list, so once it is joined no new entries can appear. *)
  let rec join_service_threads t =
    Mutex.lock t.lock;
    let ths = t.threads in
    t.threads <- [];
    Mutex.unlock t.lock;
    match ths with
    | [] -> ()
    | _ ->
      List.iter Thread.join ths;
      join_service_threads t

  let stop_threads t =
    (if t.running then begin
       Mutex.lock t.lock;
       t.running <- false;
       Mutex.unlock t.lock;
       match t.service_reactor with
       | None ->
         (match t.listener with
         | Some sock ->
           (* shutdown, not just close: close alone leaves the acceptor
              thread parked in [accept] on Linux; shutdown fails it out with
              EINVAL. *)
           (try Unix.shutdown sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
           (try Unix.close sock with Unix.Unix_error _ -> ())
         | None -> ());
         Mutex.lock t.lock;
         let socks = t.client_socks in
         t.client_socks <- [];
         Mutex.unlock t.lock;
         List.iter
           (fun s -> try Unix.shutdown s Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
           socks;
         join_service_threads t
       | Some r ->
         (match t.batch_timer with
         | Some timer ->
           Reactor.cancel r timer;
           t.batch_timer <- None
         | None -> ());
         Mutex.lock t.lock;
         (match t.cut_timer with
         | Some timer ->
           Reactor.cancel r timer;
           t.cut_timer <- None;
           t.cut_armed <- false
         | None -> ());
         Mutex.unlock t.lock;
         (match t.listener with
         | Some sock ->
           Reactor.remove r sock;
           (try Unix.close sock with Unix.Unix_error _ -> ())
         | None -> ());
         Mutex.lock t.lock;
         let conns = t.client_conns in
         t.client_conns <- [];
         Mutex.unlock t.lock;
         List.iter Reactor.Conn.close conns
     end);
    (* A private reactor exists from [replica] on (it also drives the WAL
       syncer), so it is stopped even if the service was never started. A
       borrowed (shared-runtime) loop is left running for its owner — the
       WAL syncer timer is cancelled separately by [Durability_lane.stop]. *)
    if t.owns_reactor then Option.iter Reactor.stop t.service_reactor

  let stop t =
    stop_threads t;
    Durability_lane.stop t.lane

  let crash t =
    stop_threads t;
    Durability_lane.crash t.lane

  (* ------------------------- Byzantine behaviours ------------------------- *)

  (* A digest equivocator: for every slot it sees, it sends half the peers
     the digest of a synthetic (but valid, disclosable) chaff batch and the
     other half the empty digest, on both decision lanes — the attack IDB is
     designed to blunt, lifted to the service layer. It answers fetches for
     its chaff so that a slot it manages to win still resolves everywhere
     (external validity is assumed, not enforced; see the interface). It
     never answers the durability lanes: a recovering replica gets nothing
     from it (which the [t+1] vote rule absorbs). *)
  let equivocator cfg ~me =
    let by_slot : (int, Batch.t) Hashtbl.t = Hashtbl.create 64 in
    let by_digest : (int, Batch.t) Hashtbl.t = Hashtbl.create 64 in
    let chaff slot =
      match Hashtbl.find_opt by_slot slot with
      | Some b -> b
      | None ->
        let b =
          Batch.canonical
            [ { Wire.client = 1_000_000 + me; rid = slot; command = State_machine.Nop } ]
        in
        Hashtbl.replace by_slot slot b;
        Hashtbl.replace by_digest (Batch.digest b) b;
        b
    in
    let split ~slot dst = if dst land 1 = 0 then Batch.digest (chaff slot) else Batch.empty_digest in
    let log_inst = Log.equivocator (log_config cfg) ~me ~split in
    let lift actions = Protocol.map_actions (fun m -> Log_msg m) actions in
    let start () = lift (log_inst.Protocol.start ()) in
    let on_message ~now ~from m =
      match m with
      | Log_msg lm -> lift (log_inst.Protocol.on_message ~now ~from lm)
      | Fetch (digest, _) -> (
        match Hashtbl.find_opt by_digest digest with
        | Some batch -> [ Protocol.Send (from, Batch_payload (digest, batch)) ]
        | None -> [])
      | Batch_payload _ | Truncated _ | Catch_up _ | Slot_commit _ | Catch_up_done _
      | Snapshot_fetch _ | Snapshot_payload _ | Frag_request _ | Frag_payload _
      | Snapshot_frag _ | Snapshot_fetch_full _ ->
        (* The equivocator never serves fragments: its chaff resolves over
           the full-fetch lane it does answer, exercising the coded lane's
           fallback path under Byzantine load. *)
        []
    in
    { Protocol.start; on_message }

  (* ------------------------------ deployment ------------------------------ *)

  (* A runtime lent to a deployment instead of letting [launch] build its
     own: a pid-namespaced transport view onto a bigger shared mesh
     ({!Transport.offset}), the registry that mesh reports into, the mesh
     loops, and (reactor mode) a selector giving each replica index a shared
     service loop. Everything here is borrowed — the lender (a sharded
     group set) stops loops and closes the real mesh after every borrowing
     deployment is down. *)
  type shared_runtime = {
    sr_transport : smsg Transport.t;
    sr_net_metrics : Registry.t;
    sr_net_reactor : Reactor.t option;
    sr_service_loop_for : (Pid.t -> Reactor.t) option;
  }

  type deployment = {
    dcfg : config;
    cluster : smsg Cluster.t;
    transport : smsg Transport.t;
    net_metrics : Registry.t;
        (* deployment-wide registry holding the transport's [net/*] counters *)
    net_reactor : Reactor.t option;
        (* event-driven mesh: the deployment's one loop; [None] when the
           deployment runs thread-per-connection *)
    mutable servers : (Pid.t * t) list;
    ports : (Pid.t * int) list;
    mutable dead : (Pid.t * t) list;
    chaos : Fault_plan.t option;
        (* the plan the mesh transport is wrapped with; clock re-armed at
           cluster start so cut windows are deployment-relative *)
    churn_cells : (Pid.t * Adversary.churn_mode ref) list;
        (* live mode cell per [Churn]-role replica *)
    owns_runtime : bool;
        (* whether [launch] built the mesh/loops above (shut them down with
           the deployment) or borrowed them from a shared runtime *)
    service_loop_for : (Pid.t -> Reactor.t) option;
        (* shared service loop per replica pid (borrowed); restarts must
           land on the same loop as the original incarnation *)
  }

  let launch ?(roles = fun _ -> Correct) ?chaos ?(port_base = 0) ?runtime cfg =
    let lcfg = log_config cfg in
    let extra =
      List.map
        (fun (pid, inst) ->
          ( pid,
            Protocol.embed
              ~inject:(fun m -> Log_msg m)
              ~project:(function Log_msg m -> Some m | _ -> None)
              inst ))
        (Log.extra lcfg)
    in
    let pids = Pid.all ~n:cfg.n @ List.map fst extra in
    let owns_runtime, net_metrics, net_reactor, transport, service_loop_for =
      match runtime with
      | Some rt ->
        (* Borrowed mesh: wrap only this deployment's pid-namespaced view
           with the fault plan, so chaos on one shard never touches the
           links of the groups sharing the mesh (blast-radius isolation). *)
        let transport =
          match chaos with
          | Some plan -> Transport.with_faults ?reactor:rt.sr_net_reactor plan rt.sr_transport
          | None -> rt.sr_transport
        in
        (false, rt.sr_net_metrics, rt.sr_net_reactor, transport, rt.sr_service_loop_for)
      | None ->
        let net_metrics = Registry.create () in
        let net_reactor =
          match cfg.io_mode with
          | Transport.Threads -> None
          | Transport.Reactor -> Some (Reactor.create ~metrics:net_metrics ~name:"mesh" ())
        in
        (* One mesh loop carries every endpoint's I/O. Extra I/O loops
           would not run OCaml code in parallel under one domain; they only
           add hand-offs between threads. *)
        let transport =
          Transport.Tcp_codec.create ~codec:smsg_codec ~metrics:net_metrics ?faults:chaos
            ?reactor:net_reactor ~pids ()
        in
        (true, net_metrics, net_reactor, transport, None)
    in
    (* One loop per deployment: unless the lender assigns service loops,
       every replica's client I/O and batch timers join the mesh loop its
       consensus handlers already run on. *)
    let service_loop_for =
      match service_loop_for with
      | Some f -> Some f
      | None -> Option.map (fun r _ -> r) net_reactor
    in
    let svc_loop p = Option.map (fun f -> f p) service_loop_for in
    let servers = ref [] in
    let churn_cells = ref [] in
    let make p =
      match roles p with
      | Correct ->
        let t, inst = replica ?service_reactor:(svc_loop p) cfg ~me:p ~transport in
        servers := (p, t) :: !servers;
        inst
      | Mute -> Adversary.silent ()
      | Equivocator -> equivocator cfg ~me:p
      | Churn ->
        (* A full correct replica whose emissions pass through a
           runtime-flippable churn filter. It serves clients and keeps an
           honest commit log in every mode (churn only suppresses or
           stale-replays its own sends), so it stays in [servers] and in
           the agreement check. *)
        let t, inst = replica ?service_reactor:(svc_loop p) cfg ~me:p ~transport in
        servers := (p, t) :: !servers;
        let cell = ref Adversary.Churn_honest in
        churn_cells := (p, cell) :: !churn_cells;
        Adversary.churn ~mode:(fun ~step:_ -> !cell) inst
    in
    let cluster = Cluster.create ~transport ~n:cfg.n ~extra ?reactor:net_reactor make in
    let servers = List.rev !servers in
    Option.iter Fault_plan.reset_clock chaos;
    Cluster.start cluster;
    let ports =
      List.mapi
        (fun i (p, s) ->
          (p, start_service ~port:(if port_base = 0 then 0 else port_base + i) s))
        servers
    in
    { dcfg = cfg; cluster; transport; net_metrics; net_reactor; servers; ports; dead = []; chaos;
      churn_cells = List.rev !churn_cells; owns_runtime; service_loop_for }

  let set_churn_mode d pid mode =
    match List.assoc_opt pid d.churn_cells with
    | Some cell -> cell := mode
    | None -> invalid_arg "Server.set_churn_mode: pid was not launched with role Churn"

  let kill_replica d pid =
    match List.assoc_opt pid d.servers with
    | None -> invalid_arg "Server.kill_replica: not a live correct replica"
    | Some s ->
      (* Quiesce the consensus thread first so nothing touches the abandoned
         WAL; then crash the service (no final sync — this simulates power
         loss, not a clean stop). The transport endpoint stays up. *)
      Cluster.stop_node d.cluster pid;
      crash s;
      d.servers <- List.remove_assoc pid d.servers;
      d.dead <- (pid, s) :: d.dead

  let restart_replica d pid =
    if not (List.mem_assoc pid d.dead) then
      invalid_arg "Server.restart_replica: pid was not killed";
    if List.mem_assoc pid d.servers then
      invalid_arg "Server.restart_replica: already running";
    (* [catchup:true]: even a replica that lost its whole data dir must ask
       the peers where the log stands before taking client traffic. *)
    let t, inst =
      replica ~catchup:true
        ?service_reactor:(Option.map (fun f -> f pid) d.service_loop_for)
        d.dcfg ~me:pid ~transport:d.transport
    in
    Cluster.start_node d.cluster pid inst;
    let port = List.assoc pid d.ports in
    ignore (start_service ~port t);
    d.servers <- d.servers @ [ (pid, t) ];
    t

  (* Merge the plan's storm and churn schedules and execute them in time
     order against the live deployment, sleeping on the caller's thread
     between events. Plan times are relative to the plan clock, which
     [launch] re-armed as the cluster started. *)
  let run_chaos_schedule d =
    match d.chaos with
    | None -> ()
    | Some plan ->
      let spec = Fault_plan.spec plan in
      let events =
        List.map
          (fun e -> (e.Fault_plan.s_at, `Storm (e.Fault_plan.s_pid, e.Fault_plan.s_action)))
          spec.Fault_plan.storm
        @ List.map
            (fun e -> (e.Fault_plan.c_at, `Churn (e.Fault_plan.c_pid, e.Fault_plan.c_mode)))
            spec.Fault_plan.churn
      in
      let events = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) events in
      List.iter
        (fun (at, ev) ->
          let wait = at -. Fault_plan.elapsed plan in
          if wait > 0.0 then Thread.delay wait;
          match ev with
          | `Storm (pid, Fault_plan.Kill) -> kill_replica d pid
          | `Storm (pid, Fault_plan.Restart) -> ignore (restart_replica d pid)
          | `Churn (pid, mode) -> set_churn_mode d pid mode)
        events

  let shutdown d =
    (* Consensus first, so no handler appends to a WAL [stop] has closed.
       With a borrowed runtime this closes only the pid-namespaced view
       (a no-op) — the real mesh stays up for the other groups sharing it,
       and the lender closes it after the last of them shuts down. *)
    Cluster.shutdown d.cluster;
    List.iter (fun (_, s) -> stop s) d.servers;
    (* The mesh loop is borrowed by transport, cluster and replicas alike;
       the deployment owns it. *)
    if d.owns_runtime then Option.iter Reactor.stop d.net_reactor

  (* Agreement check across the correct replicas of a deployment — killed
     replicas' pre-crash (and recovered) commit logs included: a slot a
     replica acknowledged before dying must agree with what the survivors
     committed. For every slot committed by at least two replicas, the
     committed digests must be equal. Returns the number of compared slots
     and the violations. *)
  let agreement_violations d =
    let per_slot : (int, (Pid.t * int) list) Hashtbl.t = Hashtbl.create 1024 in
    List.iter
      (fun (p, s) ->
        List.iter
          (fun (slot, digest, _) ->
            Hashtbl.replace per_slot slot
              ((p, digest) :: Option.value ~default:[] (Hashtbl.find_opt per_slot slot)))
          (commit_log s))
      (d.servers @ d.dead);
    Hashtbl.fold
      (fun slot entries (compared, violations) ->
        match entries with
        | [] | [ _ ] -> (compared, violations)
        | (_, d0) :: rest ->
          ( compared + 1,
            if List.for_all (fun (_, dx) -> dx = d0) rest then violations
            else (slot, entries) :: violations ))
      per_slot (0, [])
end
