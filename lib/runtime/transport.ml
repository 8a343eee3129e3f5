open Dex_net

open Dex_stdext

type io_mode = Threads | Reactor

let io_mode_of_string = function
  | "threads" -> Some Threads
  | "reactor" -> Some Reactor
  | _ -> None

let io_mode_to_string = function Threads -> "threads" | Reactor -> "reactor"

type link_stats = { reconnects : int; backoffs : int; drops : int }

type 'msg t = {
  send : src:Pid.t -> dst:Pid.t -> 'msg -> unit;
  recv : me:Pid.t -> timeout:float -> (Pid.t * 'msg) option;
  close : unit -> unit;
  drop_count : dst:Pid.t -> int;
  link_stats : unit -> link_stats;
  peer_links : unit -> (Pid.t * link_stats) list;
}

(* Per-destination link-health accounting, optionally mirrored into a
   metrics registry: per-peer counter handles are created once per
   destination and cached here, so the send path never formats a metric
   name. *)
module Links = struct
  open Dex_metrics

  type entry = {
    mutable reconnects : int;
    mutable backoffs : int;
    mutable drops : int;
    m_reconnects : Registry.counter option;
    m_backoffs : Registry.counter option;
    m_drops : Registry.counter option;
  }

  type t = {
    mutex : Mutex.t;
    peers : (Pid.t, entry) Hashtbl.t;
    metrics : Registry.t option;
    t_reconnects : Registry.counter option;
    t_backoffs : Registry.counter option;
    t_drops : Registry.counter option;
  }

  let create ?metrics () =
    let c name = Option.map (fun r -> Registry.counter r name) metrics in
    {
      mutex = Mutex.create ();
      peers = Hashtbl.create 8;
      metrics;
      t_reconnects = c "net/reconnects";
      t_backoffs = c "net/backoffs";
      t_drops = c "net/drops";
    }

  let entry t dst =
    match Hashtbl.find_opt t.peers dst with
    | Some e -> e
    | None ->
      let c kind =
        Option.map (fun r -> Registry.counter r (Printf.sprintf "net/%s/peer%d" kind dst)) t.metrics
      in
      let e =
        {
          reconnects = 0;
          backoffs = 0;
          drops = 0;
          m_reconnects = c "reconnects";
          m_backoffs = c "backoffs";
          m_drops = c "drops";
        }
      in
      Hashtbl.replace t.peers dst e;
      e

  let bump = Option.iter Registry.incr

  let record_drop t dst =
    Mutex.lock t.mutex;
    let e = entry t dst in
    e.drops <- e.drops + 1;
    bump e.m_drops;
    bump t.t_drops;
    Mutex.unlock t.mutex

  let record_reconnect t dst =
    Mutex.lock t.mutex;
    let e = entry t dst in
    e.reconnects <- e.reconnects + 1;
    bump e.m_reconnects;
    bump t.t_reconnects;
    Mutex.unlock t.mutex

  let record_backoff t dst =
    Mutex.lock t.mutex;
    let e = entry t dst in
    e.backoffs <- e.backoffs + 1;
    bump e.m_backoffs;
    bump t.t_backoffs;
    Mutex.unlock t.mutex

  let drop_count t dst =
    Mutex.lock t.mutex;
    let n = match Hashtbl.find_opt t.peers dst with Some e -> e.drops | None -> 0 in
    Mutex.unlock t.mutex;
    n

  let totals t =
    Mutex.lock t.mutex;
    let s =
      Hashtbl.fold
        (fun _ e (acc : link_stats) ->
          {
            reconnects = acc.reconnects + e.reconnects;
            backoffs = acc.backoffs + e.backoffs;
            drops = acc.drops + e.drops;
          })
        t.peers
        { reconnects = 0; backoffs = 0; drops = 0 }
    in
    Mutex.unlock t.mutex;
    s

  let per_peer t =
    Mutex.lock t.mutex;
    let s =
      Hashtbl.fold
        (fun dst e acc ->
          (dst, { reconnects = e.reconnects; backoffs = e.backoffs; drops = e.drops }) :: acc)
        t.peers []
    in
    Mutex.unlock t.mutex;
    List.sort compare s
end

(* Fault injection wraps the abstract transport, so every implementation —
   in-memory, threaded TCP, reactor TCP — faces the same adversarial
   network. The plan decides per send; a deferred copy is a timer on the
   given loop (a deployment's mesh loop), else on a private loop that the
   first deferral starts and [close] stops. The lock orders deliveries
   against [close]: once [close] has taken it, no copy is delivered. *)
let with_faults ?reactor plan inner =
  let lock = Mutex.create () in
  let closed = ref false in
  let private_loop = ref None in
  let loop () =
    match reactor with
    | Some r -> Some r
    | None ->
      Mutex.lock lock;
      if Option.is_none !private_loop && not !closed then
        private_loop := Some (Reactor.create ~name:"faults" ());
      let r = !private_loop in
      Mutex.unlock lock;
      r
  in
  let deliver ~src ~dst msg () =
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () -> if not !closed then inner.send ~src ~dst msg)
  in
  let send ~src ~dst msg =
    match Fault_plan.decide plan ~now:(Fault_plan.elapsed plan) ~src ~dst with
    | [] -> ()
    | delays ->
      List.iter
        (fun d ->
          if d <= 0.0 then inner.send ~src ~dst msg
          else
            match loop () with
            | Some r -> ignore (Reactor.after r d (deliver ~src ~dst msg))
            | None -> ())
        delays
  in
  let close () =
    Mutex.lock lock;
    closed := true;
    let own = !private_loop in
    private_loop := None;
    Mutex.unlock lock;
    Option.iter Reactor.stop own;
    inner.close ()
  in
  { inner with send; close }

(* A pid-namespaced window onto a larger mesh: local pids [0 .. count-1]
   map to global pids [base .. base+count-1]. Several consensus groups can
   then share one transport (one listener set, one reactor set, one metrics
   registry) while each sees a private, zero-based pid space — the stream
   namespacing the sharded service is built on. Close is a no-op: the view
   is borrowed, the mesh owner tears the real transport down. *)
let offset ~base ~count inner =
  if base < 0 || count < 1 then invalid_arg "Transport.offset: base >= 0, count >= 1";
  {
    send = (fun ~src ~dst msg -> inner.send ~src:(src + base) ~dst:(dst + base) msg);
    recv =
      (fun ~me ~timeout ->
        match inner.recv ~me:(me + base) ~timeout with
        | Some (src, msg) -> Some (src - base, msg)
        | None -> None);
    close = (fun () -> ());
    drop_count = (fun ~dst -> inner.drop_count ~dst:(dst + base));
    link_stats = inner.link_stats;
    peer_links =
      (fun () ->
        List.filter_map
          (fun (p, s) -> if p >= base && p < base + count then Some (p - base, s) else None)
          (inner.peer_links ()));
  }

module Mem = struct
  (* Jittered deliveries used to spawn one detached thread each; a single
     joined scheduler thread with a delay queue delivers them instead, so
     [close] leaves no threads behind. *)
  type 'a delayed = {
    dmutex : Mutex.t;
    dcond : Condition.t;
    dq : ('a Mailbox.t * 'a) Pqueue.t;
    mutable dseq : int;
    mutable dclosed : bool;
    mutable dthread : Thread.t option;
  }

  let delayed_loop d () =
    let rec loop () =
      Mutex.lock d.dmutex;
      while Pqueue.is_empty d.dq && not d.dclosed do
        Condition.wait d.dcond d.dmutex
      done;
      if d.dclosed then Mutex.unlock d.dmutex
      else begin
        let now = Unix.gettimeofday () in
        let rec due acc =
          match Pqueue.peek d.dq with
          | Some (at, _, _) when at <= now -> (
            match Pqueue.pop d.dq with
            | Some (_, _, x) -> due (x :: acc)
            | None -> acc)
          | _ -> acc
        in
        let ready = due [] in
        let next = match Pqueue.peek d.dq with Some (at, _, _) -> Some at | None -> None in
        Mutex.unlock d.dmutex;
        List.iter (fun (box, env) -> Mailbox.push box env) (List.rev ready);
        (match next with
        | Some at ->
          let nap = Float.min 0.001 (Float.max 0.0 (at -. Unix.gettimeofday ())) in
          if nap > 0.0 then Thread.delay nap
        | None -> ());
        loop ()
      end
    in
    loop ()

  let create ?metrics ?faults ?(jitter = 0.0) ?(seed = 0) ~pids () =
    let boxes = Hashtbl.create 16 in
    List.iter (fun p -> Hashtbl.replace boxes p (Mailbox.create ())) pids;
    let links = Links.create ?metrics () in
    let rng = Prng.create ~seed in
    let rng_mutex = Mutex.create () in
    let draw_delay () =
      Mutex.lock rng_mutex;
      let d = Prng.float rng jitter in
      Mutex.unlock rng_mutex;
      d
    in
    let delayed =
      if jitter > 0.0 then begin
        let d =
          {
            dmutex = Mutex.create ();
            dcond = Condition.create ();
            dq = Pqueue.create ();
            dseq = 0;
            dclosed = false;
            dthread = None;
          }
        in
        d.dthread <- Some (Thread.create (delayed_loop d) ());
        Some d
      end
      else None
    in
    let send ~src ~dst msg =
      match Hashtbl.find_opt boxes dst with
      | None -> Links.record_drop links dst
      | Some box -> (
        match delayed with
        | Some d ->
          Mutex.lock d.dmutex;
          if not d.dclosed then begin
            let at = Unix.gettimeofday () +. draw_delay () in
            Pqueue.push d.dq ~time:at ~seq:d.dseq (box, (src, msg));
            d.dseq <- d.dseq + 1;
            Condition.signal d.dcond
          end;
          Mutex.unlock d.dmutex
        | None -> Mailbox.push box (src, msg))
    in
    let recv ~me ~timeout =
      match Hashtbl.find_opt boxes me with
      | None -> None
      | Some box -> Mailbox.pop ~timeout box
    in
    let close () =
      (match delayed with
      | Some d ->
        Mutex.lock d.dmutex;
        d.dclosed <- true;
        Condition.broadcast d.dcond;
        let th = d.dthread in
        d.dthread <- None;
        Mutex.unlock d.dmutex;
        Option.iter Thread.join th
      | None -> ());
      Hashtbl.iter (fun _ box -> Mailbox.close box) boxes
    in
    let t =
      {
        send;
        recv;
        close;
        drop_count = (fun ~dst -> Links.drop_count links dst);
        (* No connections to lose in-process: only drops are meaningful. *)
        link_stats = (fun () -> Links.totals links);
        peer_links = (fun () -> Links.per_peer links);
      }
    in
    match faults with None -> t | Some plan -> with_faults plan t
end

(* Shared TCP machinery, parameterized by the frame format. *)
module Tcp_generic = struct
  (* Outbound send failures are retried with a fresh connection and a short
     backoff before a message is abandoned: a peer restarting its listener,
     or a reader torn down over one malformed frame, costs a reconnect
     instead of silently severing the link forever. *)
  let retry_backoffs = [| 0.001; 0.005; 0.02 |]

  let create ~write_frame ~read_frame ?metrics ?(remotes = []) ?on_bind ~pids () =
    (* Writing to a peer that vanished must surface as EPIPE, not kill the
       process. Idempotent; no-op on platforms without SIGPIPE. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    let boxes = Hashtbl.create 16 in
    List.iter (fun p -> Hashtbl.replace boxes p (Mailbox.create ())) pids;
    let listeners = Hashtbl.create 16 in
    let ports = Hashtbl.create 16 in
    List.iter (fun (pid, port) -> Hashtbl.replace ports pid port) remotes;
    let conns : (Pid.t * Pid.t, out_channel * Mutex.t) Hashtbl.t = Hashtbl.create 16 in
    let conns_mutex = Mutex.create () in
    (* Link-health accounting, per destination: connects beyond the first
       per (src, dst) pair are reconnects; every retry sleep in [send] is a
       backoff. *)
    let links = Links.create ?metrics () in
    let closed = ref false in
    let ever_mutex = Mutex.create () in
    let ever_connected : (Pid.t * Pid.t, unit) Hashtbl.t = Hashtbl.create 16 in
    (* Every spawned thread and accepted socket is tracked so [close] can
       shut the sockets (waking blocked reads) and join every thread —
       nothing is left running after close returns. *)
    let track_mutex = Mutex.create () in
    let threads : Thread.t list ref = ref [] in
    let accepted : (Unix.file_descr, unit) Hashtbl.t = Hashtbl.create 16 in
    let track_thread th =
      Mutex.lock track_mutex;
      threads := th :: !threads;
      Mutex.unlock track_mutex
    in

    (* Reader: one thread per accepted connection; frames carry the claimed
       source pid. A malformed frame kills only this connection — the peer
       is treated as Byzantine. *)
    let reader ~dst sock =
      let ic = Unix.in_channel_of_descr sock in
      let rec loop () =
        let src, msg = read_frame ic in
        (match Hashtbl.find_opt boxes dst with
        | Some box -> Mailbox.push box (src, msg)
        | None -> ());
        loop ()
      in
      (try loop () with
      | End_of_file | Sys_error _ | Unix.Unix_error _ | Dex_codec.Codec.Decode_error _ -> ());
      Mutex.lock track_mutex;
      if Hashtbl.mem accepted sock then begin
        Hashtbl.remove accepted sock;
        try Unix.close sock with Unix.Unix_error _ -> ()
      end;
      Mutex.unlock track_mutex
    in

    (* One listener per pid on an ephemeral loopback port. *)
    List.iter
      (fun pid ->
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt sock Unix.SO_REUSEADDR true;
        Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        Unix.listen sock 64;
        let port =
          match Unix.getsockname sock with
          | Unix.ADDR_INET (_, port) -> port
          | _ -> assert false
        in
        Hashtbl.replace ports pid port;
        Hashtbl.replace listeners pid sock;
        Option.iter (fun f -> f pid port) on_bind;
        let accept_loop () =
          try
            while not !closed do
              let conn, _ = Unix.accept sock in
              Mutex.lock track_mutex;
              Hashtbl.replace accepted conn ();
              Mutex.unlock track_mutex;
              track_thread (Thread.create (fun () -> reader ~dst:pid conn) ())
            done
          with Unix.Unix_error _ | Sys_error _ -> ()
        in
        track_thread (Thread.create accept_loop ()))
      pids;

    let connect ~src ~dst ~port =
      Mutex.lock conns_mutex;
      let result =
        match Hashtbl.find_opt conns (src, dst) with
        | Some c -> Some c
        | None ->
          let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          (try
             Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
             (* Consensus frames are small and latency-bound; Nagle +
                delayed ACK would add tens of milliseconds per step. *)
             Unix.setsockopt sock Unix.TCP_NODELAY true;
             let oc = Unix.out_channel_of_descr sock in
             let entry = (oc, Mutex.create ()) in
             Hashtbl.replace conns (src, dst) entry;
             Mutex.lock ever_mutex;
             let again = Hashtbl.mem ever_connected (src, dst) in
             if not again then Hashtbl.replace ever_connected (src, dst) ();
             Mutex.unlock ever_mutex;
             if again then Links.record_reconnect links dst;
             Some entry
           with Unix.Unix_error _ ->
             (try Unix.close sock with Unix.Unix_error _ -> ());
             None)
      in
      Mutex.unlock conns_mutex;
      result
    in

    (* Forget a connection observed broken — but only if nobody replaced it
       since (a racing sender may already have reconnected). *)
    let disconnect ~src ~dst oc =
      Mutex.lock conns_mutex;
      (match Hashtbl.find_opt conns (src, dst) with
      | Some (oc', _) when oc' == oc ->
        Hashtbl.remove conns (src, dst);
        (try close_out_noerr oc with Sys_error _ -> ())
      | _ -> ());
      Mutex.unlock conns_mutex
    in

    let send ~src ~dst msg =
      match Hashtbl.find_opt ports dst with
      | None ->
        (* Destination was never part of the mesh: nothing to retry. *)
        Links.record_drop links dst
      | Some port ->
        let rec attempt k =
          if !closed then ()
          else
            let sent =
              match connect ~src ~dst ~port with
              | None -> false
              | Some (oc, oc_mutex) ->
                Mutex.lock oc_mutex;
                let ok =
                  try
                    write_frame oc (src, msg);
                    true
                  with Sys_error _ | Unix.Unix_error _ -> false
                in
                Mutex.unlock oc_mutex;
                if not ok then disconnect ~src ~dst oc;
                ok
            in
            if not sent then
              if k < Array.length retry_backoffs then begin
                Links.record_backoff links dst;
                Thread.delay retry_backoffs.(k);
                attempt (k + 1)
              end
              else Links.record_drop links dst
        in
        if not !closed then attempt 0
    in
    let recv ~me ~timeout =
      match Hashtbl.find_opt boxes me with
      | None -> None
      | Some box -> Mailbox.pop ~timeout box
    in
    let close () =
      if not !closed then begin
        closed := true;
        (* Shut the listeners down before closing: a thread blocked in
           [accept] holds the open file description alive past [close], so
           the port would accept one more connection; [shutdown] wakes it
           immediately and refuses new connects. *)
        Hashtbl.iter
          (fun _ sock ->
            (try Unix.shutdown sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
            try Unix.close sock with Unix.Unix_error _ -> ())
          listeners;
        Mutex.lock conns_mutex;
        Hashtbl.iter
          (fun _ (oc, _) -> try close_out oc with Sys_error _ -> ())
          conns;
        Mutex.unlock conns_mutex;
        (* Wake readers blocked on accepted sockets, then join everything:
           acceptors exit on the dead listener, readers on the shutdown. *)
        Mutex.lock track_mutex;
        Hashtbl.iter
          (fun sock () ->
            try Unix.shutdown sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
          accepted;
        let to_join = !threads in
        threads := [];
        Mutex.unlock track_mutex;
        List.iter Thread.join to_join;
        Mutex.lock track_mutex;
        Hashtbl.iter (fun sock () -> try Unix.close sock with Unix.Unix_error _ -> ()) accepted;
        Hashtbl.reset accepted;
        Mutex.unlock track_mutex;
        Hashtbl.iter (fun _ box -> Mailbox.close box) boxes
      end
    in
    {
      send;
      recv;
      close;
      drop_count = (fun ~dst -> Links.drop_count links dst);
      link_stats = (fun () -> Links.totals links);
      peer_links = (fun () -> Links.per_peer links);
    }
end

module Tcp = struct
  (* Frames are [Marshal]ed (src, msg) pairs over persistent loopback
     connections — only type-safe between identical binaries; see the
     interface. *)
  let create ?metrics ~pids () =
    let write_frame oc (src, msg) =
      Marshal.to_channel oc (src, msg) [];
      flush oc
    in
    let read_frame ic = (Marshal.from_channel ic : Pid.t * _) in
    Tcp_generic.create ~write_frame ~read_frame ?metrics ~pids ()
end

(* Reactor-driven TCP with typed codec frames: every socket is nonblocking
   and registered on one shared event loop — no thread per connection, no
   thread per accept loop, no watcher thread per mailbox. Outbound frames
   queue on buffered connections that coalesce multiple frames per [write];
   inbound chunks reassemble through {!Dex_codec.Codec.Frame.Reader}.
   Reconnects preserve frame boundaries: a dead connection's unsent frames
   (including a partially-written head, resent whole — the peer discards
   the partial tail with the dead connection) are replayed on the fresh
   one. *)
module Tcp_reactor = struct
  type out_pending = {
    mutable queued : string list;  (** newest first *)
    mutable attempt : int;
    mutable retry : Reactor.timer option;
  }

  type out_state = Up of Reactor.Conn.t | Down of out_pending

  type out_link = { mutable state : out_state }

  let max_down_queue = 4096

  let create ~codec ?metrics ?(remotes = []) ?on_bind ~reactor ?reactor_for ~pids () =
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    (* I/O sharding: [reactor_for pid] is the loop that owns pid's inbound
       listener and accepted connections (and the outbound connections pid
       originates), so the read+decode work of n co-located endpoints spreads
       over several loops instead of serializing on one. Timers (mailbox
       tick, reconnect backoff) stay on the primary [reactor]. *)
    let reactor_for = match reactor_for with Some f -> f | None -> fun _ -> reactor in
    let frame_codec = Dex_codec.Codec.pair Dex_codec.Codec.int codec in
    let boxes = Hashtbl.create 16 in
    List.iter (fun p -> Hashtbl.replace boxes p (Mailbox.create ())) pids;
    let ports = Hashtbl.create 16 in
    List.iter (fun (pid, port) -> Hashtbl.replace ports pid port) remotes;
    let links = Links.create ?metrics () in
    let closed = ref false in
    (* One lock for connection state: outbound links, accepted connections,
       reconnect bookkeeping, the shared frame-encode scratch. Lock order is
       state_mutex -> Conn write lock -> reactor lock; connection callbacks
       run with no lock held. *)
    let state_mutex = Mutex.create () in
    let out : (Pid.t * Pid.t, out_link) Hashtbl.t = Hashtbl.create 16 in
    let accepted : (Unix.file_descr, Reactor.Conn.t) Hashtbl.t = Hashtbl.create 16 in
    let ever_connected : (Pid.t * Pid.t, unit) Hashtbl.t = Hashtbl.create 16 in
    let listeners = Hashtbl.create 16 in
    let enc_buf = Buffer.create 1024 in
    let wbuf_gauges : (Pid.t, Dex_metrics.Registry.gauge) Hashtbl.t = Hashtbl.create 8 in
    (* Per-peer write-buffer high-water marks, visible in [--stats]. *)
    let note_hwm dst conn =
      match metrics with
      | None -> ()
      | Some reg ->
        let g =
          match Hashtbl.find_opt wbuf_gauges dst with
          | Some g -> g
          | None ->
            let g =
              Dex_metrics.Registry.gauge reg (Printf.sprintf "net/wbuf_hwm/peer%d" dst)
            in
            Hashtbl.replace wbuf_gauges dst g;
            g
        in
        Dex_metrics.Registry.set_max g (Reactor.Conn.hwm conn)
    in
    let mark_connected ~src ~dst =
      let again = Hashtbl.mem ever_connected (src, dst) in
      if not again then Hashtbl.replace ever_connected (src, dst) ();
      if again then Links.record_reconnect links dst
    in

    (* Outbound connection teardown -> buffered reconnect. Forward
       declarations untangle the retry cycle. *)
    let rec out_conn_closed ~src ~dst c =
      Mutex.lock state_mutex;
      (if not !closed then
         match Hashtbl.find_opt out (src, dst) with
         | Some ({ state = Up c' } as l) when c' == c ->
           let pending =
             { queued = List.rev (Reactor.Conn.unsent c); attempt = 0; retry = None }
           in
           l.state <- Down pending;
           schedule_retry ~src ~dst pending
         | _ -> ());
      Mutex.unlock state_mutex

    and schedule_retry ~src ~dst pending =
      (* Caller holds state_mutex. Mirrors the threaded path's budget: every
         scheduled wait is a recorded backoff; the budget exhausts into
         drops. *)
      Links.record_backoff links dst;
      let delay = Tcp_generic.retry_backoffs.(pending.attempt) in
      pending.retry <- Some (Reactor.after reactor delay (fun () -> retry ~src ~dst))

    and retry ~src ~dst =
      Mutex.lock state_mutex;
      (if not !closed then
         match Hashtbl.find_opt out (src, dst) with
         | Some ({ state = Down pending } as l) -> (
           pending.retry <- None;
           match Hashtbl.find_opt ports dst with
           | None -> Hashtbl.remove out (src, dst)
           | Some port -> (
             match try_connect ~src ~dst ~port with
             | Some c ->
               mark_connected ~src ~dst;
               l.state <- Up c;
               List.iter (Reactor.Conn.buffer c) (List.rev pending.queued);
               Reactor.Conn.pump c;
               note_hwm dst c
             | None ->
               pending.attempt <- pending.attempt + 1;
               if pending.attempt >= Array.length Tcp_generic.retry_backoffs then begin
                 List.iter (fun _ -> Links.record_drop links dst) pending.queued;
                 Hashtbl.remove out (src, dst)
               end
               else schedule_retry ~src ~dst pending))
         | _ -> ());
      Mutex.unlock state_mutex

    and try_connect ~src ~dst ~port =
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      match Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
      | () -> (
        Unix.setsockopt sock Unix.TCP_NODELAY true;
        (* The cell closes over the connection for the close callback; a
           peer that dies before the cell is filled is caught by the
           liveness re-check in [send]. *)
        let cell = ref None in
        match
          Reactor.Conn.attach (reactor_for src) sock
            ~on_bytes:(fun _ _ -> ())
            ~on_close:(fun () ->
              match !cell with Some c -> out_conn_closed ~src ~dst c | None -> ())
        with
        | c ->
          cell := Some c;
          Some c
        | exception Invalid_argument msg ->
          prerr_endline msg;
          (try Unix.close sock with Unix.Unix_error _ -> ());
          None)
      | exception Unix.Unix_error _ ->
        (try Unix.close sock with Unix.Unix_error _ -> ());
        None
    in

    let encode_frame env =
      Buffer.clear enc_buf;
      Dex_codec.Codec.Frame.write enc_buf frame_codec env;
      Buffer.contents enc_buf
    in

    let send ~src ~dst msg =
      if not !closed then
        match Hashtbl.find_opt ports dst with
        | None -> Links.record_drop links dst
        | Some port ->
          (* Pump outside [state_mutex]: the write syscall must not serialize
             every sender in the process on the transport's one lock. On
             the loop thread the pump waits for the end of the turn, so
             the turn's frames to one peer leave in one write. *)
          let to_pump = ref None in
          Mutex.lock state_mutex;
          (if not !closed then begin
             let frame = encode_frame (src, msg) in
             match Hashtbl.find_opt out (src, dst) with
             | Some { state = Up c } when Reactor.Conn.is_open c ->
               Reactor.Conn.buffer c frame;
               to_pump := Some c;
               note_hwm dst c
             | Some ({ state = Up c } as l) ->
               (* The close callback lost a race; recover its work here. *)
               let pending =
                 {
                   queued = frame :: List.rev (Reactor.Conn.unsent c);
                   attempt = 0;
                   retry = None;
                 }
               in
               l.state <- Down pending;
               schedule_retry ~src ~dst pending
             | Some { state = Down pending } ->
               if List.length pending.queued < max_down_queue then
                 pending.queued <- frame :: pending.queued
               else Links.record_drop links dst
             | None -> (
               match try_connect ~src ~dst ~port with
               | Some c ->
                 mark_connected ~src ~dst;
                 Hashtbl.replace out (src, dst) { state = Up c };
                 Reactor.Conn.buffer c frame;
                 to_pump := Some c;
                 note_hwm dst c
               | None ->
                 let pending = { queued = [ frame ]; attempt = 0; retry = None } in
                 Hashtbl.replace out (src, dst) { state = Down pending };
                 schedule_retry ~src ~dst pending)
           end);
          Mutex.unlock state_mutex;
          Option.iter Reactor.Conn.pump_soon !to_pump
    in

    (* Listeners: nonblocking accept driven by the reactor. Each accepted
       connection gets an incremental frame reader feeding the destination
       mailbox; a malformed frame raises out of [on_bytes], which tears down
       exactly that connection (Byzantine peer). *)
    let attach_inbound ~dst sock =
      Unix.setsockopt sock Unix.TCP_NODELAY true;
      let reader = Dex_codec.Codec.Frame.Reader.create frame_codec in
      let box = Hashtbl.find_opt boxes dst in
      let cell = ref None in
      let loop = reactor_for dst in
      match
        Reactor.Conn.attach loop sock
          ~on_bytes:(fun bytes len ->
            let frames = Dex_codec.Codec.Frame.Reader.feed reader bytes len in
            match box with
            | Some bx ->
              List.iter (Mailbox.push bx) frames;
              (* Endpoints are drained on the primary loop (see [Cluster]):
                 frames read on a shard loop must wake it. *)
              if frames <> [] && loop != reactor then Reactor.wake reactor
            | None -> ())
          ~on_close:(fun () ->
            Mutex.lock state_mutex;
            (match !cell with
            | Some c -> (
              match Hashtbl.find_opt accepted (Reactor.Conn.fd c) with
              | Some c' when c' == c -> Hashtbl.remove accepted (Reactor.Conn.fd c)
              | _ -> ())
            | None -> ());
            Mutex.unlock state_mutex)
      with
      | c ->
        cell := Some c;
        Mutex.lock state_mutex;
        if !closed then begin
          Mutex.unlock state_mutex;
          Reactor.Conn.close c
        end
        else begin
          Hashtbl.replace accepted (Reactor.Conn.fd c) c;
          Mutex.unlock state_mutex
        end
      | exception Invalid_argument msg ->
        (* FD_SETSIZE exhausted: refuse the connection loudly. *)
        prerr_endline msg;
        (try Unix.close sock with Unix.Unix_error _ -> ())
    in
    List.iter
      (fun pid ->
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt sock Unix.SO_REUSEADDR true;
        Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        Unix.listen sock 64;
        let port =
          match Unix.getsockname sock with
          | Unix.ADDR_INET (_, port) -> port
          | _ -> assert false
        in
        Hashtbl.replace ports pid port;
        Hashtbl.replace listeners pid sock;
        Option.iter (fun f -> f pid port) on_bind;
        Unix.set_nonblock sock;
        Reactor.on_readable (reactor_for pid) sock (fun () ->
            let rec accept_ready () =
              match Unix.accept sock with
              | conn, _ ->
                attach_inbound ~dst:pid conn;
                accept_ready ()
              | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
              | exception Unix.Unix_error _ -> ()
            in
            accept_ready ()))
      pids;

    let recv ~me ~timeout =
      match Hashtbl.find_opt boxes me with
      | None -> None
      | Some box -> Mailbox.pop ~timeout box
    in
    let close () =
      Mutex.lock state_mutex;
      if !closed then Mutex.unlock state_mutex
      else begin
        closed := true;
        let conns =
          Hashtbl.fold (fun _ c acc -> c :: acc) accepted []
          @ Hashtbl.fold
              (fun _ l acc ->
                match l.state with
                | Up c -> c :: acc
                | Down pending ->
                  Option.iter (Reactor.cancel reactor) pending.retry;
                  acc)
              out []
        in
        Hashtbl.reset accepted;
        Hashtbl.reset out;
        Mutex.unlock state_mutex;
        Hashtbl.iter
          (fun pid sock ->
            Reactor.remove (reactor_for pid) sock;
            try Unix.close sock with Unix.Unix_error _ -> ())
          listeners;
        List.iter Reactor.Conn.close conns;
        Hashtbl.iter (fun _ box -> Mailbox.close box) boxes
      end
    in
    {
      send;
      recv;
      close;
      drop_count = (fun ~dst -> Links.drop_count links dst);
      link_stats = (fun () -> Links.totals links);
      peer_links = (fun () -> Links.per_peer links);
    }
end

module Tcp_codec = struct
  let create ~codec ?metrics ?faults ?remotes ?on_bind ?reactor ?reactor_for ~pids () =
    let t =
      match reactor with
      | Some r ->
        Tcp_reactor.create ~codec ?metrics ?remotes ?on_bind ~reactor:r ?reactor_for ~pids ()
      | None ->
        let frame_codec = Dex_codec.Codec.pair Dex_codec.Codec.int codec in
        let write_frame oc (src, msg) =
          Dex_codec.Codec.Frame.to_channel oc frame_codec (src, msg)
        in
        let read_frame ic = Dex_codec.Codec.Frame.from_channel ic frame_codec in
        Tcp_generic.create ~write_frame ~read_frame ?metrics ?remotes ?on_bind ~pids ()
    in
    match faults with None -> t | Some plan -> with_faults ?reactor plan t
end
