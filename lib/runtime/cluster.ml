open Dex_vector
open Dex_net

type decision = { value : Value.t; tag : string; wall : float }

type 'msg node = {
  pid : Pid.t;
  mutable instance : 'msg Protocol.instance;
  mutable alive : bool;  (** the node loop exits when this goes false *)
  mutable thread : Thread.t option;
  lock : Mutex.t;
      (** inline mode: held while the node's [start] or a handler runs;
          {!stop_node} takes it, so no handler of a dead incarnation runs
          after it returns *)
  mutable pending_start : bool;  (** inline mode: [start] not yet run *)
  mutable gen : int;
      (** incarnation counter: bumped on every stop, captured by pending
          timers so a killed incarnation's timers become tombstones instead
          of firing into the restarted instance *)
}

type 'msg t = {
  transport : 'msg Transport.t;
  n : int;
  nodes : 'msg node list;
  decisions : decision option array;
  decisions_mutex : Mutex.t;
  decided_cond : Condition.t;  (** signalled under [decisions_mutex] on every new decision *)
  lifecycle_mutex : Mutex.t;  (** serializes start/stop/shutdown transitions *)
  reactor : Reactor.t;  (** drives protocol timers and await deadlines *)
  owns_reactor : bool;
  mutable drain : Reactor.turn option;
      (** inline mode (a borrowed reactor): the per-turn hook draining every
          endpoint on the loop thread, instead of one thread per node *)
  mutable running : bool;
  mutable started : bool;
  mutable epoch : float;
}

let create ~transport ~n ?(extra = []) ?reactor make_instance =
  let node pid instance =
    {
      pid;
      instance;
      alive = false;
      thread = None;
      gen = 0;
      lock = Mutex.create ();
      pending_start = false;
    }
  in
  let nodes =
    List.map (fun p -> node p (make_instance p)) (Pid.all ~n)
    @ List.map (fun (pid, instance) -> node pid instance) extra
  in
  let owns_reactor, reactor =
    match reactor with
    | Some r -> (false, r)
    | None -> (true, Reactor.create ~name:"cluster" ())
  in
  {
    transport;
    n;
    nodes;
    decisions = Array.make n None;
    decisions_mutex = Mutex.create ();
    decided_cond = Condition.create ();
    lifecycle_mutex = Mutex.create ();
    reactor;
    owns_reactor;
    drain = None;
    running = false;
    started = false;
    epoch = 0.0;
  }

(* The runtime interprets actions through the same {!Effects} interpreter as
   the simulator; only the three primitives differ. Causal depth is not
   tracked against the wall clock, so the handler ignores it. *)
let handler t =
  {
    Effects.send = (fun ~src ~depth:_ ~dst ~payload -> t.transport.Transport.send ~src ~dst payload);
    decide =
      (fun ~pid ~depth:_ ~value ~tag ->
        if pid >= 0 && pid < t.n then begin
          Mutex.lock t.decisions_mutex;
          if t.decisions.(pid) = None then begin
            t.decisions.(pid) <-
              Some { value; tag; wall = Unix.gettimeofday () -. t.epoch };
            Condition.broadcast t.decided_cond
          end;
          Mutex.unlock t.decisions_mutex
        end);
    set_timer =
      (fun ~src ~depth:_ ~delay ~msg ->
        (* A reactor timer delivers the timer message back through the
           node's own endpoint (as a self-send), so the node loop processes
           it like any other message — one shared loop thread instead of a
           detached thread per timer that shutdown could never join.

           The reactor is shared by every node and outlives crash/restart
           cycles, so the callback captures the arming incarnation's
           generation: if the node was stopped (and possibly restarted)
           before the timer fires, the generations disagree and the timer is
           a tombstone — the self-send is suppressed instead of leaking a
           dead incarnation's protocol timer into the fresh instance. *)
        let send = t.transport.Transport.send in
        match List.find_opt (fun node -> Pid.equal node.pid src) t.nodes with
        | None -> ()
        | Some node ->
          let armed_gen = node.gen in
          ignore
            (Reactor.after t.reactor delay (fun () ->
                 if node.gen = armed_gen && node.alive then send ~src ~dst:src msg)));
  }

let node_loop t node () =
  let handler = handler t in
  (* Snapshot the instance: a restart installs a fresh one, and this loop —
     about to exit on [alive = false] — must not process with it. *)
  let instance = node.instance in
  Effects.execute handler ~self:node.pid ~depth:0 (instance.Protocol.start ());
  while t.running && node.alive do
    match t.transport.Transport.recv ~me:node.pid ~timeout:0.05 with
    | None -> ()
    | Some (from, msg) ->
      let now = Unix.gettimeofday () -. t.epoch in
      Effects.execute handler ~self:node.pid ~depth:0
        (instance.Protocol.on_message ~now ~from msg)
  done

(* Inline mode: one turn of the loop drains every endpoint with
   non-blocking [recv]s, each node under its lock. A node's endpoint is
   drained until empty, so each handler's [recv]-to-[recv] interval holds
   that handler alone (what a wrapping transport may time). A dead node's
   endpoint is drained too: traffic that arrives while it is down is
   dropped, as a crashed process would lose it. *)
let drain_node t handler node =
  Mutex.lock node.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock node.lock)
    (fun () ->
      let recv () = t.transport.Transport.recv ~me:node.pid ~timeout:0.0 in
      let handled = ref false in
      if node.alive && t.running then begin
        let instance = node.instance in
        if node.pending_start then begin
          node.pending_start <- false;
          handled := true;
          Effects.execute handler ~self:node.pid ~depth:0 (instance.Protocol.start ())
        end;
        let rec go () =
          if node.alive && t.running then
            match recv () with
            | None -> ()
            | Some (from, msg) ->
              handled := true;
              let now = Unix.gettimeofday () -. t.epoch in
              Effects.execute handler ~self:node.pid ~depth:0
                (instance.Protocol.on_message ~now ~from msg);
              go ()
        in
        go ()
      end
      else
        while recv () <> None do
          ()
        done;
      !handled)

(* Handlers may deliver to nodes drained earlier in the pass (an in-memory
   transport pushes straight to the endpoint), so passes repeat while they
   find work; past a few, the rest is left to the next turn, posted so the
   loop polls instead of sleeping. *)
let max_passes = 4

let drain t handler () =
  let pass () =
    List.fold_left
      (fun busy node ->
        match drain_node t handler node with
        | handled -> handled || busy
        | exception exn ->
          Printf.eprintf "[cluster] node %d raised: %s\n%!" node.pid (Printexc.to_string exn);
          busy)
      false t.nodes
  in
  let rec go k = if pass () then if k < max_passes then go (k + 1) else Reactor.post t.reactor ignore in
  go 1

let inline t = not t.owns_reactor

let spawn_node t node =
  if inline t then begin
    Mutex.lock node.lock;
    node.pending_start <- true;
    node.alive <- true;
    Mutex.unlock node.lock;
    Reactor.wake t.reactor
  end
  else begin
    node.alive <- true;
    node.thread <- Some (Thread.create (node_loop t node) ())
  end

let start t =
  if t.started then invalid_arg "Cluster.start: already started";
  t.started <- true;
  t.running <- true;
  t.epoch <- Unix.gettimeofday ();
  if inline t then t.drain <- Some (Reactor.on_turn t.reactor (drain t (handler t)));
  List.iter (fun node -> spawn_node t node) t.nodes

let find_node t pid =
  match List.find_opt (fun node -> Pid.equal node.pid pid) t.nodes with
  | Some node -> node
  | None -> invalid_arg "Cluster: unknown pid"

let stop_node t pid =
  Mutex.lock t.lifecycle_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lifecycle_mutex)
    (fun () ->
      let node = find_node t pid in
      if node.alive then begin
        node.alive <- false;
        (* Tombstone every timer the dying incarnation armed: the shared
           reactor keeps running, but their generation check now fails. *)
        node.gen <- node.gen + 1;
        (* Wait out a handler in flight: the thread's, or the loop's. *)
        Option.iter Thread.join node.thread;
        node.thread <- None;
        Mutex.lock node.lock;
        node.pending_start <- false;
        Mutex.unlock node.lock
      end)

let start_node t pid instance =
  Mutex.lock t.lifecycle_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lifecycle_mutex)
    (fun () ->
      if not t.running then invalid_arg "Cluster.start_node: cluster not running";
      let node = find_node t pid in
      if node.alive then invalid_arg "Cluster.start_node: node is running";
      (* Drain traffic that piled up at the endpoint while the node was
         down: the new instance recovers out of band (snapshot + WAL + the
         catch-up lane), so stale frames would only confuse it. *)
      let rec drain () =
        match t.transport.Transport.recv ~me:pid ~timeout:0.0 with
        | Some _ -> drain ()
        | None -> ()
      in
      drain ();
      node.instance <- instance;
      spawn_node t node)

let decisions t =
  Mutex.lock t.decisions_mutex;
  let snapshot = Array.copy t.decisions in
  Mutex.unlock t.decisions_mutex;
  snapshot

(* Block on the decision condition variable instead of polling. The stdlib
   [Condition] has no timed wait, so a cancellable reactor timer broadcasts
   once at the deadline; between decisions and that single wake-up the
   waiter is fully asleep. A cluster that shut down mid-wait can produce no
   further decisions (and its deadline timer died with the reactor), so the
   wait also ends when [running] goes false — {!shutdown} broadcasts. *)
let await ?(timeout = 10.0) ?among t =
  let pids = match among with Some l -> l | None -> Pid.all ~n:t.n in
  let deadline = Unix.gettimeofday () +. timeout in
  let all_decided () =
    List.for_all (fun p -> p >= 0 && p < t.n && t.decisions.(p) <> None) pids
  in
  Mutex.lock t.decisions_mutex;
  let watchdog =
    if all_decided () then None
    else
      Some
        (Reactor.after t.reactor timeout (fun () ->
             Mutex.lock t.decisions_mutex;
             Condition.broadcast t.decided_cond;
             Mutex.unlock t.decisions_mutex))
  in
  let rec wait () =
    if all_decided () then true
    else if Unix.gettimeofday () >= deadline then false
    else if not t.running then false
    else begin
      Condition.wait t.decided_cond t.decisions_mutex;
      wait ()
    end
  in
  let result = wait () in
  Mutex.unlock t.decisions_mutex;
  Option.iter (Reactor.cancel t.reactor) watchdog;
  result

let shutdown t =
  (* Safe to call concurrently and repeatedly: exactly one caller observes
     [running = true] under the lifecycle lock and performs the teardown;
     later and concurrent callers return once it is done (they wait on the
     same lock, so shutdown has completed when they regain it). *)
  Mutex.lock t.lifecycle_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lifecycle_mutex)
    (fun () ->
      if t.running then begin
        t.running <- false;
        Option.iter (Reactor.remove_turn t.reactor) t.drain;
        t.drain <- None;
        t.transport.Transport.close ();
        List.iter
          (fun node ->
            Option.iter Thread.join node.thread;
            node.thread <- None;
            node.alive <- false;
            Mutex.lock node.lock;
            Mutex.unlock node.lock)
          t.nodes;
        if t.owns_reactor then Reactor.stop t.reactor;
        (* Wake waiters in [await]: no further decision can arrive. *)
        Mutex.lock t.decisions_mutex;
        Condition.broadcast t.decided_cond;
        Mutex.unlock t.decisions_mutex
      end)
