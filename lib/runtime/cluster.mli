(** Live execution of protocol instances over a real transport.

    Runs the {e same} [Protocol.instance] values as the discrete-event
    simulator, under true concurrency; decisions are collected centrally.
    This is the "deployment-shaped" lane of the reproduction — the
    simulator answers step-count questions deterministically, the cluster
    demonstrates the stack running live (and feeds the wall-clock benches).

    Two shapes, chosen by {!create}'s [reactor]:
    - {e inline} (a reactor is given): no thread per node. A per-turn hook
      on that loop ({!Reactor.on_turn}) drains every node's endpoint with
      [recv ~timeout:0.0] and runs its handlers on the loop thread, each
      node under its own lock. The transport must wake the loop for
      deliveries made off the loop thread, as {!Transport.Tcp_codec} over
      the same loop does; frames a node's own handlers deliver straight to
      an endpoint are drained by repeated passes of the same turn.
    - {e thread-per-node} (no reactor): every node is a thread blocking on
      its endpoint, with a private reactor for protocol timers. *)

open Dex_vector
open Dex_net

type decision = { value : Value.t; tag : string; wall : float (** seconds since start *) }

type 'msg t

val create :
  transport:'msg Transport.t ->
  n:int ->
  ?extra:(Pid.t * 'msg Protocol.instance) list ->
  ?reactor:Reactor.t ->
  (Pid.t -> 'msg Protocol.instance) ->
  'msg t
(** Build a cluster of [n] protocol processes (pids [0 .. n-1]) plus
    auxiliary nodes. Nothing runs until {!start}. With [reactor] (borrowed,
    never stopped here) the cluster runs inline on that loop; protocol
    timers ([set_timer]) and {!await} deadlines run on it too. Without, a
    private reactor carries the timers and {!shutdown} stops it — either
    way no detached timer threads are spawned. *)

val start : 'msg t -> unit
(** Start every node: invoke its instance's [start], then deliver its
    traffic — on the loop (inline) or on one thread per node. *)

val stop_node : 'msg t -> Pid.t -> unit
(** Kill one node: once this returns, no handler of the killed incarnation
    runs (inline: an in-flight handler is waited out under the node lock;
    threaded: the node thread is joined). Its transport endpoint stays up,
    so peers keep their links; traffic for the dead pid is dropped as it
    arrives (inline) or accumulates at the endpoint until {!start_node}
    drains it (threaded). The crash half of a single-node restart. No-op if
    the node is already stopped. Must not be called from the loop thread.
    @raise Invalid_argument on an unknown pid. *)

val start_node : 'msg t -> Pid.t -> 'msg Protocol.instance -> unit
(** Restart a stopped node with a {e fresh} instance (typically rebuilt from
    durable state): drains traffic that accumulated at its endpoint while it
    was down — the new instance is expected to recover out of band — then
    runs the instance's [start] exactly once and resumes delivery.
    @raise Invalid_argument on an unknown pid, a node that is still running,
    or a cluster that is not running. *)

val await : ?timeout:float -> ?among:Pid.t list -> 'msg t -> bool
(** Block until every pid in [among] (default: all [n]) has decided, or the
    timeout (default 10 s) elapses; returns whether they all decided. The
    wait sleeps on a condition variable signalled per decision (no
    polling). *)

val decisions : 'msg t -> decision option array
(** Snapshot of decisions by pid (length [n]). *)

val shutdown : 'msg t -> unit
(** Close the transport and stop every node (inline: deregister the drain
    and wait out in-flight handlers; threaded: join the node threads).
    Idempotent and safe to call from several threads concurrently: one
    caller performs the teardown, the rest return once it has completed. *)
