(** Thread-safe blocking FIFO queues — the delivery channel of the in-memory
    transport and the receive buffer of the TCP transport. *)

type 'a t

val create : unit -> 'a t
(** An empty mailbox. Blocked {!pop} deadlines are re-checked by a
    per-mailbox watcher thread, spawned lazily by the first pop that can
    block and joined by {!close}; a mailbox only ever polled costs no
    thread. *)

val push : 'a t -> 'a -> unit
(** Never blocks (unbounded queue). Pushing to a closed mailbox is a no-op:
    shutdown races lose messages by design, like a dead network peer. *)

val pop : timeout:float -> 'a t -> 'a option
(** Block up to [timeout] seconds for an element. [None] on timeout or when
    the mailbox is closed and drained. Deadline precision is one tick
    (5 ms) — arrival latency is sharp, timeout latency is coarse.

    With [timeout <= 0.0] this is a poll: it takes the head under the lock
    and returns, reading no clock and waking nobody — the per-turn drain of
    an event loop calls it once per endpoint on every turn. *)

val close : 'a t -> unit
(** Wake all blocked readers and join the watcher thread (if any);
    subsequent pushes are dropped. *)

val length : 'a t -> int
