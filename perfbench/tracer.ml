(* A timing wrapper around the replicas' mesh transport, lent to
   [Server.launch ?runtime] in the traced run. Nothing inside the library
   is instrumented: every figure comes from the [send] and [recv] closures.

   - [send] is timed and classified by message constructor; the message is
     encoded once more, outside the timed part, to count its wire bytes.
   - A replica's cluster loop alternates [recv] and handling. The interval
     from a [recv] returning a message to the thread's next [recv], minus
     the sends the thread made in between, is the handler's self time.
   - A reservoir of sent messages is kept as input for the isolated codec
     loops.

   Both intervals are read on the calling thread's own CPU clock. About ten
   threads share one core and the OCaml runtime lock, so a wall-clock
   interval would also count the other threads that ran meanwhile; on the
   thread clock the figures are disjoint shares of the process's CPU time.

   Tracing is switched on and off during the window, so the traced parts
   can be compared with untraced ones of the same deployment. While off,
   [send] goes straight to the inner transport and no clock is read; a
   handler interval counts only if tracing was on when it began and when
   it ended. *)

open Dex_runtime

type 'msg t = {
  replicas : int;  (** pids below this are replicas; the rest are UC nodes *)
  classify : 'msg -> int;
  size : 'msg -> int;
  lock : Mutex.t;
  mutable on : bool;
  msgs : int array;
  bytes : int array;
  mutable send_s : float;
  mutable handle_s : float;
  mutable handled : int;
  since : float array;  (** thread CPU time when the replica's [recv] returned; nan outside a handler *)
  child : float array;  (** thread CPU time of the sends made since *)
  owner : int array;  (** the thread that is handling *)
  reservoir : 'msg option array;
  mutable offered : int;
  prng : Dex_stdext.Prng.t;
}

let create ~replicas ~classes ~classify ~size ~seed =
  {
    replicas;
    classify;
    size;
    lock = Mutex.create ();
    on = false;
    msgs = Array.make classes 0;
    bytes = Array.make classes 0;
    send_s = 0.0;
    handle_s = 0.0;
    handled = 0;
    since = Array.make replicas Float.nan;
    child = Array.make replicas 0.0;
    owner = Array.make replicas (-1);
    reservoir = Array.make 2048 None;
    offered = 0;
    prng = Dex_stdext.Prng.create ~seed;
  }

let set_on t on =
  Mutex.lock t.lock;
  t.on <- on;
  Mutex.unlock t.lock

let sample t m =
  let cap = Array.length t.reservoir in
  if t.offered < cap then t.reservoir.(t.offered) <- Some m
  else begin
    let j = Dex_stdext.Prng.int t.prng (t.offered + 1) in
    if j < cap then t.reservoir.(j) <- Some m
  end;
  t.offered <- t.offered + 1

let handling t node =
  node >= 0 && node < t.replicas
  && (not (Float.is_nan t.since.(node)))
  && t.owner.(node) = Thread.id (Thread.self ())

let wrap t (inner : 'msg Transport.t) : 'msg Transport.t =
  let send ~src ~dst m =
    if not t.on then inner.Transport.send ~src ~dst m
    else begin
      let c0 = Cputime.thread_s () in
      inner.Transport.send ~src ~dst m;
      let took = Cputime.thread_s () -. c0 in
      let bytes = t.size m in
      Mutex.lock t.lock;
      if t.on then begin
        let c = t.classify m in
        t.msgs.(c) <- t.msgs.(c) + 1;
        t.bytes.(c) <- t.bytes.(c) + bytes;
        t.send_s <- t.send_s +. took;
        sample t m
      end;
      Mutex.unlock t.lock;
      (* The handler's self time leaves out the send and this bookkeeping. *)
      if handling t src then t.child.(src) <- t.child.(src) +. (Cputime.thread_s () -. c0)
    end
  in
  let recv ~me ~timeout =
    if handling t me then begin
      if t.on then begin
        let self = Float.max 0.0 (Cputime.thread_s () -. t.since.(me) -. t.child.(me)) in
        Mutex.lock t.lock;
        if t.on then begin
          t.handle_s <- t.handle_s +. self;
          t.handled <- t.handled + 1
        end;
        Mutex.unlock t.lock
      end;
      t.since.(me) <- Float.nan
    end;
    let r = inner.Transport.recv ~me ~timeout in
    (match r with
    | Some _ when t.on && me >= 0 && me < t.replicas ->
      t.owner.(me) <- Thread.id (Thread.self ());
      t.child.(me) <- 0.0;
      t.since.(me) <- Cputime.thread_s ()
    | _ -> ());
    r
  in
  { inner with Transport.send; recv }

type totals = { msgs : int array; bytes : int array; send_s : float; handle_s : float; handled : int }

let totals (t : _ t) =
  Mutex.lock t.lock;
  let r =
    { msgs = Array.copy t.msgs; bytes = Array.copy t.bytes; send_s = t.send_s; handle_s = t.handle_s;
      handled = t.handled }
  in
  Mutex.unlock t.lock;
  r

let samples t = Array.to_list t.reservoir |> List.filter_map Fun.id
