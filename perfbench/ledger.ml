(* Load-generator accounting, free of sockets and clocks so it can be
   tested on scripted timelines.

   Every request is issued at a [due] time: the moment an open-loop
   schedule wanted it sent, or the moment a closed-loop client became free.
   Latency runs from [due] to the first [Applied] reply, so a generator or
   server stall is charged to every request it delayed. A request counts
   toward the run's figures when its due time falls inside the measured
   window. After the window closes the generator stops issuing and drains:
   requests answered during the drain are committed like any other; those
   still unanswered when the drain ends are reported as in flight, never
   as failed. Only a request whose retransmission budget runs out fails. *)

type 'a entry = {
  payload : 'a;
  due : float;
  counted : bool;
  mutable last_sent : float;
  mutable sends : int;
}

type window = Before | Open of float | Closed of float * float

type 'a t = {
  timeout : float;
  attempts : int;
  inflight : (int * int, 'a entry) Hashtbl.t;
  mutable window : window;
  mutable attempted : int;
  mutable committed : int;
  mutable failed : int;
  mutable retries : int;
  mutable completed_in_window : int;
  mutable latencies_ms : float array;
  mutable dues : float array;
  mutable n_latencies : int;
  mutable late_max_ms : float;
}

let create ~timeout ~attempts =
  if attempts < 1 then invalid_arg "Ledger.create: attempts must be >= 1";
  {
    timeout;
    attempts;
    inflight = Hashtbl.create 256;
    window = Before;
    attempted = 0;
    committed = 0;
    failed = 0;
    retries = 0;
    completed_in_window = 0;
    latencies_ms = Array.make 4096 0.0;
    dues = Array.make 4096 0.0;
    n_latencies = 0;
    late_max_ms = 0.0;
  }

let open_window t ~now = t.window <- Open now

let close_window t ~now =
  match t.window with
  | Open s -> t.window <- Closed (s, now)
  | Before | Closed _ -> invalid_arg "Ledger.close_window: window not open"

let window_seconds t =
  match t.window with Closed (s, e) -> e -. s | Before | Open _ -> 0.0

let in_window t time =
  match t.window with
  | Before -> false
  | Open s -> time >= s
  | Closed (s, e) -> time >= s && time < e

let grow a n =
  let bigger = Array.make (2 * n) 0.0 in
  Array.blit a 0 bigger 0 n;
  bigger

let push_latency t ~due ms =
  if t.n_latencies = Array.length t.latencies_ms then begin
    t.latencies_ms <- grow t.latencies_ms t.n_latencies;
    t.dues <- grow t.dues t.n_latencies
  end;
  t.latencies_ms.(t.n_latencies) <- ms;
  t.dues.(t.n_latencies) <- due;
  t.n_latencies <- t.n_latencies + 1

(* [now] is when the generator actually sent it; [now - due] is how late
   the generator ran. *)
let issue t ~now ~due key payload =
  let counted = in_window t due in
  if counted then begin
    t.attempted <- t.attempted + 1;
    t.late_max_ms <- Float.max t.late_max_ms ((now -. due) *. 1e3)
  end;
  Hashtbl.replace t.inflight key { payload; due; counted; last_sent = now; sends = 1 }

(* The first [Applied] reply for [key]; later copies (every replica that
   applies a request answers it) return [None]. *)
let ack t ~now key =
  match Hashtbl.find_opt t.inflight key with
  | None -> None
  | Some e ->
    Hashtbl.remove t.inflight key;
    if e.counted then begin
      t.committed <- t.committed + 1;
      push_latency t ~due:e.due ((now -. e.due) *. 1e3)
    end;
    if in_window t now then t.completed_in_window <- t.completed_in_window + 1;
    Some e.payload

(* Requests unanswered for [timeout] since their last send: those with
   budget left are returned for retransmission (and marked sent now), the
   rest are dropped from the ledger as failed. *)
let sweep t ~now =
  let overdue =
    Hashtbl.fold
      (fun key e acc -> if now -. e.last_sent >= t.timeout then (key, e) :: acc else acc)
      t.inflight []
  in
  List.fold_left
    (fun (resend, failed) (key, e) ->
      if e.sends >= t.attempts then begin
        Hashtbl.remove t.inflight key;
        if e.counted then t.failed <- t.failed + 1;
        (resend, e.payload :: failed)
      end
      else begin
        e.sends <- e.sends + 1;
        e.last_sent <- now;
        if e.counted then t.retries <- t.retries + 1;
        (e.payload :: resend, failed)
      end)
    ([], []) overdue

let in_flight t = Hashtbl.length t.inflight

(* Counted requests still unanswered: after the drain, this is
   [loadgen.inflight_at_end]. *)
let counted_in_flight t =
  Hashtbl.fold (fun _ e acc -> if e.counted then acc + 1 else acc) t.inflight 0

let unresolved t = Hashtbl.fold (fun _ e acc -> e.payload :: acc) t.inflight []

(* Latencies of the counted requests due in [\[lo, hi)]. *)
let latencies_due_in t ~lo ~hi =
  let acc = ref [] in
  for i = 0 to t.n_latencies - 1 do
    if t.dues.(i) >= lo && t.dues.(i) < hi then acc := t.latencies_ms.(i) :: !acc
  done;
  let a = Array.of_list !acc in
  Array.sort Float.compare a;
  a

let sorted_latencies t =
  let a = Array.sub t.latencies_ms 0 t.n_latencies in
  Array.sort Float.compare a;
  a
