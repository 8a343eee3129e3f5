(* The load generator: one thread, one connection per target replica, the
   workload's logical clients multiplexed over them. Every request goes to
   every connected target (the leaderless client protocol); the first
   [Applied] reply completes it. A connection that resets — a replica
   killed mid-run — is dropped and re-dialled every 50 ms until the
   restarted replica accepts again.

   Timeline of a run: warm-up, BEGIN, the measured window (with the storm
   on kv-paced-n7), END, a drain in which nothing new is issued but
   in-flight requests are still retransmitted and awaited, then the
   deployment's CHECK. The window is cut into parts by MARKs, which also
   switch tracing on and off in a traced run (see [Parts]). The result is
   one JSON line on stdout. *)

open Dex_service
module Frame = Dex_codec.Codec.Frame
module W = Perfbench.Workload
module Ledger = Perfbench.Ledger
module Pct = Perfbench.Pct
module Kv = Perfbench.Kv
module Parts = Perfbench.Parts

let drain_s = 5.0

let timeout_s = 1.0

let attempts = 5

type conn = {
  port : int;
  mutable fd : Unix.file_descr option;
  mutable reader : Wire.reply Frame.Reader.reader;
  mutable out : string;  (** unsent bytes *)
  mutable retry_at : float;
}

(* Per-CPU (total, steal, idle) jiffies from /proc/stat, cpu0 first. *)
let cpu_jiffies () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> [||]
  | ic ->
    let rec scan acc =
      match input_line ic with
      | exception End_of_file -> List.rev acc
      | line -> (
        match String.split_on_char ' ' line with
        | cpu :: fields when String.length cpu > 3 && String.sub cpu 0 3 = "cpu" ->
          let v = List.filter_map int_of_string_opt fields in
          let total = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 8) v) in
          let field i = match List.nth_opt v i with Some x -> x | None -> 0 in
          scan ((total, field 7, field 3 + field 4) :: acc)
        | _ -> scan acc)
    in
    let l = scan [] in
    close_in ic;
    Array.of_list l

(* A boundary between parts of the window: when, replies completed so
   far, the CPUs' jiffies and the deployment's CPU time. *)
type mark = { at : float; completed : int; jiffies : (int * int * int) array; mutable cpu : float }

type st = {
  sh : W.shape;
  gen : W.gen;
  ledger : Wire.request Ledger.t;
  oracle : Perfbench.Oracle.t;
  conns : conn array;
  ctl : Unix.file_descr;
  ctl_buf : Buffer.t;
  ctl_lines : string Queue.t;
  cores : int list;  (** the pinned CPUs: the deployment's, then the generator's *)
  rids : (int, int) Hashtbl.t;
  mutable issuing : bool;
  mutable idle : int list;
  mutable clients : int;
  mutable next_due : float;
  mutable next_sweep : float;
  mutable failed_reqs : Wire.request list;
  mutable busy : int;
  mutable resets : int;
  mutable reconnects : int;
  mutable marks : mark list;
}

let now = Unix.gettimeofday

let buf = Bytes.create 65536

let drop st c =
  (match c.fd with
  | Some fd ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    st.resets <- st.resets + 1
  | None -> ());
  c.fd <- None;
  c.out <- "";
  c.reader <- Frame.Reader.create Wire.reply_codec;
  c.retry_at <- now () +. 0.05

let dial port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () ->
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Unix.set_nonblock fd;
    Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let flush_conn st c =
  match c.fd with
  | Some fd when c.out <> "" -> (
    match Unix.single_write_substring fd c.out 0 (String.length c.out) with
    | k -> c.out <- String.sub c.out k (String.length c.out - k)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> drop st c)
  | _ -> ()

let send_req st (req : Wire.request) =
  let frame = Frame.to_string Wire.request_codec req in
  Array.iter (fun c -> if c.fd <> None then c.out <- c.out ^ frame) st.conns

let next_rid st client =
  let rid = Option.value ~default:0 (Hashtbl.find_opt st.rids client) in
  Hashtbl.replace st.rids client (rid + 1);
  rid

let issue st ~now ~due client =
  let req = { Wire.client; rid = next_rid st client; command = W.next st.gen } in
  Ledger.issue st.ledger ~now ~due (client, req.Wire.rid) req;
  send_req st req

(* A logical client whose request completed or failed: in a closed loop it
   sends its next request at once; in an open loop it waits for the
   schedule. *)
let client_free st ~now client =
  match st.sh.W.loop with
  | W.Closed _ -> if st.issuing then issue st ~now ~due:now client
  | W.Open _ -> st.idle <- client :: st.idle

let on_reply st ~now (r : Wire.reply) =
  match r.Wire.outcome with
  | Wire.Busy -> st.busy <- st.busy + 1
  | Wire.Applied { output; slot; provenance = _ } -> (
    match Ledger.ack st.ledger ~now (r.Wire.client, r.Wire.rid) with
    | None -> ()
    | Some req ->
      Perfbench.Oracle.applied st.oracle req ~slot output;
      client_free st ~now r.Wire.client)

let read_conn st c =
  match c.fd with
  | None -> ()
  | Some fd -> (
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> drop st c
    | k -> (
      match Frame.Reader.feed c.reader buf k with
      | replies ->
        let t = now () in
        List.iter (on_reply st ~now:t) replies
      | exception Dex_codec.Codec.Decode_error _ -> drop st c)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> drop st c)

let read_ctl st =
  match Unix.read st.ctl buf 0 (Bytes.length buf) with
  | 0 -> failwith "deployment closed the control connection"
  | k ->
    Buffer.add_subbytes st.ctl_buf buf 0 k;
    let s = Buffer.contents st.ctl_buf in
    let parts = String.split_on_char '\n' s in
    let rec split = function
      | [ rest ] ->
        Buffer.clear st.ctl_buf;
        Buffer.add_string st.ctl_buf rest
      | line :: rest ->
        Queue.push line st.ctl_lines;
        split rest
      | [] -> ()
    in
    split parts
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* One turn of the event loop. It polls and never blocks: the generator
   has a core to itself, and on a virtual machine a core that idles is
   woken by an arriving reply only when the hypervisor schedules it again.
   That wait, which the host counts as steal, would be charged to the
   request's latency. *)
let step st =
  let t = now () in
  (match st.sh.W.loop with
  | W.Open rate when st.issuing ->
    while st.next_due <= t do
      let client =
        match st.idle with
        | c :: rest ->
          st.idle <- rest;
          c
        | [] ->
          st.clients <- st.clients + 1;
          st.clients
      in
      issue st ~now:t ~due:st.next_due client;
      st.next_due <- st.next_due +. (1.0 /. rate)
    done
  | _ -> ());
  if t >= st.next_sweep then begin
    st.next_sweep <- t +. 0.05;
    let resend, failed = Ledger.sweep st.ledger ~now:t in
    List.iter (send_req st) resend;
    List.iter
      (fun (r : Wire.request) ->
        st.failed_reqs <- r :: st.failed_reqs;
        client_free st ~now:t r.Wire.client)
      failed
  end;
  Array.iter
    (fun c ->
      if c.fd = None && t >= c.retry_at then
        match dial c.port with
        | Some fd ->
          c.fd <- Some fd;
          st.reconnects <- st.reconnects + 1
        | None -> c.retry_at <- t +. 0.05)
    st.conns;
  Array.iter (flush_conn st) st.conns;
  let live = Array.to_list st.conns |> List.filter_map (fun c -> c.fd) in
  let pending = Array.to_list st.conns |> List.filter_map (fun c -> if c.out <> "" then c.fd else None) in
  match Unix.select (st.ctl :: live) pending [] 0.0 with
  | readable, _, _ ->
    if List.mem st.ctl readable then read_ctl st;
    Array.iter (fun c -> match c.fd with Some fd when List.mem fd readable -> read_conn st c | _ -> ()) st.conns;
    Array.iter (flush_conn st) st.conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let run_until st t_end = while now () < t_end do step st done

let ctl_send st cmd =
  let line = cmd ^ "\n" in
  ignore (Unix.write_substring st.ctl line 0 (String.length line))

(* Keep the load running until the next reply to a [word] command
   arrives. Replies come back in command order; replies to other
   fire-and-forget commands are skipped. *)
let reply st word =
  let rec wait () =
    match Queue.take_opt st.ctl_lines with
    | Some line -> (
      match String.split_on_char ' ' line with
      | w :: _ when w = word -> Kv.of_line line
      | "ERR" :: _ -> failwith ("deployment refused: " ^ line)
      | _ -> wait ())
    | None ->
      step st;
      wait ()
  in
  wait ()

let ctl_call st cmd =
  ctl_send st cmd;
  reply st (List.hd (String.split_on_char ' ' cmd))

(* A part boundary; tracing is on for the next part iff [traced]. The
   boundary is taken on the generator's clock without waiting for the
   deployment, so a slow deployment cannot stretch the window; the
   deployment's CPU time at it is filled in by [await_marks]. *)
let mark st ~traced =
  ctl_send st (if traced then "MARK 1" else "MARK 0");
  st.marks <-
    { at = now (); completed = st.ledger.Ledger.completed_in_window; jiffies = cpu_jiffies ();
      cpu = Float.nan }
    :: st.marks

let await_marks st = List.iter (fun m -> m.cpu <- Kv.float (reply st "MARK") "cpu_s") (List.rev st.marks)

let json_str s = "\"" ^ String.escaped s ^ "\""

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

let pairs l =
  let rec go = function a :: (b :: _ as rest) -> (a, b) :: go rest | _ -> [] in
  go l

(* Share of [f] in each pinned CPU's jiffies between two marks. *)
let share st a b f =
  List.map
    (fun j ->
      if j < Array.length a.jiffies && j < Array.length b.jiffies then
        let ((t0, _, _) as x0) = a.jiffies.(j) and ((t1, _, _) as x1) = b.jiffies.(j) in
        Pct.per ~base:(t1 - t0) (float_of_int (f x1 - f x0))
      else 0.0)
    st.cores

let steal_j (_, s, _) = s

let busy_j (t, s, i) = t - s - i

(* Part [k] of [count], traced iff [traced k], from the marks around it. *)
let parts st ~count ~stratified ~traced =
  List.mapi
    (fun k (a, b) ->
      { Parts.dur = b.at -. a.at; ops = b.completed - a.completed; cpu_s = b.cpu -. a.cpu;
        lat = Ledger.latencies_due_in st.ledger ~lo:a.at ~hi:b.at; steal = share st a b steal_j;
        stratum = (if stratified then k * 3 / count else 0); traced = traced k })
    (pairs (List.rev st.marks))

let main ~workload ~seed ~seconds ~ctl_port ~ports ~setup ~trace ~cores =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sh = W.shape workload in
  let ctl =
    match dial ctl_port with Some fd -> fd | None -> failwith "cannot reach the deployment"
  in
  let targets = List.filteri (fun i _ -> i < sh.W.targets) ports in
  let conns =
    Array.of_list
      (List.map
         (fun port ->
           { port; fd = dial port; reader = Frame.Reader.create Wire.reply_codec; out = "";
             retry_at = 0.0 })
         targets)
  in
  let st =
    { sh; gen = W.generator workload ~seed; ledger = Ledger.create ~timeout:timeout_s ~attempts;
      oracle = Perfbench.Oracle.create (); conns; ctl; ctl_buf = Buffer.create 256;
      ctl_lines = Queue.create (); cores; rids = Hashtbl.create 64; issuing = true; idle = []; clients = 0;
      next_due = now (); next_sweep = now (); failed_reqs = []; busy = 0; resets = 0; reconnects = 0;
      marks = [] }
  in
  (match sh.W.loop with
  | W.Closed k ->
    st.clients <- k;
    let t = now () in
    for c = 1 to k do
      issue st ~now:t ~due:t c
    done
  | W.Open _ -> ());
  run_until st (now () +. sh.W.warmup_s);
  Ledger.open_window st.ledger ~now:(now ());
  let t_begin = now () in
  ignore (ctl_call st "BEGIN");
  (* The window is cut into equal parts of about [part_s]; with a storm,
     into a multiple of three, so that the kill at 1/3 and the restart at
     2/3 fall on part boundaries. A traced run reports no end-to-end
     figure, so its parts need no tail and are 1 s long, for many pairs:
     it traces parts 0, 3, 4, 7, 8, ..., so every adjacent pair has one
     traced and one untraced part, in alternating order. *)
  let stratified = sh.W.storm <> None in
  let part_s = if trace then 1.0 else sh.W.part_s in
  let round x = max 1 (int_of_float (Float.round x)) in
  let count = if stratified then 3 * round (seconds /. (3.0 *. part_s)) else round (seconds /. part_s) in
  let traced k = trace && k < count && (k mod 4 = 0 || k mod 4 = 3) in
  let events =
    List.init (count + 1) (fun k -> (float_of_int k *. seconds /. float_of_int count, `Mark (traced k)))
    @ (match sh.W.storm with
      | Some pid -> [ (seconds /. 3.0, `Kill pid); (2.0 *. seconds /. 3.0, `Restart pid) ]
      | None -> [])
  in
  List.iter
    (fun (at, ev) ->
      run_until st (t_begin +. at);
      match ev with
      | `Mark traced -> mark st ~traced
      | `Kill pid -> ctl_send st (Printf.sprintf "KILL %d" pid)
      | `Restart pid -> ctl_send st (Printf.sprintf "RESTART %d" pid))
    (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) events);
  Ledger.close_window st.ledger ~now:(now ());
  st.issuing <- false;
  await_marks st;
  let e = ctl_call st "END" in
  let t_drain = now () in
  while Ledger.in_flight st.ledger > 0 && now () < t_drain +. drain_s do
    step st
  done;
  let chk = ctl_call st "CHECK" in
  let iso = if trace then ctl_call st "ISO" else [] in
  ignore (ctl_call st "QUIT");
  Array.iter (fun c -> Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd) st.conns;
  Unix.close ctl;
  (* Output checks. *)
  let l = st.ledger in
  let unresolved = Ledger.unresolved l @ st.failed_reqs in
  let final =
    List.map (fun (k, v) -> (k, int_of_string v)) (Kv.with_prefix chk "state.")
  in
  let errors = Perfbench.Oracle.verify st.oracle ~unresolved ~final in
  let errors =
    errors
    @ (if Kv.int chk "converged" = 1 then [] else [ "live replicas did not converge" ])
    @ (if Kv.int chk "violations" = 0 then [] else [ Printf.sprintf "%d agreement violations" (Kv.int chk "violations") ])
    @ List.filter_map
        (fun (p, v) ->
          let applied = int_of_string v in
          let lo = st.oracle.Perfbench.Oracle.acked + Kv.int chk "probes" in
          let hi = lo + List.length unresolved in
          if applied >= lo && applied <= hi then None
          else Some (Printf.sprintf "replica %s applied %d requests, expected %d..%d" p applied lo hi))
        (Kv.with_prefix chk "applied.")
  in
  (* End-to-end metrics, over the parts [Parts.select] picks: throughput
     and CPU per op pooled over them; p50 and p90 the medians of their
     parts' figures, so that one disturbed part (a GC pause, the storm's
     restart) does not set the run's figure. The p99 of the whole window
     is reported in the detail only (see [Parts.tail_permille]). *)
  let window = Ledger.window_seconds l in
  let ops = l.Ledger.completed_in_window in
  let parts = parts st ~count ~stratified ~traced in
  let used = Parts.select parts in
  let lat = Ledger.sorted_latencies l in
  let pooled want = Option.value ~default:0.0 (Option.bind (Pct.reported ~want (Array.length lat)) (Pct.at lat)) in
  let f k = Kv.float e k in
  let e2e =
    [ ("throughput_ops_s", Parts.throughput used);
      ("latency_p50_ms", Option.value ~default:(pooled 500) (Parts.median_of Parts.p50 used));
      ("latency_p90_ms", Option.value ~default:(pooled Parts.tail_permille) (Parts.median_of Parts.tail used));
      ("served_frac", if l.Ledger.attempted = 0 then 0.0 else 1.0 -. Pct.per ~base:l.Ledger.attempted (float_of_int l.Ledger.failed));
      ("cpu_us_per_op", Parts.cpu_us_per_op used);
      ("rss_peak_mb", f "rss_peak_kb" /. 1024.0); ("setup_s", Parts.median setup) ]
  in
  (* The tracer counts only in the traced parts, so its figures are per
     op of those parts. Its send and handler times are disjoint shares of
     the deployment's CPU time in them, so their sum cannot exceed it. *)
  let traced_parts = List.filter (fun p -> p.Parts.traced) parts in
  let traced_ops = List.fold_left (fun acc p -> acc + p.Parts.ops) 0 traced_parts in
  let traced_cpu = Parts.sum (fun p -> p.Parts.cpu_s) traced_parts in
  let traced_op x = Pct.per ~base:traced_ops x in
  let errors =
    errors
    @
    if trace && f "trace.send_s" +. f "trace.handle_s" > (traced_cpu *. 1.02) +. 0.01 then
      [ Printf.sprintf "tracer accounted %.3f s of send and handler time in %.3f s of process CPU"
          (f "trace.send_s" +. f "trace.handle_s") traced_cpu ]
    else []
  in
  (* Per-layer metrics; a layer that did no work reads 0. *)
  let per_op x = Pct.per ~base:ops x in
  let r0 k = f ("r0.service/" ^ k) in
  let slots = r0 "committed_slots" in
  let decided = r0 "one_step" +. r0 "two_step" +. r0 "underlying" in
  let fsyncs = f "sum.wal/fsyncs" in
  let decodes = f "sum.erasure/decodes" and fallbacks = f "sum.erasure/decode_fallbacks" in
  let layer =
    [ ("transport.msgs_per_op", traced_op (f "trace.msgs")); ("transport.bytes_per_op", traced_op (f "trace.bytes"));
      ("transport.send_us_per_op", traced_op (f "trace.send_s" *. 1e6));
      ("codec.encode_ns_per_msg", Kv.float iso "codec.encode_ns");
      ("codec.decode_ns_per_msg", Kv.float iso "codec.decode_ns");
      ("reactor.loops_per_op", per_op (f "sum.reactor/loops" +. f "mesh.reactor/loops"));
      ("gc.minor_words_per_op", per_op (f "gc_minor_words"));
      ("replica.handle_us_per_op", traced_op (f "trace.handle_s" *. 1e6));
      ("batcher.ops_per_slot", Pct.per_f ~base:decided (f "sum.service/applied" /. float_of_int sh.W.n));
      ("batcher.empty_slot_frac", Pct.per_f ~base:slots (r0 "empty_slots"));
      ("consensus.one_step_frac", Pct.per_f ~base:decided (r0 "one_step"));
      ("consensus.two_step_frac", Pct.per_f ~base:decided (r0 "two_step"));
      ("consensus.uc_frac", Pct.per_f ~base:decided (r0 "underlying"));
      ("smr.decide_us_per_slot", Kv.float iso "smr.decide_us_per_slot");
      ("wal.fsyncs_per_op", per_op fsyncs);
      ("wal.records_per_fsync", Pct.per_f ~base:fsyncs (f "sum.wal/synced_records"));
      ("wal.bytes_per_op", per_op (f "sum.wal/bytes"));
      ("wal.group_commit_p50_us", Kv.float iso "wal.group_commit_p50_us");
      ("catch_up.recovery_s", Float.max 0.0 (Kv.float chk "recovery_s"));
      ("recovery.replayed_slots", Kv.float chk "replayed_slots");
      ("catch_up.installed_slots", Kv.float chk "installed_slots");
      ("fetch.bytes_per_op", per_op (f "sum.service/fetch_bytes" +. f "sum.erasure/frag_bytes_in"));
      ("erasure.decodes_per_op", per_op decodes);
      ("erasure.fallback_frac", Pct.per_f ~base:(decodes +. fallbacks) fallbacks);
      ("rs.encode_us_64k", Kv.float iso "rs.encode_us"); ("rs.decode_us_64k", Kv.float iso "rs.decode_us");
      ("admission.busy_frac", Pct.per_f ~base:(float_of_int (l.Ledger.attempted * sh.W.targets)) (f "sum.service/busy_rejections"));
      ("client.retries_per_op", Pct.per ~base:l.Ledger.attempted (float_of_int l.Ledger.retries));
      ("loadgen.late_max_ms", l.Ledger.late_max_ms);
      ("loadgen.inflight_at_end", float_of_int (Ledger.counted_in_flight l)) ]
    @ Parts.overhead parts
  in
  let whole = match (st.marks, List.rev st.marks) with last :: _, first :: _ -> Some (first, last) | _ -> None in
  let core_busy = match whole with Some (a, b) -> share st a b busy_j | None -> [] in
  let floats l = "[" ^ String.concat ", " (List.map json_num l) ^ "]" in
  let detail =
    [ ("window_s", json_num window); ("committed_in_window", string_of_int ops);
      ("latency_samples", string_of_int (List.fold_left (fun acc p -> acc + Array.length p.Parts.lat) 0 used));
      ("latency_p99_pooled_ms", json_num (pooled 990));
      ("parts", string_of_int (List.length parts)); ("parts_used", string_of_int (List.length used));
      ("parts_quiet", string_of_int (List.length (List.filter Parts.quiet parts)));
      ("core_busy", floats core_busy); ("deploy_cpu_share", json_num (Pct.per_f ~base:window (f "cpu_s")));
      ("traced_ops", string_of_int traced_ops);
      ("committed", string_of_int l.Ledger.committed); ("acked_total", string_of_int st.oracle.Perfbench.Oracle.acked);
      ("unresolved", string_of_int (List.length unresolved)); ("busy_replies", string_of_int st.busy);
      ("conn_resets", string_of_int st.resets); ("reconnects", string_of_int st.reconnects);
      ("logical_clients", string_of_int st.clients);
      ("applied_checked_replicas", string_of_int (List.length (Kv.with_prefix chk "applied.")));
      ("setup_runs", "[" ^ String.concat ", " (List.map json_num setup) ^ "]");
      ("messages_by_class", json_obj (List.map (fun (k, v) -> (k, json_str v)) (Kv.with_prefix e "class.")));
      ("codec_samples", string_of_int (Kv.int iso "codec.samples"));
      ("sub_windows",
        "["
        ^ String.concat ", "
            (List.map
               (fun p ->
                 json_obj
                   [ ("s", json_num p.Parts.dur); ("ops", string_of_int p.Parts.ops);
                     ("cpu_s", json_num p.Parts.cpu_s); ("latency_samples", string_of_int (Array.length p.Parts.lat));
                     ("p50_ms", json_num (Option.value ~default:0.0 (Parts.p50 p)));
                     ("tail_ms", match Parts.tail p with Some v -> json_num v | None -> "null");
                     ("steal", floats p.Parts.steal); ("stratum", string_of_int p.Parts.stratum);
                     ("traced", string_of_bool p.Parts.traced); ("used", string_of_bool (List.memq p used)) ])
               parts)
        ^ "]");
      ("errors", "[" ^ String.concat ", " (List.map json_str errors) ^ "]") ]
  in
  let nums l = json_obj (List.map (fun (k, v) -> (k, json_num v)) l) in
  print_endline
    (json_obj
       [ ("correct", if errors = [] then "true" else "false"); ("attempted", string_of_int l.Ledger.attempted);
         ("failed", string_of_int l.Ledger.failed); ("e2e", nums e2e); ("layer", nums layer);
         ("detail", json_obj detail) ]);
  if errors <> [] then exit 1
