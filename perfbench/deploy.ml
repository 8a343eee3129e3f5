(* The deployment process: one fresh loopback deployment per run, pinned
   to its own core by the launcher. It measures set-up time over several
   launches, then serves the load generator's control connection:

     BEGIN        open the measured window (counters, CPU, GC)
     MARK 0|1     a boundary between parts of the window: switch tracing
                  off or on for the next part; reply with the CPU time
     KILL p       crash replica p, abandoning its WAL
     RESTART p    restart it and time its return to the peers' frontier
     END          close the window; reply with the window's counters
     CHECK        wait for convergence; reply with the output checks' inputs
     ISO          traced run only: the isolated layer loops
     QUIT         shut down, remove the data directory, exit

   Each reply is one line: the command, then [name=value] fields. *)

open Dex_runtime
module Registry = Dex_metrics.Registry
module W = Perfbench.Workload
module Tracer = Perfbench.Tracer

(* Set-up time is the median of this many fresh launches. *)
let setups = 15

let probe_client = 2_000_000

let summed =
  [ "service/applied"; "service/busy_rejections"; "service/fetch_bytes"; "erasure/frag_bytes_in";
    "erasure/decodes"; "erasure/decode_fallbacks"; "wal/fsyncs"; "wal/synced_records";
    "wal/appends"; "wal/bytes"; "reactor/loops" ]

let per_replica0 =
  [ "service/committed_slots"; "service/empty_slots"; "service/one_step"; "service/two_step";
    "service/underlying" ]

let class_names =
  [| "log"; "fetch"; "batch_payload"; "truncated"; "catch_up"; "slot_commit"; "catch_up_done";
     "snapshot_fetch"; "snapshot_payload"; "frag_request"; "frag_payload"; "snapshot_frag";
     "snapshot_fetch_full" |]

let classify = function
  | Svc.Log_msg _ -> 0
  | Svc.Fetch _ -> 1
  | Svc.Batch_payload _ -> 2
  | Svc.Truncated _ -> 3
  | Svc.Catch_up _ -> 4
  | Svc.Slot_commit _ -> 5
  | Svc.Catch_up_done _ -> 6
  | Svc.Snapshot_fetch _ -> 7
  | Svc.Snapshot_payload _ -> 8
  | Svc.Frag_request _ -> 9
  | Svc.Frag_payload _ -> 10
  | Svc.Snapshot_frag _ -> 11
  | Svc.Snapshot_fetch_full _ -> 12

(* A deployment as [Server.launch] builds it by default — one mesh loop
   plus core-gated shard loops — but with the mesh transport wrapped by the
   tracer and lent through [?runtime]. *)
type traced = { tracer : Svc.smsg Tracer.t; loops : Reactor.t list }

let launch_traced ~seed ?chaos (cfg : Svc.config) =
  let net_metrics = Registry.create () in
  let primary = Reactor.create ~metrics:net_metrics ~name:"mesh" () in
  let cores = Domain.recommended_domain_count () in
  let shards =
    Array.init
      (min 3 (max 0 (min (cfg.Svc.n - 1) (cores - 1))))
      (fun i -> Reactor.create ~name:(Printf.sprintf "mesh-%d" (i + 1)) ())
  in
  let reactor_for =
    if Array.length shards = 0 then None
    else
      let pool = Array.append [| primary |] shards in
      Some (fun pid -> pool.(pid mod Array.length pool))
  in
  let pids = Dex_net.Pid.all ~n:cfg.Svc.n @ List.map fst (Svc.Log.extra (Svc.log_config cfg)) in
  let mesh =
    Transport.Tcp_codec.create ~codec:Svc.smsg_codec ~metrics:net_metrics ~reactor:primary
      ?reactor_for ~pids ()
  in
  let tracer =
    Tracer.create ~replicas:cfg.Svc.n ~classes:(Array.length class_names) ~classify
      ~size:(fun m -> String.length (Dex_codec.Codec.Frame.to_string Svc.smsg_codec m))
      ~seed
  in
  let runtime =
    {
      Svc.sr_transport = Tracer.wrap tracer mesh;
      sr_net_metrics = net_metrics;
      sr_net_reactor = Some primary;
      sr_service_loop_for = None;
    }
  in
  (Svc.launch ?chaos ~runtime cfg, { tracer; loops = primary :: Array.to_list shards })

type state = {
  sh : W.shape;
  seed : int;
  dir : string;
  d : Svc.deployment;
  traced : traced option;
  mutable begin_cpu : float;
  mutable begin_gc : float;
  mutable begin_mesh : Registry.snapshot;
  mutable begun : (Svc.t * Registry.snapshot) list;
  mutable restarted : (Dex_net.Pid.t * Svc.t * float) option;
  mutable recovery_s : float;
  mutable record_bytes : int;
  mutable group : int;
  mutable one_step_frac : float;
}

let cpu_s = Perfbench.Cputime.process_s

let rss_peak_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

let config (sh : W.shape) ~seed ~data_dir =
  let pair = Dex_condition.Pair.freq ~n:sh.W.n ~t:sh.W.t in
  Svc.config ~seed
    ?data_dir:(if sh.W.durable then Some data_dir else None)
    ~dissemination:(if sh.W.coded then Dex_erasure.Dissemination.Coded else Dex_erasure.Dissemination.Full)
    ~pair:(fun _ -> pair)
    ~n:sh.W.n ~t:sh.W.t ()

let chaos (sh : W.shape) ~seed =
  if sh.W.link_delay = 0.0 && sh.W.link_jitter = 0.0 then None
  else
    let rule = { Fault_plan.clean_rule with delay = sh.W.link_delay; jitter = sh.W.link_jitter } in
    Some (Fault_plan.make { Fault_plan.empty_spec with seed; rules = [ (Fault_plan.All, rule) ] })

let launch ~trace (sh : W.shape) ~seed ~data_dir =
  let cfg = config sh ~seed ~data_dir in
  let chaos = chaos sh ~seed in
  if trace then
    let d, tr = launch_traced ~seed ?chaos cfg in
    (d, Some tr)
  else (Svc.launch ?chaos cfg, None)

let shutdown d traced =
  Svc.shutdown d;
  Option.iter (fun tr -> List.iter Reactor.stop tr.loops) traced

(* Set-up ends when a first request has been served. *)
let probe (d : Svc.deployment) =
  let c = Dex_service.Client.connect ~client:probe_client (List.map snd d.Svc.ports) in
  let r =
    Dex_service.Client.submit ~timeout:0.5 ~attempts:40 c (Dex_service.State_machine.Get "probe")
  in
  Dex_service.Client.close c;
  if r = None then failwith "set-up probe was never served"

let live_counters (s : state) =
  List.map (fun (_, r) -> (r, Registry.snapshot (Svc.metrics r))) s.d.Svc.servers

let begin_window s =
  s.begun <- live_counters s;
  s.begin_cpu <- cpu_s ();
  s.begin_gc <- (Gc.quick_stat ()).Gc.minor_words;
  s.begin_mesh <- Registry.snapshot s.d.Svc.net_metrics;
  []

let mark s on =
  Option.iter (fun tr -> Tracer.set_on tr.tracer on) s.traced;
  [ ("cpu_s", Printf.sprintf "%.6f" (cpu_s ())) ]

let end_window s =
  Option.iter (fun tr -> Tracer.set_on tr.tracer false) s.traced;
  let cpu = cpu_s () -. s.begin_cpu in
  let gc = (Gc.quick_stat ()).Gc.minor_words -. s.begin_gc in
  let incarnations = List.map snd (s.d.Svc.servers @ s.d.Svc.dead) in
  let delta r name =
    let before =
      match List.find_opt (fun (r', _) -> r' == r) s.begun with
      | Some (_, snap) -> Registry.get snap name
      | None -> 0
    in
    Registry.get (Registry.snapshot (Svc.metrics r)) name - before
  in
  let sum name = List.fold_left (fun acc r -> acc + delta r name) 0 incarnations in
  let r0 = List.assoc 0 s.d.Svc.servers in
  let mesh_loops =
    Registry.get (Registry.snapshot s.d.Svc.net_metrics) "reactor/loops"
    - Registry.get s.begin_mesh "reactor/loops"
  in
  let sums = List.map (fun name -> ("sum." ^ name, sum name)) summed in
  let r0s = List.map (fun name -> ("r0." ^ name, delta r0 name)) per_replica0 in
  let get l k = Option.value ~default:0 (List.assoc_opt k l) in
  s.record_bytes <- Perfbench.Pct.per ~base:(get sums "sum.wal/appends") (float_of_int (get sums "sum.wal/bytes")) |> int_of_float;
  s.group <-
    int_of_float
      (Float.round
         (Perfbench.Pct.per ~base:(get sums "sum.wal/fsyncs")
            (float_of_int (get sums "sum.wal/synced_records"))));
  let decided = get r0s "r0.service/one_step" + get r0s "r0.service/two_step" + get r0s "r0.service/underlying" in
  s.one_step_frac <- Perfbench.Pct.per ~base:decided (float_of_int (get r0s "r0.service/one_step"));
  let tracing =
    match s.traced with
    | None -> []
    | Some { tracer; _ } ->
      let tr = Tracer.totals tracer in
      [ ("trace.msgs", string_of_int (Array.fold_left ( + ) 0 tr.Tracer.msgs));
        ("trace.bytes", string_of_int (Array.fold_left ( + ) 0 tr.Tracer.bytes));
        ("trace.send_s", Printf.sprintf "%.6f" tr.Tracer.send_s);
        ("trace.handle_s", Printf.sprintf "%.6f" tr.Tracer.handle_s);
        ("trace.handled", string_of_int tr.Tracer.handled) ]
      @ List.concat
          (List.mapi
             (fun i name ->
               if tr.Tracer.msgs.(i) = 0 then []
               else [ ("class." ^ name, Printf.sprintf "%d/%d" tr.Tracer.msgs.(i) tr.Tracer.bytes.(i)) ])
             (Array.to_list class_names))
  in
  [ ("cpu_s", Printf.sprintf "%.6f" cpu); ("gc_minor_words", Printf.sprintf "%.0f" gc);
    ("rss_peak_kb", string_of_int (rss_peak_kb ())); ("mesh.reactor/loops", string_of_int mesh_loops) ]
  @ List.map (fun (k, v) -> (k, string_of_int v)) (sums @ r0s)
  @ tracing

(* Restart time: until the restarted replica has left catch-up and reached
   the lowest apply frontier among its peers. *)
let watch_recovery s pid r t0 =
  let rec poll () =
    if s.recovery_s < 0.0 && List.exists (fun (_, r') -> r' == r) s.d.Svc.servers then begin
      let peers = List.filter (fun (p, _) -> p <> pid) s.d.Svc.servers in
      let target = List.fold_left (fun acc (_, p) -> min acc (Svc.apply_frontier p)) max_int peers in
      if (not (Svc.catching_up r)) && Svc.apply_frontier r >= target then
        s.recovery_s <- Unix.gettimeofday () -. t0
      else begin
        Thread.delay 0.002;
        poll ()
      end
    end
  in
  poll ()

let converge s ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    let live = List.map snd s.d.Svc.servers in
    let frontiers = List.map Svc.apply_frontier live in
    let digests = List.map Svc.state_digest live in
    let same l = match l with [] -> true | x :: rest -> List.for_all (( = ) x) rest in
    let ok = same frontiers && same digests && not (List.exists Svc.catching_up live) in
    if ok || Unix.gettimeofday () > deadline then ok
    else begin
      Thread.delay 0.02;
      wait ()
    end
  in
  wait ()

let check s =
  let converged = converge s ~timeout:20.0 in
  let compared, violations = Svc.agreement_violations s.d in
  let live = s.d.Svc.servers in
  let restarted_pid = Option.map (fun (p, _, _) -> p) s.restarted in
  (* A replica's applied counter sees every request exactly once only if
     it applied every slot itself: not after a restart, and not after it
     installed a peer's snapshot. *)
  let applied =
    List.filter_map
      (fun (p, r) ->
        let st = Svc.stats r in
        if Some p = restarted_pid || st.Svc.state_transfers > 0 then None
        else Some (Printf.sprintf "applied.%d" p, string_of_int st.Svc.applied))
      live
  in
  let storm =
    match s.restarted with
    | None -> []
    | Some (p, r, _) ->
      let st = Svc.stats r in
      [ ("restarted", string_of_int p); ("recovery_s", Printf.sprintf "%.6f" s.recovery_s);
        ("replayed_slots", string_of_int st.Svc.recovered_slots);
        ("installed_slots", string_of_int st.Svc.catchup_installed) ]
  in
  let state =
    match live with
    | (_, r) :: _ ->
      List.map (fun (k, v) -> ("state." ^ k, string_of_int v)) (Svc.state_snapshot r)
    | [] -> []
  in
  [ ("converged", if converged then "1" else "0"); ("compared", string_of_int compared);
    ("violations", string_of_int (List.length violations)); ("live", string_of_int (List.length live));
    ("probes", "1") ]
  @ applied @ storm @ state

let isolated s =
  match s.traced with
  | None -> []
  | Some { tracer; _ } ->
    let enc, dec = Isolated.codec Svc.smsg_codec (Tracer.samples tracer) in
    let n = s.sh.W.n and t = s.sh.W.t in
    let rs_enc, rs_dec =
      if s.sh.W.coded then
        let g = W.generator W.Blob_coded_starved ~seed:s.seed in
        Isolated.rs ~n ~t g.W.payloads.(0)
      else (0.0, 0.0)
    in
    let wal_p50 =
      if s.sh.W.durable && s.group > 0 then
        Isolated.wal ~dir:(Filename.concat s.dir "iso-wal") ~record_bytes:s.record_bytes ~group:s.group
      else 0.0
    in
    let smr = Isolated.smr ~n ~t ~one_step_frac:s.one_step_frac ~seed:s.seed in
    [ ("codec.encode_ns", Printf.sprintf "%.3f" enc); ("codec.decode_ns", Printf.sprintf "%.3f" dec);
      ("rs.encode_us", Printf.sprintf "%.3f" rs_enc); ("rs.decode_us", Printf.sprintf "%.3f" rs_dec);
      ("wal.group_commit_p50_us", Printf.sprintf "%.3f" wal_p50);
      ("smr.decide_us_per_slot", Printf.sprintf "%.3f" smr);
      ("codec.samples", string_of_int (List.length (Tracer.samples tracer))) ]

let serve s ic oc =
  let reply cmd fields =
    output_string oc (String.concat " " (cmd :: (if fields = [] then [] else [ Perfbench.Kv.to_line fields ])));
    output_char oc '\n';
    flush oc
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line -> (
      let words = String.split_on_char ' ' (String.trim line) in
      match words with
      | [ "QUIT" ] -> reply "QUIT" []
      | cmd :: args ->
        (match (cmd, args) with
        | "BEGIN", [] -> reply cmd (begin_window s)
        | "MARK", [ on ] -> reply cmd (mark s (on = "1"))
        | "KILL", [ p ] ->
          Svc.kill_replica s.d (int_of_string p);
          reply cmd []
        | "RESTART", [ p ] ->
          let pid = int_of_string p in
          let t0 = Unix.gettimeofday () in
          let r = Svc.restart_replica s.d pid in
          s.restarted <- Some (pid, r, t0);
          s.recovery_s <- -1.0;
          ignore (Thread.create (fun () -> watch_recovery s pid r t0) ());
          reply cmd []
        | "END", [] -> reply cmd (end_window s)
        | "CHECK", [] -> reply cmd (check s)
        | "ISO", [] -> reply cmd (isolated s)
        | _ -> reply "ERR" [ ("line", String.concat "_" words) ]);
        loop ()
      | [] -> loop ())
  in
  loop ()

let main ~workload ~seed ~trace ~dir =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sh = W.shape workload in
  Unix.mkdir dir 0o755;
  (* Set-up is timed over several fresh launches; the last one serves the
     run. Each launch gets an empty data directory, so WAL open and
     recovery are part of every figure. *)
  let rec launches i acc =
    let data_dir = Filename.concat dir (Printf.sprintf "data-%d" i) in
    let t0 = Unix.gettimeofday () in
    let d, traced = launch ~trace sh ~seed ~data_dir in
    probe d;
    let took = Unix.gettimeofday () -. t0 in
    if i + 1 < setups then begin
      shutdown d traced;
      Isolated.rm_rf data_dir;
      launches (i + 1) (took :: acc)
    end
    else (d, traced, List.rev (took :: acc))
  in
  let d, traced, setup = launches 0 [] in
  let s =
    { sh; seed; dir; d; traced; begin_cpu = 0.0; begin_gc = 0.0; begin_mesh = []; begun = [];
      restarted = None; recovery_s = -1.0; record_bytes = 0; group = 0; one_step_frac = 0.0 }
  in
  let ls = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt ls Unix.SO_REUSEADDR true;
  Unix.bind ls (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen ls 1;
  let ctl_port = match Unix.getsockname ls with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
  let ports = List.map (fun (_, p) -> string_of_int p) d.Svc.ports in
  Printf.printf "READY %s\n%!"
    (Perfbench.Kv.to_line
       [ ("ctl", string_of_int ctl_port); ("ports", String.concat "," ports);
         ("setup", String.concat "," (List.map (Printf.sprintf "%.6f") setup)) ]);
  let conn, _ = Unix.accept ls in
  Unix.close ls;
  serve s (Unix.in_channel_of_descr conn) (Unix.out_channel_of_descr conn);
  shutdown d traced;
  Isolated.rm_rf dir
