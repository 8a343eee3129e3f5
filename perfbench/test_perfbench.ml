(* Unit tests for the benchmark's own pieces: percentile selection, the
   generator's ledger (latency from the due time, drain accounting), per-op
   ratios, the choice of quiet parts, the tracing overhead, the tracer's
   CPU accounting, the output checks and the seeded workload streams. *)

open Perfbench
open Dex_service

let close_to = Alcotest.float 1e-9

(* ----------------------------- percentiles ----------------------------- *)

let test_tail_rule () =
  let check n want = Alcotest.(check (option int)) (Printf.sprintf "n=%d" n) want (Pct.tail_permille n) in
  check 19 None;
  check 20 (Some 500);
  check 999 (Some 950);
  check 1000 (Some 990);
  check 9999 (Some 990);
  check 10000 (Some 999);
  (* The chosen percentile has >= 10 samples beyond it and no higher
     candidate does. *)
  for n = 20 to 5000 do
    match Pct.tail_permille n with
    | None -> Alcotest.fail "no percentile for n >= 20"
    | Some p ->
      Alcotest.(check bool) "ten beyond" true (Pct.beyond ~n p >= 10);
      List.iter
        (fun q -> if q > p then Alcotest.(check bool) "higher has fewer" true (Pct.beyond ~n q < 10))
        Pct.permilles
  done

let test_reported () =
  Alcotest.(check (option int)) "p99 when supported" (Some 990) (Pct.reported ~want:990 100_000);
  Alcotest.(check (option int)) "falls back" (Some 950) (Pct.reported ~want:990 500);
  let sorted = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option close_to)) "p50" (Some 500.0) (Pct.at sorted 500);
  Alcotest.(check (option close_to)) "p99" (Some 990.0) (Pct.at sorted 990);
  Alcotest.(check (option close_to)) "empty" None (Pct.at [||] 500)

let test_zero_base () =
  Alcotest.check close_to "int base 0" 0.0 (Pct.per ~base:0 42.0);
  Alcotest.check close_to "float base 0" 0.0 (Pct.per_f ~base:0.0 42.0);
  Alcotest.check close_to "x per 4" 10.5 (Pct.per ~base:4 42.0)

(* ------------------------------- ledger -------------------------------- *)

let test_latency_from_due () =
  let l = Ledger.create ~timeout:1.0 ~attempts:3 in
  Ledger.open_window l ~now:0.0;
  (* Due at 0.3 but the generator only got to it at 0.5: the 200 ms it
     ran late is part of the request's latency. *)
  Ledger.issue l ~now:0.5 ~due:0.3 (1, 0) "a";
  Alcotest.(check (option string)) "acked" (Some "a") (Ledger.ack l ~now:0.6 (1, 0));
  Alcotest.(check (option string)) "second copy ignored" None (Ledger.ack l ~now:0.7 (1, 0));
  Alcotest.(check (array close_to)) "latency from due" [| 300.0 |] (Array.map Float.round (Ledger.sorted_latencies l));
  Alcotest.check close_to "late" 200.0 (Float.round l.Ledger.late_max_ms)

let test_window_membership () =
  let l = Ledger.create ~timeout:1.0 ~attempts:3 in
  Ledger.issue l ~now:0.0 ~due:0.0 (1, 0) ();
  Ledger.open_window l ~now:1.0;
  Ledger.issue l ~now:1.0 ~due:1.0 (2, 0) ();
  ignore (Ledger.ack l ~now:1.5 (1, 0));
  ignore (Ledger.ack l ~now:1.6 (2, 0));
  Ledger.close_window l ~now:2.0;
  Alcotest.(check int) "only due-in-window attempted" 1 l.Ledger.attempted;
  Alcotest.(check int) "only due-in-window committed" 1 l.Ledger.committed;
  Alcotest.(check int) "both replies completed in window" 2 l.Ledger.completed_in_window

let test_drain_accounting () =
  let l = Ledger.create ~timeout:1.0 ~attempts:2 in
  Ledger.open_window l ~now:0.0;
  List.iter (fun c -> Ledger.issue l ~now:9.5 ~due:9.5 (c, 0) c) [ 1; 2; 3 ];
  Ledger.close_window l ~now:10.0;
  (* Answered during the drain: committed, with its latency. *)
  ignore (Ledger.ack l ~now:10.2 (1, 0));
  (* One retransmission is within budget: still in flight, not failed. *)
  let resend, failed = Ledger.sweep l ~now:10.6 in
  Alcotest.(check (list int)) "resent" [ 2; 3 ] (List.sort compare resend);
  Alcotest.(check (list int)) "none failed" [] failed;
  Alcotest.(check int) "committed" 1 l.Ledger.committed;
  Alcotest.(check int) "not failed" 0 l.Ledger.failed;
  Alcotest.(check int) "in flight at the end" 2 (Ledger.counted_in_flight l);
  Alcotest.(check int) "drain reply is outside the window" 0 l.Ledger.completed_in_window;
  Alcotest.(check int) "attempted = committed + failed + in flight" l.Ledger.attempted
    (l.Ledger.committed + l.Ledger.failed + Ledger.counted_in_flight l);
  (* Budget exhausted: now it fails. *)
  let _, failed = Ledger.sweep l ~now:11.7 in
  Alcotest.(check (list int)) "failed" [ 2; 3 ] (List.sort compare failed);
  Alcotest.(check int) "counted failed" 2 l.Ledger.failed;
  Alcotest.(check int) "nothing left" 0 (Ledger.counted_in_flight l)

(* -------------------------------- parts -------------------------------- *)

let part ?(stratum = 0) ?(traced = false) ?(ops = 100) ?(cpu_s = 0.5) ?(lat = [| 1.0 |]) steal =
  { Parts.dur = 1.0; ops; cpu_s; lat; steal; stratum; traced }

let test_quiet_parts () =
  let ids = List.mapi (fun i p -> (p, i)) in
  let picked parts = List.map (fun p -> List.assq p (ids parts)) (Parts.select parts) |> List.sort compare in
  let ps = [ part [ 0.0; 0.01 ]; part [ 0.3; 0.0 ]; part [ 0.0; 0.1 ]; part [ 0.02; 0.0 ]; part [ 0.05; 0.05 ] ] in
  let sel = Parts.select ps in
  Alcotest.(check int) "quiet parts on every core" 2 (List.length sel);
  Alcotest.(check bool) "steal on the generator's core excludes" false (List.memq (List.nth ps 2) sel);
  (* No part quiet: the third (rounded up) with the least steal. *)
  let noisy = [ part [ 0.3 ]; part [ 0.1 ]; part [ 0.2 ]; part [ 0.05 ]; part [ 0.4 ]; part [ 0.15 ] ] in
  let sel = Parts.select noisy in
  Alcotest.(check (list (float 1e-9))) "least stolen third" [ 0.05; 0.1 ] (List.sort compare (List.map Parts.steal sel));
  (* Strata are selected separately: a noisy stratum still contributes. *)
  let strat =
    [ part ~stratum:0 [ 0.0 ]; part ~stratum:0 [ 0.0 ]; part ~stratum:0 [ 0.0 ]; part ~stratum:1 [ 0.3 ];
      part ~stratum:1 [ 0.2 ]; part ~stratum:1 [ 0.4 ] ]
  in
  Alcotest.(check (list int)) "one per noisy stratum" [ 0; 1; 2; 4 ] (picked strat);
  Alcotest.(check (option close_to)) "p90 of 100" (Some 90.0)
    (Parts.tail (part ~lat:(Array.init 100 (fun i -> float_of_int (i + 1))) []));
  Alcotest.(check (option close_to)) "no p90 under 100" None
    (Parts.tail (part ~lat:(Array.init 99 (fun i -> float_of_int (i + 1))) []));
  let two = [ part [ 0.0 ]; part [ 0.3 ] ] in
  Alcotest.(check int) "a stratum of two is used whole" 2 (List.length (Parts.select two));
  Alcotest.check close_to "throughput pooled" 100.0 (Parts.throughput strat);
  Alcotest.check close_to "cpu per op" 5000.0 (Parts.cpu_us_per_op strat);
  Alcotest.check close_to "no parts" 0.0 (Parts.throughput [])

let test_overhead_pairs () =
  (* Traced parts 0 and 3: pairs (on, off) then (off, on). *)
  let ps =
    [ part ~traced:true ~ops:90 ~cpu_s:0.99 ~lat:[| 1.1 |] [];
      part ~ops:100 ~cpu_s:1.0 ~lat:[| 1.0 |] [];
      part ~ops:100 ~cpu_s:1.0 ~lat:[| 1.0 |] [];
      part ~traced:true ~ops:80 ~cpu_s:0.96 ~lat:[| 1.3 |] [] ]
  in
  let o = Parts.overhead ps in
  let get k = List.assoc k o in
  (* Per pair: throughput 0.1 and 0.2, p50 0.1 and 0.3, CPU per op 0.1 and
     0.2; the nearest-rank median of two is the lower. *)
  Alcotest.check (Alcotest.float 1e-9) "throughput" 0.1 (get "trace.overhead_throughput_frac");
  Alcotest.check (Alcotest.float 1e-9) "p50" 0.1 (get "trace.overhead_latency_p50_frac");
  Alcotest.check (Alcotest.float 1e-9) "cpu per op" 0.1 (get "trace.overhead_cpu_frac");
  Alcotest.check close_to "untraced run" 0.0 (List.assoc "trace.overhead_cpu_frac" (Parts.overhead [ part []; part [] ]))

(* ------------------------------- tracer -------------------------------- *)

let burn s =
  let c0 = Cputime.thread_s () in
  let x = ref 0 in
  while Cputime.thread_s () -. c0 < s do
    incr x
  done;
  ignore (Sys.opaque_identity !x)

let test_thread_clock () =
  let c0 = Cputime.thread_s () in
  Thread.delay 0.05;
  Alcotest.(check bool) "a sleeping thread uses no CPU" true (Cputime.thread_s () -. c0 < 0.02);
  let p0 = Cputime.process_s () and c0 = Cputime.thread_s () in
  burn 0.05;
  let c = Cputime.thread_s () -. c0 and p = Cputime.process_s () -. p0 in
  Alcotest.(check bool) "busy thread" true (c >= 0.05);
  Alcotest.(check bool) "within the process's CPU time" true (c <= p +. 0.005)

(* Two replica threads handle messages and send from inside the handler; a
   third thread sends on their behalf, as the fault plan's delay queue
   does. All share one runtime lock, so wall-clock intervals would overlap;
   the tracer's send and handler times must add up to no more than the
   process used, and the handler time must not include the sends. *)
let test_tracer_accounting () =
  let inner =
    { Dex_runtime.Transport.send = (fun ~src:_ ~dst:_ (_ : int) -> burn 0.001);
      recv = (fun ~me ~timeout:_ -> burn 0.0002; Some (me, 0));
      close = ignore; drop_count = (fun ~dst:_ -> 0);
      link_stats = (fun () -> { Dex_runtime.Transport.reconnects = 0; backoffs = 0; drops = 0 });
      peer_links = (fun () -> []) }
  in
  let tr = Tracer.create ~replicas:2 ~classes:1 ~classify:(fun _ -> 0) ~size:(fun _ -> 8) ~seed:1 in
  let t = Tracer.wrap tr inner in
  let rounds = 100 in
  let replica me () =
    for _ = 1 to rounds do
      ignore (t.Dex_runtime.Transport.recv ~me ~timeout:1.0);
      burn 0.002;
      t.Dex_runtime.Transport.send ~src:me ~dst:(1 - me) 0
    done;
    ignore (t.Dex_runtime.Transport.recv ~me ~timeout:1.0)
  in
  let relay () = for _ = 1 to rounds do t.Dex_runtime.Transport.send ~src:0 ~dst:1 0 done in
  Tracer.set_on tr true;
  let p0 = Cputime.process_s () in
  List.iter Thread.join [ Thread.create (replica 0) (); Thread.create (replica 1) (); Thread.create relay () ];
  let p = Cputime.process_s () -. p0 in
  Tracer.set_on tr false;
  let tot = Tracer.totals tr in
  Alcotest.(check int) "every send counted" (3 * rounds) tot.Tracer.msgs.(0);
  Alcotest.(check int) "every handler counted" (2 * rounds) tot.Tracer.handled;
  Alcotest.(check bool) "send + handle within process CPU" true (tot.Tracer.send_s +. tot.Tracer.handle_s <= p +. 0.005);
  Alcotest.(check bool) "handler time excludes its sends" true
    (tot.Tracer.handle_s >= 0.8 *. 0.002 *. float_of_int (2 * rounds)
    && tot.Tracer.handle_s <= 1.5 *. 0.002 *. float_of_int (2 * rounds));
  (* Off: nothing is counted. *)
  t.Dex_runtime.Transport.send ~src:0 ~dst:1 0;
  Alcotest.(check int) "off counts nothing" (3 * rounds) (Tracer.totals tr).Tracer.msgs.(0)

(* ------------------------------- oracle -------------------------------- *)

let req client rid command = { Wire.client; rid; command }

let test_oracle_increments () =
  let o = Oracle.create () in
  Oracle.applied o (req 1 0 (State_machine.Add ("k", 1))) ~slot:0 (State_machine.Count 1);
  Oracle.applied o (req 2 0 (State_machine.Add ("k", 1))) ~slot:0 (State_machine.Count 2);
  let unresolved = [ req 3 0 (State_machine.Add ("k", 1)) ] in
  Alcotest.(check (list string)) "2 or 3 is fine" [] (Oracle.verify o ~unresolved ~final:[ ("k", 3) ]);
  Alcotest.(check bool) "lost write" true (Oracle.verify o ~unresolved ~final:[ ("k", 1) ] <> []);
  Alcotest.(check int) "applied twice" 1 (List.length (Oracle.verify o ~unresolved:[] ~final:[ ("k", 3) ]));
  Oracle.applied o (req 4 0 (State_machine.Add ("k", 1))) ~slot:1 (State_machine.Count 2);
  Alcotest.(check bool) "repeated count" true (Oracle.verify o ~unresolved:[] ~final:[ ("k", 3) ] <> [])

let test_oracle_sets () =
  let o = Oracle.create () in
  Oracle.applied o (req 5 0 (State_machine.Set ("k", 10))) ~slot:3 State_machine.Done;
  Oracle.applied o (req 2 0 (State_machine.Set ("k", 20))) ~slot:4 State_machine.Done;
  Oracle.applied o (req 1 0 (State_machine.Set ("k", 30))) ~slot:4 State_machine.Done;
  (* Slot 4 applies client 1 before client 2: 20 is last. *)
  Alcotest.(check (list string)) "last in log order" [] (Oracle.verify o ~unresolved:[] ~final:[ ("k", 20) ]);
  Alcotest.(check int) "stale value" 1 (List.length (Oracle.verify o ~unresolved:[] ~final:[ ("k", 30) ]));
  Alcotest.(check (list string)) "an unanswered later write" []
    (Oracle.verify o ~unresolved:[ req 9 0 (State_machine.Set ("k", 99)) ] ~final:[ ("k", 99) ]);
  Alcotest.(check int) "unknown key" 1
    (List.length (Oracle.verify o ~unresolved:[] ~final:[ ("k", 20); ("x", 1) ]))

(* ------------------------------ workloads ------------------------------ *)

let test_seeded_stream () =
  let stream w seed = let g = Workload.generator w ~seed in List.init 200 (fun _ -> Workload.next g) in
  List.iter
    (fun w ->
      Alcotest.(check bool) (Workload.name w ^ " same seed") true (stream w 7 = stream w 7);
      Alcotest.(check bool) (Workload.name w ^ " other seed") false (stream w 7 = stream w 8);
      Alcotest.(check (option string)) "name round trip" (Some (Workload.name w))
        (Option.map Workload.name (Workload.of_name (Workload.name w))))
    Workload.all

let test_kv_lines () =
  let fields = [ ("a", "1"); ("state.k1", "7"); ("x.y/z", "0.5") ] in
  let back = Kv.of_line ("END " ^ Kv.to_line fields) in
  Alcotest.(check (list (pair string string))) "round trip" fields back;
  Alcotest.(check (list (pair string string))) "prefix" [ ("k1", "7") ] (Kv.with_prefix back "state.");
  Alcotest.check close_to "float" 0.5 (Kv.float back "x.y/z");
  Alcotest.check close_to "missing" 0.0 (Kv.float back "nope")

let () =
  Alcotest.run "perfbench"
    [ ( "pct",
        [ Alcotest.test_case "highest percentile with ten beyond" `Quick test_tail_rule;
          Alcotest.test_case "reported percentile" `Quick test_reported;
          Alcotest.test_case "per-op ratio with a zero base" `Quick test_zero_base ] );
      ( "ledger",
        [ Alcotest.test_case "open-loop latency from the due time" `Quick test_latency_from_due;
          Alcotest.test_case "window membership by due time" `Quick test_window_membership;
          Alcotest.test_case "in-flight drain accounting" `Quick test_drain_accounting ] );
      ( "parts",
        [ Alcotest.test_case "quiet parts and their fallback" `Quick test_quiet_parts;
          Alcotest.test_case "tracing overhead from alternating parts" `Quick test_overhead_pairs ] );
      ( "tracer",
        [ Alcotest.test_case "thread CPU clock" `Quick test_thread_clock;
          Alcotest.test_case "send and handler CPU accounting" `Quick test_tracer_accounting ] );
      ( "oracle",
        [ Alcotest.test_case "increments" `Quick test_oracle_increments;
          Alcotest.test_case "sets in log order" `Quick test_oracle_sets ] );
      ( "workload",
        [ Alcotest.test_case "seeded stream" `Quick test_seeded_stream;
          Alcotest.test_case "control lines" `Quick test_kv_lines ] ) ]
