(* The three pinned workloads and their seeded command streams.
   BENCHMARK.json gates the last two; kv-closed-n4 is run by hand (see
   perfbench/README.md).

   Every workload uses the default dex lane with P_freq, reactor I/O and
   the oracle UC; they differ in the layer they put to work:
   - kv-closed-n4: CPU-bound message handling (codec, reactor, transport,
     replica, batcher) with no WAL, no erasure work and instant delivery;
   - kv-paced-n7: the paper's n > 6t shape under a fixed arrival rate and a
     1 ms + U[0, 0.5 ms) link delay, with the durability lane on and a
     replica crash-restart, so the UC fallback, the WAL and catch-up set
     the latency;
   - blob-coded-starved: 64 KiB values under coded dissemination with one
     replica that never receives a request, so every batch it applies is
     reconstructed from fragments. *)

open Dex_service

type t = Kv_closed_n4 | Kv_paced_n7 | Blob_coded_starved

let all = [ Kv_closed_n4; Kv_paced_n7; Blob_coded_starved ]

let name = function
  | Kv_closed_n4 -> "kv-closed-n4"
  | Kv_paced_n7 -> "kv-paced-n7"
  | Blob_coded_starved -> "blob-coded-starved"

let of_name s = List.find_opt (fun w -> name w = s) all

type loop =
  | Closed of int  (** logical clients, one outstanding request each *)
  | Open of float  (** requests per second on a fixed schedule *)

type shape = {
  n : int;
  t : int;
  durable : bool;  (** WAL with group commit, persist before reply *)
  coded : bool;  (** erasure-coded batch dissemination *)
  link_delay : float;  (** seconds added to every replica link *)
  link_jitter : float;  (** plus U[0, jitter) seconds *)
  loop : loop;
  targets : int;  (** the generator submits to replicas [0 .. targets-1] *)
  storm : int option;  (** replica killed at 1/3 of the window, restarted at 2/3 *)
  warmup_s : float;
      (** load before the window opens: the blob workload needs several
          seconds before batch retention and the heap stop growing *)
  part_s : float;
      (** end-to-end figures are taken over parts of the window this long:
          long enough for well over 1000 replies, so that every part's p90
          rests on a hundred samples beyond it *)
}

let shape = function
  | Kv_closed_n4 ->
    { n = 4; t = 0; durable = false; coded = false; link_delay = 0.0; link_jitter = 0.0;
      loop = Closed 64; targets = 4; storm = None; warmup_s = 1.0; part_s = 1.0 }
  | Kv_paced_n7 ->
    { n = 7; t = 1; durable = true; coded = false; link_delay = 0.001; link_jitter = 0.0005;
      loop = Open 500.0; targets = 7; storm = Some 6; warmup_s = 2.0; part_s = 2.5 }
  | Blob_coded_starved ->
    { n = 4; t = 0; durable = false; coded = true; link_delay = 0.0; link_jitter = 0.0;
      loop = Closed 4; targets = 3; storm = None; warmup_s = 10.0; part_s = 6.0 }

let blob_bytes = 65536

type gen = { w : t; prng : Dex_stdext.Prng.t; payloads : string array; mutable next : int }

let generator w ~seed =
  let prng = Dex_stdext.Prng.create ~seed in
  let payloads =
    match w with
    | Blob_coded_starved ->
      Array.init 4 (fun _ ->
          String.init blob_bytes (fun _ -> Char.chr (Dex_stdext.Prng.int prng 256)))
    | Kv_closed_n4 | Kv_paced_n7 -> [||]
  in
  { w; prng; payloads; next = 0 }

let key j = Printf.sprintf "k%d" j

(* The next command of the stream. [Set] values are the request's index,
   so every write is distinguishable in the final state; [Add]s add 1, so
   a key's final value counts the distinct [Add]s applied to it. *)
let next g : State_machine.command =
  let i = g.next in
  g.next <- i + 1;
  let pick bound = Dex_stdext.Prng.int g.prng bound in
  match g.w with
  | Kv_closed_n4 -> State_machine.Set (key (pick 64), i)
  | Kv_paced_n7 ->
    let k = key (pick 256) in
    if pick 10 < 8 then State_machine.Add (k, 1) else State_machine.Get k
  | Blob_coded_starved ->
    State_machine.Blob (key (pick 16), g.payloads.(i mod Array.length g.payloads))
