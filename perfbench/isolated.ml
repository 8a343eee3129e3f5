(* Layer timings in isolated loops, fed with inputs recorded from the
   traced run: the codec over the sampled mesh messages, Reed-Solomon over
   a 64 KiB blob, the WAL at the run's record size and fsync group, and the
   replicated log under the simulator at the run's one-step share. *)

open Dex_codec

let now = Unix.gettimeofday

(* Seconds per call of [f], doubling the repetitions until one batch runs
   for at least [min_s]. *)
let per_call ?(min_s = 0.1) f =
  let rec go reps =
    let t0 = now () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = now () -. t0 in
    if dt >= min_s || reps >= 1 lsl 24 then dt /. float_of_int reps else go (2 * reps)
  in
  go 1

(* Frame encode and incremental decode, ns per message. *)
let codec (c : 'a Codec.t) (samples : 'a list) =
  match Array.of_list samples with
  | [||] -> (0.0, 0.0)
  | arr ->
    let n = float_of_int (Array.length arr) in
    let enc =
      per_call (fun () ->
          Array.iter (fun m -> ignore (Sys.opaque_identity (Codec.Frame.to_string c m))) arr)
    in
    let frames = Array.map (fun m -> Bytes.of_string (Codec.Frame.to_string c m)) arr in
    let reader = Codec.Frame.Reader.create c in
    let dec =
      per_call (fun () ->
          Array.iter
            (fun b ->
              ignore (Sys.opaque_identity (Codec.Frame.Reader.feed reader b (Bytes.length b))))
            frames)
    in
    (enc /. n *. 1e9, dec /. n *. 1e9)

(* Encode of a blob into n fragments, and decode from the k fragments that
   leave out data fragment 0 (so the decode has to reconstruct), in us. *)
let rs ~n ~t blob =
  let open Dex_erasure in
  let k = Rs.data_count ~n ~t in
  let enc = per_call (fun () -> ignore (Sys.opaque_identity (Rs.encode ~k ~n blob))) in
  let frags = Rs.encode ~k ~n blob in
  let subset = List.init k (fun i -> (i + 1, frags.(i + 1))) in
  let len = String.length blob in
  let dec = per_call (fun () -> ignore (Sys.opaque_identity (Rs.decode ~k ~n ~len subset))) in
  (enc *. 1e6, dec *. 1e6)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* Median time of one group commit — [group] appends of [record_bytes]
   then a sync — in us, over 200 groups or one second. *)
let wal ~dir ~record_bytes ~group =
  let open Dex_store in
  rm_rf dir;
  let w = (Wal.open_ dir).Wal.wal in
  let record = String.make (max 1 record_bytes) 'r' in
  let times = ref [] in
  let t_end = now () +. 1.0 in
  let rec go i =
    if i < 200 && now () < t_end then begin
      let t0 = now () in
      for _ = 1 to max 1 group do
        ignore (Wal.append w record)
      done;
      ignore (Wal.sync w);
      times := (now () -. t0) :: !times;
      go (i + 1)
    end
  in
  go 0;
  Wal.close w;
  rm_rf dir;
  let a = Array.of_list !times in
  Array.sort Float.compare a;
  match Perfbench.Pct.at a 500 with Some s -> s *. 1e6 | None -> 0.0

(* One run of [slots] log slots under the simulator, in us per slot. A
   slot's replicas all propose the same value with probability
   [one_step_frac], else the replicas split over two values. *)
let smr ~n ~t ~one_step_frac ~seed =
  let module Log = Svc.Log in
  let slots = 32 in
  let prng = Dex_stdext.Prng.create ~seed in
  let agree = Array.init slots (fun _ -> Dex_stdext.Prng.float prng 1.0 < one_step_frac) in
  let pair = Dex_condition.Pair.freq ~n ~t in
  let cfg = Log.config ~pair:(fun _ -> pair) ~slots ~n ~t () in
  let make p =
    Log.replica cfg ~me:p
      ~propose:(fun ~slot -> if agree.(slot) then 100 + slot else 100 + slot + (1000 * (p mod 2)))
      ~on_commit:(fun ~slot:_ ~provenance:_ _ -> ())
  in
  let run () = ignore (Dex_net.Runner.run (Dex_net.Runner.config ~extra:(Log.extra cfg) ~n make)) in
  per_call ~min_s:0.2 run /. float_of_int slots *. 1e6
