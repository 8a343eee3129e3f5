(* The measured window is cut into parts; the end-to-end figures are taken
   over a selection of them.

   On a shared virtual machine the hypervisor takes CPU time away from the
   guest (steal) in stretches of seconds, and a part that lost time on
   either pinned core shows a lower throughput and a longer tail that are
   not the program's. So the figures come from the quiet parts, those with
   at most [quiet_steal] steal on every pinned core, when at least a third
   of the parts are quiet; otherwise from the third with the least steal.
   The selection is made per stratum: kv-paced-n7's window has three
   (before the kill, replica down, after the restart), which must stay
   equally represented. A stratum of fewer than three parts is used whole,
   since picking one of two long parts would pick between the start and
   the end of the run. *)

type t = {
  dur : float;  (** seconds *)
  ops : int;  (** replies completed in the part *)
  cpu_s : float;  (** deployment-process CPU time in the part *)
  lat : float array;  (** sorted latencies (ms) of the requests due in the part *)
  steal : float list;  (** steal share of each pinned CPU *)
  stratum : int;
  traced : bool;  (** tracing was on during the part *)
}

let quiet_steal = 0.02

let steal p = List.fold_left Float.max 0.0 p.steal

let quiet p = steal p <= quiet_steal

let select parts =
  let strata = List.sort_uniq compare (List.map (fun p -> p.stratum) parts) in
  List.concat_map
    (fun s ->
      let ps = List.filter (fun p -> p.stratum = s) parts in
      let need = (List.length ps + 2) / 3 in
      let q = List.filter quiet ps in
      if List.length ps < 3 then ps
      else if List.length q >= need then q
      else
        List.filteri (fun i _ -> i < need) (List.stable_sort (fun a b -> Float.compare (steal a) (steal b)) ps))
    strata

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  Option.value ~default:0.0 (Pct.at a 500)

let sum f parts = List.fold_left (fun acc p -> acc +. f p) 0.0 parts

let throughput parts = Pct.per_f ~base:(sum (fun p -> p.dur) parts) (sum (fun p -> float_of_int p.ops) parts)

let cpu_us_per_op parts =
  Pct.per_f ~base:(sum (fun p -> float_of_int p.ops) parts) (sum (fun p -> p.cpu_s) parts *. 1e6)

(* The tail percentile the end-to-end figures report, in per mille. It is
   the p90, not the p99: on blob-coded-starved the slowest requests come in
   a few stalls per window. Over sets of 50 s runs the quartile spread of
   the p99 was 0.17-0.34 of its median and that of the p95 up to 0.21, too
   wide for a 0.25 regression bound; the median of the parts' p90s spread
   0.07-0.12. *)
let tail_permille = 900

(* The part's p90; [None] when fewer than ten samples lie beyond it (under
   100 samples), so that the median never mixes p90s with lower
   percentiles. *)
let tail p =
  if Pct.beyond ~n:(Array.length p.lat) tail_permille >= 10 then Pct.at p.lat tail_permille else None

let p50 p = Pct.at p.lat 500

(* Medians over the parts that have the percentile; [None] if none has. *)
let median_of f parts = match List.filter_map f parts with [] -> None | l -> Some (median l)

(* Tracing overhead from one deployment whose parts alternate traced and
   untraced: the median over adjacent (traced, untraced) pairs of the
   relative change, signed so that positive means tracing costs. *)
let overhead parts =
  let rec pairs = function
    | a :: b :: rest when a.traced <> b.traced ->
      (if a.traced then (a, b) else (b, a)) :: pairs rest
    | _ :: rest -> pairs rest
    | [] -> []
  in
  let rel f sign =
    median
      (List.filter_map
         (fun (on, off) ->
           match (f on, f off) with
           | Some x, Some base when base > 0.0 -> Some (sign *. (x -. base) /. base)
           | _ -> None)
         (pairs parts))
  in
  let per_part g p = if p.ops > 0 then Some (g [ p ]) else None in
  [ ("trace.overhead_throughput_frac", rel (per_part throughput) (-1.0));
    ("trace.overhead_latency_p50_frac", rel p50 1.0);
    ("trace.overhead_cpu_frac", rel (per_part cpu_us_per_op) 1.0) ]
