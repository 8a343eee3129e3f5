(* Percentile and ratio rules shared by every metric the benchmark reports.

   Percentiles are in per mille and use the nearest-rank definition on the
   sorted samples, in integer arithmetic so that the rank of p99 over 1000
   samples is exactly 990 (float [0.99 *. 1000.] is not). *)

let permilles = [ 999; 990; 950; 900; 750; 500 ]

(* 1-based nearest rank of the [p]-per-mille percentile of [n] samples. *)
let rank ~n p = ((p * n) + 999) / 1000

(* Samples strictly above the percentile's rank. *)
let beyond ~n p = n - rank ~n p

(* The highest reportable percentile: the largest candidate with at least
   ten samples beyond it, so a tail figure never rests on a handful of
   outliers. [None] below 20 samples. *)
let tail_permille n = List.find_opt (fun p -> beyond ~n p >= 10) permilles

(* The percentile reported under a metric named for [want] (e.g. 990 for
   [latency_p99_ms]): [want] itself when the sample supports it, else the
   highest percentile that does. *)
let reported ~want n =
  match tail_permille n with Some p -> Some (min want p) | None -> None

(* [sorted] ascending; [None] when empty. *)
let at sorted p =
  let n = Array.length sorted in
  if n = 0 then None else Some sorted.(max 0 (rank ~n p - 1))

(* [x] per unit of [base]; a zero base (no operations, no slots) reads 0
   rather than NaN or infinity, so every reported figure stays finite. *)
let per ~base x = if base <= 0 then 0.0 else x /. float_of_int base

let per_f ~base x = if base <= 0.0 then 0.0 else x /. base
