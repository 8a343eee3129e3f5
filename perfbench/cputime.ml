(* CPU clocks. [thread_s] is the calling thread's own CPU time
   (CLOCK_THREAD_CPUTIME_ID): it does not advance while the thread waits
   for the runtime lock, a socket or the core. [process_s] is the whole
   process's user plus system time. *)

external thread_s : unit -> (float[@unboxed]) = "perfbench_thread_cpu" "perfbench_thread_cpu_unboxed"
[@@noalloc]

let process_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
