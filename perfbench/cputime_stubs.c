/* Per-thread CPU time for the tracer: the interval a replica thread spends
   in a send or a handler, without the time other threads ran while it
   waited for the OCaml runtime lock or the core. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double perfbench_thread_cpu_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value perfbench_thread_cpu(value unit)
{
  return caml_copy_double(perfbench_thread_cpu_unboxed(unit));
}
