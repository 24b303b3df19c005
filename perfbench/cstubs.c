/* What the benchmark needs from the OS that OCaml's Unix module lacks.
   Linux only; no-ops where the calls do not exist. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

/* TCP_QUICKACK for the client sockets: acknowledge received data at
   once (README, Delayed ACKs). */
value perfbench_quickack(value fd)
{
#ifdef TCP_QUICKACK
  int one = 1;
  setsockopt(Int_val(fd), IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
#endif
  return Val_unit;
}

/* Idle-class spinners, one per CPU the process may run on. A thread
   under SCHED_IDLE runs only when no other thread wants its CPU and
   gives way the moment one wakes up, so it takes no time from the
   servers; it only keeps the virtual CPU from halting between
   requests (README, Halted vCPUs). A thread that cannot enter
   SCHED_IDLE exits at once instead of spinning at normal priority. */

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>

#define MAX_SPINNERS 64
static atomic_int spinning;
static pthread_t spinners[MAX_SPINNERS];
static int n_spinners;

static void *spin(void *arg)
{
  sigset_t all;
  sigfillset(&all);
  pthread_sigmask(SIG_BLOCK, &all, NULL);
  /* one spinner per CPU: left to itself the scheduler sometimes puts
     two on one CPU and lets the other halt */
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET((int)(intptr_t)arg, &one);
  pthread_setaffinity_np(pthread_self(), sizeof one, &one);
  struct sched_param p = { 0 };
  if (sched_setscheduler(0, SCHED_IDLE, &p) != 0) return NULL;
  while (atomic_load_explicit(&spinning, memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  return NULL;
}

value perfbench_idle_spin_start(value unit)
{
  (void)unit;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_int(0);
  atomic_store(&spinning, 1);
  n_spinners = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && n_spinners < MAX_SPINNERS; cpu++)
    if (CPU_ISSET(cpu, &set)
        && pthread_create(&spinners[n_spinners], NULL, spin, (void *)(intptr_t)cpu) == 0)
      n_spinners++;
  return Val_int(n_spinners);
}

value perfbench_idle_spin_stop(value unit)
{
  (void)unit;
  atomic_store(&spinning, 0);
  for (int i = 0; i < n_spinners; i++) pthread_join(spinners[i], NULL);
  n_spinners = 0;
  return Val_unit;
}
#else
value perfbench_idle_spin_start(value unit) { (void)unit; return Val_int(0); }
value perfbench_idle_spin_stop(value unit) { (void)unit; return Val_unit; }
#endif
