#!/usr/bin/env python3
"""SIGPROF program-counter sampler: where does a program spend its CPU?

For machines without `perf` or a PMU. `gprof -pg` is no substitute here: its
mcount call in every function distorts the small, inlined-heavy functions a
simulator step is made of. This script instead

  1. builds a ~40-line LD_PRELOAD library with `cc` into a temp dir,
  2. runs COMMAND under it: a process-wide ITIMER_PROF timer raises SIGPROF
     every millisecond of CPU time (all threads), and the handler records the
     interrupted program counter,
  3. folds the samples by function and by source line with `addr2line`,
     and with --threads K also per thread (each thread's CPU-seconds and
     its top K functions; threads with under 1% of the samples are pooled
     as thread #-1). --idle REGEX names the functions that only
     wait (a spinning pool's loop, say); each thread then also reports the
     CPU-seconds it spent outside them, e.g. per row band of `threads=4`:

    python3 scripts/pc_sample.py --threads 5 \
        --idle 'StepPool|atomic_base|\[shared\]' -- \
        build/bench/flov_bench workload=mesh32-gflov-t4

Build the target with `-g -no-pie` (a Release build configured with
`-DCMAKE_CXX_FLAGS="-g -fno-pie" -DCMAKE_EXE_LINKER_FLAGS=-no-pie`), so its
addresses are its link-time ones; samples outside the executable (libc,
libstdc++) are folded under `[shared]`.
Inlined code is charged to the innermost inlined function, at its line.

    python3 scripts/pc_sample.py -- build/bench/flov_bench workload=mesh32-rp-t1

Samples are counts of CPU time, so a threaded run reports the sum over its
threads. The kernel rounds the 1000 Hz timer up to its tick (often
250-300 Hz effective); the header line reports the rate actually reached. Only the
program's own processes are sampled (children inherit LD_PRELOAD, and each
process appends its own samples).
"""

import argparse
import collections
import os
import re
import resource
import shutil
import struct
import subprocess
import sys
import tempfile

TOP_FUNCTIONS = 25
TOP_LINES = 25

SAMPLER_C = r"""
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 20)
static uint64_t pcs[MAX_SAMPLES][2];  /* (thread id, pc) */
static volatile uint32_t n_pcs;

static void on_prof(int sig, siginfo_t* si, void* ctx) {
  (void)sig; (void)si;
  uint32_t i = __atomic_fetch_add(&n_pcs, 1, __ATOMIC_RELAXED);
  if (i >= MAX_SAMPLES) return;
  pcs[i][0] = (uint64_t)syscall(SYS_gettid);
  pcs[i][1] = (uint64_t)((ucontext_t*)ctx)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void pcs_start(void) {
  struct sigaction sa = {0};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, 0);
  struct itimerval it = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &it, 0);
}

__attribute__((destructor)) static void pcs_stop(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, 0);
  const char* out = getenv("PCS_OUT");
  FILE* f = out ? fopen(out, "ab") : 0;
  if (!f) return;
  uint32_t n = n_pcs < MAX_SAMPLES ? n_pcs : MAX_SAMPLES;
  fwrite(pcs, sizeof pcs[0], n, f);
  fclose(f);
}
"""


def build_sampler(tmp):
    src = os.path.join(tmp, "pcs.c")
    lib = os.path.join(tmp, "libpcs.so")
    with open(src, "w") as f:
        f.write(SAMPLER_C)
    subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", lib, src],
                   check=True)
    return lib


def resolve(binary, pcs):
    """Maps each distinct pc to (function, "file:line") with addr2line."""
    uniq = sorted(set(pcs))
    proc = subprocess.run(["addr2line", "-f", "-C", "-e", binary],
                          input="\n".join("%x" % pc for pc in uniq),
                          capture_output=True, text=True, check=True)
    out = proc.stdout.splitlines()
    where = {}
    for k, pc in enumerate(uniq):
        func, loc = out[2 * k], out[2 * k + 1]
        loc = loc.split(" (discriminator")[0]
        if func == "??":
            func, loc = "[shared]", "[shared]"
        where[pc] = (func, loc)
    return where


def print_table(title, counts, total, top):
    print("\n%s (top %d of %d)" % (title, min(top, len(counts)), len(counts)))
    for key, n in counts.most_common(top):
        print("%6.2f%%  %7d  %s" % (100.0 * n / total, n, key))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage="%(prog)s [options] -- COMMAND [ARGS...]")
    ap.add_argument("--threads", type=int, default=0, metavar="K",
                    help="also list each thread's samples and top K "
                         "functions")
    ap.add_argument("--repeat", type=int, default=1, metavar="N",
                    help="run the command N times and pool the samples "
                         "(threads are matched by creation order)")
    ap.add_argument("--idle", metavar="REGEX",
                    help="functions that only wait: --threads also reports "
                         "each thread's CPU time outside them")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command to run")
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    binary = shutil.which(cmd[0]) or cmd[0]

    tmp = tempfile.mkdtemp(prefix="pc_sample.")
    try:
        lib = build_sampler(tmp)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        tids, pcs = [], []
        for k in range(args.repeat):
            out = os.path.join(tmp, "pcs%d.bin" % k)
            env = dict(os.environ, LD_PRELOAD=lib, PCS_OUT=out)
            rc = subprocess.run(cmd, env=env).returncode
            raw = open(out, "rb").read() if os.path.exists(out) else b""
            words = struct.unpack("<%dQ" % (len(raw) // 8), raw)
            # Thread ids grow in creation order: rank them within the run.
            # Threads with under 1% of the run's samples (short-lived
            # helpers) are pooled as rank -1, so ranks match across runs.
            count = collections.Counter(words[0::2])
            main_threads = sorted(t for t, c in count.items()
                                  if 100 * c >= len(words) // 2)
            rank = {t: i for i, t in enumerate(main_threads)}
            tids += [rank.get(t, -1) for t in words[0::2]]
            pcs += words[1::2]
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu_s = (after.ru_utime + after.ru_stime
                 - before.ru_utime - before.ru_stime)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not pcs:
        sys.exit("no samples (did the command run at all? rc=%d)" % rc)
    where = resolve(binary, pcs)
    by_func = collections.Counter()
    by_line = collections.Counter()
    by_thread = collections.defaultdict(collections.Counter)
    for tid, pc in zip(tids, pcs):
        func, loc = where[pc]
        by_func[func] += 1
        by_line["%s  %s" % (loc, func)] += 1
        by_thread[tid][func] += 1
    # The kernel rounds the timer up to its tick, so the real rate can be
    # well below 1000 Hz; shares are unaffected.
    print("%d samples over %.2f CPU-s (%.0f Hz effective); last run exited %d"
          % (len(pcs), cpu_s, len(pcs) / cpu_s, rc))
    print_table("by function", by_func, len(pcs), TOP_FUNCTIONS)
    print_table("by line", by_line, len(pcs), TOP_LINES)
    if args.threads:
        rate = len(pcs) / cpu_s
        for tid in sorted(by_thread):  # creation order
            n = sum(by_thread[tid].values())
            title = "thread #%d: %d samples, %.3f CPU-s" % (tid, n,
                                                             n / rate)
            if args.idle:
                busy = sum(k for f, k in by_thread[tid].items()
                           if not re.search(args.idle, f))
                title += ", %.3f CPU-s busy" % (busy / rate)
            print_table(title, by_thread[tid], n, args.threads)
    sys.exit(rc)


if __name__ == "__main__":
    main()
