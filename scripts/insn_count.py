#!/usr/bin/env python3
"""Exact instructions per call of one function, split by callee.

For machines without `perf` or a PMU, where pc_sample.py can say where the
time goes but not how many instructions a step executes. This script

  1. builds a small ptrace tracer with `cc` into a temp dir,
  2. runs COMMAND under it with a breakpoint at the entry of --function:
     each hit (after the first --skip ones) is single-stepped until the
     call returns to its caller, for --calls calls; then the breakpoint is
     removed and the command runs on untraced,
  3. prints the instructions per call (mean, min, median, max) and splits
     them into the function's own code (what was inlined into it) and each
     function it calls, inclusive of what those call in turn.

It exits 0 once a call was counted, whatever the command's exit status
(printed in the header), and 1 if none was.

    python3 scripts/insn_count.py --function flov::Router::step -- \\
        build-nopie/examples/flov_sim_cli scheme=rp inj=0.05 \\
        warmup=1000 cycles=2000

The target must be a `-no-pie` executable with a symbol table (a Release
build configured with `-DCMAKE_CXX_FLAGS="-g -fno-pie"
-DCMAKE_EXE_LINKER_FLAGS=-no-pie`), so the function's link-time address
is where it runs, and single-threaded (`threads=1`, `jobs=1`): only the
main thread is traced. The calls traced are the same ones on every run of a
deterministic command, so two builds compare call for call. Each traced
instruction costs a ptrace round trip (a few microseconds), so keep
--calls in the thousands.
"""

import argparse
import bisect
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

TOP_CALLEES = 20

TRACER_C = r"""
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/ptrace.h>
#include <sys/user.h>
#include <sys/wait.h>
#include <unistd.h>

/* tracer ENTRY END SKIP CALLS OUT -- COMMAND...
 * OUT gets one "call N" line per traced call (its instruction count), then
 * one "callee ADDR N" line per address the function's body called or
 * jumped out to (N = instructions executed outside the body from there). */

#define MAX_CALLEES 4096
static uint64_t callee_addr[MAX_CALLEES], callee_n[MAX_CALLEES];
static int n_callees;

static void add_callee(uint64_t addr, uint64_t n) {
  for (int i = 0; i < n_callees; ++i) {
    if (callee_addr[i] == addr) { callee_n[i] += n; return; }
  }
  if (n_callees == MAX_CALLEES) return;
  callee_addr[n_callees] = addr;
  callee_n[n_callees++] = n;
}

static int status;  /* the command's last wait status */

static int wait_stop(pid_t pid) {
  if (waitpid(pid, &status, 0) < 0) { perror("waitpid"); exit(2); }
  if (WIFEXITED(status) || WIFSIGNALED(status)) return -1;
  return WSTOPSIG(status);
}

int main(int argc, char** argv) {
  if (argc < 8) return 2;
  const uint64_t entry = strtoull(argv[1], 0, 0), end = strtoull(argv[2], 0, 0);
  const long skip = atol(argv[3]), calls = atol(argv[4]);
  FILE* out = fopen(argv[5], "w");
  if (!out) { perror(argv[5]); return 2; }
  char** cmd = argv + 7;
  pid_t pid = fork();
  if (pid == 0) {
    ptrace(PTRACE_TRACEME, 0, 0, 0);
    execvp(cmd[0], cmd);
    perror(cmd[0]);
    _exit(127);
  }
  if (wait_stop(pid) != SIGTRAP) return 2;  /* stopped at exec */
  ptrace(PTRACE_SETOPTIONS, pid, 0, PTRACE_O_EXITKILL);
  const long orig = ptrace(PTRACE_PEEKTEXT, pid, (void*)entry, 0);
  const long trap = (orig & ~0xffL) | 0xcc;
  ptrace(PTRACE_POKETEXT, pid, (void*)entry, (void*)trap);
  long hits = 0, traced = 0;
  int sig = 0;
  for (;;) {
    ptrace(PTRACE_CONT, pid, 0, (void*)(long)sig);
    sig = wait_stop(pid);
    if (sig < 0) break;
    struct user_regs_struct r;
    ptrace(PTRACE_GETREGS, pid, 0, &r);
    if (sig != SIGTRAP || r.rip - 1 != entry) continue;  /* pass it on */
    sig = 0;
    r.rip = entry;
    ptrace(PTRACE_SETREGS, pid, 0, &r);
    ptrace(PTRACE_POKETEXT, pid, (void*)entry, (void*)orig);
    if (hits++ < skip) {
      ptrace(PTRACE_SINGLESTEP, pid, 0, 0);
      if (wait_stop(pid) < 0) break;
      ptrace(PTRACE_POKETEXT, pid, (void*)entry, (void*)trap);
      continue;
    }
    /* The return address is on top of the stack at entry; the call is over
     * once rip reaches it with that slot popped. */
    const uint64_t ret = (uint64_t)ptrace(PTRACE_PEEKDATA, pid, (void*)r.rsp, 0);
    const uint64_t ret_rsp = r.rsp + 8;
    uint64_t n = 0, out_n = 0, callee = 0;
    int in_body = 1;
    for (;;) {
      if (r.rip == ret && r.rsp == ret_rsp) break;
      ++n;
      const int body = r.rip >= entry && r.rip < end;
      if (!body) {
        if (in_body) { callee = r.rip; out_n = 0; }
        ++out_n;
      } else if (!in_body) {
        add_callee(callee, out_n);
      }
      in_body = body;
      ptrace(PTRACE_SINGLESTEP, pid, 0, 0);
      if (wait_stop(pid) < 0) { fprintf(stderr, "exited mid-call\n"); return 2; }
      ptrace(PTRACE_GETREGS, pid, 0, &r);
    }
    if (!in_body) add_callee(callee, out_n);
    fprintf(out, "call %llu\n", (unsigned long long)n);
    if (++traced == calls) break;
    ptrace(PTRACE_POKETEXT, pid, (void*)entry, (void*)trap);
  }
  for (int i = 0; i < n_callees; ++i) {
    fprintf(out, "callee %llu %llu\n", (unsigned long long)callee_addr[i],
            (unsigned long long)callee_n[i]);
  }
  fclose(out);
  if (traced == calls) {  /* breakpoint already restored: run on untraced */
    ptrace(PTRACE_DETACH, pid, 0, 0);
    waitpid(pid, &status, 0);
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}
"""


def symbols(binary):
    """Sorted (address, size, name) of the executable's code symbols."""
    proc = subprocess.run(["nm", "-C", "-S", "--defined-only", binary],
                          capture_output=True, text=True, check=True)
    syms = []
    for line in proc.stdout.splitlines():
        parts = line.split(None, 3)
        if len(parts) == 4 and parts[2] in "TtWw":
            syms.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
    syms.sort()
    return syms


def find_function(syms, name):
    def bare(sym):  # "ns::Cls::f(int) const" -> "ns::Cls::f"
        return sym.split("(")[0]
    # GCC's split-off parts ("f(int) [clone .cold]") count as callees.
    hits = [s for s in syms if "[clone" not in s[2] and (
        bare(s[2]) == name or bare(s[2]).endswith("::" + name))]
    if len(hits) != 1:
        sys.exit("--function %s matches %d symbols%s" % (
            name, len(hits),
            "".join("\n  " + s[2] for s in hits[:10])))
    return hits[0]


def is_fixed_address(binary):
    with open(binary, "rb") as f:
        header = f.read(18)
    return header[:4] == b"\x7fELF" and header[16] == 2  # ET_EXEC


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage="%(prog)s --function SYMBOL [options] -- COMMAND [ARGS...]")
    ap.add_argument("--function", required=True, metavar="SYMBOL",
                    help="function to count, e.g. flov::Router::step")
    ap.add_argument("--skip", type=int, default=0, metavar="N",
                    help="let the first N calls run untraced")
    ap.add_argument("--calls", type=int, default=1000, metavar="N",
                    help="trace this many calls")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command to run")
    if args.calls < 1 or args.skip < 0:
        ap.error("--calls must be at least 1 and --skip at least 0")
    binary = shutil.which(cmd[0]) or cmd[0]
    if not os.path.isfile(binary):
        sys.exit("%s: no such executable" % binary)
    if not is_fixed_address(binary):
        sys.exit("%s is not a -no-pie executable" % binary)
    syms = symbols(binary)
    entry, size, name = find_function(syms, args.function)

    tmp = tempfile.mkdtemp(prefix="insn_count.")
    try:
        src = os.path.join(tmp, "tracer.c")
        tracer = os.path.join(tmp, "tracer")
        out = os.path.join(tmp, "out.txt")
        with open(src, "w") as f:
            f.write(TRACER_C)
        subprocess.run(["cc", "-O2", "-o", tracer, src], check=True)
        rc = subprocess.run([tracer, str(entry), str(entry + size),
                             str(args.skip), str(args.calls), out, "--"]
                            + cmd).returncode
        lines = open(out).read().splitlines() if os.path.exists(out) else []
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    per_call = [int(l.split()[1]) for l in lines if l.startswith("call ")]
    if not per_call:
        sys.exit("no call of %s was traced (tracer exit %d)" % (name, rc))
    starts = [s[0] for s in syms]
    by_callee = {}
    for l in lines:
        if not l.startswith("callee "):
            continue
        _, addr, n = l.split()
        addr, n = int(addr), int(n)
        k = bisect.bisect_right(starts, addr) - 1
        label = "[shared or plt]"
        if k >= 0 and addr < syms[k][0] + max(syms[k][1], 1):
            label = syms[k][2]
        by_callee[label] = by_callee.get(label, 0) + n
    calls = len(per_call)
    total = sum(per_call)
    print("%s: %d calls, %.1f instructions per call (min %d, median %g, "
          "max %d); the command exited %d" % (
              name, calls, total / calls, min(per_call),
              statistics.median(per_call), max(per_call), rc))
    own = total - sum(by_callee.values())
    print("%10.1f  %5.1f%%  [own code, inlined callees included]" %
          (own / calls, 100.0 * own / total))
    for label, n in sorted(by_callee.items(), key=lambda kv: -kv[1])[
            :TOP_CALLEES]:
        print("%10.1f  %5.1f%%  %s" % (n / calls, 100.0 * n / total, label))


if __name__ == "__main__":
    main()
