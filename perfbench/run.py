#!/usr/bin/env python3
"""Build and run the strato end-to-end benchmark.

    python3 perfbench/run.py --workload socket-medium --seed 7 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (and the library layers it drives, from src/) into
.bench_build/perfbench on first use, runs one workload in a child
process, and prints two lines: a diagnostics object (host-speed loop
before/after, peak thread count, round count) and, last, the result
object {"correct", "attempted", "failed", "metrics"} whose metric names
and units are exactly those BENCHMARK.json lists for the trace mode.

While the child runs, its `Threads:` count is sampled from /proc; the
run fails when it ever exceeds the thread budget (default: the CPUs this
process may run on). Exit status is 0 only for a correct run.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ("socket-medium", "fleet-1m")
RUN_TIMEOUT_S = 170
# One set-up takes well under a millisecond, and its median moves with
# per-process state (run to run up to 2x, steady within a process). So
# setup_s is the median over the main run and these fresh processes.
SETUP_PROCESSES = 8


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally (a no-op when current)."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        if not (BUILD / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                       check=True, stdout=sys.stderr)


def spec_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def thread_count(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_child(argv, thread_budget):
    """Run the harness; returns (exit code, parsed last line, peak threads).

    Every sample counts. The harness waits until a phase's joined threads
    are gone before the next phase starts its own.
    """
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    peak = 0
    deadline = time.monotonic() + RUN_TIMEOUT_S
    while child.poll() is None:
        peak = max(peak, thread_count(child.pid))
        if peak > thread_budget or time.monotonic() > deadline:
            child.kill()
            child.wait()
            why = (f"{peak} threads > budget {thread_budget}"
                   if peak > thread_budget else "timed out")
            log(f"run stopped: {why}")
            return 1, None, peak
        time.sleep(0.05)
    out = child.stdout.read().strip().splitlines()
    child.stdout.close()
    result = json.loads(out[-1]) if out else None
    return child.returncode, result, peak


def run(workload, seed, seconds, trace, extra=(), thread_budget=None):
    """One benchmark run; returns (exit code, result, diagnostics)."""
    if thread_budget is None:
        thread_budget = len(os.sched_getaffinity(0))
    argv = [str(BINARY), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            *extra]
    setups = []
    peak = 0
    for _ in range(0 if trace else SETUP_PROCESSES):
        code, result, threads = run_child(
            argv + ["--setup-only", "--pool-mib", "1"], thread_budget)
        peak = max(peak, threads)
        if code != 0 or result is None:
            return code or 1, None, {"threads_max": peak}
        setups.append(result["metrics"]["setup_s"]["value"])
    code, result, threads = run_child(argv, thread_budget)
    peak = max(peak, threads)
    if result is None:
        return code or 1, None, {"threads_max": peak}
    diagnostics = dict(result.pop("diagnostics", {}))
    diagnostics.update(threads_max=peak, thread_budget=thread_budget,
                       workload=workload, seed=seed)
    if setups and "setup_s" in result["metrics"]:
        setups.append(result["metrics"]["setup_s"]["value"])
        diagnostics["setup_s_per_process"] = setups
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    want = spec_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if code == 0 and got != want:
        log(f"metric names/units differ from BENCHMARK.json: {got} != {want}")
        code = code or 1
    return code, result, diagnostics


def selftest():
    """Tiny-size checks of the harness itself; exit 0 when all pass."""
    small = ["--pool-mib", "2", "--fleet-flows", "4000"]
    failures = []

    def check(ok, what):
        log(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        extra = list(small)
        if w == "fleet-1m":
            # The committed digest pins the full shape only. A tiny run
            # expecting digest 0 must fail every flow; its diagnostics
            # name the real digest, which the runs below then expect.
            code, res, diag = run(w, 3, 0.2, False, extra +
                                  ["--expect-digest", "0"])
            check(code != 0 and res is not None
                  and res["failed"] == res["attempted"],
                  f"{w}: a wrong expected digest fails every flow")
            extra += ["--expect-digest", diag.get("fleet_digest", "0")]
        else:
            code, res, _ = run(w, 3, 0.2, False, extra + ["--corrupt-digest"])
            check(code != 0 and res is not None and res["failed"] >= 1
                  and not res["correct"],
                  f"{w}: a corrupted expected digest is a failed op")
        for trace in (False, True):
            code, res, diag = run(w, 3, 0.2, trace, extra)
            names = spec_metrics(trace)
            check(code == 0 and res is not None and res["correct"]
                  and set(res["metrics"]) == set(names)
                  and all(res["metrics"][n]["unit"] == u
                          for n, u in names.items()),
                  f"{w} trace={int(trace)}: every metric with its unit")
    code, _, diag = run("socket-medium", 3, 1.0, False, small,
                        thread_budget=1)
    check(code != 0 and diag["threads_max"] > 1,
          "threads guard trips at a budget of 1")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    code, result, diagnostics = run(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    print(json.dumps({"diagnostics": diagnostics}))
    if result is None:
        log("no result from the harness")
        return 1
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
