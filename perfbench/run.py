"""rankedrange benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation runs in a fresh worker
process (``worker.py``) against the checkout's ``src/``.  With ``--trace 0``
the run times several cold set-ups, then repeats untraced executions until
S seconds have passed, checks every output, and prints the end-to-end
metrics.  With ``--trace 1`` it makes one untraced and one traced execution
of the same inputs, checks that their reports are identical, and prints
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md
beside this file for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
WORKER = os.path.join(HERE, "worker.py")

# one BLAS thread (at most nproc): a second thread made the per-sample
# loop slower and less steady on a 2-core machine
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# the whole run, workers included, stays inside this many seconds
DEADLINE_S = 170.0
# executions per run at least; the machine's speed drifts over seconds, so
# one 10 s execution alone reads up to a quarter off its neighbours
MIN_EXECUTIONS = 2

# workload outputs printed and checked, but not declared in BENCHMARK.json
OUTPUTS = {
    "topk_accuracy": ("fraction", "higher"),
    "average_precision": ("fraction", "higher"),
    "test_accuracy": ("fraction", "higher"),
    "final_objective": ("objective", "lower"),
    "noise_count_rel_err": ("fraction", "lower"),
}


def declared(kind: str) -> dict:
    """The ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json, by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)[kind]}


class WorkerError(RuntimeError):
    pass


class Operations:
    """Attempted and failed operations; an operation fails when its worker
    raises or exits non-zero, or when its output check fails."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list = []

    def record(self, problems: list) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems


class Runner:
    """Starts worker processes and keeps the run inside its deadline."""

    def __init__(self, workload: str, seed: int, inputs: dict, started: float):
        self.request = {"workload": workload, "seed": seed, "inputs": inputs,
                        "src": SRC}
        self.deadline = started + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def __call__(self, mode: str) -> dict:
        """Run one worker; returns its result plus ``peak_rss_mb``."""
        run_dir = tempfile.mkdtemp(prefix=f"{mode}-", dir=WORK)
        try:
            with open(os.path.join(run_dir, "request.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(self.request, fh)
            err_path = os.path.join(run_dir, "stderr.txt")
            with open(err_path, "wb") as err:
                proc = subprocess.Popen(
                    [sys.executable, WORKER, mode, run_dir], cwd=run_dir,
                    env=self.env, stdout=subprocess.DEVNULL, stderr=err)
                status, usage = self._wait(proc)
            if status != 0:
                with open(err_path, encoding="utf-8", errors="replace") as fh:
                    tail = fh.read()[-2000:]
                raise WorkerError(f"{mode} worker exited {status}:\n{tail}")
            with open(os.path.join(run_dir, "result.json"), encoding="utf-8") as fh:
                result = json.load(fh)
            result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
            return result
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    def _wait(self, proc):
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.monotonic() > self.deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise WorkerError("worker killed at the run deadline")
            time.sleep(0.02)

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def git_commit() -> str:
    """The checked-out commit, read from the checkout's own .git (the
    benchmark may run where there is none)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def print_env(env: dict) -> None:
    record = {
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_seen": env["blas"]["threads"],
        "nproc": len(os.sched_getaffinity(0)),
        "python": env["python"],
        "numpy": env["numpy"],
        "blas": env["blas"]["vendor"],
        "commit": git_commit(),
    }
    print("env: " + json.dumps(record, sort_keys=True))


def measure(runner: Runner, workload, seconds: float, spec: dict) -> tuple:
    """Cold set-ups, then untraced executions for ``seconds``."""
    ops = Operations()
    setups, runs = [], []
    for _ in range(workload.setup_repeats):
        try:
            setups.append(runner("setup"))
            ops.record([])
        except WorkerError as exc:
            ops.record([str(exc)])
    t0 = time.monotonic()
    while len(runs) < MIN_EXECUTIONS or time.monotonic() - t0 < seconds:
        if runs and runner.time_left() < 2.5 * runs[-1]["outcome"]["run_s"]:
            break
        try:
            result = runner("run")
        except WorkerError as exc:
            ops.record([str(exc)])
            break
        ops.record(result["problems"])
        runs.append(result)
    if not setups or not runs:
        raise WorkerError("no successful set-up or execution:\n" +
                          "\n".join(ops.problems))
    digests = {r["outcome"]["digest"] for r in runs}
    ops.record([f"{len(digests)} different reports from one seed"]
               if len(digests) > 1 else [])
    first = runs[0]["outcome"]
    samples = {
        "run_s": [r["outcome"]["run_s"] for r in runs],
        "setup_s": [s["setup_s"] for s in setups],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["quality"] = first[workload.quality]
    print_env(runs[0]["env"])
    for name, values in samples.items():
        print(f"{name}: median {metrics[name]:.6g} {spec[name]['unit']} over "
              f"n={len(values)} ({spec[name]['better']} is better); "
              f"samples {[round(v, 4) for v in values]}")
    print(f"quality ({workload.quality}): {metrics['quality']:.6g} "
          f"({spec['quality']['better']} is better)")
    for name, (unit, better) in OUTPUTS.items():
        if name in first:
            print(f"{name}: {first[name]:.6g} {unit} ({better} is better)")
    details = {k: v for k, v in first.items()
               if k not in OUTPUTS and k not in ("digest", "run_s")}
    print("outputs: " + json.dumps(details, sort_keys=True))
    return ops, metrics


def trace(runner: Runner, workload) -> tuple:
    """One untraced and one traced execution of the same inputs."""
    ops = Operations()
    untraced = runner("run")
    ops.record(untraced["problems"])
    traced = runner("trace")
    if traced["outcome"]["digest"] != untraced["outcome"]["digest"]:
        traced["problems"].append("traced report differs from the untraced report")
    ops.record(traced["problems"])
    run_s = untraced["outcome"]["run_s"]
    metrics = dict(traced["layers"])
    metrics["process.cpu_s"] = untraced["cpu_s"]
    metrics["process.cpu_util"] = untraced["cpu_s"] / run_s
    metrics["process.blas_threads"] = (untraced["env"]["blas"]["threads"]
                                       or BLAS_THREADS)
    metrics["trace.overhead_s"] = traced["outcome"]["run_s"] - run_s
    print_env(untraced["env"])
    print(f"untraced run_s {run_s:.6g} s, traced run_s "
          f"{traced['outcome']['run_s']:.6g} s")
    for name, st in traced["span_stats"].items():
        tail = (f", p{st['tail_p']:g} {st['tail'] * 1e6:.1f} us"
                if "tail_p" in st else "")
        print(f"span {name}: n={st['n']} median {st['median'] * 1e6:.1f} us{tail}")
    return ops, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "rankedrange", "__init__.py")):
        print(f"error: no rankedrange sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    inputs = workload.prepare(args.seed, WORK)
    runner = Runner(workload.name, args.seed, inputs, started)
    spec = declared("per_layer" if args.trace else "end_to_end")
    try:
        if args.trace:
            ops, values = trace(runner, workload)
        else:
            ops, values = measure(runner, workload, args.seconds, spec)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(values) != set(spec):
        print(f"error: measured {sorted(values)}, BENCHMARK.json declares "
              f"{sorted(spec)}", file=sys.stderr)
        return 1
    for problem in ops.problems:
        print(f"check failed: {problem}")
    print(f"failed_frac: {ops.failed / ops.attempted:.6g} ({ops.failed} of "
          f"{ops.attempted} operations; lower is better)")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": spec[name]["unit"]}
                    for name in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
