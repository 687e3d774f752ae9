"""One benchmark operation in a fresh process.

    python3 perfbench/worker.py MODE RUN_DIR

MODE is ``setup`` (time the cold import plus input preparation), ``run``
(one untraced execution) or ``trace`` (one execution with every layer
boundary wrapped).  RUN_DIR holds ``request.json`` from ``run.py``; the
result goes to ``result.json`` there.  The process runs with RUN_DIR as its
working directory, so nothing the program writes lands in the repository.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time

from spans import Tracer, summarize
from workloads import WORKLOADS


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def blas_info() -> dict:
    """BLAS vendor from numpy's build record, and the thread count the
    loaded OpenBLAS reports (None when it cannot be asked)."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                threads = int(fn())
                break
    return {"vendor": f"{blas.get('name')} {blas.get('version')}",
            "threads": threads}


def check_source(src: str) -> None:
    """Refuse to measure a ``rankedrange`` imported from anywhere but the
    checkout's ``src`` directory."""
    import rankedrange

    where = os.path.realpath(rankedrange.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"rankedrange imported from {where}, not {src}")


def main(mode: str, run_dir: str) -> int:
    with open(os.path.join(run_dir, "request.json"), encoding="utf-8") as fh:
        req = json.load(fh)
    wl = WORKLOADS[req["workload"]]
    seed, inputs = req["seed"], req["inputs"]
    if mode == "setup":
        t0 = time.perf_counter()
        wl.setup(seed, inputs)
        result = {"setup_s": time.perf_counter() - t0}
        check_source(req["src"])
    else:
        import numpy as np

        check_source(req["src"])
        tracer = None
        if mode == "trace":
            # boundaries imports numpy, which must not load before a
            # set-up starts its clock
            from boundaries import fired_groups, install, layer_metrics

            tracer = Tracer()
            install(tracer)
        cpu0 = cpu_seconds()
        outcome = wl.execute(seed, inputs, tracer)
        result = {"outcome": outcome, "cpu_s": cpu_seconds() - cpu0,
                  "problems": wl.check(outcome)}
        if tracer is None:
            result["env"] = {"blas": blas_info(), "numpy": np.__version__,
                             "python": platform.python_version()}
        else:
            layers, summary = layer_metrics(tracer)
            fired = fired_groups(summary)
            result["layers"] = layers
            result["problems"] += [f"traced boundary {g} recorded no calls"
                                   for g in wl.expected if g not in fired]
            result["span_stats"] = {
                name: summarize(row["durations"])
                for name, row in sorted(summary.items()) if row["calls"]}
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
