"""One benchmark run in a fresh, single-threaded process.

    python3 bench/worker.py MODE WORKLOAD SEED SIZE [SPANS_PATH]

MODE is `setup` (imports and inputs only), `run` (the timed section, then the
output checks) or `trace` (the same with the tracer installed around the
timed section; spans go to SPANS_PATH).  siegelrep must come from the src/
directory next to bench/.  The result is one JSON line on stdout; everything
the workload itself prints is captured.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def latency_summary(latencies_ns: list[int]) -> dict:
    """Median and tail latency in ms.  The tail is the value with exactly ten
    samples above it (the highest percentile that has at least ten beyond
    it), or the maximum when there are fewer than eleven samples."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    if n == 0:
        return {"p50_ms": 0.0, "tail_ms": 0.0, "tail_percentile": 100.0, "samples": 0}
    if n >= 11:
        tail, pct = ordered[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = ordered[-1], 100.0
    return {"p50_ms": statistics.median(ordered) / 1e6, "tail_ms": tail / 1e6,
            "tail_percentile": pct, "samples": n}


def main(argv: list[str]) -> int:
    mode, name, seed, size = argv[0], argv[1], int(argv[2]), argv[3]
    import siegelrep
    src = ROOT / "src"
    if not Path(siegelrep.__file__).resolve().is_relative_to(src):
        print(f"siegelrep was imported from {siegelrep.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import numpy

    import workloads
    run = workloads.build(name, seed, size)
    out = {"setup_done": time.monotonic(), "numpy": numpy.__version__}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        workloads.execute(run)
    finally:
        out["timed_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["results"] = workloads.result_count(run)
    out.update(latency_summary(run.latencies_ns))
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.save(argv[4])

    # A result that raised is None in the outputs, so the checks fail it.
    attempted, failed, problems = workloads.check(run)
    out.update(attempted=attempted, failed=failed,
               problems=(run.errors + problems)[:20])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
