"""siegelrep benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; siegelrep is imported from its src/.
Every run of a workload happens in a fresh single-threaded process
(bench/worker.py), so every cache starts cold.

--trace 0 measures the end-to-end metrics: several set-up-only processes,
then cold runs one after another for as many as fit their timed sections
into --seconds (at least one).  Each metric is the median over those runs.
--trace 1 makes one untraced and one traced run and reports the per-layer
metrics of the traced one (see bench/tracer.py).

Both check every output (bench/workloads.py), write a record with the
environment and every per-run sample to .bench_out/, and print as the last
line of stdout one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

# Set-up-only processes per invocation; every measured run adds one more
# set-up sample.
SETUP_REPS = 5
# Hard limit on one invocation, so that it ends within 180 s.
DEADLINE_S = 170

# Metrics gated by BENCHMARK.json.  Latency per result is measured too but
# only recorded: on a 2-vCPU host whose speed drifts by up to 2x over
# minutes, its median and tail spread too widely from run to run.
END_TO_END = (
    ("setup_s", "s"),
    ("results_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)


class BenchError(RuntimeError):
    pass


def spawn(mode: str, name: str, seed: int, size: str, deadline: float,
          spans: Path | None = None) -> dict:
    """One worker process; returns its result with setup_s added."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, name, str(seed), size]
    if spans is not None:
        cmd.append(str(spans))
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run of {name} passed the {DEADLINE_S} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} run of {name} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out.pop("setup_done") - launched
    return out


def environment(seed: int, numpy_version: str) -> dict:
    """Where and on what the run happened."""
    rev = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                             text=True).stdout.strip() or None
        status = subprocess.run(git + ["status", "--porcelain", "--", "src"],
                                capture_output=True, text=True).stdout
        dirty = bool(status.strip())
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"git_rev": rev, "git_dirty": dirty, "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(), "cpu": cpu, "seed": seed,
            "src_lines": src_lines}


def latency(runs: list[dict]) -> dict:
    """Median over runs of each run's median and tail latency per result."""
    med = statistics.median
    return {"p50_ms": med(r["p50_ms"] for r in runs), "tail_ms": med(r["tail_ms"] for r in runs),
            "tail_percentile": runs[0]["tail_percentile"], "samples": runs[0]["samples"]}


def measure(name: str, seed: int, seconds: float, size: str, deadline: float) -> tuple:
    setups = [spawn("setup", name, seed, size, deadline)["setup_s"] for _ in range(SETUP_REPS)]
    runs = [spawn("run", name, seed, size, deadline)]
    # Start another run only while the timed sections, with one more run as
    # long as the mean so far, still fit in the measuring time.
    while sum(r["timed_s"] for r in runs) * (len(runs) + 1) / len(runs) <= seconds:
        runs.append(spawn("run", name, seed, size, deadline))
    setups += [r["setup_s"] for r in runs]
    med = statistics.median
    values = {"setup_s": med(setups),
              "results_per_s": med(r["results"] / r["timed_s"] for r in runs),
              "peak_rss_mb": med(r["peak_rss_mb"] for r in runs)}
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
    return metrics, runs, {"setup_s": setups, "latency": latency(runs)}


def trace(name: str, seed: int, size: str, deadline: float, stamp: str) -> tuple:
    plain = spawn("run", name, seed, size, deadline)
    spans = OUT / f"spans-{name}-seed{seed}-{stamp}.npz"
    traced = spawn("trace", name, seed, size, deadline, spans=spans)
    layers = dict(traced.pop("layers"))
    layers["trace.overhead_frac"] = traced["timed_s"] / plain["timed_s"] - 1
    metrics = {key: {"value": layers[key], "unit": unit} for key, unit in LAYER_METRICS}
    # Products and bytes follow from shell sizes rather than being counted.
    extra = {"spans": str(spans.relative_to(ROOT)),
             "computed": ["theta.pairs.products", "theta.shells.bytes"]}
    return metrics, [plain, traced], extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES[WORKLOADS[0]]), default="full",
                        help="problem size; 'small' is for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "siegelrep" / "__init__.py").is_file():
        print(f"error: no siegelrep package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, runs, extra = trace(args.workload, args.seed, args.size, deadline, stamp)
        else:
            metrics, runs, extra = measure(args.workload, args.seed, args.seconds,
                                           args.size, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record = {
        "workload": args.workload, "size": args.size, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(args.seed, runs[0]["numpy"]),
        "runs": runs, **extra,
        "error_rate": failed / attempted, "metrics": metrics,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for run in runs:
        for problem in run["problems"]:
            print(f"check failed: {problem}")
    if "latency" in extra:
        lat = extra["latency"]
        print(f"latency per result: p50 {lat['p50_ms']:.6g} ms, p{lat['tail_percentile']:.6g} "
              f"{lat['tail_ms']:.6g} ms, {lat['samples']} samples per run")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
