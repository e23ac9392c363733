"""The repository's benchmark: one command, three workloads, one verdict.

Run from the repository root::

    python3 perfbench/run.py --workload matrix-serial --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` records why each exists):

* ``matrix-serial`` -- the paper's 360-cell grid at scale 10, serial, no
  graph cache (``matrix.py``);
* ``matrix-pool`` -- the same grid at scale 9 through a warm two-worker
  pool, graph cache, checkpoint journal and run archive (``matrix.py``);
* ``service-mixed`` -- a ``repro serve`` subprocess under a 90% hit /
  10% miss closed loop of two clients (``service.py``).

Each run starts the program under test in fresh interpreters.  With
``--trace 0`` it reports the ``end_to_end`` metrics of ``BENCHMARK.json``
with tracing off; ``setup_s`` is the median of three set-ups.  With
``--trace 1`` it reports the ``per_layer`` metrics from campaigns run
with the wrappers of ``tracing.py`` installed; untraced campaigns run
beside them (alternating, or on a second server for ``service-mixed``)
and the difference is reported as ``trace.overhead_s``.  Per-layer times
and counts are per campaign (matrix workloads) or per executed service
job (``service-mixed``); layers a workload bypasses read 0.

Human-readable lines (environment, every metric with its unit and
sample count, the correctness verdict) go first; the last line of
stdout is the JSON result.  The exit code is 0 only when every output
was correct.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
import time

from common import (
    ROOT, SRC, cpu_ticks, environment, median, read_ready, spawn, stop,
)

WORKLOADS = ("matrix-serial", "matrix-pool", "service-mixed")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Layers only the service workload reaches; the matrix workloads report 0.
SERVICE_ONLY = (
    "service.hit_rate", "service.cells_executed", "service.executor_s",
    "client.first_event_ms", "client.connects_per_submit",
    "client.server_transport_errors", "client.posts_per_submit",
    "client.hit_p50_ms", "client.hit_p99_ms",
    "client.miss_p50_ms", "client.miss_p90_ms", "client.submits_per_s",
    "client.hit_samples", "client.miss_samples",
)


def start_matrix(args, run_dir, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start ``matrix.py``; returns the process and its set-up time."""
    start = time.perf_counter()
    process = spawn(
        [sys.executable, str(ROOT / "perfbench" / "matrix.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--run-dir", str(run_dir), *extra],
    )
    try:
        read_ready(process, "READY", timeout=120)
    except BaseException:
        stop(process, timeout=0)
        raise
    return process, time.perf_counter() - start


def run_matrix(args, run_dir) -> dict:
    setup = []
    for probe in range(0 if args.trace else SETUPS - 1):
        process, seconds = start_matrix(args, run_dir / f"setup-{probe}", ["--setup-only"])
        stop(process, timeout=60)
        setup.append(seconds)
    process, seconds = start_matrix(
        args, run_dir / "main",
        ["--seconds", str(args.seconds), "--trace", str(args.trace)],
    )
    setup.append(seconds)
    try:
        line = read_ready(process, "RESULT ", timeout=args.seconds + 150)
    finally:
        stop(process, timeout=60)
    raw = json.loads(line[len("RESULT "):])
    if process.returncode != 0:
        raise RuntimeError(f"matrix.py exited with {process.returncode}")
    campaigns = raw["untraced"]
    figures = {
        "setup_s": median(setup),
        "campaign_s": median(c["wall_s"] for c in campaigns),
        "trial_geomean_ms": median(c["trial_geomean_ms"] for c in campaigns),
        "peak_rss_mb": raw["peak_rss_mb"],
        "samples": {
            "setup_s": len(setup),
            "campaign_s": len(campaigns),
            "trial_geomean_ms": sum(c["cells"] for c in campaigns),
        },
    }
    layers = raw.get("layers")
    if layers is not None:
        layers.update({name: 0 for name in SERVICE_ONLY})
    return {"figures": figures, "layers": layers, "spans": raw.get("spans"),
            "errors": raw["errors"], "attempted": raw["attempted"],
            "failed": raw["failed"]}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def report(args, spec: dict, raw: dict, env: dict) -> dict:
    """Print every figure for a human reader; returns the JSON result."""
    figures, layers = raw["figures"], raw["layers"]
    samples = figures["samples"]
    section = "per_layer" if args.trace else "end_to_end"
    source = layers if args.trace else figures
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{section} metrics:")
    metrics = {}
    for entry in spec[section]:
        name, unit = entry["name"], entry["unit"]
        value = source[name]
        if not math.isfinite(value):
            # The verdict carries the failure; the JSON line stays valid.
            raw["errors"].append(f"metric {name} was not measured")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
        count = f"  n={samples[name]}" if name in samples else ""
        print(f"  {name:34s} {value:14.6g} {unit:6s} {entry['better']} is better{count}")
    print("other figures:")
    for name, value in sorted(figures.items()):
        if name not in metrics and isinstance(value, (int, float)):
            count = f"  n={samples[name]}" if name in samples else ""
            print(f"  {name:34s} {value:14.6g}{count}")
    failed_frac = raw["failed"] / raw["attempted"] if raw["attempted"] else 1.0
    print(f"  {'failed_frac':34s} {failed_frac:14.6g}  n={raw['attempted']}")
    for error in raw["errors"][:20]:
        print(f"  ERROR {error}")
    correct = not raw["errors"] and raw["failed"] == 0 and raw["attempted"] > 0
    print(f"verdict: {'correct' if correct else 'INCORRECT'}")
    return {"correct": correct, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"the program under test is missing: no {SRC / 'repro'}", file=sys.stderr)
        return 2
    spec = load_spec()
    run_dir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ticks = cpu_ticks()
    try:
        if args.workload == "service-mixed":
            import service

            raw = service.run(args, run_dir, SETUPS)
        else:
            raw = run_matrix(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env = environment()
    after = cpu_ticks()
    if ticks and after and after[1] > ticks[1]:
        env["steal_pct"] = round(100.0 * (after[0] - ticks[0]) / (after[1] - ticks[1]), 2)
    result = report(args, spec, raw, env)
    if args.trace:
        trace_path = run_dir.parent / f"trace-{args.workload}-{args.seed}.json"
        with open(trace_path, "w") as handle:
            json.dump({"environment": env, "layers": raw["layers"],
                       "spans": raw["spans"]}, handle)
        print(f"spans: {len(raw['spans'])} written to {trace_path.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
