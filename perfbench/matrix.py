"""Child process of the ``matrix-serial`` and ``matrix-pool`` workloads.

Started by ``run.py`` in a fresh interpreter.  It sets the workload up,
prints ``READY`` (the parent's set-up clock stops there), then runs the
paper's full grid -- 6 frameworks x 6 kernels x 5 graphs x 2 modes =
360 cells -- as repeated campaigns, checks every cell, and prints one
``RESULT {json}`` line with the raw measurements.

* ``matrix-serial``: scale 10, ``run_suite`` with ``jobs=1``, default
  trials, ``verify=True`` and no graph cache.  Set-up is the import of
  ``repro.__main__`` plus the framework instances.
* ``matrix-pool``: scale 9, ``run_suite_parallel`` over a caller-owned
  two-worker ``WorkerPool``, a warm graph cache, a checkpoint journal
  per campaign and ``RunArchive.archive_run`` of every campaign with its
  spans.  Set-up adds warming the cache and spawning the pool.

With ``--setup-only`` the process exits right after ``READY``.  With
``--trace 1`` untraced and traced campaigns alternate (see
``tracing.py``); per-layer figures are averages per traced campaign.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

T_START = time.perf_counter()
import repro.__main__  # noqa: E402,F401  - the CLI import is part of set-up

IMPORT_S = time.perf_counter() - T_START
SCIPY_STATS_IMPORTED = "scipy.stats" in sys.modules

from common import (  # noqa: E402
    aggregate_cells, cell_trial_means_ms, geomean, median, shared_layers,
)
from repro.core import BenchmarkSpec, Telemetry, run_suite  # noqa: E402
from repro.core.executor import run_suite_parallel  # noqa: E402
from repro.core.pool import WorkerPool  # noqa: E402
from repro.core.runner import build_case  # noqa: E402
from repro.frameworks import FRAMEWORK_NAMES, KERNELS, Mode, get  # noqa: E402
from repro.generators import GRAPH_NAMES  # noqa: E402
from repro.graphs.cache import GraphCache  # noqa: E402
from repro.resilience.journal import CheckpointJournal, campaign_fingerprint  # noqa: E402
from repro.store.archive import RunArchive  # noqa: E402
from tracing import SpanRecorder, install_layer_wrappers  # noqa: E402

SCALE = {"matrix-serial": 10, "matrix-pool": 9}
POOL_JOBS = 2
MODES = (Mode.BASELINE, Mode.OPTIMIZED)


class Matrix:
    """One workload instance: set-up state plus the campaign loop."""

    def __init__(self, workload: str, seed: int, run_dir: str) -> None:
        self.workload = workload
        self.pooled = workload == "matrix-pool"
        self.run_dir = run_dir
        self.frameworks = [get(name) for name in FRAMEWORK_NAMES]
        self.spec = BenchmarkSpec(
            scale=SCALE[workload], seed=seed, jobs=POOL_JOBS if self.pooled else 1
        )
        self.cache = self.pool = self.archive = None
        self.pool_spawn_s = 0.0
        self.campaigns = 0
        if self.pooled:
            self.cache = GraphCache(os.path.join(run_dir, "graph-cache"))
            for graph in GRAPH_NAMES:
                build_case(graph, self.spec, self.cache)
            self.archive = RunArchive(os.path.join(run_dir, "archive"))
            start = time.perf_counter()
            self.pool = WorkerPool(POOL_JOBS)
            self.pool_spawn_s = time.perf_counter() - start

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()

    def campaign(self) -> tuple[list[dict], list[dict]]:
        """Run the 360-cell grid once; returns (results, cell span records)."""
        telemetry = Telemetry()
        if not self.pooled:
            results = run_suite(
                self.frameworks, GRAPH_NAMES, KERNELS, MODES,
                spec=self.spec, telemetry=telemetry,
            )
            return [r.as_dict() for r in results], telemetry.records()
        self.campaigns += 1
        journal_path = os.path.join(self.run_dir, f"journal-{self.campaigns}.jsonl")
        journal = CheckpointJournal.create(
            journal_path,
            campaign_fingerprint(
                self.spec, list(GRAPH_NAMES), list(KERNELS),
                [mode.value for mode in MODES], list(FRAMEWORK_NAMES),
            ),
        )
        try:
            results = run_suite_parallel(
                self.frameworks, GRAPH_NAMES, KERNELS, MODES, spec=self.spec,
                telemetry=telemetry, cache=self.cache, journal=journal,
                pool=self.pool,
            )
        finally:
            journal.close()
        records = telemetry.records()
        self.archive.archive_run(
            results, spec=self.spec, spans=records, source=f"perfbench:{self.workload}"
        )
        return [r.as_dict() for r in results], records


def cell_counters(results: list[dict]) -> dict[tuple, tuple]:
    return {
        (r["graph"], r["mode"], r["kernel"], r["framework"]):
        (r["edges_examined"], r["rounds"], r["iterations"])
        for r in results
    }


def run_campaigns(matrix: Matrix, budget: float, out: dict, recorder: SpanRecorder | None) -> None:
    """Run campaigns until the next one would overrun ``budget``.

    With a ``recorder``, every second campaign runs with the layer
    wrappers installed, so untraced and traced campaigns see the same
    machine and their difference is the tracing overhead; at least one of
    each runs.  Without one, at least one untraced campaign runs.
    """
    walls: list[float] = []
    started = time.perf_counter()
    least = 1 if recorder is None else 2
    while len(walls) < least or time.perf_counter() - started + median(walls) <= budget:
        traced = recorder is not None and len(walls) % 2 == 1
        cache_before = (matrix.cache.hits, matrix.cache.misses) if matrix.cache else (0, 0)
        start = time.perf_counter()
        if traced:
            install_layer_wrappers(recorder)
            try:
                with recorder.span("campaign"):
                    results, records = matrix.campaign()
            finally:
                recorder.uninstall()
        else:
            results, records = matrix.campaign()
        wall = time.perf_counter() - start
        walls.append(wall)
        bad = [r for r in results if r["status"] != "ok" or not r["verified"]]
        counters = cell_counters(results)
        if out["counters"] is None:
            out["counters"] = counters
        elif counters != out["counters"]:
            out["errors"].append("work counters differ between campaigns")
        out["errors"].extend(
            f"cell {r['graph']}/{r['mode']}/{r['kernel']}/{r['framework']}: "
            f"{r['status']} {r['error']}" for r in bad[:5]
        )
        if len(results) != 360:
            out["errors"].append(f"campaign returned {len(results)} cells, not 360")
        out["attempted"] += len(results)
        out["failed"] += len(bad)
        campaign = {
            "wall_s": wall,
            "cells": len(results),
            "trial_geomean_ms": geomean(cell_trial_means_ms(results)),
        }
        if traced:
            campaign["cells_agg"] = aggregate_cells(records)
            campaign["counters"] = [sum(c[i] for c in counters.values()) for i in range(3)]
            if matrix.cache is not None:
                campaign["cache_hits"] = matrix.cache.hits - cache_before[0]
                campaign["cache_misses"] = matrix.cache.misses - cache_before[1]
        out["traced" if traced else "untraced"].append(campaign)


def layer_metrics(matrix: Matrix, recorder: SpanRecorder, out: dict) -> dict[str, float]:
    """Per-layer figures, averaged per traced campaign."""
    traced = out["traced"]
    n = len(traced)
    totals = recorder.layer_totals()

    def span(name: str, key: str = "self_s") -> float:
        return totals.get(name, {}).get(key, 0) / n

    cells = {key: sum(c["cells_agg"][key] for c in traced) / n for key in traced[0]["cells_agg"]}
    campaign_s = span("campaign", "wall_s")
    # Campaigns alternate untraced, traced, untraced, ...: each traced one
    # is compared with the untraced campaigns either side of it.
    overhead_s = median(
        c["wall_s"] - statistics.fmean(u["wall_s"] for u in out["untraced"][k:k + 2])
        for k, c in enumerate(traced)
    )
    jobs = POOL_JOBS if matrix.pooled else 1
    root_self = span("campaign")
    return {
        "cli.import_s": IMPORT_S,
        "cli.scipy_stats_imported": int(SCIPY_STATS_IMPORTED),
        **shared_layers(span, cells),
        "graphs.cache_hits": sum(c.get("cache_hits", 0) for c in traced) / n,
        "graphs.cache_misses": sum(c.get("cache_misses", 0) for c in traced) / n,
        "frameworks.edges_examined": traced[0]["counters"][0],
        "frameworks.rounds": traced[0]["counters"][1],
        "frameworks.iterations": traced[0]["counters"][2],
        "pool.spawn_s": matrix.pool_spawn_s,
        "pool.respawns": span("pool.respawn", "calls"),
        "executor.overhead_s": (
            campaign_s - cells["cell_wall_s"] / jobs if matrix.pooled else 0.0
        ),
        "trace.campaign_s": campaign_s,
        "trace.overhead_s": overhead_s,
        # Campaign time outside every measured layer: the root span's own
        # time minus the cells it ran (in parallel, for the pool).
        "trace.unattributed_s": root_self - cells["cell_wall_s"] / jobs,
        "trace.campaigns": n,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(SCALE), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    matrix = Matrix(args.workload, args.seed, args.run_dir)
    try:
        print("READY", flush=True)
        if args.setup_only:
            return 0
        out = {
            "counters": None, "errors": [], "attempted": 0, "failed": 0,
            "untraced": [], "traced": [],
        }
        recorder = SpanRecorder() if args.trace else None
        run_campaigns(matrix, args.seconds, out, recorder)
        if recorder is not None:
            out["layers"] = layer_metrics(matrix, recorder, out)
            out["spans"] = recorder.spans
    finally:
        matrix.close()
    out.pop("counters")
    for campaign in out["traced"]:
        campaign.pop("cells_agg", None)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
