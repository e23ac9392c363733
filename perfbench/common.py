"""Helpers shared by the benchmark's workload modules.

Stdlib only: ``run.py`` imports this before it knows whether the
program under test is present.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import signal
import statistics
import subprocess
import threading
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
KERNELS = ("bfs", "sssp", "cc", "pr", "bc", "tc")


def child_env() -> dict[str, str]:
    """Environment for a process under test: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values) -> float:
    values = list(values)
    return math.exp(statistics.fmean(math.log(v) for v in values))


def cell_trial_means_ms(results) -> list[float]:
    """Mean trial time per cell, in ms (GAP's reported statistic)."""
    return [
        1000.0 * statistics.fmean(result["trial_seconds"])
        for result in results
        if result["trial_seconds"]
    ]


def aggregate_cells(records) -> dict[str, float]:
    """Sum the ``cell`` spans that ``Telemetry.records()`` returns.

    A cell span carries the cell's wall time, its ``prepare`` and
    ``verify`` phase children and one record per timed trial; the cell's
    harness time is whatever of its wall the three phases do not cover.
    """
    out: dict[str, float] = {
        "cells": 0, "cell_wall_s": 0.0, "prepare_s": 0.0, "trial_s": 0.0,
        "trials": 0, "verify_s": 0.0, "verify_calls": 0,
    }
    for kernel in KERNELS:
        out[f"{kernel}.trial_s"] = 0.0
        out[f"{kernel}.verify_s"] = 0.0
    for record in records:
        if record.get("span") != "cell":
            continue
        kernel = record.get("kernel")
        out["cells"] += 1
        out["cell_wall_s"] += record["wall_seconds"]
        trial_s = sum(
            trial["wall_seconds"]
            for trial in record.get("trials", ())
            if trial.get("status") == "ok"
        )
        out["trials"] += sum(
            1 for trial in record.get("trials", ()) if trial.get("status") == "ok"
        )
        out["trial_s"] += trial_s
        out[f"{kernel}.trial_s"] += trial_s
        for child in record.get("children", ()):
            if child["span"] == "prepare":
                out["prepare_s"] += child["wall_seconds"]
            elif child["span"] == "verify":
                out["verify_s"] += child["wall_seconds"]
                out["verify_calls"] += 1
                out[f"{kernel}.verify_s"] += child["wall_seconds"]
    out["harness_s"] = (
        out["cell_wall_s"] - out["prepare_s"] - out["trial_s"] - out["verify_s"]
    )
    return out


def shared_layers(span, cells: dict[str, float]) -> dict[str, float]:
    """The per-layer figures both workload modules derive the same way.

    ``span(name, key)`` is a wrapped layer's ``self_s``, ``calls`` or
    ``n`` total and ``cells`` the ``aggregate_cells`` sums, both per
    campaign (matrix workloads) or per executed job (service).
    """
    return {
        "graphs.build_case_s": span("graphs.build_case", "self_s"),
        "graphs.build_case_calls": span("graphs.build_case", "calls"),
        "frameworks.trial_s": cells["trial_s"],
        "frameworks.prepare_s": cells["prepare_s"],
        **{f"frameworks.{k}.trial_s": cells[f"{k}.trial_s"] for k in KERNELS},
        "frameworks.trials": cells["trials"],
        "runner.harness_s": cells["harness_s"],
        "verify.s": cells["verify_s"],
        "verify.calls": cells["verify_calls"],
        "verify.tc_s": cells["tc.verify_s"],
        "verify.bc_s": cells["bc.verify_s"],
        "executor.batches": span("executor.plan", "n"),
        "sharedmem.publish_s": span("sharedmem.publish", "self_s"),
        "sharedmem.bytes": span("sharedmem.publish", "n"),
        "journal.records": span("journal.record", "calls"),
        "journal.record_s": span("journal.record", "self_s"),
        "store.archive_s": span("store.archive", "self_s"),
        "store.archive_runs": span("store.archive", "calls"),
        "store.index_add_s": span("store.index_add", "self_s"),
        "store.index_entries_added": span("store.index_add", "n"),
    }


def source_digest() -> str:
    """SHA-256 over the paths and bytes of every file under ``src``.

    Identifies the code under test where the checkout carries no git
    metadata, so results from two checkouts of one commit compare equal.
    """
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the machine so far, or None off Linux.

    Steal is time the hypervisor ran something else on this machine's
    CPUs; a run with a large share of it was measured on a busy host.
    """
    try:
        with open("/proc/stat") as handle:
            fields = [int(value) for value in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def environment() -> dict[str, object]:
    """Commit, source digest, CPU count and interpreter/library versions."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=10, check=False,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "commit": sha or "unknown",
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        **versions,
    }


def spawn(command: list[str], **kwargs) -> subprocess.Popen:
    """Start a process under test in its own process group.

    Its stdout is a text pipe; ``kill`` can then take down the process
    together with any worker processes it forked.
    """
    return subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        start_new_session=True, **kwargs,
    )


def kill(process: subprocess.Popen) -> None:
    """SIGKILL the process group ``spawn`` created."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def read_ready(process: subprocess.Popen, marker: str, timeout: float) -> str:
    """Block until the process prints a stdout line containing ``marker``.

    Returns that line.  A process that has not printed it within
    ``timeout`` seconds is killed, and a process that exits first raises
    ``RuntimeError``.
    """
    timer = threading.Timer(timeout, kill, args=(process,))
    timer.start()
    try:
        for line in process.stdout:
            if marker in line:
                return line
    finally:
        timer.cancel()
    raise RuntimeError(f"process exited ({process.wait()}) before {marker!r}")


def stop(process: subprocess.Popen, timeout: float = 30.0) -> None:
    """Wait up to ``timeout`` for a process to end, then end its whole group.

    Whatever the process left running in its group (pool workers, say)
    is killed too.  SIGKILL cannot be caught, so anything still listed
    after the short wait below has ended and waits only to be reaped by
    init.
    """
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        pass
    kill(process)
    process.wait()
    process.stdout.close()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
