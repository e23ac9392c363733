"""Process-pool executor tests: serial/parallel equivalence and hard kills.

Tier-1 guarantees pinned here:

* ``--jobs 2`` and ``--jobs 1`` produce identical cell orderings,
  statuses, verification outcomes, and machine-independent counters —
  timings are the only thing allowed to differ;
* worker telemetry merges into the parent collector (and its JSONL sink)
  with one span per cell;
* a kernel hung inside an uninterruptible region is hard-killed at its
  cell deadline, recorded as a ``timeout`` result, and the rest of the
  campaign completes.
"""

import dataclasses
import io
import json
import signal
import time

import numpy as np
import pytest

from repro.core import BenchmarkSpec, Telemetry, run_suite, run_suite_parallel
from repro.core.tables import failure_rows
from repro.errors import VerificationError
from repro.frameworks import KERNELS, Mode, RunContext
from repro.gapbs import GAPReference

SPEC = BenchmarkSpec(scale=8, trials={k: 1 for k in KERNELS})


class BrokenTC(GAPReference):
    """Deterministically fails verification (always one triangle short)."""

    attributes = dataclasses.replace(GAPReference.attributes, name="broken-tc")

    def triangle_count(self, graph, ctx=RunContext()):
        return super().triangle_count(graph, ctx) - 1


class HungCC(GAPReference):
    """Simulates a kernel stuck in one long C call.

    Neuters the in-process SIGALRM deadline (a trial inside one giant
    NumPy call never reaches the bytecode boundary where the handler
    would run) and spins forever: only the executor's hard kill can end
    the cell.
    """

    attributes = dataclasses.replace(GAPReference.attributes, name="hung-cc")

    def connected_components(self, graph, ctx=RunContext()):
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        x = np.ones((64, 64))
        while True:
            x = x @ x
            x /= np.max(x)


def _campaign(jobs, telemetry=None, frameworks=None):
    return run_suite(
        frameworks if frameworks is not None else [GAPReference(), BrokenTC()],
        ["kron", "road"],
        kernels=["bfs", "cc", "tc"],
        modes=[Mode.BASELINE, Mode.OPTIMIZED],
        spec=dataclasses.replace(SPEC, jobs=jobs),
        telemetry=telemetry,
    )


@pytest.fixture(scope="module")
def serial_and_parallel():
    serial_tel = Telemetry()
    parallel_tel = Telemetry()
    serial = _campaign(1, serial_tel)
    parallel = _campaign(2, parallel_tel)
    return serial, parallel, serial_tel, parallel_tel


def test_parallel_matches_serial_cells(serial_and_parallel):
    serial, parallel, _, _ = serial_and_parallel
    assert len(parallel) == len(serial) == 24
    assert [r.cell_key for r in parallel] == [r.cell_key for r in serial]


def test_parallel_matches_serial_outcomes(serial_and_parallel):
    serial, parallel, _, _ = serial_and_parallel
    for serial_result, parallel_result in zip(serial, parallel):
        assert parallel_result.status == serial_result.status
        assert parallel_result.verified == serial_result.verified
        # Machine-independent work counters are deterministic per cell.
        assert parallel_result.edges_examined == serial_result.edges_examined
        assert parallel_result.rounds == serial_result.rounds
        assert parallel_result.iterations == serial_result.iterations
    # The deliberately broken framework failed identically in both.
    broken = [r for r in parallel if not r.ok]
    assert broken and all(r.framework == "broken-tc" for r in broken)
    assert all(VerificationError.__name__ in r.error for r in broken)


def test_parallel_matches_serial_aggregates(serial_and_parallel):
    """Table aggregates agree once timings are excluded."""
    serial, parallel, _, _ = serial_and_parallel

    def shape(rows):
        return [
            {k: v for k, v in row.items() if "seconds" not in str(k)}
            for row in rows
        ]

    assert shape(failure_rows(parallel)) == shape(failure_rows(serial))
    assert parallel.frameworks() == serial.frameworks()
    assert len(parallel.failures()) == len(serial.failures())


def test_worker_spans_merge_into_parent_sink(serial_and_parallel):
    _, parallel, serial_tel, parallel_tel = serial_and_parallel
    assert len(parallel_tel.spans) == len(parallel)
    by_status = lambda tel: sorted(span.status for span in tel.spans)
    assert by_status(parallel_tel) == by_status(serial_tel)


def test_parallel_trace_jsonl_is_one_record_per_cell():
    sink = io.StringIO()
    telemetry = Telemetry(sink=sink)
    results = _campaign(2, telemetry)
    telemetry.close()
    records = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert len(records) == len(results)
    assert {(r["graph"], r["mode"], r["kernel"], r["framework"]) for r in records} \
        == {r.cell_key for r in results}


def test_spec_jobs_dispatches_to_executor():
    spec = BenchmarkSpec(scale=8, trials={k: 1 for k in KERNELS}, jobs=2)
    results = run_suite([GAPReference()], ["kron"], kernels=["bfs"], spec=spec)
    assert len(results) == 2 and all(r.ok for r in results)


def test_hung_cell_is_hard_killed_and_campaign_continues():
    spec = BenchmarkSpec(
        scale=8, trials={k: 1 for k in KERNELS}, trial_timeout=0.4
    )
    telemetry = Telemetry()
    start = time.monotonic()
    results = run_suite_parallel(
        [GAPReference(), HungCC()],
        ["kron"],
        kernels=["cc"],
        modes=[Mode.BASELINE],
        spec=dataclasses.replace(spec, jobs=2),
        telemetry=telemetry,
        kill_grace=0.6,
    )
    elapsed = time.monotonic() - start
    by_framework = {r.framework: r for r in results}
    assert by_framework["gap"].status == "ok"
    timed_out = by_framework["hung-cc"]
    assert timed_out.status == "timeout"
    assert "hard deadline" in timed_out.error
    assert timed_out.trial_seconds == [] and not timed_out.verified
    # The kill fired near the budget (1 trial x 0.4s + 0.6s grace), far
    # below any "wait for the kernel" horizon.
    assert elapsed < 15.0
    timeout_spans = [s for s in telemetry.spans if s.status == "timeout"]
    assert len(timeout_spans) == 1
    assert timeout_spans[0].attributes["kernel"] == "cc"


def test_strict_parallel_raises_on_failure():
    from repro.errors import CellFailedError

    with pytest.raises(CellFailedError):
        run_suite(
            [BrokenTC()],
            ["kron"],
            kernels=["tc"],
            modes=[Mode.BASELINE],
            spec=dataclasses.replace(SPEC, jobs=2),
            strict=True,
        )
