"""Executor equivalence matrix: every execution mode, every fault class.

The three execution modes — serial, per-cell process pool, and batched
process pool — must be *observationally identical*: same cells in the
same canonical order, same statuses, same verification outcomes, same
machine-independent work counters.  Timings and error message texts are
the only permitted differences (a crash surfaces as a worker death in
process modes and as an in-process exception serially).

The campaign mixes fast cells, a deterministic verification failure, an
injected crash-class fault, and a hung cell, so the matrix covers every
(mode x fault) combination the executors can encounter:

* fast cells         -> ``ok`` everywhere;
* broken kernel      -> ``error`` (verification) everywhere;
* crash-class fault  -> ``error`` everywhere (``crash`` kills the worker
  in process modes; serial substitutes the ``error`` fault, since
  ``os._exit`` there would take the whole campaign down — which is
  exactly the isolation difference the substitution documents);
* hung cell          -> ``timeout`` everywhere (SIGALRM interrupts it
  serially and in workers).
"""

import dataclasses
import time

import pytest

from repro.core import BenchmarkSpec, Telemetry, run_suite
from repro.errors import VerificationError
from repro.frameworks import KERNELS, Mode, RunContext
from repro.gapbs import GAPReference
from repro.resilience.faults import FaultSpec

ONE_TRIAL = {k: 1 for k in KERNELS}

#: mode name -> (BenchmarkSpec.jobs, extra BenchmarkSpec fields).  The batched
#: process mode pins an explicit batch size so multi-cell batches form even
#: at this small campaign size.
EXEC_MODES = {
    "serial": (1, {}),
    "process": (2, {"batch_size": 1}),
    "process-batched": (2, {"batch_size": 3}),
}

PROCESS_MODES = ("process", "process-batched")


class BrokenTC(GAPReference):
    """Deterministically fails verification (always one triangle short)."""

    attributes = dataclasses.replace(GAPReference.attributes, name="broken-tc")

    def triangle_count(self, graph, ctx=RunContext()):
        return super().triangle_count(graph, ctx) - 1


class SlowCC(GAPReference):
    """A CC kernel that overruns its trial budget, then finishes.

    The hang is *bounded*, so a missed deadline shows up as a wrong status
    rather than a stuck suite: SIGALRM interrupts the sleep mid-flight
    (serially and in process workers), and the cell must come out as a
    ``timeout``.
    """

    attributes = dataclasses.replace(GAPReference.attributes, name="slow-cc")

    def connected_components(self, graph, ctx=RunContext()):
        deadline = time.monotonic() + 1.2
        while time.monotonic() < deadline:
            time.sleep(0.02)
        return super().connected_components(graph, ctx)


def _normalized(results):
    """Everything that must be identical across modes (no timings/texts)."""
    return [
        (
            r.cell_key,
            r.status,
            r.verified,
            r.edges_examined,
            r.rounds,
            r.iterations,
        )
        for r in results
    ]


def _run(mode_name, frameworks, kernels, spec_extra, telemetry=None):
    jobs, mode_spec = EXEC_MODES[mode_name]
    spec = BenchmarkSpec(
        scale=8, trials=ONE_TRIAL, **{**mode_spec, **spec_extra}
    )
    return run_suite(
        frameworks,
        ["kron"],
        kernels=kernels,
        modes=[Mode.BASELINE],
        spec=dataclasses.replace(spec, jobs=jobs),
        telemetry=telemetry,
    )


def _fault_campaign(mode_name, telemetry=None):
    """Fast cells + verification failure + crash-class fault, per mode."""
    kind = "crash" if mode_name in PROCESS_MODES else "error"
    fault = FaultSpec(kind=kind, framework="gap", kernel="cc")
    return _run(
        mode_name,
        [GAPReference(), BrokenTC()],
        ["bfs", "cc", "tc"],
        {"faults": (fault,)},
        telemetry=telemetry,
    )


def _timeout_campaign(mode_name, telemetry=None):
    """Fast cells + a hung cell under a hard trial deadline, per mode."""
    return _run(
        mode_name,
        [GAPReference(), SlowCC()],
        ["bfs", "cc"],
        {"trial_timeout": 0.3},
        telemetry=telemetry,
    )


@pytest.fixture(scope="module")
def fault_matrix():
    campaigns = {}
    for mode_name in EXEC_MODES:
        tel = Telemetry()
        campaigns[mode_name] = (_fault_campaign(mode_name, tel), tel)
    return campaigns


@pytest.fixture(scope="module")
def timeout_matrix():
    campaigns = {}
    for mode_name in EXEC_MODES:
        tel = Telemetry()
        campaigns[mode_name] = (_timeout_campaign(mode_name, tel), tel)
    return campaigns


def test_fault_campaign_statuses_are_the_expected_mix(fault_matrix):
    results, _ = fault_matrix["serial"]
    by_key = {r.cell_key: r for r in results}
    assert len(results) == 6
    assert by_key[("kron", "baseline", "cc", "gap")].status == "error"
    broken = by_key[("kron", "baseline", "tc", "broken-tc")]
    assert broken.status == "error"
    assert VerificationError.__name__ in broken.error
    ok_cells = [r for r in results if r.ok]
    assert len(ok_cells) == 4  # the fast cells all survived the faults


@pytest.mark.parametrize("mode_name", [m for m in EXEC_MODES if m != "serial"])
def test_fault_campaign_matches_serial(fault_matrix, mode_name):
    serial, _ = fault_matrix["serial"]
    other, _ = fault_matrix[mode_name]
    assert _normalized(other) == _normalized(serial)


@pytest.mark.parametrize("mode_name", list(EXEC_MODES))
def test_fault_campaign_traces_one_span_per_cell(fault_matrix, mode_name):
    results, tel = fault_matrix[mode_name]
    assert len(tel.spans) == len(results)
    assert sorted(s.status for s in tel.spans) == sorted(
        r.status for r in results
    )


def test_timeout_campaign_statuses_are_the_expected_mix(timeout_matrix):
    results, _ = timeout_matrix["serial"]
    by_key = {r.cell_key: r for r in results}
    assert len(results) == 4
    hung = by_key[("kron", "baseline", "cc", "slow-cc")]
    assert hung.status == "timeout"
    assert hung.trial_seconds == [] and not hung.verified
    assert sum(r.ok for r in results) == 3


@pytest.mark.parametrize("mode_name", [m for m in EXEC_MODES if m != "serial"])
def test_timeout_campaign_matches_serial(timeout_matrix, mode_name):
    serial, _ = timeout_matrix["serial"]
    other, _ = timeout_matrix[mode_name]
    assert _normalized(other) == _normalized(serial)


@pytest.mark.parametrize("mode_name", list(EXEC_MODES))
def test_timeout_campaign_traces_one_span_per_cell(timeout_matrix, mode_name):
    results, tel = timeout_matrix[mode_name]
    assert len(tel.spans) == len(results)
    timeout_spans = [s for s in tel.spans if s.status == "timeout"]
    assert len(timeout_spans) == 1
    assert timeout_spans[0].attributes["framework"] == "slow-cc"


def test_campaign_meta_records_the_topology():
    results = _run("serial", [GAPReference()], ["bfs"], {})
    assert results.meta["jobs"] == 1
    assert results.meta["spec"]["batch_size"] is None
    results = _run("process-batched", [GAPReference()], ["bfs"], {})
    assert results.meta["jobs"] == 2
    assert results.meta["spec"]["batch_size"] == 3
    assert "pool" not in results.meta and "pool" not in results.meta["spec"]
