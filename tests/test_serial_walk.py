"""The serial walk's memory contract.

In-process, a campaign keeps one graph case resident at a time: each
graph's case is built once, when its first runnable cell comes up, and
the previous graph's case is released before the next one is built.  A
graph whose cells a resumed journal already holds is never built.  The
matrix-serial peak RSS depends on exactly this.
"""

import weakref

from repro.core import BenchmarkSpec, run_suite, runner
from repro.frameworks import KERNELS, Mode
from repro.gapbs import GAPReference

SPEC = BenchmarkSpec(scale=8, trials={k: 1 for k in KERNELS})
GRAPHS = ["kron", "road", "urand"]
KERNELS_USED = ["bfs", "cc"]


def _counting_build_case(monkeypatch):
    """Wrap ``runner.build_case``; returns (built graph names, live checks).

    Before each build the wrapper records whether the previously built
    case is still alive; only weak references are kept, so the wrapper
    itself never holds a case.
    """
    built: list[str] = []
    previous_alive: list[bool] = []
    last: list[weakref.ref] = []
    real = runner.build_case

    def build_case(graph_name, *args, **kwargs):
        if last:
            previous_alive.append(last[-1]() is not None)
        built.append(graph_name)
        case = real(graph_name, *args, **kwargs)
        last.append(weakref.ref(case))
        return case

    monkeypatch.setattr(runner, "build_case", build_case)
    return built, previous_alive


def _campaign(**kw):
    return run_suite(
        [GAPReference()],
        GRAPHS,
        kernels=KERNELS_USED,
        modes=[Mode.BASELINE],
        spec=SPEC,
        **kw,
    )


def test_each_graph_is_built_once_and_released_before_the_next(monkeypatch):
    built, previous_alive = _counting_build_case(monkeypatch)
    results = _campaign()
    assert all(r.ok for r in results) and len(results) == 6
    assert built == GRAPHS
    assert previous_alive == [False, False]


def test_fully_journaled_graph_is_never_built(tmp_path, monkeypatch):
    journal = tmp_path / "campaign.jsonl"
    first = _campaign(journal=str(journal))
    # Keep the header and kron's two cells: kron is fully journaled, the
    # other graphs not at all.
    lines = journal.read_bytes().splitlines(keepends=True)
    journal.write_bytes(b"".join(lines[:3]))

    built, _ = _counting_build_case(monkeypatch)
    resumed = _campaign(journal=str(journal), resume=True)
    assert built == ["road", "urand"]
    assert resumed.meta["resilience"]["resumed_cells"] == 2
    assert [r.cell_key for r in resumed] == [r.cell_key for r in first]
