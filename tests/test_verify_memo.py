"""The runner builds each verification oracle once per graph case.

Every cell still checks its own output; only the reference answer (the
oracle) is shared, keyed by kernel and trial 0's sources on the case.
"""

import pytest

from repro.core import BenchmarkSpec, Telemetry, run_cell, run_suite, verify
from repro.core.runner import build_case
from repro.errors import VerificationError
from repro.frameworks import FRAMEWORK_NAMES, KERNELS, Mode, RunContext, get
from repro.gapbs import GAPReference
from repro.resilience.faults import FaultSpec

ORACLES = ("bfs_oracle", "sssp_oracle", "cc_oracle", "bc_oracle", "tc_oracle")
MODES = (Mode.BASELINE, Mode.OPTIMIZED)


def tiny_spec(**kwargs) -> BenchmarkSpec:
    return BenchmarkSpec(scale=7, trials={k: 1 for k in KERNELS}, **kwargs)


@pytest.fixture
def oracle_calls(monkeypatch):
    """Count the calls to each oracle builder the runner makes."""
    calls = {name: 0 for name in ORACLES}

    def counting(name):
        original = getattr(verify, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ORACLES:
        monkeypatch.setattr(verify, name, counting(name))
    return calls


def test_full_suite_builds_each_oracle_once(oracle_calls):
    telemetry = Telemetry()
    frameworks = [get(name) for name in FRAMEWORK_NAMES]
    results = run_suite(
        frameworks, ["kron"], KERNELS, MODES, spec=tiny_spec(), telemetry=telemetry
    )
    assert len(results) == len(FRAMEWORK_NAMES) * len(KERNELS) * len(MODES)
    assert all(r.ok and r.verified for r in results)
    assert oracle_calls == {name: 1 for name in ORACLES}
    cells = [r for r in telemetry.records() if r["span"] == "cell"]
    assert len(cells) == len(results)
    for cell in cells:
        assert cell["status"] == "ok"
        verify_spans = [c for c in cell["children"] if c["span"] == "verify"]
        assert len(verify_spans) == 1


def test_wrong_output_after_the_memo_is_filled_still_fails(oracle_calls):
    kernels = ["bfs", "bc", "tc"]
    spec = tiny_spec(faults=(FaultSpec(kind="wrong-result", framework="galois"),))
    results = run_suite(
        [get("gap"), get("galois")], ["kron"], kernels, [Mode.BASELINE], spec=spec
    )
    by_framework = {(r.framework, r.kernel): r for r in results}
    for kernel in kernels:
        assert by_framework[("gap", kernel)].verified
        corrupted = by_framework[("galois", kernel)]
        assert not corrupted.verified
        assert corrupted.error.startswith("VerificationError")
    # gap ran first and filled the memo; galois was checked against it.
    assert oracle_calls["bfs_oracle"] == oracle_calls["bc_oracle"] == 1
    assert oracle_calls["tc_oracle"] == 1


def test_run_cell_raises_against_a_filled_memo():
    spec = tiny_spec(faults=(FaultSpec(kind="wrong-result", framework="galois"),))
    case = build_case("kron", spec)
    run_cell(get("gap"), "tc", case, Mode.BASELINE, spec)
    assert list(case.oracles) == [("tc", None)]
    with pytest.raises(VerificationError, match="TC: counted"):
        run_cell(get("galois"), "tc", case, Mode.BASELINE, spec)


def test_cases_with_different_seeds_never_share_an_entry(oracle_calls):
    cases = [build_case("kron", tiny_spec(seed=seed)) for seed in (1, 2)]
    for case, seed in zip(cases, (1, 2)):
        for kernel in ("bfs", "bc"):
            run_cell(get("gap"), kernel, case, Mode.BASELINE, tiny_spec(seed=seed))
    first, second = (case.oracles for case in cases)
    assert first is not second
    assert len(first) == len(second) == 2
    assert set(first) != set(second)
    assert not {id(v) for v in first.values()} & {id(v) for v in second.values()}
    assert oracle_calls["bfs_oracle"] == oracle_calls["bc_oracle"] == 2


class WritesInput(GAPReference):
    """Writes into its input graph (a rule violation)."""

    def connected_components(self, graph, ctx=RunContext()):
        graph.indices[0] = graph.indices[0]
        return super().connected_components(graph, ctx)


def test_serial_cases_are_read_only():
    case = build_case("road", tiny_spec())
    for view in (case.graph, case.weighted, case.undirected):
        for array in (view.indptr, view.indices, view.in_indptr, view.in_indices):
            assert not array.flags.writeable
    assert not case.weighted.weights.flags.writeable
    results = run_suite([WritesInput()], ["road"], ["cc"], [Mode.BASELINE], spec=tiny_spec())
    (result,) = results
    assert result.status == "error"
    assert "read-only" in result.error
