"""Benchmark runner: executes the 30 GAP tests under both rule sets.

Timing follows the GAP rules as the paper applies them:

* graph loading, weight generation, symmetrization (for TC), and
  transposition are *not* timed — every framework receives the same
  prebuilt :class:`GraphCase`;
* any restructuring/relabeling a kernel performs *is* timed, except where
  a framework's Optimized rules exclude it (the ``prepare`` hook);
* BFS/SSSP rotate through deterministic random sources, identical for all
  frameworks; BC draws 4 roots per trial; the reported time is the
  average over trials;
* every output is verified (once per cell) against the oracles in
  :mod:`repro.core.verify`; each oracle is built once per case, kernel
  and trial-0 sources and shared by every framework and mode.

Every cell runs inside a telemetry span (see :mod:`repro.core.telemetry`):
wall time per trial, prepare/kernel/verify phase times, a work-counter
snapshot, optional peak memory, and an outcome status.  ``run_cell``
raises on failure (callers that benchmark a single cell want the
traceback); ``execute_cell`` is the campaign's one wrapper around it,
turning a crashing or hanging cell into a recorded ``error``/``timeout``
result so the campaign continues, unless ``strict=True`` restores
fail-fast.

A campaign is one loop over one state, whatever its topology:
:class:`repro.core.executor._CampaignState` owns canonical result
assembly, resume pre-fill from the checkpoint ``journal``, retries of
transient failures with deterministic backoff, the per-(framework,
kernel) circuit breaker that turns the rest of a persistently failing
combo into ``skipped`` results, journal appends, and strict fail-fast.
``run_suite`` builds that state and executes the cells one of two ways:
in this process (``spec.jobs == 1``, the walk below), or on a warm
worker pool (:mod:`repro.core.executor`).  Only the in-process walk keeps
a single graph case resident, sleeps a retry's backoff inline, and
enforces the trial deadline softly with SIGALRM; the pool hard-kills an
over-budget worker.  SIGTERM unwinds either cleanly instead of killing
the campaign mid-cell.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from ..errors import TrialTimeoutError
from ..frameworks.base import KERNELS, Framework, Mode, RunContext
from ..generators import build_graph, weighted_version
from ..graphs import CSRGraph
from ..graphs.cache import GraphCache
# Submodule-direct imports: repro.resilience.journal sits above repro.core
# (it needs RunResult), so the journal is imported lazily in run_suite; the
# fault and signal modules below are layering-free.
from ..resilience.faults import active_plan, corrupt_cache, fire, transform_output
from ..resilience.signals import graceful_shutdown
from . import counters as counters_mod
from . import verify
from .memory import track_peak_memory
from .results import ResultSet, RunResult
from .spec import BenchmarkSpec, SourcePicker
from .telemetry import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    Span,
    Telemetry,
    TrialDeadline,
)

if TYPE_CHECKING:
    from .batching import Cell
    from .executor import _CampaignState

__all__ = ["GraphCase", "build_case", "execute_cell", "run_cell", "run_suite"]


@dataclass(frozen=True)
class GraphCase:
    """One benchmark input, with all untimed derived forms prebuilt.

    The three views obey explicit derivation rules (tested in
    ``tests/test_harness.py``):

    * ``weighted`` is ``graph`` plus GAP-style edge weights and always
      preserves ``graph``'s direction; it is ``graph`` itself when the
      input already carries weights.
    * ``undirected`` is ``graph`` itself when the input is already
      undirected (an alias, never a copy), else the symmetrized form.
      It is always unweighted like ``graph`` (TC ignores weights).

    ``oracles`` memoizes the verification oracles built for this case,
    keyed by ``(kernel, trial-0 source or source tuple)``: every framework
    and mode verifies trial 0 from the same sources, so one entry per
    kernel serves all of a graph's cells.  It lives and dies with the case.
    """

    name: str
    graph: CSRGraph
    weighted: CSRGraph
    undirected: CSRGraph
    oracles: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def build(cls, name: str, scale: int, seed: int = 0) -> "GraphCase":
        return cls.from_graph(name, build_graph(name, scale=scale, seed=seed), seed=seed)

    @classmethod
    def from_graph(cls, name: str, graph: CSRGraph, seed: int = 0) -> "GraphCase":
        """Derive the weighted/undirected views for an existing graph."""
        weighted = graph if graph.is_weighted else weighted_version(graph, seed=seed)
        undirected = graph.to_undirected() if graph.directed else graph
        return cls(name, graph, weighted, undirected)


def _read_only(case: GraphCase) -> GraphCase:
    """Mark every array of ``case`` read-only, as attached shared cases are.

    A kernel that writes into its input then fails in the serial executor
    too, instead of silently corrupting the case (and its oracle memo) for
    the cells after it.
    """
    for view in (case.graph, case.weighted, case.undirected):
        for array in (
            view.indptr, view.indices, view.weights,
            view.in_indptr, view.in_indices, view.in_weights,
        ):
            if array is not None:
                array.flags.writeable = False
    return case


def build_case(
    graph_name: str,
    spec: BenchmarkSpec,
    cache: GraphCache | None = None,
    telemetry: Telemetry | None = None,
) -> GraphCase:
    """Build one corpus case, going through the graph cache when given.

    A cache hit skips generation *and* derived-view construction entirely
    (the artifact stores all three views with their aliasing); a miss
    builds the case and persists it for the next campaign.

    ``graph_name`` may be a dataset reference (``file:...`` /
    ``dataset:...``): the file is resolved once here in the parent, its
    case is cached under the file's SHA-256 content digest (renames hit,
    edits miss), and parallel executors publish the built case over shared
    memory — workers never touch the file.

    A *corrupt* cache artifact (checksum/parse failure, torn pair) still
    degrades to a rebuild, but not silently: with ``telemetry`` given,
    each corruption the lookup detected becomes a structured
    ``cache-corruption`` warning span, and the cache's ``corrupt`` /
    ``corrupt_events`` counters record it either way.

    The returned case's arrays are read-only.
    """
    from ..graphs.datasets import is_dataset_ref, resolve

    def _note_corruption(start: int) -> None:
        # Surface damage the load just detected; a plain cold miss adds
        # no events, so warm paths pay one len() comparison.
        if telemetry is None or cache is None:
            return
        for event in cache.corrupt_events[start:]:
            telemetry.ingest(
                Span(
                    name="cache-corruption",
                    attributes={"graph": graph_name},
                    warnings=[{"warning": "graph-cache-corruption", **event}],
                )
            )

    if is_dataset_ref(graph_name):
        info = resolve(graph_name)
        if cache is not None:
            seen = len(cache.corrupt_events)
            views = cache.load_dataset_views(info.digest, spec.seed)
            _note_corruption(seen)
            if views is not None:
                return _read_only(GraphCase(graph_name, *views))
        case = _read_only(GraphCase.from_graph(graph_name, info.load(), seed=spec.seed))
        if cache is not None:
            try:
                cache.store_dataset_views(
                    info.digest, spec.seed,
                    case.graph, case.weighted, case.undirected,
                )
            except OSError:
                pass
        return case

    if cache is not None:
        plan = active_plan(spec)
        if plan:
            # Fault-injection point: damage the artifact *before* the load
            # so the checksum-validated degrade-to-miss path is exercised.
            corrupt_cache(plan, cache, graph_name, spec.scale, spec.seed)
        seen = len(cache.corrupt_events)
        views = cache.load_views(graph_name, spec.scale, spec.seed)
        _note_corruption(seen)
        if views is not None:
            return _read_only(GraphCase(graph_name, *views))
    case = _read_only(GraphCase.build(graph_name, scale=spec.scale, seed=spec.seed))
    if cache is not None:
        try:
            cache.store_views(
                graph_name, spec.scale, spec.seed,
                case.graph, case.weighted, case.undirected,
            )
        except OSError:
            # The cache is an optimization: a full or unwritable disk must
            # not sink a campaign whose graph is already built.
            pass
    return case


def _kernel_input(case: GraphCase, kernel: str) -> CSRGraph:
    if kernel == "sssp":
        return case.weighted
    if kernel == "tc":
        return case.undirected
    return case.graph


def _build_oracle(
    kernel: str, case: GraphCase, source: int | None, sources: np.ndarray | None
):
    if kernel == "bfs":
        return verify.bfs_oracle(case.graph, source)
    if kernel == "sssp":
        return verify.sssp_oracle(case.weighted, source)
    if kernel == "cc":
        return verify.cc_oracle(case.graph)
    if kernel == "bc":
        return verify.bc_oracle(case.graph, sources)
    return verify.tc_oracle(case.undirected)


def _verify_output(
    kernel: str,
    case: GraphCase,
    output,
    source: int | None,
    sources: np.ndarray | None,
    spec: BenchmarkSpec,
) -> None:
    if kernel == "pr":
        verify.verify_pr(case.graph, output, tolerance=spec.pr_tolerance)
        return
    # The oracle is a function of the case, the kernel and trial 0's
    # sources alone, so the first cell to verify it builds it (inside its
    # own verify phase) and later cells only check against it.
    key = (kernel, source if sources is None else tuple(sources.tolist()))
    oracle = case.oracles.get(key)
    if oracle is None:
        oracle = case.oracles[key] = _build_oracle(kernel, case, source, sources)
    if kernel == "bfs":
        verify.check_bfs(oracle, output)
    elif kernel == "sssp":
        verify.check_sssp(oracle, output)
    elif kernel == "cc":
        verify.check_cc(oracle, output)
    elif kernel == "bc":
        verify.verify_bc(oracle, output)
    elif kernel == "tc":
        verify.check_tc(oracle, int(output))


def _counters_snapshot(work: counters_mod.WorkCounters) -> dict[str, object]:
    snapshot: dict[str, object] = {
        "edges_examined": work.edges_examined,
        "vertices_touched": work.vertices_touched,
        "rounds": work.rounds,
        "iterations": work.iterations,
    }
    if work.extras:
        snapshot["extras"] = dict(work.extras)
    return snapshot


def _attach_cell_detail(
    cell: Span,
    prepare_seconds: float,
    verify_seconds: float | None,
    trial_seconds: list[float],
    trial_sources: list[object],
    planned_trials: int,
    work: counters_mod.WorkCounters,
    peak_bytes: int | None,
) -> None:
    """Materialize the per-trial records and phase sub-spans of one cell.

    Runs *after* the trial loop (and on the failure path), so building the
    trace costs the timed region nothing.  Completed trials are ``ok``;
    when the loop stopped early, the trial the exception interrupted is
    recorded with the cell's failure status and the rest as ``skipped``.
    """
    cell.children.append(Span(name="prepare", wall_seconds=prepare_seconds))
    if verify_seconds is not None:
        cell.children.append(Span(name="verify", wall_seconds=verify_seconds))
    failed = cell.status != STATUS_OK
    for trial in range(planned_trials):
        if trial < len(trial_seconds):
            record: dict[str, object] = {
                "trial": trial,
                "status": "ok",
                "wall_seconds": trial_seconds[trial],
            }
        elif failed and trial == len(trial_seconds):
            record = {"trial": trial, "status": cell.status, "wall_seconds": None}
        else:
            record = {"trial": trial, "status": "skipped", "wall_seconds": None}
        if trial < len(trial_sources) and trial_sources[trial] is not None:
            record["source"] = trial_sources[trial]
        cell.trials.append(record)
    cell.counters = _counters_snapshot(work)
    if peak_bytes is not None:
        cell.peak_mem_bytes = peak_bytes


def run_cell(
    framework: Framework,
    kernel: str,
    case: GraphCase,
    mode: Mode,
    spec: BenchmarkSpec,
    telemetry: Telemetry | None = None,
    attempt: int = 0,
) -> RunResult:
    """Benchmark one (framework, kernel, graph, mode) cell.

    Raises on kernel error, verification failure, or deadline overrun;
    either way the cell's telemetry span records what happened first.
    ``attempt`` is the 0-based execution count under the retry policy;
    re-executions stamp it on the cell span (and it addresses injected
    faults, so "fail on attempt 0 only" plans are expressible).
    """
    tel = telemetry if telemetry is not None else Telemetry()
    plan = active_plan(spec)
    ctx = RunContext(
        mode=mode,
        graph_name=case.name,
        delta=spec.delta_for(case.name),
        seed=spec.seed,
    )
    base_input = _kernel_input(case, kernel)
    planned_trials = spec.num_trials(kernel)
    deadline = TrialDeadline(spec.trial_timeout)

    trial_seconds: list[float] = []
    trial_sources: list[object] = []
    prepare_seconds = 0.0
    verify_seconds: float | None = None
    peak_bytes: int | None = None
    work = counters_mod.WorkCounters()

    with tel.span(
        "cell",
        framework=framework.name,
        kernel=kernel,
        graph=case.name,
        mode=mode.value,
    ) as cell:
        if attempt:
            cell.attributes["attempt"] = attempt
        try:
            cell.attributes["phase"] = "prepare"
            prepare_start = time.perf_counter()
            prepared = framework.prepare(kernel, base_input, ctx)
            prepare_seconds = time.perf_counter() - prepare_start
            picker = SourcePicker(case.graph, spec.seed)

            for trial in range(planned_trials):
                source: int | None = None
                sources: np.ndarray | None = None
                if kernel in ("bfs", "sssp"):
                    source = picker.next_source()
                elif kernel == "bc":
                    sources = picker.next_sources(spec.bc_roots)
                trial_sources.append(source)
                cell.attributes["phase"] = "kernel"
                cell.attributes["trial"] = trial

                def timed_kernel() -> tuple[object, float]:
                    # In-trial fault-injection point: inside the deadline
                    # scope, so an injected hang times out exactly like a
                    # genuinely hung kernel.
                    with deadline:
                        if plan:
                            fire(
                                plan, framework.name, kernel,
                                case.name, mode.value, attempt,
                            )
                        start = time.perf_counter()
                        out = framework.run_kernel(
                            kernel, prepared, ctx,
                            source=source, sources=sources,
                            pr_tolerance=spec.pr_tolerance,
                        )
                        return out, time.perf_counter() - start

                with counters_mod.counting() as trial_work:
                    if tel.track_memory and trial == 0:
                        with track_peak_memory() as tracked:
                            output, elapsed = timed_kernel()
                        peak_bytes = tracked.peak_bytes
                    else:
                        output, elapsed = timed_kernel()
                trial_seconds.append(elapsed)

                if trial == 0:
                    work = trial_work
                    if plan:
                        output = transform_output(
                            plan, framework.name, kernel,
                            case.name, mode.value, attempt, output,
                        )
                    if spec.verify:
                        cell.attributes["phase"] = "verify"
                        verify_start = time.perf_counter()
                        _verify_output(kernel, case, output, source, sources, spec)
                        verify_seconds = time.perf_counter() - verify_start
            cell.attributes.pop("phase", None)
            cell.attributes.pop("trial", None)
        except BaseException as exc:
            # Mark the span before the finally materializes trial records,
            # so the interrupted trial carries the failure status.
            cell.fail(exc)
            overrun = deadline.last_overrun
            if overrun is not None and not overrun.get("interrupted", True):
                # The deadline fired but could not stop the trial (a long
                # C call, or no signal support): the kernel ran to
                # completion and real wall time exceeded the budget.
                cell.warnings.append(
                    {"warning": "deadline-overrun-uninterrupted", **overrun}
                )
            raise
        finally:
            _attach_cell_detail(
                cell, prepare_seconds, verify_seconds, trial_seconds,
                trial_sources, planned_trials, work, peak_bytes,
            )

    return RunResult(
        framework=framework.name,
        kernel=kernel,
        graph=case.name,
        mode=mode,
        trial_seconds=trial_seconds,
        verified=True,
        edges_examined=work.edges_examined,
        rounds=work.rounds,
        iterations=work.iterations,
        extras=dict(work.extras),
    )


def execute_cell(
    cell: "Cell",
    framework_of: Callable[[str], Framework],
    case_of: Callable[[str], GraphCase],
    spec: BenchmarkSpec,
    telemetry: Telemetry,
    attempt: int = 0,
    strict: bool = False,
) -> RunResult:
    """Run one campaign cell, turning its failure into a result.

    The one place a campaign calls :func:`run_cell`, whichever way the
    cell executes: the serial walk, a warm-pool worker, or the parent's
    crash-loop fallback.  The cell's case and framework are resolved
    through ``case_of`` / ``framework_of`` inside the isolation, so a
    worker that cannot attach a graph or unpickle a framework records an
    ``error`` like any kernel failure.  A deadline overrun becomes a
    ``timeout`` result, any other exception an ``error`` result;
    ``strict=True`` re-raises the cell's own exception instead.
    """
    try:
        case = case_of(cell.graph)
        framework = framework_of(cell.framework)
        return run_cell(
            framework, cell.kernel, case, cell.mode, spec,
            telemetry=telemetry, attempt=attempt,
        )
    except Exception as exc:
        if strict:
            raise
        status = STATUS_TIMEOUT if isinstance(exc, TrialTimeoutError) else STATUS_ERROR
        return RunResult.failed(cell, status, exc)


def _run_serial(
    state: "_CampaignState",
    frameworks: list[Framework],
    cache: GraphCache | None,
    progress: Callable[[str], None] | None,
) -> None:
    """Execute a campaign's runnable cells in this process, in order.

    What only this walk does: one case is resident at a time (built when
    its graph's first runnable cell comes up, released before the next
    graph's case is built, and never built for a fully resumed graph),
    a retry sleeps its backoff inline before re-running the cell, the
    trial deadline is the soft SIGALRM one, and strict mode re-raises the
    failing cell's own exception.
    """
    frameworks_by_name = {framework.name: framework for framework in frameworks}
    resident: dict[str, GraphCase] = {}
    for cell in state.runnable():
        if cell.graph not in resident:
            resident.clear()  # drop the previous graph before building this one
            resident[cell.graph] = build_case(
                cell.graph, state.spec, cache, telemetry=state.tel
            )
        if progress is not None:
            progress(cell.label)
        if state.skip_if_open(cell):
            continue
        attempt = 0
        while True:
            result = execute_cell(
                cell, frameworks_by_name.__getitem__, resident.__getitem__,
                state.spec, state.tel, attempt=attempt, strict=state.strict,
            )
            if not state.wants_retry(result, attempt):
                break
            state.policy.sleep(attempt)
            attempt += 1
        state.finalize(cell, result, attempt)


def run_suite(
    frameworks: Iterable[Framework],
    graph_names: Iterable[str],
    kernels: Iterable[str] = KERNELS,
    modes: Iterable[Mode] = (Mode.BASELINE, Mode.OPTIMIZED),
    spec: BenchmarkSpec | None = None,
    progress: Callable[[str], None] | None = None,
    telemetry: Telemetry | None = None,
    strict: bool = False,
    cache: GraphCache | None = None,
    journal: "str | None" = None,
    resume: bool = False,
) -> ResultSet:
    """Run the full campaign; returns all cell results.

    One bad (framework, kernel, graph) cell does not take down the
    campaign: exceptions and deadline overruns become structured
    ``error``/``timeout`` results (traced by ``telemetry``) and every
    other cell still runs.  ``strict=True`` restores fail-fast: the first
    failing cell raises.

    ``spec.jobs`` picks how cells execute: ``1`` walks them in this
    process, where the deadline is soft (see :class:`TrialDeadline`);
    more shards batches of cells across warm worker processes over a
    shared-memory corpus (:mod:`repro.core.executor`), which turns the
    per-trial deadline into a *hard* kill.  Either way one campaign state
    does the bookkeeping below.  ``cache`` routes graph building through
    a persistent on-disk cache.

    * ``journal`` — path of a checkpoint journal; every completed cell is
      durably appended.  With ``resume=True`` an existing journal is
      validated against this campaign's fingerprint and its completed
      cells are *not* re-executed — their recorded results slot into the
      returned set at their canonical positions.
    * ``spec.retries`` — transient cell failures re-execute with
      deterministic backoff; ``RunResult.attempts`` counts executions.
    * ``spec.breaker_threshold`` — after that many consecutive hard
      failures of one (framework, kernel), its remaining cells become
      ``skipped`` results.
    * SIGTERM raises :class:`~repro.errors.CampaignAborted`, so the
      journal is flushed and resources are released on the way out.
    """
    spec = spec or BenchmarkSpec()
    frameworks = list(frameworks)
    graph_names = list(graph_names)
    kernels = list(kernels)
    modes = list(modes)
    # Lazy: repro.store (and the journal, which needs it) sit above
    # repro.core in the layering, and the executor imports this module.
    from ..resilience.journal import CheckpointJournal, campaign_fingerprint
    from ..store.environment import fingerprint
    from .executor import _CampaignState, _enumerate_cells, _run_pooled

    mode_values = [mode.value for mode in modes]
    framework_names = [framework.name for framework in frameworks]
    # Resolve any file-backed dataset references up front: an unreadable
    # file fails the campaign before anything executes, and the resulting
    # provenance map (ref -> path/digest/format) rides in the results meta,
    # the archive manifest, and the journal fingerprint so every consumer
    # can identify cells by content digest without touching the file.
    from ..graphs.datasets import graph_identities

    _, dataset_provenance = graph_identities(graph_names)
    campaign_meta: dict[str, object] = {
        "spec": spec.as_dict(),
        "environment": fingerprint(),
        "graphs": graph_names,
        "kernels": kernels,
        "modes": mode_values,
        "frameworks": framework_names,
        "jobs": spec.jobs,
    }
    if dataset_provenance:
        campaign_meta["datasets"] = dataset_provenance

    completed: dict[tuple[str, str, str, str], RunResult] = {}
    journal_obj: CheckpointJournal | None = None
    if journal is not None:
        cell_fingerprint = campaign_fingerprint(
            spec, graph_names, kernels, mode_values, framework_names,
            datasets=dataset_provenance or None,
        )
        if resume:
            journal_obj, completed = CheckpointJournal.resume(
                journal, cell_fingerprint
            )
        else:
            journal_obj = CheckpointJournal.create(journal, cell_fingerprint)

    state = _CampaignState(
        _enumerate_cells(frameworks, graph_names, modes, kernels),
        spec,
        telemetry if telemetry is not None else Telemetry(),
        journal_obj,
        strict,
        completed,
    )
    campaign_meta["resilience"] = {
        "retries": spec.retries,
        "breaker_threshold": spec.breaker_threshold,
        "journal": str(journal_obj.path) if journal_obj is not None else None,
        "resumed_cells": state.completed_count,
    }
    try:
        with graceful_shutdown():
            if spec.jobs > 1:
                _run_pooled(state, frameworks, cache, progress)
            else:
                _run_serial(state, frameworks, cache, progress)
    finally:
        if journal_obj is not None:
            journal_obj.close()
    results = state.result_set()
    campaign_meta["resilience"]["skipped_cells"] = len(results.skipped())
    results.meta.update(campaign_meta)
    return results
