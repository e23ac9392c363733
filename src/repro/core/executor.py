"""Campaign state and the warm-pool way of executing its cells.

A campaign is one loop over one :class:`_CampaignState`, which owns every
piece of bookkeeping that does not depend on where a cell runs: resume
pre-fill, canonical result assembly, retry scheduling, circuit-breaker
skips, journal appends, ``on_result`` and strict fail-fast.  A cell
executes one of two ways, both through
:func:`~repro.core.runner.execute_cell`: in the caller's process (the
serial walk in :mod:`repro.core.runner`), or on a warm worker process,
as this module arranges.  The serial walk alone keeps one graph case
resident, sleeps a retry's backoff inline, and has only the soft SIGALRM
deadline.

On the pool, the independent (framework, kernel, graph, mode) cells are
sharded across a :class:`~repro.core.pool.WorkerPool`.  Workers are
*warm*: spawned once per pool, reusable across campaigns via a pool
handle, configured per campaign by message, attaching the shared-memory
corpus lazily (:mod:`repro.core.sharedmem`) and unpickling frameworks on
first use.  Each worker reports over its own pipe, so a killed worker can
lose only its own channel.  Process isolation turns
``BenchmarkSpec.trial_timeout`` into a **hard** deadline: a worker stuck
inside one long C call is killed by the parent once its cell exceeds its
trial budgets, the cell is recorded as a ``timeout`` result, and a
respawned worker keeps the campaign going.

Dispatch is **batched** (:mod:`repro.core.batching`): the parent hands a
worker a contiguous run of cells per message, sized by a trial-count
cost model, so pipe/pickle/wakeup overhead is paid per batch while
everything observable stays per-cell — workers echo ``start`` and
``cell`` messages per member, telemetry spans are per cell, the journal
records cells individually, and retry/breaker decisions act on cells.
Timeout-sensitive cells are planned as singleton batches so the hard
kill can never destroy a sibling queued behind a hung cell.

Every cell runs the same measurement protocol
(:func:`~repro.core.runner.run_cell`): sources, counters, verification,
and statuses are identical to the serial walk — only wall-clock
parallelism and the kill guarantee differ.
``tests/test_executor_matrix.py`` pins that equivalence across serial,
per-cell, and batched execution.

Dispatch is **parent-driven**: instead of pre-queuing the whole
campaign, the parent hands out one batch per free worker slot and keeps
its own record of every assignment.  That is what lets the resilience
layer act mid-campaign: a worker that dies mid-batch loses only the
in-flight cell (cells it reported before dying are read back from its
channel; the rest of its batch is re-dispatched), a transiently
failed cell re-enters the queue after its deterministic backoff, a cell
whose worker died twice falls back to in-parent execution, an open
circuit breaker prunes its combo's cells out of still-queued batches as
``skipped`` results, and every finalized cell is durably appended to
the checkpoint journal the moment it completes.

The graph axis may include file-backed datasets (``file:``/``dataset:``
references, :mod:`repro.graphs.datasets`) with no executor-visible
difference: the parent ingests each file exactly once in ``build_case``
and publishes the resulting CSR views through the shared-memory corpus
like any generated graph — workers never touch the filesystem.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from ..errors import CellFailedError, TrialTimeoutError
from ..frameworks.base import KERNELS, Framework, Mode
from ..graphs.cache import GraphCache
from ..resilience.breaker import CircuitBreaker
from ..resilience.retry import RetryPolicy
from .batching import Cell, plan_batches
from .pool import WorkerPool
from .results import ResultSet, RunResult
from .runner import build_case, execute_cell
from .sharedmem import SharedCase, attach_case
from .spec import BenchmarkSpec
from .telemetry import STATUS_ERROR, STATUS_SKIPPED, STATUS_TIMEOUT, Span, Telemetry

if TYPE_CHECKING:  # layering: the journal lives above repro.core
    from ..resilience.journal import CheckpointJournal

__all__ = [
    "run_suite_parallel",
    "DEFAULT_KILL_GRACE_SECONDS",
]

#: Supervisor poll interval while waiting for worker messages.
_POLL_SECONDS = 0.05

#: Extra wall-clock headroom past a cell's summed trial budgets before the
#: parent hard-kills the worker (covers prepare/verify and IPC latency).
DEFAULT_KILL_GRACE_SECONDS = 2.0

def _cell_budget(spec: BenchmarkSpec, kernel: str, grace: float) -> float:
    """Hard wall-clock budget for one cell (sum of trial deadlines + grace)."""
    return spec.trial_timeout * spec.num_trials(kernel) + grace


def _enumerate_cells(
    framework_list: list[Framework],
    graph_names: list[str],
    modes: list[Mode],
    kernels: list[str],
) -> list[Cell]:
    """The campaign grid in canonical cell order (graph→mode→kernel→fw)."""
    cells: list[Cell] = []
    for graph_name in graph_names:
        for mode in modes:
            for kernel in kernels:
                for framework in framework_list:
                    cells.append(
                        Cell(len(cells), graph_name, mode, kernel, framework.name)
                    )
    return cells


def _cell_attributes(cell: Cell) -> dict[str, str]:
    return {
        "framework": cell.framework,
        "kernel": cell.kernel,
        "graph": cell.graph,
        "mode": cell.mode.value,
    }


def _killed_cell_span(cell: Cell, status: str, message: str, wall: float) -> Span:
    """Parent-side span for a cell whose worker never reported back."""
    span = Span(
        name="cell",
        attributes=_cell_attributes(cell),
        status=status,
        wall_seconds=wall,
    )
    span.error = {
        "type": "TrialTimeoutError" if status == STATUS_TIMEOUT else "WorkerCrash",
        "message": message,
        "traceback": "",
    }
    return span


class _CampaignState:
    """Per-cell accounting of one campaign, whichever way its cells execute.

    Owns everything that is independent of how a cell runs: canonical
    result assembly, resume pre-fill, the pending batch queue, retry
    scheduling, circuit-breaker skips (including pruning queued batches),
    journal appends, ``on_result`` and strict-mode fail-fast.  The serial
    walk (:func:`repro.core.runner._run_serial`) and the pool supervisor
    (:func:`_run_pooled`) both drive it.
    """

    def __init__(
        self,
        cells: list[Cell],
        spec: BenchmarkSpec,
        tel: Telemetry,
        journal: "CheckpointJournal | None",
        strict: bool,
        completed: Mapping[tuple[str, str, str, str], RunResult] | None,
        on_result: Callable[[Cell, RunResult], None] | None = None,
    ) -> None:
        self.cells = cells
        self.spec = spec
        self.tel = tel
        self.journal = journal
        self.strict = strict
        self.on_result = on_result
        self.policy = RetryPolicy(retries=spec.retries)
        self.breaker = CircuitBreaker(spec.breaker_threshold)
        self.results_by_index: dict[int, RunResult] = {}
        completed = dict(completed or {})
        for cell in cells:
            key = (cell.graph, cell.mode.value, cell.kernel, cell.framework)
            if key in completed:
                self.results_by_index[cell.index] = completed[key]
        self.completed_count = len(self.results_by_index)
        #: Batches ready to hand to a worker, in canonical order; retries
        #: rejoin here (as singleton batches) once their backoff elapses.
        self.pending: deque[list[tuple[Cell, int]]] = deque()
        #: Retries waiting out their backoff: (ready_at, cell, attempt).
        self.retry_waiting: list[tuple[float, Cell, int]] = []

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def done(self) -> bool:
        return self.completed_count >= self.total

    def runnable(self) -> list[Cell]:
        return [c for c in self.cells if c.index not in self.results_by_index]

    def queue_batches(self, batches: Iterable[list[Cell]]) -> None:
        for batch in batches:
            self.pending.append([(cell, 0) for cell in batch])

    def skip_if_open(self, cell: Cell) -> bool:
        """Record ``cell`` as ``skipped`` if its combo's breaker is open.

        The skip's telemetry span is built directly (nothing executes): it
        carries zero wall time and the skip reason, keeping the trace one
        record per cell.
        """
        if not self.breaker.is_open(cell.framework, cell.kernel):
            return False
        reason = self.breaker.reason(cell.framework, cell.kernel)
        result = RunResult.failed(cell, STATUS_SKIPPED, reason)
        self.results_by_index[cell.index] = result
        self.completed_count += 1
        self.tel.ingest(
            Span(
                name="cell",
                attributes={**_cell_attributes(cell), "skip_reason": reason},
                status=STATUS_SKIPPED,
            )
        )
        if self.journal is not None:
            self.journal.record(result)
        if self.on_result is not None:
            self.on_result(cell, result)
        return True

    def _unskipped(self, batch: list[tuple[Cell, int]]) -> list[tuple[Cell, int]]:
        """``batch`` without the members an open breaker skips.

        Members are pruned *individually*: surviving cells of a batch stay
        batched.
        """
        return [
            (cell, attempt) for cell, attempt in batch if not self.skip_if_open(cell)
        ]

    def prune_open_batches(self) -> None:
        """Strip newly opened combos out of still-queued batches."""
        self.pending = deque(
            kept for kept in map(self._unskipped, self.pending) if kept
        )

    def finalize(self, cell: Cell, result: RunResult, attempt: int) -> None:
        """Commit a cell's final result: journal, breaker, strict check.

        Strict mode raises *before* committing anything: the failing cell
        is never journaled, so a resumed campaign re-executes it instead
        of restoring the failure.
        """
        if self.strict and not result.ok:
            if result.status == STATUS_TIMEOUT:
                raise TrialTimeoutError(f"cell {cell.label}: {result.error}")
            raise CellFailedError(f"cell {cell.label} failed: {result.error}")
        result.attempts = attempt + 1
        self.results_by_index[cell.index] = result
        self.completed_count += 1
        opened = self.breaker.record(cell.framework, cell.kernel, result.ok)
        if self.journal is not None:
            self.journal.record(result)
        if self.on_result is not None:
            # After the journal append: a streamed result is always at
            # least as durable as what a resume would reconstruct.
            self.on_result(cell, result)
        if opened:
            self.prune_open_batches()

    def wants_retry(self, result: RunResult, attempt: int) -> bool:
        """Whether this attempt's failure is transient and within budget."""
        return not result.ok and self.policy.should_retry(
            result.status, result.error, attempt
        )

    def settle(self, cell: Cell, result: RunResult, attempt: int) -> None:
        """Route one pool-executed attempt: finalize it or queue a retry."""
        if not self.wants_retry(result, attempt):
            self.finalize(cell, result, attempt)
            return
        self.retry_waiting.append(
            (time.monotonic() + self.policy.backoff_seconds(attempt), cell, attempt + 1)
        )

    def next_batch(self) -> list[tuple[Cell, int]] | None:
        """Pop the next dispatchable batch, skipping open-breaker cells."""
        while self.pending:
            batch = self._unskipped(self.pending.popleft())
            if batch:
                return batch
        return None

    def due_retries(self, now: float) -> list[tuple[Cell, int]]:
        """Pop retries whose backoff has elapsed (breaker-skips applied)."""
        due = [entry for entry in self.retry_waiting if entry[0] <= now]
        for entry in due:
            self.retry_waiting.remove(entry)
        return self._unskipped([(cell, attempt) for _, cell, attempt in due])

    def result_set(self) -> ResultSet:
        return ResultSet(
            [self.results_by_index[index] for index in range(self.total)]
        )


def run_suite_parallel(
    frameworks: Iterable[Framework],
    graph_names: Iterable[str],
    kernels: Iterable[str] = KERNELS,
    modes: Iterable[Mode] = (Mode.BASELINE, Mode.OPTIMIZED),
    spec: BenchmarkSpec | None = None,
    progress: Callable[[str], None] | None = None,
    telemetry: Telemetry | None = None,
    strict: bool = False,
    cache: GraphCache | None = None,
    kill_grace: float = DEFAULT_KILL_GRACE_SECONDS,
    journal: "CheckpointJournal | None" = None,
    completed: Mapping[tuple[str, str, str, str], RunResult] | None = None,
    pool: WorkerPool | None = None,
    on_result: Callable[[Cell, RunResult], None] | None = None,
) -> ResultSet:
    """Run a campaign over a process pool; see the module docstring.

    ``run_suite`` with ``spec.jobs > 1`` executes the same way and adds
    the campaign meta; this entry point additionally exposes
    ``kill_grace`` (headroom past a cell's trial budgets before the hard
    kill) and ``pool`` — a warm :class:`~repro.core.pool.WorkerPool` to
    reuse across campaigns (the caller keeps ownership and its
    ``pool.jobs`` sets the parallelism; without one, a pool of
    ``spec.jobs`` workers is created and shut down within this call).
    ``journal`` receives every finalized cell; ``completed`` (cell key →
    result, from a resumed journal) pre-fills those cells — they are
    neither re-executed nor re-journaled, and their graphs are not even
    exported if no other cell needs them.  ``on_result`` is invoked in the
    parent, once per finalized cell (including breaker skips, excluding
    pre-filled ``completed`` cells), right after the journal append — the
    benchmark service streams each cell to subscribed clients from
    exactly this point.
    """
    spec = spec or BenchmarkSpec()
    framework_list = list(frameworks)
    state = _CampaignState(
        _enumerate_cells(framework_list, list(graph_names), list(modes), list(kernels)),
        spec,
        telemetry if telemetry is not None else Telemetry(),
        journal,
        strict,
        completed,
        on_result,
    )
    _run_pooled(state, framework_list, cache, progress, kill_grace, pool)
    return state.result_set()


def _run_pooled(
    state: _CampaignState,
    frameworks: list[Framework],
    cache: GraphCache | None,
    progress: Callable[[str], None] | None,
    kill_grace: float = DEFAULT_KILL_GRACE_SECONDS,
    pool: WorkerPool | None = None,
) -> None:
    """Execute a campaign's runnable cells on a warm worker pool."""
    if state.done:
        return
    spec, tel, cells = state.spec, state.tel, state.cells
    frameworks_by_name = {fw.name: fw for fw in frameworks}
    runnable = state.runnable()
    needed_graphs = {cell.graph for cell in runnable}

    own_pool = pool is None
    worker_count = max(1, min(spec.jobs, len(runnable))) if own_pool else pool.jobs
    state.queue_batches(plan_batches(runnable, spec, worker_count, spec.batch_size))

    shared: dict[str, SharedCase] = {}
    #: Slot → the batch tail the worker has not reported back yet.
    assigned: dict[int, deque[tuple[Cell, int]]] = {}
    started: dict[int, float] = {}
    deadline: dict[int, float | None] = {}
    #: Worker deaths per cell index — two means crash loop, fall back in-parent.
    deaths: dict[int, int] = {}
    clean_exit = False

    def batch_deadline(batch: Iterable[tuple[Cell, int]], now: float) -> float | None:
        if spec.trial_timeout is None:
            return None
        return now + sum(
            _cell_budget(spec, cell.kernel, kill_grace) for cell, _ in batch
        )

    def dispatch() -> None:
        """Assign pending batches to idle live workers, slot by slot."""
        for slot in assigned:
            if assigned[slot] or not pool.is_alive(slot):
                continue
            batch = state.next_batch()
            if batch is None:
                return
            now = time.monotonic()
            assigned[slot] = deque(batch)
            started[slot] = now
            deadline[slot] = batch_deadline(batch, now)
            pool.submit(slot, batch)

    def run_in_parent(cell: Cell, attempt: int) -> float:
        """Crash-loop fallback: execute the cell in this process.

        Two dead workers in a row for one cell means dispatching a third
        is likely to burn another process for nothing; the parent attaches
        to its own shared segment (zero-copy) and runs the cell serially
        instead.  Returns the elapsed wall time so the supervisor can
        extend the deadlines of workers it could not watch meanwhile.
        """
        if progress is not None:
            progress(f"{cell.label} (in-parent)")
        begun = time.monotonic()
        attachment = attach_case(shared[cell.graph].handle)
        try:
            result = execute_cell(
                cell, frameworks_by_name.__getitem__, lambda _graph: attachment.case,
                spec, tel, attempt=attempt,
            )
        finally:
            attachment.close()
        state.settle(cell, result, attempt)
        return time.monotonic() - begun

    def handle(message: tuple) -> None:
        """Account one worker message against its slot's assignment."""
        kind, slot, index, attempt = message[:4]
        if kind == "start":
            # The assignment is already recorded (dispatch did it); the
            # echo just restarts the deadline clock so pipe latency and
            # batch predecessors never eat into a cell's kill budget.
            now = time.monotonic()
            started[slot] = now
            if spec.trial_timeout is not None:
                deadline[slot] = now + _cell_budget(
                    spec, cells[index].kernel, kill_grace
                )
            if progress is not None:
                progress(cells[index].label)
            return
        result, span_records = message[4:]
        batch = assigned[slot]
        batch.popleft()
        now = time.monotonic()
        started[slot] = now
        deadline[slot] = batch_deadline(batch, now) if batch else None
        for record in span_records:
            tel.ingest(Span.from_dict(record))
        state.settle(cells[index], result, attempt)

    try:
        # Build the still-needed corpus once (cache-aware) and publish it.
        for graph_name in needed_graphs:
            shared[graph_name] = SharedCase(
                build_case(graph_name, spec, cache, telemetry=tel)
            )

        if own_pool:
            pool = WorkerPool(worker_count)
        pool.begin_campaign(
            spec,
            {name: sc.handle for name, sc in shared.items()},
            frameworks_by_name,
            tel.track_memory,
        )
        for slot in range(pool.jobs):
            assigned[slot] = deque()
            started[slot] = 0.0
            deadline[slot] = None
        dispatch()

        while not state.done:
            # Handle every readable message before supervising deadlines,
            # so a "cell" that arrived while the parent was busy (e.g. an
            # in-parent fallback run) is never mistaken for an overrun.
            for message in pool.receive(timeout=_POLL_SECONDS):
                handle(message)

            now = time.monotonic()
            for slot in list(assigned):
                batch = assigned[slot]
                alive = pool.is_alive(slot)
                if not alive and batch:
                    # Whatever the worker reported before it died is still
                    # buffered in its channel: settle that first, so only
                    # the cell it was actually running is lost.
                    for message in pool.drain(slot):
                        handle(message)
                if not batch:
                    # A worker that died while idle is replaced so dispatch
                    # keeps flowing.
                    if not alive and not state.done:
                        pool.respawn(slot)
                    continue
                overdue = deadline[slot] is not None and now > deadline[slot]
                if not overdue and alive:
                    continue
                if alive:
                    status = STATUS_TIMEOUT
                    cell = batch[0][0]
                    message_text = (
                        f"hard deadline: cell exceeded "
                        f"{_cell_budget(spec, cell.kernel, kill_grace):.6g}s "
                        f"({spec.num_trials(cell.kernel)} trial(s) x "
                        f"{spec.trial_timeout:.6g}s + {kill_grace:.6g}s grace); "
                        "worker killed"
                    )
                else:
                    status = STATUS_ERROR
                    message_text = (
                        f"worker process died mid-cell "
                        f"(exit code {pool.exitcode(slot)})"
                    )
                # Only the in-flight head is lost; the rest of the batch
                # was never started and is re-dispatched untouched.
                head_cell, head_attempt = batch.popleft()
                tail = list(batch)
                assigned[slot] = deque()
                deadline[slot] = None
                if tail:
                    state.pending.appendleft(tail)
                if not alive:
                    deaths[head_cell.index] = deaths.get(head_cell.index, 0) + 1
                tel.ingest(
                    _killed_cell_span(
                        head_cell, status, message_text, now - started[slot]
                    )
                )
                lost = RunResult.failed(head_cell, status, message_text)
                state.settle(head_cell, lost, head_attempt)
                # Respawning kills an overdue worker and closes its channel,
                # so a result it might still send can never be counted —
                # even when this was the campaign's last cell.
                if alive or not state.done:
                    pool.respawn(slot)

            # Release retries whose deterministic backoff has elapsed.
            for cell, attempt in state.due_retries(time.monotonic()):
                if deaths.get(cell.index, 0) >= 2:
                    inline_elapsed = run_in_parent(cell, attempt)
                    for slot in deadline:
                        if deadline[slot] is not None:
                            deadline[slot] += inline_elapsed
                else:
                    state.pending.append([(cell, attempt)])

            dispatch()

        clean_exit = True
    finally:
        if own_pool:
            if pool is not None:
                pool.shutdown()
        elif pool is not None and (not clean_exit or any(assigned.values())):
            # The caller's warm pool survives an aborted campaign, but its
            # workers may be mid-cell: replace them (and their channels)
            # so the next campaign starts clean.
            pool.reset()
        for shared_case in shared.values():
            shared_case.close(unlink=True)

    return state.result_set()
