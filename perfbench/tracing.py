"""Span recorder the benchmark wraps around calls into repro's layers.

The program under test is not edited: the traced run replaces a handful
of module attributes and methods with timing wrappers, records one span
per call (name, start, end, parent span, thread) in memory, and derives
each layer's *self time* afterwards: a span's duration minus the part of
it that its child spans cover.  Nothing is written until the run ends.

The wrapped boundaries are the layers the benchmark reports:

====================  ==================================================
span name             wrapped call
====================  ==================================================
graphs.build_case     ``repro.core.runner.build_case`` and the
                      ``repro.core.executor`` binding of it
executor.plan         ``repro.core.executor.plan_batches`` (n = batches)
sharedmem.publish     ``SharedCase.__init__`` (n = segment bytes)
pool.spawn            ``WorkerPool.__init__``
pool.respawn          ``WorkerPool.respawn``
journal.record        ``CheckpointJournal.record``
store.archive         ``RunArchive.archive_run``
store.index_add       ``CellIndex.add_many`` (n = entries appended)
service.executor      ``repro.service.server.run_suite_parallel``
====================  ==================================================
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

__all__ = ["SpanRecorder", "install_layer_wrappers"]


class _Span:
    __slots__ = ("recorder", "name", "id", "parent", "start", "n")

    def __init__(self, recorder: "SpanRecorder", name: str) -> None:
        self.recorder = recorder
        self.name = name
        self.n = None

    def __enter__(self) -> "_Span":
        stack = self.recorder._stack()
        self.id = next(self.recorder._ids)
        self.parent = stack[-1].id if stack else None
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        self.recorder._stack().pop()
        self.recorder.spans.append(
            {
                "id": self.id,
                "name": self.name,
                "start": self.start,
                "end": end,
                "parent": self.parent,
                "thread": threading.get_ident(),
                "n": self.n,
            }
        )
        return False


class SpanRecorder:
    """In-memory spans with per-thread parent tracking."""

    def __init__(self) -> None:
        self.spans: list[dict[str, object]] = []
        #: Telemetry cell records captured from wrapped executor calls.
        self.cell_records: list[dict[str, object]] = []
        self._local = threading.local()
        # itertools.count and list.append are atomic under the GIL, so
        # server threads can record concurrently without a lock.
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> _Span:
        """Open a span around a ``with`` block."""
        return _Span(self, name)

    def wrap(self, owner: object, attr: str, name: str, measure=None) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.

        ``measure(args, kwargs, result)`` may return a number stored as the
        span's ``n`` (bytes published, batches planned, entries added).
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
                if measure is not None:
                    span.n = measure(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``wall_s``, ``self_s`` and summed ``n``."""
        records = list(self.spans)
        child_wall: dict[int, float] = defaultdict(float)
        for record in records:
            if record["parent"] is not None:
                child_wall[record["parent"]] += record["end"] - record["start"]
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "n": 0}
        )
        for record in records:
            wall = record["end"] - record["start"]
            entry = totals[record["name"]]
            entry["calls"] += 1
            entry["wall_s"] += wall
            entry["self_s"] += wall - child_wall[record["id"]]
            entry["n"] += record["n"] or 0
        return dict(totals)


def install_layer_wrappers(recorder: SpanRecorder, service: bool = False) -> None:
    """Wrap every layer boundary listed in the module docstring.

    ``service=True`` also wraps the server's executor binding and keeps
    the telemetry cell records each executed job produced, so the traced
    server can report kernel, prepare and verify time like the matrix
    workloads do.
    """
    from repro.core import executor, runner
    from repro.core.pool import WorkerPool
    from repro.core.sharedmem import SharedCase
    from repro.resilience.journal import CheckpointJournal
    from repro.store.archive import RunArchive
    from repro.store.cellindex import CellIndex

    recorder.wrap(runner, "build_case", "graphs.build_case")
    recorder.wrap(executor, "build_case", "graphs.build_case")
    recorder.wrap(
        executor, "plan_batches", "executor.plan",
        measure=lambda args, kwargs, result: len(result),
    )
    recorder.wrap(
        SharedCase, "__init__", "sharedmem.publish",
        measure=lambda args, kwargs, result: args[0].nbytes,
    )
    recorder.wrap(WorkerPool, "__init__", "pool.spawn")
    recorder.wrap(WorkerPool, "respawn", "pool.respawn")
    recorder.wrap(CheckpointJournal, "record", "journal.record")
    recorder.wrap(RunArchive, "archive_run", "store.archive")
    recorder.wrap(
        CellIndex, "add_many", "store.index_add",
        measure=lambda args, kwargs, result: result,
    )
    if service:
        from repro.service import server

        def keep_cells(args, kwargs, result):
            telemetry = kwargs.get("telemetry")
            if telemetry is not None:
                recorder.cell_records.extend(telemetry.records())
            return len(result)

        recorder.wrap(
            server, "run_suite_parallel", "service.executor", measure=keep_cells
        )
