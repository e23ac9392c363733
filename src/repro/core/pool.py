"""Persistent warm worker pools for the parallel campaign executor.

The first parallel executor spawned a fresh pool per campaign and paid
for it: at paper scale the cells are milliseconds long, so process
creation, interpreter/module setup, and teardown dominated wall time and
``--jobs 2`` ran at 0.41x of serial.  This module makes the pool a
long-lived object:

* **Spawn once** — :class:`WorkerPool` starts its workers at
  construction and keeps them alive across campaigns.  A campaign is a
  *message* (``begin_campaign``), not a pool lifetime: benchmarks and
  resumed campaigns hand the same pool handle to successive
  ``run_suite_parallel`` calls and pay spawn cost exactly once.
* **Lazy attach** — workers receive the shared-memory corpus handles
  with the campaign message but attach each graph only when a cell
  first needs it, so a resumed campaign whose remaining cells touch one
  graph never maps the others.
* **Lazy framework imports** — frameworks travel as pickled blobs and
  are unpickled in the worker on first use, so a worker that only ever
  runs ``gap`` cells never imports the other five framework stacks
  (under ``spawn`` contexts, unpickling is what triggers the import).
* **Batched dispatch** — the unit of work is a *batch* of cells
  (:mod:`repro.core.batching`): one queue message, one pickle, one
  wakeup per batch.  Workers still report ``start`` / ``cell`` per
  member, so supervision, telemetry, retries, and the journal all stay
  per-cell.
* **One channel per worker** — each slot talks to the parent over its
  own pipe, and the parent waits on all of them at once.  Killing a
  worker can lose only that worker's channel; a respawned worker gets a
  fresh one, so no message can outlive the worker that wrote it.

The pool is transport only: scheduling policy (deadlines, retries,
breakers, crash accounting) lives in :mod:`repro.core.executor`, which
owns the bookkeeping of what each slot was assigned.
"""

from __future__ import annotations

import multiprocessing
import pickle
import signal
from multiprocessing import connection
from typing import Mapping

from .runner import execute_cell
from .sharedmem import AttachedCase, SharedCaseHandle, attach_case
from .spec import BenchmarkSpec
from .telemetry import Telemetry

__all__ = ["WorkerPool"]


class _LazyFrameworks:
    """Worker-side framework registry: unpickle (and import) on first use."""

    def __init__(self, blobs: Mapping[str, bytes]) -> None:
        self._blobs = dict(blobs)
        self._loaded: dict[str, object] = {}

    def get(self, name: str):
        if name not in self._loaded:
            self._loaded[name] = pickle.loads(self._blobs[name])
        return self._loaded[name]


class _LazyCorpus:
    """Worker-side corpus: attach each graph's segment on first use."""

    def __init__(self, handles: Mapping[str, SharedCaseHandle]) -> None:
        self._handles = dict(handles)
        self._attached: dict[str, AttachedCase] = {}

    def get(self, graph: str):
        if graph not in self._attached:
            self._attached[graph] = attach_case(self._handles[graph])
        return self._attached[graph].case

    def close(self) -> None:
        for attachment in self._attached.values():
            attachment.close()
        self._attached.clear()


def _worker_main(slot: int, conn, parent_end) -> None:
    """Warm-worker loop: configure per campaign, drain batches until sentinel.

    ``conn`` is this worker's end of its private pipe: tasks arrive on it
    and ``start`` / ``cell`` reports leave on it.  ``parent_end`` is the
    pool's end, which the worker inherits and closes at once so that
    ``recv`` sees EOF, and the worker exits, if the parent dies.  Runs on
    the worker's main thread, so ``run_cell``'s in-process SIGALRM
    deadline is armed and catches interruptible overruns without costing
    a process kill; the parent's hard kill is the backstop for the rest.
    """
    parent_end.close()
    if hasattr(signal, "SIGTERM"):
        # Undo any graceful_shutdown handler inherited over fork: a worker
        # the parent terminates should just die, not raise CampaignAborted.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    spec: BenchmarkSpec | None = None
    corpus: _LazyCorpus | None = None
    frameworks: _LazyFrameworks | None = None
    telemetry = Telemetry()
    try:
        while True:
            try:
                task = conn.recv()
            except EOFError:  # the parent is gone
                return
            if task is None:
                return
            if task[0] == "campaign":
                _, spec, handles, blobs, track_memory = task
                if corpus is not None:
                    corpus.close()
                corpus = _LazyCorpus(handles)
                frameworks = _LazyFrameworks(blobs)
                telemetry = Telemetry(track_memory=track_memory)
                continue
            for cell, attempt in task[1]:
                conn.send(("start", slot, cell.index, attempt))
                result = execute_cell(
                    cell, frameworks.get, corpus.get, spec, telemetry, attempt=attempt
                )
                spans = [span.as_dict() for span in telemetry.spans]
                telemetry.spans.clear()
                conn.send(("cell", slot, cell.index, attempt, result, spans))
    finally:
        if corpus is not None:
            corpus.close()
        conn.close()


class WorkerPool:
    """A pool of warm worker processes, reusable across campaigns.

    Construction spawns the workers; :meth:`begin_campaign` (re)configures
    them for one campaign.  The executor drives slots explicitly:
    :meth:`submit` hands one batch to one slot, :meth:`receive` collects
    worker messages, :meth:`drain` reads what a dead slot left in its
    channel, and :meth:`respawn` replaces a dead or killed worker (the
    replacement is configured for the current campaign automatically).

    Each slot owns a private duplex pipe, created with its worker and
    closed when the worker is replaced.  A worker killed at any instant
    (even mid-``send``) can therefore damage only its own channel, and
    nothing an old worker wrote can reach its replacement's reader.  A
    send completes synchronously into the pipe (no feeder thread), so a
    cell a worker has reported survives the worker crashing on the very
    next batch member: the parent finds it in :meth:`drain`.

    ``fork`` is preferred (shares the already-imported interpreter state);
    ``spawn`` is the portable fallback — the campaign message carries
    everything a cold interpreter needs.
    """

    def __init__(self, jobs: int, context: str | None = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if context is None:
            methods = multiprocessing.get_all_start_methods()
            context = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(context)
        self._slots: dict[int, dict[str, object]] = {}
        self._campaign: tuple | None = None
        self._closed = False
        for slot in range(jobs):
            self._spawn(slot)

    @property
    def jobs(self) -> int:
        return len(self._slots)

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` ran; a closed pool cannot be reused."""
        return self._closed

    def pids(self) -> dict[int, int | None]:
        """Slot → worker PID (stable across campaigns unless respawned)."""
        return {slot: s["process"].pid for slot, s in self._slots.items()}

    def _spawn(self, slot: int) -> None:
        conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(slot, child_conn, conn), daemon=True
        )
        process.start()
        # Only the worker may hold the child end: once it dies, the
        # parent's reads see EOF instead of blocking on a torn message.
        child_conn.close()
        self._slots[slot] = {"process": process, "conn": conn, "eof": False}
        if self._campaign is not None:
            self._send(slot, ("campaign", *self._campaign))

    def _send(self, slot: int, message: object) -> None:
        # Callers write to a slot only while it has no assignment, so the
        # worker is waiting in recv() rather than blocked writing results
        # the parent is not reading: a blocking send cannot deadlock.  A
        # worker that died meanwhile surfaces through is_alive(), which
        # the executor's supervision already handles.
        try:
            self._slots[slot]["conn"].send(message)
        except OSError:
            pass

    def begin_campaign(
        self,
        spec: BenchmarkSpec,
        handles: Mapping[str, SharedCaseHandle],
        frameworks: Mapping[str, object],
        track_memory: bool = False,
    ) -> None:
        """Configure every worker for one campaign.

        Dead workers are replaced first, so a reused pool always starts a
        campaign at full strength.  Frameworks are pickled once here and
        unpickled lazily in workers on first use.
        """
        if self._closed:
            # A long-lived owner (the benchmark service) must hear about a
            # lifecycle bug immediately, not via hung pipe operations.
            raise RuntimeError("WorkerPool is shut down; create a new pool")
        blobs = {name: pickle.dumps(fw) for name, fw in frameworks.items()}
        self._campaign = (spec, dict(handles), blobs, track_memory)
        for slot in list(self._slots):
            if not self._slots[slot]["process"].is_alive():
                self.respawn(slot)  # respawn sends the campaign message
            else:
                self._send(slot, ("campaign", *self._campaign))

    def submit(self, slot: int, items: list) -> None:
        """Dispatch one batch of ``(cell, attempt)`` pairs to an idle slot."""
        self._send(slot, ("batch", list(items)))

    def receive(self, timeout: float | None = None) -> list:
        """Wait up to ``timeout`` for worker messages; return all readable.

        Messages are ``("start", slot, index, attempt)`` and
        ``("cell", slot, index, attempt, result, spans)``.  An empty list
        means nothing arrived in time.
        """
        readers = {
            state["conn"]: slot
            for slot, state in self._slots.items()
            if not state["eof"]
        }
        messages = []
        for conn in connection.wait(list(readers), timeout):
            messages.extend(self.drain(readers[conn]))
        return messages

    def drain(self, slot: int) -> list:
        """Every message still buffered in ``slot``'s channel, never blocking.

        The executor calls this for a dead worker before declaring its
        in-flight cell lost, so results reported just before the death
        are kept.  A worker killed mid-``send`` leaves a torn message,
        which ``recv`` reports as ``EOFError``/``OSError``: that marks the
        end of the channel, not an error of the campaign.
        """
        state = self._slots[slot]
        messages = []
        try:
            while not state["eof"] and state["conn"].poll(0):
                messages.append(state["conn"].recv())
        except (EOFError, OSError):
            state["eof"] = True
        return messages

    def is_alive(self, slot: int) -> bool:
        """Whether the worker currently occupying ``slot`` is running."""
        return self._slots[slot]["process"].is_alive()

    def exitcode(self, slot: int) -> int | None:
        """Exit code of the worker in ``slot`` (``None`` while alive)."""
        return self._slots[slot]["process"].exitcode

    def respawn(self, slot: int) -> None:
        """Replace one worker (killing it first if still alive).

        The old worker's channel is closed unread, so the replacement can
        never see a batch the executor already accounted as lost, and the
        parent never sees a message the old worker wrote.  The replacement
        is configured for the current campaign before it sees any work.
        """
        state = self._slots[slot]
        _stop(state["process"])
        state["conn"].close()
        self._spawn(slot)

    def reset(self) -> None:
        """Kill and respawn every worker, discarding in-flight work.

        Used when a campaign on a shared pool aborts: the pool stays
        usable for the next campaign, and closing the old channels drops
        anything the old workers managed to send.
        """
        for slot in list(self._slots):
            self.respawn(slot)

    def shutdown(self) -> None:
        """Stop all workers and close their channels.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for slot, state in self._slots.items():
            if state["process"].is_alive():
                self._send(slot, None)
        for state in self._slots.values():
            state["process"].join(5.0)
            _stop(state["process"])
            state["conn"].close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False


def _stop(process) -> None:
    """Terminate ``process`` if it is still running, escalating to SIGKILL."""
    if process.is_alive():
        process.terminate()
        process.join(1.0)
        if process.is_alive():  # pragma: no cover - SIGTERM blocked
            process.kill()
            process.join(1.0)
