"""The memoizing benchmark server.

:class:`BenchmarkService` is the core (transport-free) machine; the HTTP
layer at the bottom of the module is a thin threaded front end over it.
The submission path:

1. **Classify** (under one lock): every cell of the request is digested
   (:func:`repro.store.cellindex.cell_digest`, spec+environment prefix
   hashed once per request) and becomes a *hit* (in the warm result
   cache or the persistent cell index), a *subscription* (an identical
   cell is already executing for an earlier submission — request
   coalescing), or an *owned miss*.
2. **Serve hits immediately**: cached cells stream back as pre-encoded
   event lines without touching the executor — the cache-first read
   path that keeps p95 flat under concurrent load.
3. **Execute misses** on the single engine thread through
   :func:`repro.core.executor.run_suite_parallel`, over one warm
   :class:`~repro.core.pool.WorkerPool` shared across all submissions
   (bounded in-flight compute: one executing job, a bounded queue of
   waiting jobs).  Every finalized cell is fsynced to a per-job
   checkpoint journal *before* it is streamed, so a crashed server can
   recover completed cells on restart (``repro serve --resume``).
4. **Archive + index**: the job's executed cells are archived as one
   content-addressed run; each successful cell's digest is durably
   appended to the cell index, making it a hit for every future
   submission.  Failures (error/timeout/skipped cells) are archived for
   the record but never memoized — a re-submission re-executes them.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import sys
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from queue import Full, Queue
from typing import Callable, Iterator

from ..core.executor import run_suite_parallel
from ..core.pool import WorkerPool
from ..core.results import ResultSet, RunResult
from ..core.telemetry import Telemetry
from ..errors import JournalError, ReproError, ServiceError
from ..frameworks import Mode
from ..frameworks.registry import get as get_framework
from ..graphs.cache import GraphCache
from ..graphs.datasets import graph_identities
from ..resilience.journal import CheckpointJournal, campaign_fingerprint, read_journal
from ..store.archive import RunArchive
from ..store.cellindex import (
    cell_digest,
    identity_hasher,
    normalize_cell_key,
)
from ..store.environment import fingerprint
from ..store.integrity import (
    last_scrub_report,
    open_self_healing_index,
    quarantine_count,
    quarantine_run,
    verify_run,
)
from .protocol import CampaignRequest, encode_event

__all__ = ["BenchmarkService", "ServiceHTTPServer", "serve_forever"]

#: Cells kept in the in-memory hot cache (evicted entries reload from
#: the archive on next touch; the persistent index is never evicted).
DEFAULT_RESULT_CACHE_SIZE = 65536

#: Campaigns allowed to wait for the engine before submissions bounce.
DEFAULT_MAX_PENDING_JOBS = 16

#: Disk low-watermark: below this many free bytes at the archive root
#: the service degrades to hits-only read-only mode instead of risking
#: half-written runs.  Overridable per server (``--min-free-mb``) or via
#: the environment for subprocess harnesses.
DEFAULT_MIN_FREE_BYTES = 64 * 1024 * 1024

#: Environment overrides for the admission watermarks (used by the chaos
#: harness to force degraded mode deterministically in a subprocess).
MIN_FREE_BYTES_ENV = "REPRO_MIN_FREE_BYTES"
MIN_AVAILABLE_MEMORY_ENV = "REPRO_MIN_AVAILABLE_MEMORY"

#: Retry hint carried by ``degraded`` rejection events.
DEGRADED_RETRY_AFTER_SECONDS = 30.0

#: How often the watchdog checks that the engine thread is alive.
DEFAULT_WATCHDOG_INTERVAL = 1.0


def available_memory_bytes() -> int | None:
    """``MemAvailable`` from /proc/meminfo, or None where unreadable."""
    try:
        with open("/proc/meminfo", encoding="ascii") as stream:
            for line in stream:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


class _Inflight:
    """One currently-executing cell: who to notify, and the result so far."""

    __slots__ = ("subscribers", "line")

    def __init__(self) -> None:
        self.subscribers: list[Queue] = []
        self.line: bytes | None = None


class _Job:
    """One enqueued execution: a request's owned misses."""

    __slots__ = ("request", "spec", "hasher", "owned", "queue", "seq", "datasets")

    def __init__(self, request, spec, hasher, owned, queue, seq, datasets) -> None:
        self.request = request
        self.spec = spec
        self.hasher = hasher
        #: ``[(digest, cell_key), ...]`` in canonical order.
        self.owned = owned
        self.queue = queue
        self.seq = seq
        #: Dataset provenance map (ref -> path/digest/format entry) for
        #: file-backed graphs on the request's axes; empty otherwise.
        self.datasets = datasets


class BenchmarkService:
    """Memoize-or-execute campaign server core (transport-agnostic)."""

    def __init__(
        self,
        archive_dir: str | Path | None = None,
        jobs: int = 1,
        cache_dir: str | Path | None = None,
        journal_dir: str | Path | None = None,
        max_pending_jobs: int = DEFAULT_MAX_PENDING_JOBS,
        result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
        resume: bool = False,
        min_free_bytes: int | None = None,
        min_available_memory_bytes: int | None = None,
        watchdog_interval: float = DEFAULT_WATCHDOG_INTERVAL,
    ) -> None:
        self.archive = RunArchive(archive_dir)
        # A corrupt cell index quarantines + rebuilds from the archive
        # instead of refusing to start: the index is a cache, the runs
        # are the source of truth.
        self.index, self.index_heal_report = open_self_healing_index(self.archive)
        if min_free_bytes is None:
            min_free_bytes = int(
                os.environ.get(MIN_FREE_BYTES_ENV, DEFAULT_MIN_FREE_BYTES)
            )
        if min_available_memory_bytes is None:
            min_available_memory_bytes = int(
                os.environ.get(MIN_AVAILABLE_MEMORY_ENV, 0)
            )
        self.min_free_bytes = int(min_free_bytes)
        self.min_available_memory_bytes = int(min_available_memory_bytes)
        self.journal_dir = (
            Path(journal_dir)
            if journal_dir is not None
            else self.archive.root / "journals"
        )
        self.jobs = max(1, int(jobs))
        self.cache = GraphCache(cache_dir) if cache_dir is not None else GraphCache()
        self._lock = threading.Lock()
        #: digest → {"line": bytes, "payload": dict, "run_id": str|None,
        #: "cell": tuple}; LRU over *hot* entries (the index is complete).
        self._results: "OrderedDict[str, dict]" = OrderedDict()
        self._result_cache_size = int(result_cache_size)
        self._inflight: dict[str, _Inflight] = {}
        self._queue: "Queue[_Job | None]" = Queue(maxsize=max(1, int(max_pending_jobs)))
        self._pool: WorkerPool | None = None
        self._job_seq = 0
        self._started_at = time.time()
        self._closed = False
        #: Set by :meth:`shutdown`; wakes the watchdog so it exits at once.
        self._stopping = threading.Event()
        self._draining = False
        self._engine_job: _Job | None = None
        self._watchdog_interval = max(0.05, float(watchdog_interval))
        self.stats: dict[str, int] = {
            "submissions": 0,
            "cells_requested": 0,
            "cells_hit": 0,
            "cells_coalesced": 0,
            "cells_executed": 0,
            "jobs_executed": 0,
            "jobs_rejected": 0,
            "jobs_failed": 0,
            "cells_recovered": 0,
            "engine_restarts": 0,
            "submissions_degraded": 0,
            "cells_degraded_rejected": 0,
            "runs_quarantined": 0,
            "client_disconnects": 0,
        }
        self.recovery_report: list[dict[str, object]] = []
        #: Runs refused at serve time (digest mismatch → quarantined).
        self.integrity_events: list[dict[str, object]] = []
        if resume:
            self.recovery_report = self._recover_journals()
        self._engine = self._spawn_engine()
        self._watchdog = threading.Thread(
            target=self._watchdog_loop, name="service-watchdog", daemon=True
        )
        self._watchdog.start()

    def _spawn_engine(self) -> threading.Thread:
        engine = threading.Thread(
            target=self._engine_loop, name="service-engine", daemon=True
        )
        engine.start()
        return engine

    # -- submission (handler threads) -----------------------------------

    def submit_events(
        self, request: CampaignRequest
    ) -> Iterator[tuple[bytes, bool]]:
        """Process one submission; yields ``(block, final)`` pairs.

        A block is one or more encoded NDJSON event lines.  The generator
        is the whole request lifecycle: classification runs on first
        ``next()``, and the first block carries everything known then —
        ``accepted`` and every hit, plus the terminal event when nothing
        is pending, in which case it is also the ``final`` block.
        Otherwise the generator blocks between events while misses
        execute, yielding each executed cell as its own block, and the
        terminal event last.
        """
        spec = request.spec()
        # Resolve dataset references before anything is classified or
        # enqueued: the files live on the *server's* filesystem, so an
        # unresolvable reference is a structured error event, not a
        # protocol rejection (and certainly not an engine crash).
        try:
            _, datasets = graph_identities(request.graphs)
        except ReproError as exc:
            yield encode_event(
                {
                    "event": "error",
                    "campaign": request.campaign_id,
                    "message": f"dataset resolution failed: {exc}",
                }
            ), True
            return
        hasher = identity_hasher(spec)
        cells = request.cell_keys()
        queue: Queue = Queue()
        hit_lines: list[bytes] = []
        owned: list[tuple[str, tuple[str, str, str, str]]] = []
        pending: set[str] = set()
        rejected: list[tuple[str, str, str, str]] = []
        # Admission control: when disk (or memory) is under its watermark
        # — or the server is draining for shutdown — new *misses* are
        # rejected before anything is claimed or enqueued, so a resource-
        # critical submission can never cause a partial write.  Hits and
        # coalesced subscriptions are read-only and still served.
        degraded_reasons = self.degraded_reasons()

        with self._lock:
            self.stats["submissions"] += 1
            self.stats["cells_requested"] += len(cells)
            if degraded_reasons:
                self.stats["submissions_degraded"] += 1
            for key in cells:
                digest = cell_digest(
                    None, normalize_cell_key(key, datasets), hasher=hasher
                )
                line = self._hit_line_locked(digest)
                if line is not None:
                    hit_lines.append(line)
                    self.stats["cells_hit"] += 1
                    continue
                entry = self._inflight.get(digest)
                if entry is not None:
                    self.stats["cells_coalesced"] += 1
                    if entry.line is not None:
                        # Already finished executing, not yet archived:
                        # replay the streamed event instead of waiting.
                        hit_lines.append(entry.line)
                    else:
                        entry.subscribers.append(queue)
                        pending.add(digest)
                    continue
                if degraded_reasons:
                    rejected.append(key)
                    self.stats["cells_degraded_rejected"] += 1
                    continue
                self._inflight[digest] = _Inflight()
                self._inflight[digest].subscribers.append(queue)
                owned.append((digest, key))
                pending.add(digest)

        job: _Job | None = None
        if owned:
            with self._lock:
                self._job_seq += 1
                seq = self._job_seq
            job = _Job(request, spec, hasher, owned, queue, seq, datasets)
            try:
                self._queue.put_nowait(job)
            except Full:
                with self._lock:
                    for digest, _ in owned:
                        self._inflight.pop(digest, None)
                    self.stats["jobs_rejected"] += 1
                yield encode_event(
                    {
                        "event": "error",
                        "campaign": request.campaign_id,
                        "message": (
                            "server at capacity: "
                            f"{self._queue.maxsize} campaigns already queued"
                        ),
                    }
                ), True
                return

        head = encode_event(
            {
                "event": "accepted",
                "campaign": request.campaign_id,
                "cells": len(cells),
                "hits": len(hit_lines),
                "pending": len(pending),
                **({"rejected": len(rejected)} if rejected else {}),
            }
        ) + b"".join(hit_lines)

        fresh_run_id: str | None = None
        failure: str | None = None
        awaiting_finish = job is not None
        while pending or awaiting_finish:
            if head:
                yield head, False
                head = b""
            message = queue.get()
            kind = message[0]
            if kind == "cell":
                _, digest, line = message
                pending.discard(digest)
                yield line, False
            elif kind == "finish":
                awaiting_finish = False
                fresh_run_id = message[1]
            elif kind == "fatal":
                awaiting_finish = False
                failure = message[1]
                # The engine already resolved this job's owned cells with
                # error events; anything still pending belongs to other
                # jobs and will drain normally.
                pending -= {digest for digest, _ in (job.owned if job else [])}

        if failure is not None:
            terminal = {
                "event": "error",
                "campaign": request.campaign_id,
                "message": failure,
            }
        elif rejected:
            # Terminal degraded rejection: every cached cell above was
            # still served; the listed misses were refused without any
            # write.  Structured, never a 5xx.
            terminal = {
                "event": "degraded",
                "campaign": request.campaign_id,
                "cells": len(cells),
                "hits": len(hit_lines),
                "rejected": len(rejected),
                "rejected_cells": [list(key) for key in rejected],
                "reasons": degraded_reasons,
                "retry_after_seconds": DEGRADED_RETRY_AFTER_SECONDS,
            }
        else:
            terminal = {
                "event": "done",
                "campaign": request.campaign_id,
                "cells": len(cells),
                "hits": len(hit_lines),
                "executed": len(owned),
                "fresh_run_id": fresh_run_id,
            }
        yield head + encode_event(terminal), True

    def submit_collect(
        self, request: CampaignRequest
    ) -> list[dict[str, object]]:
        """Decoded event list for one submission (test/in-process use)."""
        return [
            json.loads(line)
            for block, _ in self.submit_events(request)
            for line in block.splitlines()
        ]

    # -- cache ----------------------------------------------------------

    def _hit_line_locked(self, digest: str) -> bytes | None:
        """Pre-encoded hit event for a digest, or None (lock held)."""
        entry = self._results.get(digest)
        if entry is None:
            run_id = self.index.run_id_for(digest)
            if run_id is None:
                return None
            self._warm_run_locked(run_id)
            entry = self._results.get(digest)
            if entry is None:
                return None
        self._results.move_to_end(digest)
        return entry["line"]

    def _warm_run_locked(self, run_id: str) -> None:
        """Load one archived run's successful cells into the hot cache.

        The run is integrity-verified before anything from it is served:
        a run whose payload no longer matches its manifest digests is
        quarantined on the spot and treated as a miss — corrupt bytes
        are never streamed to a client, they are re-measured.
        """
        try:
            record = self.archive.lookup(run_id)
            problems = verify_run(record.path)
            if problems:
                try:
                    quarantine_run(self.archive, run_id)
                except OSError:
                    pass  # still refuse to serve it, even unquarantined
                self.stats["runs_quarantined"] += 1
                self.integrity_events.append(
                    {"run_id": run_id, "problems": problems}
                )
                return
            results = record.load_results()
        except (ReproError, OSError, ValueError):
            return
        spec = record.manifest.get("spec")
        environment = record.manifest.get("environment")
        if not isinstance(spec, dict):
            return
        hasher = identity_hasher(
            spec, environment if isinstance(environment, dict) else None
        )
        datasets = record.manifest.get("datasets")
        datasets = datasets if isinstance(datasets, dict) else None
        for result in results:
            if not result.ok:
                continue
            digest = cell_digest(
                None, normalize_cell_key(result.cell_key, datasets), hasher=hasher
            )
            if digest not in self._results:
                self._cache_result_locked(
                    digest, result.cell_key, result.as_dict(), run_id
                )

    def _cache_result_locked(
        self,
        digest: str,
        cell_key: tuple[str, str, str, str],
        payload: dict[str, object],
        run_id: str | None,
    ) -> None:
        line = encode_event(
            {
                "event": "cell",
                "digest": digest,
                "cell": list(cell_key),
                "cached": True,
                "run_id": run_id,
                "result": payload,
            }
        )
        self._results[digest] = {
            "line": line,
            "payload": payload,
            "run_id": run_id,
            "cell": cell_key,
        }
        self._results.move_to_end(digest)
        while len(self._results) > self._result_cache_size:
            self._results.popitem(last=False)

    # -- execution engine (single thread) -------------------------------

    def _engine_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            with self._lock:
                self._engine_job = job
            try:
                self._execute(job)
                with self._lock:
                    self.stats["jobs_executed"] += 1
            except Exception as exc:  # noqa: BLE001 - engine must survive
                self._fail_job(job, exc)
            # Deliberately NOT a finally: a BaseException (SystemExit,
            # MemoryError escalation, interpreter teardown) kills this
            # thread with the job still marked in-flight, and the
            # watchdog uses that mark to resolve the orphaned job's
            # subscribers before restarting the engine.
            with self._lock:
                self._engine_job = None

    def _watchdog_loop(self) -> None:
        """Restart a crashed engine thread without dropping subscribers.

        A job-level failure is already contained by :meth:`_engine_loop`
        (the job resolves with error events and the engine survives).
        This watchdog covers the remaining case — the engine *thread*
        dying — by resolving whatever job it held (so coalesced waiters
        unblock instead of hanging forever) and spawning a fresh engine
        that continues with the queued jobs.
        """
        while not self._stopping.wait(self._watchdog_interval):
            if self._closed or self._engine.is_alive():
                continue
            with self._lock:
                if self._closed:
                    return
                orphan = self._engine_job
                self._engine_job = None
                self.stats["engine_restarts"] += 1
            if orphan is not None:
                self._fail_job(
                    orphan,
                    ServiceError("engine thread crashed mid-job; engine restarted"),
                )
            self._engine = self._spawn_engine()

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None or self._pool.closed:
            self._pool = WorkerPool(self.jobs)
        return self._pool

    def _execute(self, job: _Job) -> None:
        """Run one job's owned misses through the shared warm pool."""
        request = job.request
        owned_keys = {key for _, key in job.owned}
        # The executor runs a cross-product grid; derive the smallest
        # axes covering the owned cells (subset of the request axes) and
        # pre-fill every non-owned grid cell from the cache so nothing
        # already measured re-executes.
        graphs = [g for g in request.graphs if any(k[0] == g for k in owned_keys)]
        modes = [m for m in request.modes if any(k[1] == m for k in owned_keys)]
        kernels = [k for k in request.kernels if any(c[2] == k for c in owned_keys)]
        frameworks = [
            f for f in request.frameworks if any(k[3] == f for k in owned_keys)
        ]
        completed: dict[tuple[str, str, str, str], RunResult] = {}
        with self._lock:
            for graph in graphs:
                for mode in modes:
                    for kernel in kernels:
                        for framework in frameworks:
                            key = (graph, mode, kernel, framework)
                            if key in owned_keys:
                                continue
                            digest = cell_digest(
                                None,
                                normalize_cell_key(key, job.datasets),
                                hasher=job.hasher,
                            )
                            entry = self._results.get(digest)
                            if entry is not None:
                                completed[key] = RunResult.from_dict(
                                    entry["payload"]
                                )
                            # A grid-filler absent from the cache (e.g. a
                            # previously failed cell) simply re-executes.

        spec = job.spec
        journal_path = self.journal_dir / f"job-{request.campaign_id}-{job.seq}.jsonl"
        job_datasets = {
            ref: entry for ref, entry in job.datasets.items() if ref in graphs
        }
        journal = CheckpointJournal.create(
            journal_path,
            campaign_fingerprint(
                spec,
                graphs,
                kernels,
                modes,
                frameworks,
                datasets=job_datasets or None,
            ),
        )
        executed: list[tuple[str, tuple[str, str, str, str], RunResult]] = []

        def on_result(cell, result: RunResult) -> None:
            key = (cell.graph, cell.mode.value, cell.kernel, cell.framework)
            digest = cell_digest(
                None, normalize_cell_key(key, job.datasets), hasher=job.hasher
            )
            line = encode_event(
                {
                    "event": "cell",
                    "digest": digest,
                    "cell": list(key),
                    "cached": False,
                    "run_id": None,
                    "result": result.as_dict(),
                }
            )
            with self._lock:
                executed.append((digest, key, result))
                self.stats["cells_executed"] += 1
                entry = self._inflight.get(digest)
                if entry is not None:
                    entry.line = line
                    for subscriber in entry.subscribers:
                        subscriber.put(("cell", digest, line))

        pool = self._ensure_pool()
        try:
            run_suite_parallel(
                [get_framework(name) for name in frameworks],
                graphs,
                kernels=kernels,
                modes=[Mode(value) for value in modes],
                spec=spec,
                telemetry=Telemetry(),
                cache=self.cache,
                journal=journal,
                completed=completed,
                pool=pool,
                on_result=on_result,
            )
        finally:
            journal.close()

        # Archive exactly the executed cells as one content-addressed run.
        ordered = sorted(
            executed,
            key=lambda item: (
                graphs.index(item[1][0]),
                modes.index(item[1][1]),
                kernels.index(item[1][2]),
                frameworks.index(item[1][3]),
            ),
        )
        results = ResultSet(
            [result for _, _, result in ordered],
            meta={
                "spec": spec.as_dict(),
                "environment": fingerprint(),
                "graphs": graphs,
                "kernels": kernels,
                "modes": modes,
                "frameworks": frameworks,
                "service": {"campaign": request.campaign_id, "job": job.seq},
                **({"datasets": job_datasets} if job_datasets else {}),
            },
        )
        record = self.archive.archive_run(
            results, spec=spec, source=f"service:{request.campaign_id}"
        )
        self.index.add_many(
            [
                (digest, record.run_id, key)
                for digest, key, result in executed
                if result.ok
            ]
        )
        with self._lock:
            for digest, key, result in executed:
                if result.ok:
                    self._cache_result_locked(
                        digest, key, result.as_dict(), record.run_id
                    )
                self._inflight.pop(digest, None)
        journal_path.unlink(missing_ok=True)
        job.queue.put(("finish", record.run_id))

    def _fail_job(self, job: _Job, exc: BaseException) -> None:
        """Resolve a crashed job: error events out, inflight marks cleared."""
        message = f"campaign execution failed: {type(exc).__name__}: {exc}"
        with self._lock:
            self.stats["jobs_failed"] += 1
            for digest, key in job.owned:
                entry = self._inflight.pop(digest, None)
                if entry is None or entry.line is not None:
                    continue
                line = encode_event(
                    {
                        "event": "cell",
                        "digest": digest,
                        "cell": list(key),
                        "cached": False,
                        "run_id": None,
                        "result": None,
                        "error": message,
                    }
                )
                for subscriber in entry.subscribers:
                    subscriber.put(("cell", digest, line))
        job.queue.put(("fatal", message))

    # -- recovery -------------------------------------------------------

    def _recover_journals(self) -> list[dict[str, object]]:
        """Archive + index completed cells from crashed jobs' journals.

        Each journal header carries the campaign fingerprint (topology-
        free spec identity + environment), which is exactly what a cell
        digest is made of — so recovered cells become ordinary cache
        hits: a client re-submitting the interrupted campaign gets every
        journaled cell back with a real run_id and zero re-execution.
        """
        reports: list[dict[str, object]] = []
        if not self.journal_dir.is_dir():
            return reports
        for path in sorted(self.journal_dir.glob("*.jsonl")):
            try:
                recorded, completed = read_journal(path)
            except (JournalError, OSError) as exc:
                reports.append({"journal": path.name, "error": str(exc)})
                continue
            spec = recorded.get("spec")
            environment = recorded.get("environment")
            datasets = recorded.get("datasets")
            datasets = datasets if isinstance(datasets, dict) else None
            if isinstance(spec, dict) and completed:
                hasher = identity_hasher(
                    spec, environment if isinstance(environment, dict) else None
                )
                results = ResultSet(
                    list(completed.values()),
                    meta={
                        "spec": spec,
                        "environment": environment,
                        "service": {"recovered_from": path.name},
                        **({"datasets": datasets} if datasets else {}),
                    },
                )
                try:
                    record = self.archive.archive_run(
                        results, spec=spec, source=f"service-recovery:{path.name}"
                    )
                    self.index.add_many(
                        [
                            (
                                cell_digest(
                                    None,
                                    normalize_cell_key(result.cell_key, datasets),
                                    hasher=hasher,
                                ),
                                record.run_id,
                                result.cell_key,
                            )
                            for result in completed.values()
                            if result.ok
                        ]
                    )
                except OSError as exc:
                    # Disk trouble mid-recovery (full disk, failing
                    # device): the journal stays on disk — its cells
                    # remain recoverable at the next startup — and the
                    # server boots anyway instead of crash-looping.
                    reports.append(
                        {
                            "journal": path.name,
                            "error": f"recovery write failed: {exc}",
                            "retained": True,
                        }
                    )
                    continue
                self.stats["cells_recovered"] += len(completed)
                reports.append(
                    {
                        "journal": path.name,
                        "recovered_cells": len(completed),
                        "run_id": record.run_id,
                    }
                )
            else:
                reports.append({"journal": path.name, "recovered_cells": 0})
            path.unlink(missing_ok=True)
        return reports

    # -- watermarks / degraded mode --------------------------------------

    def _disk_usage(self) -> tuple[int | None, int | None]:
        """(free, total) bytes at the archive root, or Nones if unreadable."""
        # The archive root is created lazily on first write; until then,
        # measure the nearest existing ancestor so a freshly started
        # server still sees disk pressure before it writes anything.
        probe = Path(self.archive.root).absolute()
        while not probe.exists() and probe.parent != probe:
            probe = probe.parent
        try:
            disk = shutil.disk_usage(probe)
        except OSError:
            return None, None
        return disk.free, disk.total

    def resource_watermarks(self) -> dict[str, object]:
        """Current disk/memory readings against the configured floors."""
        disk_free, disk_total = self._disk_usage()
        return {
            "disk_free_bytes": disk_free,
            "disk_total_bytes": disk_total,
            "min_free_bytes": self.min_free_bytes,
            "memory_available_bytes": available_memory_bytes(),
            "min_available_memory_bytes": self.min_available_memory_bytes,
        }

    def degraded_reasons(self) -> list[str]:
        """Why new misses are being refused right now (empty = healthy).

        Draining (graceful shutdown) and watermark breaches both put the
        service in hits-only read-only mode; the reasons are surfaced
        verbatim in ``degraded`` events and ``/health``.
        """
        reasons: list[str] = []
        if self._draining:
            reasons.append("draining: server is shutting down")
        free, _ = self._disk_usage()
        if free is not None and free < self.min_free_bytes:
            reasons.append(
                f"disk critically low: {free} bytes free at "
                f"{self.archive.root} (floor {self.min_free_bytes})"
            )
        # This runs on every submission: read /proc/meminfo only when a
        # memory floor is set.
        if self.min_available_memory_bytes > 0:
            available = available_memory_bytes()
            if (
                available is not None
                and available < self.min_available_memory_bytes
            ):
                reasons.append(
                    f"memory critically low: {available} bytes available "
                    f"(floor {self.min_available_memory_bytes})"
                )
        return reasons

    # -- introspection / lifecycle --------------------------------------

    def note_client_disconnect(self) -> None:
        """Count a client that hung up before its response was written."""
        with self._lock:
            self.stats["client_disconnects"] += 1

    def health(self) -> dict[str, object]:
        """Liveness + capacity payload for ``/health``.

        Everything an operator (or the soak harness) needs to judge the
        service at a glance: engine/pool liveness, queue depth against
        capacity, disk/memory watermarks, degraded state, index size,
        quarantine count, and the last scrub verdict.
        """
        with self._lock:
            engine_alive = self._engine.is_alive()
            restarts = self.stats["engine_restarts"]
            inflight = len(self._inflight)
            quarantined_serving = self.stats["runs_quarantined"]
        pool = self._pool
        reasons = self.degraded_reasons()
        last_scrub = last_scrub_report(self.archive.root)
        return {
            "ok": engine_alive and not reasons,
            "degraded": bool(reasons),
            "degraded_reasons": reasons,
            "draining": self._draining,
            "engine_alive": engine_alive,
            "engine_restarts": restarts,
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self._queue.maxsize,
            "inflight_cells": inflight,
            "pool_alive": pool is not None and not pool.closed,
            "pool_jobs": self.jobs,
            "watermarks": self.resource_watermarks(),
            "indexed_cells": len(self.index),
            "index_healed_at_startup": self.index_heal_report,
            "quarantine_count": quarantine_count(self.archive.root),
            "runs_quarantined_while_serving": quarantined_serving,
            "graph_cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "corrupt": self.cache.corrupt,
                "corrupt_events": list(self.cache.corrupt_events[-10:]),
            },
            "last_scrub_verdict": (
                last_scrub.get("verdict") if last_scrub else None
            ),
            "last_scrub": last_scrub,
        }

    def status(self) -> dict[str, object]:
        """Introspection payload: stats, hit rate, queue/cache depths."""
        with self._lock:
            stats = dict(self.stats)
            inflight = len(self._inflight)
            cached = len(self._results)
        requested = stats["cells_requested"]
        served = stats["cells_hit"] + stats["cells_coalesced"]
        reasons = self.degraded_reasons()
        last_scrub = last_scrub_report(self.archive.root)
        return {
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "archive": str(self.archive.root),
            "indexed_cells": len(self.index),
            "hot_cache_cells": cached,
            "inflight_cells": inflight,
            "queued_jobs": self._queue.qsize(),
            "queue_capacity": self._queue.maxsize,
            "hit_rate": round(served / requested, 6) if requested else None,
            "recovery": self.recovery_report,
            "degraded": bool(reasons),
            "degraded_reasons": reasons,
            "draining": self._draining,
            "quarantine_count": quarantine_count(self.archive.root),
            "last_scrub_verdict": (
                last_scrub.get("verdict") if last_scrub else None
            ),
            **stats,
        }

    def drain(self, timeout: float = 300.0) -> None:
        """Graceful drain: refuse new misses, finish queued work, stop.

        New submissions still get their hits (and a structured
        ``degraded`` rejection for misses); every job already queued or
        in flight runs to completion — journaled, archived, indexed,
        fsynced — before the engine stops.  Idempotent, like shutdown.
        """
        self._draining = True
        self.shutdown(timeout=timeout)

    def shutdown(self, timeout: float = 30.0) -> None:
        """Stop the engine and release the pool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._stopping.set()
        self._watchdog.join(timeout=timeout)
        self._queue.put(None)
        self._engine.join(timeout=timeout)
        if self._pool is not None and not self._pool.closed:
            self._pool.shutdown()
        self.index.close()


# -- HTTP front end -----------------------------------------------------


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes: POST /submit (NDJSON stream), GET /status, GET /healthz,
    POST /shutdown.  HTTP/1.1 with keep-alive; /submit streams via
    chunked transfer-encoding so clients see cells as they land."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service"
    # Nagle + delayed ACK turns each small chunked write into a 40ms
    # stall; a streaming event protocol must flush segments immediately.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the service is chatty enough through its event streams

    @property
    def service(self) -> BenchmarkService:
        return self.server.service  # type: ignore[attr-defined]

    def _send_json(self, status: int, payload: dict[str, object]) -> None:
        body = json.dumps(payload, default=str).encode() + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        if self.path == "/healthz":
            self._send_json(200, {"ok": True})
        elif self.path == "/health":
            payload = self.service.health()
            self._send_json(200 if payload["ok"] else 503, payload)
        elif self.path == "/status":
            self._send_json(200, self.service.status())
        else:
            self._send_json(404, {"error": f"unknown path {self.path}"})

    def do_POST(self) -> None:
        if self.path == "/shutdown":
            self._send_json(200, {"ok": True, "shutting_down": True})
            threading.Thread(target=self.server.shutdown, daemon=True).start()
            return
        if self.path != "/submit":
            self._send_json(404, {"error": f"unknown path {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            raw = self.rfile.read(length) if length else b""
            request = CampaignRequest.from_dict(json.loads(raw or b"{}"))
        except (ServiceError, json.JSONDecodeError, ValueError) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        # One write per block: the headers ride with the first block
        # (``accepted`` and every hit), and the last chunk with the final
        # one, so an all-hit submission is answered in a single send.
        head = (
            f"{self.protocol_version} 200 OK\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n\r\n"
        ).encode("latin-1")
        try:
            for block, final in self.service.submit_events(request):
                self.wfile.write(
                    b"%s%X\r\n%s\r\n%s"
                    % (head, len(block), block, b"0\r\n\r\n" if final else b"")
                )
                head = b""
        except ConnectionError:
            # The client went away mid-stream; the engine finishes anyway.
            self.close_connection = True
            self.service.note_client_disconnect()


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`BenchmarkService`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: BenchmarkService) -> None:
        super().__init__(address, _ServiceHandler)
        self.service = service

    def handle_error(self, request, client_address) -> None:
        # A client hanging up is routine for a streaming service: count
        # it instead of printing a traceback.  Anything else still prints.
        if isinstance(sys.exc_info()[1], ConnectionError):
            self.service.note_client_disconnect()
        else:
            super().handle_error(request, client_address)


def serve_forever(
    service: BenchmarkService,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: Callable[[str, int], None] | None = None,
    drain_on_sigterm: bool = True,
) -> None:
    """Serve until /shutdown, SIGTERM, or KeyboardInterrupt; blocks.

    ``port=0`` binds an ephemeral port; ``ready`` receives the actual
    (host, port) before serving starts (the CLI prints it).

    SIGTERM triggers a *graceful drain*: in-flight and queued jobs run
    to completion (journaled, archived, fsynced), new misses get
    structured ``degraded`` rejections meanwhile, and the process exits
    0 — the contract supervisors (systemd, k8s) expect from a well-
    behaved service.  The drain runs on a helper thread because the
    signal arrives on the thread blocked in ``serve_forever()``.
    """
    server = ServiceHTTPServer((host, port), service)

    def _drain_and_stop() -> None:
        service.drain()
        server.shutdown()

    if drain_on_sigterm:
        try:
            signal.signal(
                signal.SIGTERM,
                lambda signum, frame: threading.Thread(
                    target=_drain_and_stop, name="sigterm-drain", daemon=True
                ).start(),
            )
        except ValueError:
            pass  # not the main thread (embedded use); no signal hook
    try:
        if ready is not None:
            ready(*server.server_address[:2])
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.shutdown()
