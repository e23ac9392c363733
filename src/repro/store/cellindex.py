"""Persistent cell-level memoization index for the benchmark service.

The run archive is content-addressed over *whole campaigns*: a run_id only
matches when every cell of a ResultSet matches.  A memoizing server needs
the finer question — "has this one (graph, mode, kernel, framework) cell
been measured under this spec and environment before, and in which run?"
— answered without loading a single results.json.  This index is that
mapping:

* the key is a :func:`cell_digest` — SHA-256 over the campaign's
  *identity* (the spec minus execution topology, exactly the fields
  :func:`repro.resilience.journal.campaign_fingerprint` uses, plus the
  comparability slice of the environment fingerprint) and the cell's
  canonical ``(graph, mode, kernel, framework)`` key;
* the value is the ``run_id`` of an archived run containing that cell,
  so a hit is served by reading the archived ResultSet (or a warm cache
  of it) instead of executing anything;
* storage is an append-only JSONL file beside the archive
  (``<root>/cell_index.jsonl``) with the same crash discipline as the
  checkpoint journal: one flushed+fsynced line per entry, torn trailing
  line discarded on load, header line carrying the schema version.

Execution topology (``jobs``/``pool``/``batch_size``) is deliberately
outside the digest — the executor equivalence matrix guarantees cells are
interchangeable across topologies, so a campaign measured under
``--jobs 4`` must hit for a client submitting the same spec serially.
Likewise ``git_sha`` and wall-clock metadata stay out: only the
:data:`~repro.store.environment.COMPARABILITY_KEYS` slice of the
environment participates, matching what the regression gate considers
"the same machine".

For file-backed datasets (:mod:`repro.graphs.datasets`) the graph element
of the cell key is *normalized to the file's content digest* before
hashing (:func:`normalize_cell_key`): two submissions referencing
byte-identical files share cells regardless of path, while an edited file
is a different measurement and misses.

A lost or corrupt index is a cache, not the source of truth:
:meth:`CellIndex.rebuild_from_archive` re-derives every entry from the
archived manifests + results (dataset provenance travels in the
manifests, so rebuilding never needs the original files).
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import Iterable, Iterator

from ..errors import ArchiveError
from ..resilience.iofaults import shim_fsync, shim_write
from .archive import RunArchive, canonical_json
from .environment import COMPARABILITY_KEYS, fingerprint
from .integrity import seal_line, verify_line

__all__ = [
    "CELL_INDEX_VERSION",
    "CellIndex",
    "cell_digest",
    "comparable_environment",
    "derive_index_entries",
    "identity_hasher",
    "normalize_cell_key",
    "spec_identity",
]

CELL_INDEX_VERSION = 1

#: Spec fields that are execution topology, not measurement identity.
#: ``"pool"`` is no longer a spec field, but spec dicts in manifests and
#: journals written while it was must still hash to the same identity.
TOPOLOGY_KEYS = ("jobs", "pool", "batch_size")

#: Canonical cell key: matches ``RunResult.cell_key``.
CellKey = tuple[str, str, str, str]


def spec_identity(spec) -> dict[str, object]:
    """The measurement-identity slice of a spec (topology stripped).

    Accepts a :class:`~repro.core.spec.BenchmarkSpec` or its dict form.
    It is also the ``spec`` field of
    :func:`repro.resilience.journal.campaign_fingerprint`, so journal
    headers and cell digests agree about what "the same campaign" means.
    """
    spec_dict = spec.as_dict() if hasattr(spec, "as_dict") else dict(spec)
    return {
        key: value
        for key, value in spec_dict.items()
        if key not in TOPOLOGY_KEYS
    }


#: Current-process comparability slice, computed once: the slice is
#: process-invariant, and the full fingerprint() behind it shells out
#: for git_sha — far too slow for a per-submission hot path.
_PROCESS_ENVIRONMENT: dict[str, object] | None = None


def comparable_environment(
    environment: dict[str, object] | None = None,
) -> dict[str, object]:
    """The comparability slice of an environment fingerprint.

    ``None`` snapshots the current process (cached after the first
    call).  Only :data:`~repro.store.environment.COMPARABILITY_KEYS`
    participate in cell digests — a new git commit must not cold-start
    the cache, but a different interpreter or NumPy must.
    """
    global _PROCESS_ENVIRONMENT
    if environment is None:
        if _PROCESS_ENVIRONMENT is None:
            env = fingerprint()
            _PROCESS_ENVIRONMENT = {
                key: env.get(key) for key in COMPARABILITY_KEYS
            }
        return dict(_PROCESS_ENVIRONMENT)
    return {key: environment.get(key) for key in COMPARABILITY_KEYS}


def identity_hasher(spec, environment: dict[str, object] | None = None):
    """A SHA-256 pre-seeded with the (spec identity, environment) prefix.

    Hashing the campaign-wide prefix once and ``copy()``-ing per cell is
    the hot-path form: a submission with hundreds of cells pays for the
    spec JSON a single time.  Use with :func:`cell_digest`'s ``hasher=``.
    """
    prefix = canonical_json(
        {
            "environment": comparable_environment(environment),
            "spec": spec_identity(spec),
        }
    )
    return hashlib.sha256(prefix.encode())


def normalize_cell_key(
    cell_key: Iterable[str],
    datasets: dict[str, object] | None = None,
) -> CellKey:
    """Replace a file-backed graph reference with its content identity.

    ``datasets`` is a provenance map (ref -> entry carrying ``digest``),
    as recorded in archive manifests, journal fingerprints, and results
    meta by :func:`repro.graphs.datasets.graph_identities`.  The graph
    element of a cell key is the reference the client submitted
    (``file:/some/path.mtx``); hashing *that* would make cell identity
    path-sensitive — renames would miss and edits would hit.  Mapping it
    to :func:`repro.graphs.datasets.dataset_identity` (``file:sha256:...``)
    before digesting keys the memo on the bytes instead.  Generator graph
    names (and keys with no provenance entry) pass through unchanged.
    """
    key = tuple(str(part) for part in cell_key)
    if datasets:
        entry = datasets.get(key[0])
        digest = entry.get("digest") if isinstance(entry, dict) else entry
        if digest:
            from ..graphs.datasets import dataset_identity

            return (dataset_identity(str(digest)),) + key[1:]
    return key


def cell_digest(
    spec,
    cell_key: Iterable[str],
    environment: dict[str, object] | None = None,
    hasher=None,
) -> str:
    """Digest of one (spec identity, environment, cell) measurement.

    ``cell_key`` is the canonical ``(graph, mode, kernel, framework)``
    tuple.  Pass a pre-built ``hasher`` (:func:`identity_hasher`) to skip
    re-hashing the campaign prefix per cell; ``spec`` is ignored then.
    """
    h = identity_hasher(spec, environment) if hasher is None else hasher.copy()
    h.update(canonical_json(list(cell_key)).encode())
    return h.hexdigest()[:16]


class CellIndex:
    """Append-only digest → run_id map with crash-safe JSONL persistence.

    Thread-safe: the service's HTTP handler threads probe it concurrently
    while the execution engine appends.  Cross-process appends are *not*
    coordinated (one server owns the file); a reader racing a writer sees
    a prefix of the entries, which is always a valid (smaller) cache.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._entries: dict[str, dict[str, object]] = {}
        self._lock = threading.Lock()
        self._stream = None
        self._load()

    @classmethod
    def for_archive(cls, archive: RunArchive) -> "CellIndex":
        """The index that lives beside an archive's ``runs/`` directory."""
        return cls(archive.root / "cell_index.jsonl")

    # -- persistence ----------------------------------------------------

    def _load(self) -> None:
        """Replay the JSONL file, verifying each line's checksum.

        A torn trailing line (no newline) is discarded — the interrupted
        append never became durable.  A *final* line that fails to parse
        or fails its checksum is discarded the same way: the writer died
        between payload and fsync, so the record was never promised.  An
        *interior* bad line is different — later appends succeeded after
        it, so this is corruption (bit rot, two uncoordinated writers),
        and the load fails so self-healing can quarantine and rebuild.
        """
        if not self.path.exists():
            return
        raw = self.path.read_bytes()
        lines = raw.split(b"\n")
        if raw and not raw.endswith(b"\n"):
            lines = lines[:-1]  # torn tail: the interrupted append
        numbered = [
            (lineno, line.strip())
            for lineno, line in enumerate(lines)
            if line.strip()
        ]
        last = numbered[-1][0] if numbered else -1
        for lineno, line in numbered:
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if lineno == last:
                    break  # flushed but garbled tail: treat as torn
                raise ArchiveError(
                    f"cell index {self.path} line {lineno + 1} is corrupt "
                    f"(delete the file to rebuild from the archive): {exc}"
                ) from exc
            if not isinstance(record, dict) or not verify_line(record):
                if lineno == last:
                    break  # checksum-failed tail: never fully durable
                raise ArchiveError(
                    f"cell index {self.path} line {lineno + 1} failed its "
                    "checksum (delete the file to rebuild from the archive)"
                )
            if lineno == 0:
                if record.get("cell_index_version") != CELL_INDEX_VERSION:
                    raise ArchiveError(
                        f"{self.path} is not a version-{CELL_INDEX_VERSION} "
                        "cell index"
                    )
                continue
            digest = record.get("digest")
            if isinstance(digest, str):
                # Later lines win: a re-archived cell points at the
                # freshest run containing it.
                self._entries[digest] = record

    def _open_stream(self):
        if self._stream is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            self._stream = open(self.path, "ab")
            if fresh:
                self._write_line({"cell_index_version": CELL_INDEX_VERSION})
        return self._stream

    def _write_line(self, record: dict[str, object]) -> None:
        data = json.dumps(seal_line(record), default=str).encode() + b"\n"
        shim_write(self._stream, data, self.path)

    def _sync(self) -> None:
        shim_fsync(self._stream, self.path)

    def close(self) -> None:
        """Close the append stream (reopened lazily on next write)."""
        with self._lock:
            if self._stream is not None:
                self._stream.close()
                self._stream = None

    def __enter__(self) -> "CellIndex":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- queries --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries

    def get(self, digest: str) -> dict[str, object] | None:
        """The full entry for a digest (``run_id``, ``cell``), or None."""
        with self._lock:
            entry = self._entries.get(digest)
            return dict(entry) if entry is not None else None

    def run_id_for(self, digest: str) -> str | None:
        """The archived run holding this cell, or None on a miss."""
        with self._lock:
            entry = self._entries.get(digest)
            return str(entry["run_id"]) if entry else None

    def digests(self) -> Iterator[str]:
        """Snapshot iterator over every known cell digest."""
        with self._lock:
            return iter(list(self._entries))

    # -- updates --------------------------------------------------------

    def add(self, digest: str, run_id: str, cell_key: Iterable[str]) -> None:
        """Durably record one cell → run mapping (idempotent)."""
        self.add_many([(digest, run_id, tuple(cell_key))])

    def add_many(
        self, items: Iterable[tuple[str, str, CellKey]]
    ) -> int:
        """Record a batch of mappings with a single fsync; returns count.

        Re-adding an identical mapping is a no-op; a digest remapped to a
        new run_id is appended (replay keeps the latest).
        """
        appended = 0
        with self._lock:
            self._open_stream()
            for digest, run_id, cell_key in items:
                existing = self._entries.get(digest)
                if existing is not None and existing.get("run_id") == run_id:
                    continue
                record = {
                    "digest": digest,
                    "run_id": run_id,
                    "cell": list(cell_key),
                }
                self._write_line(record)
                self._entries[digest] = record
                appended += 1
            if appended:
                self._sync()
        return appended

    # -- recovery -------------------------------------------------------

    def rebuild_from_archive(self, archive: RunArchive) -> int:
        """Re-derive entries from archived runs; returns cells indexed."""
        return self.add_many(derive_index_entries(archive))


def derive_index_entries(
    archive: RunArchive,
) -> Iterator[tuple[str, str, CellKey]]:
    """Every ``(digest, run_id, cell_key)`` an archive can prove.

    Each run's manifest carries the spec and the environment that
    measured it; each results.json carries the cells.  Runs without a
    spec in the manifest (hand-archived payloads) are skipped — they
    cannot be dedup targets because no submission can reproduce their
    identity.  Failed cells (``error``/``timeout``/``skipped`` results)
    are skipped too: the service only indexes and serves *ok* cells, so
    deriving them here would rebuild an index promising hits the server
    must then refuse.  This is both how
    :meth:`CellIndex.rebuild_from_archive` recovers a lost index and the
    ground truth the scrubber compares an existing index against.
    """
    for entry in archive.list_runs():
        run_id = str(entry["run_id"])
        try:
            record = archive.lookup(run_id)
            results = record.load_results()
        except (ArchiveError, OSError, ValueError, KeyError):
            continue
        spec = record.manifest.get("spec")
        environment = record.manifest.get("environment")
        if not isinstance(spec, dict):
            continue
        env = environment if isinstance(environment, dict) else None
        datasets = record.manifest.get("datasets")
        datasets = datasets if isinstance(datasets, dict) else None
        hasher = identity_hasher(spec, env)
        for result in results:
            if not result.ok:
                continue
            key = normalize_cell_key(result.cell_key, datasets)
            digest = cell_digest(spec, key, hasher=hasher)
            yield digest, run_id, result.cell_key
