"""Shared fixtures: a small test corpus, oracle helpers, a test watchdog.

Set ``REPRO_TEST_TIMEOUT`` (seconds) to arm a per-test ``SIGALRM``
watchdog: any single test exceeding the budget fails with a clear
message instead of hanging the whole suite.  This is how CI guards the
fault-injection tests (which deliberately create hangs) without any
third-party timeout plugin.

Every test also runs under a leak check: a test that leaves behind a
thread, a child process, or a ``/dev/shm`` segment fails, so no later
test forks over (or waits on) another test's stragglers.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from multiprocessing import resource_tracker
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro.frameworks import FRAMEWORK_NAMES, get
from repro.generators import build_graph, weighted_version
from repro.graphs import CSRGraph, EdgeList

TEST_SCALE = 9
GRAPHS = ["road", "twitter", "web", "kron", "urand"]

_TEST_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "0") or "0")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Per-test wall-clock watchdog, armed by ``$REPRO_TEST_TIMEOUT``.

    Uses ``SIGALRM`` directly (no plugin dependency), so it is a no-op on
    platforms without it and when the variable is unset.  Tests that
    install their own ``SIGALRM`` handler (the trial-deadline tests) are
    unaffected: the watchdog restores the previous handler afterwards and
    only fires if the test is still running at the deadline.
    """
    if _TEST_TIMEOUT <= 0 or not hasattr(signal, "SIGALRM"):
        return (yield)

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded REPRO_TEST_TIMEOUT={_TEST_TIMEOUT:g}s: {item.nodeid}"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, _TEST_TIMEOUT)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


#: How long a test's stragglers may take to finish (threads winding down,
#: children exiting) before they count as leaked.
LEAK_GRACE_SECONDS = 5.0

_SHM = Path("/dev/shm")


def _child_pids() -> set[int]:
    """PIDs of this process's live (non-zombie) children."""
    multiprocessing.active_children()  # reaps finished multiprocessing children
    tasks = Path("/proc/self/task")
    if not tasks.is_dir():
        return {p.pid for p in multiprocessing.active_children()}
    pids = set()
    for task in tasks.iterdir():
        try:
            pids.update(int(pid) for pid in (task / "children").read_text().split())
        except OSError:  # the thread exited while we looked
            continue
    live = set()
    for pid in pids:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        if stat.rsplit(")", 1)[1].split()[0] != "Z":
            live.add(pid)
    # Python's shared-memory resource tracker is one per interpreter,
    # started by whichever test first creates a segment.
    live.discard(getattr(resource_tracker._resource_tracker, "_pid", None))
    return live


def _shm_segments() -> set[str]:
    return set(os.listdir(_SHM)) if _SHM.is_dir() else set()


def _leaks(threads_before, children_before, shm_before) -> list[str]:
    threads = [
        t for t in threading.enumerate() if t not in threads_before and t.is_alive()
    ]
    children = _child_pids() - children_before
    segments = _shm_segments() - shm_before
    leaks = [f"thread {t.name!r}" for t in threads]
    leaks += [f"child process {pid}" for pid in sorted(children)]
    leaks += [f"/dev/shm segment {name}" for name in sorted(segments)]
    return leaks


@pytest.fixture(autouse=True)
def no_leaks():
    """Fail the test if it leaves threads, children, or shm segments behind."""
    threads_before = set(threading.enumerate())
    children_before = _child_pids()
    shm_before = _shm_segments()
    yield
    deadline = time.monotonic() + LEAK_GRACE_SECONDS
    for thread in threading.enumerate():
        if thread not in threads_before:
            thread.join(max(0.0, deadline - time.monotonic()))
    while True:
        leaks = _leaks(threads_before, children_before, shm_before)
        if not leaks or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    if leaks:
        pytest.fail(
            f"test leaked after {LEAK_GRACE_SECONDS:g}s: " + ", ".join(leaks),
            pytrace=False,
        )


@pytest.fixture(scope="session", params=GRAPHS)
def corpus_graph(request):
    """Each of the five corpus analogs at test scale."""
    return request.param, build_graph(request.param, scale=TEST_SCALE)


@pytest.fixture(scope="session")
def corpus():
    """All five corpus graphs keyed by name."""
    return {name: build_graph(name, scale=TEST_SCALE) for name in GRAPHS}


@pytest.fixture(scope="session")
def weighted_corpus(corpus):
    return {name: weighted_version(graph) for name, graph in corpus.items()}


@pytest.fixture(scope="session", params=FRAMEWORK_NAMES)
def framework(request):
    return get(request.param)


@pytest.fixture
def tiny_graph() -> CSRGraph:
    """A small hand-made directed graph with known structure.

    0 -> 1 -> 2 -> 3, 0 -> 2, 3 -> 0 (a cycle with a chord), plus isolated 4
    and a separate pair 5 <-> 6.
    """
    edges = EdgeList(
        7,
        np.array([0, 1, 2, 0, 3, 5, 6]),
        np.array([1, 2, 3, 2, 0, 6, 5]),
    )
    return CSRGraph.from_edge_list(edges, directed=True)


@pytest.fixture
def triangle_graph() -> CSRGraph:
    """Undirected: a triangle 0-1-2 plus a pendant 3 and one 4-clique 4..7."""
    src = [0, 1, 2, 2, 4, 4, 4, 5, 5, 6]
    dst = [1, 2, 0, 3, 5, 6, 7, 6, 7, 7]
    return CSRGraph.from_arrays(8, np.array(src), np.array(dst), directed=False)


def to_networkx(graph: CSRGraph, weighted: bool = False) -> nx.Graph:
    """Oracle view of a CSRGraph."""
    out = nx.DiGraph() if graph.directed else nx.Graph()
    out.add_nodes_from(range(graph.num_vertices))
    src, dst = graph.edge_array()
    if weighted and graph.weights is not None:
        out.add_weighted_edges_from(
            zip(src.tolist(), dst.tolist(), graph.weights.tolist())
        )
    else:
        out.add_edges_from(zip(src.tolist(), dst.tolist()))
    return out


@pytest.fixture(scope="session")
def nx_corpus(corpus):
    return {name: to_networkx(graph) for name, graph in corpus.items()}
