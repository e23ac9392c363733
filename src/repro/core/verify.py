"""Output verification for the six GAP kernels.

The paper's discussion section calls for "more formally specified
verification and validation procedures" for GAP; this module is that, for
the reproduction.  Each verifier checks a kernel's output against an
*independent* oracle (plain reference BFS, SciPy's compiled Dijkstra /
connected-components, the PageRank fixed-point equations, a sparse-matrix
triangle identity) and raises :class:`VerificationError` with a specific
message on the first violated rule.

BC has no cheap independent oracle at benchmark scale; its verifier checks
cross-framework agreement against the reference implementation (which the
test suite separately validates against exact results on small graphs).

Every kernel but PR splits into an *oracle* (``bfs_oracle``,
``sssp_oracle``, ``cc_oracle``, ``bc_oracle``, ``tc_oracle``: the reference
answer, a function of the graph and the sources alone) and a *check*
(``check_bfs``, ``check_sssp``, ``check_cc``, ``verify_bc``, ``check_tc``:
the output against that answer).  The benchmark runner builds each oracle
once per graph case and checks every framework's output against it; the
``verify_*`` functions do both steps for one output.  PR has no oracle:
``verify_pr`` checks the fixed-point equations directly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from ..errors import VerificationError
from ..graphs import CSRGraph

__all__ = [
    "verify_bfs",
    "verify_sssp",
    "verify_cc",
    "verify_pr",
    "verify_bc",
    "verify_tc",
    "reference_bfs_depths",
    "BFSOracle",
    "bfs_oracle",
    "sssp_oracle",
    "cc_oracle",
    "bc_oracle",
    "tc_oracle",
    "check_bfs",
    "check_sssp",
    "check_cc",
    "check_tc",
]


def _to_scipy(graph: CSRGraph, weighted: bool) -> sp.csr_matrix:
    data = (
        graph.weights.astype(np.float64)
        if (weighted and graph.weights is not None)
        else np.ones(graph.num_edges)
    )
    return sp.csr_matrix(
        (data, graph.indices, graph.indptr),
        shape=(graph.num_vertices, graph.num_vertices),
    )


def reference_bfs_depths(graph: CSRGraph, source: int) -> np.ndarray:
    """Oracle BFS depths over out-edges (frontier sweep, no optimizations)."""
    n = graph.num_vertices
    depths = np.full(n, -1, dtype=np.int64)
    depths[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        starts = graph.indptr[frontier]
        ends = graph.indptr[frontier + 1]
        chunks = [graph.indices[s:e] for s, e in zip(starts, ends) if e > s]
        if not chunks:
            break
        targets = np.unique(np.concatenate(chunks))
        fresh = targets[depths[targets] < 0]
        depths[fresh] = depth
        frontier = fresh
    return depths


class BFSOracle(NamedTuple):
    """What a BFS check needs: the source, oracle depths and the adjacency."""

    source: int
    depths: np.ndarray
    adjacency: sp.csr_matrix


def bfs_oracle(graph: CSRGraph, source: int) -> BFSOracle:
    """Oracle depths from ``source`` plus the unweighted adjacency matrix."""
    return BFSOracle(
        source, reference_bfs_depths(graph, source), _to_scipy(graph, weighted=False)
    )


def check_bfs(oracle: BFSOracle, parents: np.ndarray) -> None:
    """GAP BFS rules: valid parent tree covering exactly the reachable set."""
    source, depths = oracle.source, oracle.depths
    if parents[source] != source:
        raise VerificationError("BFS: parent[source] must be source")
    reached = parents >= 0
    if not np.array_equal(reached, depths >= 0):
        raise VerificationError("BFS: reachable set mismatch with oracle")
    others = np.flatnonzero(reached)
    others = others[others != source]
    if others.size == 0:
        return
    parent_ids = parents[others]
    if not np.array_equal(depths[others], depths[parent_ids] + 1):
        raise VerificationError("BFS: parent not one level above child")
    # Every (parent, child) pair must be a real edge.
    present = np.asarray(oracle.adjacency[parent_ids, others]).ravel()
    if not (present > 0).all():
        raise VerificationError("BFS: parent edge missing from graph")


def verify_bfs(graph: CSRGraph, source: int, parents: np.ndarray) -> None:
    """GAP BFS rules: valid parent tree covering exactly the reachable set."""
    check_bfs(bfs_oracle(graph, source), parents)


def sssp_oracle(graph: CSRGraph, source: int) -> np.ndarray:
    """Dijkstra distances from ``source`` over the weighted graph."""
    return csgraph.dijkstra(_to_scipy(graph, weighted=True), indices=source)


def check_sssp(oracle: np.ndarray, dist: np.ndarray) -> None:
    """Distances must equal Dijkstra's exactly (integer weights)."""
    mismatched = ~np.isclose(dist, oracle, rtol=0, atol=1e-9)
    if mismatched.any():
        worst = int(np.flatnonzero(mismatched)[0])
        raise VerificationError(
            f"SSSP: distance mismatch at vertex {worst}: "
            f"{dist[worst]} vs oracle {oracle[worst]}"
        )


def verify_sssp(graph: CSRGraph, source: int, dist: np.ndarray) -> None:
    """Distances must equal Dijkstra's exactly (integer weights)."""
    check_sssp(sssp_oracle(graph, source), dist)


def cc_oracle(graph: CSRGraph) -> np.ndarray:
    """Weak-component labels ``0 .. k-1`` from SciPy."""
    _, labels = csgraph.connected_components(
        _to_scipy(graph, weighted=False), directed=graph.directed, connection="weak"
    )
    return labels


def check_cc(oracle: np.ndarray, labels: np.ndarray) -> None:
    """Labels must induce exactly the weak-connectivity partition.

    Same partition <=> the (label, oracle) pairs biject: there are as many
    distinct pairs as distinct labels, and as many as oracle components.
    """
    distinct, mine = np.unique(labels, return_inverse=True)
    components = int(oracle.max(initial=-1)) + 1
    pairs = np.unique(mine.astype(np.int64) * components + oracle).size
    if distinct.size != pairs:
        raise VerificationError("CC: one label spans two oracle components")
    if distinct.size != components:
        raise VerificationError("CC: one oracle component got two labels")


def verify_cc(graph: CSRGraph, labels: np.ndarray) -> None:
    """Labels must induce exactly the weak-connectivity partition."""
    check_cc(cc_oracle(graph), labels)


def verify_pr(
    graph: CSRGraph,
    scores: np.ndarray,
    damping: float = 0.85,
    tolerance: float = 1e-4,
) -> None:
    """Scores must satisfy the PageRank equations to ~the run tolerance."""
    if not np.isfinite(scores).all():
        raise VerificationError("PR: non-finite score")
    if (scores < 0).any():
        raise VerificationError("PR: negative score")
    n = graph.num_vertices
    out_degrees = graph.out_degrees.astype(np.float64)
    safe = np.where(out_degrees > 0, out_degrees, 1.0)
    contrib = np.where(out_degrees > 0, scores / safe, 0.0)
    gathered = contrib[graph.in_indices]
    prefix = np.concatenate([[0.0], np.cumsum(gathered)])
    pulled = prefix[graph.in_indptr[1:]] - prefix[graph.in_indptr[:-1]]
    expected = (1.0 - damping) / n + damping * pulled
    residual = float(np.abs(expected - scores).sum())
    if residual > 20.0 * tolerance:
        raise VerificationError(
            f"PR: fixed-point residual {residual:.2e} exceeds bound"
        )


def verify_bc(
    reference_scores: np.ndarray, scores: np.ndarray, rtol: float = 1e-6
) -> None:
    """Cross-framework BC agreement (reference validated separately)."""
    magnitude = max(1.0, float(np.abs(reference_scores).max()))
    worst = float(np.abs(scores - reference_scores).max())
    if worst > rtol * magnitude:
        raise VerificationError(
            f"BC: max deviation {worst:.3e} from reference exceeds tolerance"
        )


def bc_oracle(graph: CSRGraph, sources: np.ndarray) -> np.ndarray:
    """The GAP reference's BC scores from ``sources``."""
    # Imported lazily: the gapbs package itself depends on repro.core.
    from ..gapbs import GAPReference

    return GAPReference().betweenness(graph, sources)


def tc_oracle(graph: CSRGraph) -> int:
    """trace(A^3)/6 on the undirected form of ``graph``."""
    undirected = graph.to_undirected() if graph.directed else graph
    adjacency = _to_scipy(undirected, weighted=False)
    closed = (adjacency @ adjacency).multiply(adjacency)
    return int(round(closed.sum() / 6.0))


def check_tc(oracle: int, count: int) -> None:
    """Triangle count must equal the oracle's."""
    if count != oracle:
        raise VerificationError(f"TC: counted {count}, oracle says {oracle}")


def verify_tc(graph: CSRGraph, count: int) -> None:
    """Triangle count must equal trace(A^3)/6 on the undirected graph."""
    check_tc(tc_oracle(graph), count)
