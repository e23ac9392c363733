"""Tests for the GAP output verifiers: accept good output, reject corrupted."""

import numpy as np
import pytest

from repro.core.verify import (
    cc_oracle,
    check_cc,
    reference_bfs_depths,
    verify_bc,
    verify_bfs,
    verify_cc,
    verify_pr,
    verify_sssp,
    verify_tc,
)
from repro.errors import VerificationError
from repro.frameworks import get
from repro.generators import weighted_version


@pytest.fixture(scope="module")
def gap():
    return get("gap")


class TestBFSVerifier:
    def test_accepts_correct(self, gap, corpus):
        graph = corpus["kron"]
        source = int(np.flatnonzero(graph.out_degrees > 0)[0])
        verify_bfs(graph, source, gap.bfs(graph, source))

    def test_rejects_wrong_parent(self, gap, corpus):
        graph = corpus["kron"]
        source = int(np.flatnonzero(graph.out_degrees > 0)[0])
        parents = gap.bfs(graph, source)
        victim = int(np.flatnonzero((parents >= 0) & (np.arange(graph.num_vertices) != source))[0])
        parents[victim] = victim  # self-parent lie
        with pytest.raises(VerificationError):
            verify_bfs(graph, source, parents)

    def test_rejects_missing_vertex(self, gap, corpus):
        graph = corpus["kron"]
        source = int(np.flatnonzero(graph.out_degrees > 0)[0])
        parents = gap.bfs(graph, source)
        reached = np.flatnonzero(parents >= 0)
        parents[reached[-1]] = -1
        with pytest.raises(VerificationError):
            verify_bfs(graph, source, parents)

    def test_rejects_bad_source(self, gap, corpus):
        graph = corpus["kron"]
        source = int(np.flatnonzero(graph.out_degrees > 0)[0])
        parents = gap.bfs(graph, source)
        parents[source] = -1
        with pytest.raises(VerificationError):
            verify_bfs(graph, source, parents)

    def test_reference_depths(self, tiny_graph):
        depths = reference_bfs_depths(tiny_graph, 0)
        assert depths.tolist() == [0, 1, 1, 2, -1, -1, -1]


class TestSSSPVerifier:
    def test_accepts_correct(self, gap, corpus):
        graph = weighted_version(corpus["road"])
        source = int(np.flatnonzero(graph.out_degrees > 0)[0])
        verify_sssp(graph, source, gap.sssp(graph, source))

    def test_rejects_perturbed(self, gap, corpus):
        graph = weighted_version(corpus["road"])
        source = int(np.flatnonzero(graph.out_degrees > 0)[0])
        dist = gap.sssp(graph, source)
        finite = np.flatnonzero(np.isfinite(dist) & (dist > 0))
        dist[finite[0]] -= 0.5
        with pytest.raises(VerificationError):
            verify_sssp(graph, source, dist)


class TestCCVerifier:
    def test_accepts_correct(self, gap, corpus):
        graph = corpus["urand"]
        verify_cc(graph, gap.connected_components(graph))

    def test_rejects_split_component(self, gap, corpus):
        graph = corpus["urand"]
        labels = gap.connected_components(graph)
        most_common = np.bincount(labels).argmax()
        members = np.flatnonzero(labels == most_common)
        labels[members[0]] = int(labels.max()) + 1
        with pytest.raises(VerificationError):
            verify_cc(graph, labels)

    def test_rejects_merged_components(self, gap, tiny_graph):
        labels = gap.connected_components(tiny_graph)
        labels[:] = 0  # everything one component: wrong
        with pytest.raises(VerificationError):
            verify_cc(tiny_graph, labels)

    # tiny_graph's weak components are {0, 1, 2, 3}, {4} and {5, 6}.

    def test_accepts_any_label_values(self, tiny_graph):
        verify_cc(tiny_graph, np.array([-7, -7, -7, -7, 100, 3, 3]))

    def test_names_a_label_spanning_two_components(self, tiny_graph):
        labels = np.array([0, 0, 0, 0, 4, 0, 0])
        with pytest.raises(VerificationError, match="one label spans two oracle components"):
            verify_cc(tiny_graph, labels)

    def test_names_a_component_with_two_labels(self, tiny_graph):
        labels = np.array([0, 0, 0, 1, 4, 5, 5])
        with pytest.raises(VerificationError, match="one oracle component got two labels"):
            verify_cc(tiny_graph, labels)

    def test_agrees_with_the_per_vertex_bijection_loop(self, gap, corpus):
        """The vectorized check accepts exactly what a pairwise loop accepts."""
        graph = corpus["road"]
        oracle = cc_oracle(graph)

        def loop_accepts(labels) -> bool:
            ours: dict[int, int] = {}
            theirs: dict[int, int] = {}
            for mine, ref in zip(labels.tolist(), oracle.tolist()):
                if ours.setdefault(mine, ref) != ref or theirs.setdefault(ref, mine) != mine:
                    return False
            return True

        rng = np.random.default_rng(0)
        correct = gap.connected_components(graph)
        for _ in range(200):
            labels = rng.permutation(graph.num_vertices + 5)[correct]
            for _ in range(rng.integers(0, 3)):
                # Move a few vertices to another existing label or a new one.
                victims = rng.integers(0, graph.num_vertices, rng.integers(1, 4))
                labels[victims] = rng.choice([labels[rng.integers(graph.num_vertices)], -1])
            try:
                check_cc(oracle, labels)
                accepted = True
            except VerificationError:
                accepted = False
            assert accepted == loop_accepts(labels)


class TestPRVerifier:
    def test_accepts_correct(self, gap, corpus):
        graph = corpus["twitter"]
        verify_pr(graph, gap.pagerank(graph))

    def test_rejects_uniform_vector(self, corpus):
        graph = corpus["twitter"]
        n = graph.num_vertices
        with pytest.raises(VerificationError):
            verify_pr(graph, np.full(n, 1.0 / n))

    def test_rejects_negative(self, gap, corpus):
        graph = corpus["twitter"]
        scores = gap.pagerank(graph)
        scores[0] = -0.1
        with pytest.raises(VerificationError):
            verify_pr(graph, scores)

    def test_rejects_nan(self, gap, corpus):
        graph = corpus["twitter"]
        scores = gap.pagerank(graph)
        scores[0] = np.nan
        with pytest.raises(VerificationError):
            verify_pr(graph, scores)


class TestBCVerifier:
    def test_accepts_close(self):
        reference = np.array([1.0, 2.0, 3.0])
        verify_bc(reference, reference + 1e-9)

    def test_rejects_divergent(self):
        with pytest.raises(VerificationError):
            verify_bc(np.array([1.0, 2.0]), np.array([1.0, 3.0]))


class TestTCVerifier:
    def test_accepts_correct(self, gap, triangle_graph):
        verify_tc(triangle_graph, 5)

    def test_rejects_wrong_count(self, triangle_graph):
        with pytest.raises(VerificationError):
            verify_tc(triangle_graph, 4)

    def test_directed_input_symmetrized(self, gap, corpus):
        graph = corpus["twitter"]
        count = gap.triangle_count(graph)
        verify_tc(graph, count)
