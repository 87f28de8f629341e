"""Tests for the Monte Carlo estimators (validate Eq. 1 and Defs. 1–2 directly)."""

import hashlib

import numpy as np
import pytest

from repro.core import (
    estimate_frank_mc,
    estimate_roundtrip_mc,
    estimate_trank_mc,
    frank_vector,
    roundtriprank,
    sample_geometric_length,
    walk_steps,
)
from repro.core.montecarlo import _geometric_lengths, _walk_terminals
from repro.graph import graph_from_edges
from repro.utils.rng import ensure_rng


class TestGeometricLength:
    def test_distribution(self):
        rng = ensure_rng(3)
        alpha = 0.25
        samples = [sample_geometric_length(alpha, rng) for _ in range(20000)]
        samples = np.asarray(samples)
        assert samples.min() >= 0
        # p(L = 0) should be alpha
        assert np.mean(samples == 0) == pytest.approx(alpha, abs=0.02)
        # mean of Geo(alpha) starting at 0 is (1-alpha)/alpha = 3
        assert samples.mean() == pytest.approx(3.0, abs=0.15)


class TestWalkSteps:
    def test_path_length_and_start(self, toy_graph):
        rng = ensure_rng(0)
        path = walk_steps(toy_graph, 0, 5, rng)
        assert len(path) == 6
        assert path[0] == 0

    def test_steps_follow_edges(self, toy_graph):
        rng = ensure_rng(1)
        path = walk_steps(toy_graph, 0, 10, rng)
        for u, v in zip(path, path[1:]):
            neighbors, _ = toy_graph.out_edges(u)
            assert v in neighbors

    def test_deterministic_on_line(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        path = walk_steps(g, 0, 3, ensure_rng(0))
        assert path == [0, 1, 2, 0]


class TestRoundTripMC:
    """Definition 2 simulated directly agrees with the f*t decomposition."""

    def test_toy_graph_agreement(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        exact = roundtriprank(toy_graph, q, alpha=0.25)
        mc, completed = estimate_roundtrip_mc(
            toy_graph, q, alpha=0.25, n_samples=60000, seed=5
        )
        assert completed > 5000  # plenty of accepted round trips
        assert mc.sum() == pytest.approx(1.0)
        assert np.abs(mc - exact).max() < 0.02

    def test_two_node_graph(self):
        g = graph_from_edges(2, [(0, 1)], directed=False)
        exact = roundtriprank(g, 0, alpha=0.3)
        mc, completed = estimate_roundtrip_mc(g, 0, alpha=0.3, n_samples=30000, seed=2)
        assert completed > 1000
        assert np.abs(mc - exact).max() < 0.02

    def test_validation(self, toy_graph):
        with pytest.raises(ValueError):
            estimate_roundtrip_mc(toy_graph, 99)


class TestEstimatorValidation:
    """All three estimators share the same argument checks."""

    def test_frank_rejects_bad_args(self, toy_graph):
        with pytest.raises(ValueError, match="alpha"):
            estimate_frank_mc(toy_graph, 0, alpha=1.5)
        with pytest.raises(ValueError, match="n_samples"):
            estimate_frank_mc(toy_graph, 0, n_samples=0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_trank_rejects_bad_alpha(self, toy_graph, alpha):
        with pytest.raises(ValueError, match="alpha"):
            estimate_trank_mc(toy_graph, 0, alpha=alpha)

    @pytest.mark.parametrize("past_the_end", [False, True])
    def test_trank_rejects_out_of_range_sources(self, toy_graph, past_the_end):
        source = toy_graph.n_nodes if past_the_end else -1
        with pytest.raises(ValueError, match="sources"):
            estimate_trank_mc(toy_graph, 0, sources=[0, source], n_samples=10)

    def test_trank_rejects_bad_n_samples(self, toy_graph):
        with pytest.raises(ValueError, match="n_samples"):
            estimate_trank_mc(toy_graph, 0, n_samples=0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_roundtrip_rejects_bad_alpha(self, toy_graph, alpha):
        with pytest.raises(ValueError, match="alpha"):
            estimate_roundtrip_mc(toy_graph, 0, alpha=alpha)

    def test_roundtrip_rejects_bad_n_samples(self, toy_graph):
        with pytest.raises(ValueError, match="n_samples"):
            estimate_roundtrip_mc(toy_graph, 0, n_samples=-5)


class TestEstimatorShapes:
    def test_trank_all_sources_cover_every_node(self, toy_graph):
        result = estimate_trank_mc(toy_graph, 0, alpha=0.25, n_samples=50, seed=4)
        assert result.shape == (toy_graph.n_nodes,)
        assert result[0] > 0  # a zero-length walk from the query ends there

    def test_trank_estimates_only_the_requested_sources(self, toy_graph):
        result = estimate_trank_mc(toy_graph, 0, sources=[0, 3], alpha=0.25, n_samples=100, seed=4)
        assert result[0] > 0
        assert result.sum() == result[0] + result[3]

    def test_frank_estimate_is_a_distribution(self, toy_graph):
        estimate = estimate_frank_mc(toy_graph, 0, alpha=0.25, n_samples=100, seed=4)
        assert estimate.min() >= 0
        assert estimate.sum() == pytest.approx(1.0)

    def test_roundtrip_estimate_is_a_distribution(self, toy_graph):
        estimate, completed = estimate_roundtrip_mc(toy_graph, 0, alpha=0.25, n_samples=200, seed=4)
        assert completed > 0
        assert estimate.sum() == pytest.approx(1.0)

    def test_roundtrip_with_no_completed_trip_is_all_zero(self):
        # One sample whose return leg misses the query: nothing to normalize.
        g = graph_from_edges(3, [(0, 1, 3.0), (0, 2, 1.0), (1, 0, 1.0), (2, 0, 1.0)])
        estimate, completed = estimate_roundtrip_mc(g, 0, alpha=0.5, n_samples=1, seed=1)
        assert completed == 0
        assert not estimate.any()


class TestGeometricLengths:
    def test_batched_draws_follow_the_scalar_law(self):
        alpha = 0.25
        samples = _geometric_lengths(alpha, 20000, ensure_rng(3))
        assert samples.dtype == np.int64
        assert samples.min() >= 0
        assert np.mean(samples == 0) == pytest.approx(alpha, abs=0.02)
        assert samples.mean() == pytest.approx((1 - alpha) / alpha, abs=0.15)


class TestWalkTerminals:
    """The estimators' sampler: one vectorized step per round over ``P``."""

    def test_steps_follow_edges(self, toy_graph):
        nodes = np.arange(toy_graph.n_nodes)
        successors = _walk_terminals(toy_graph, nodes, np.ones_like(nodes), ensure_rng(1))
        for u, v in zip(nodes.tolist(), successors.tolist()):
            neighbors, _ = toy_graph.out_edges(u)
            assert v in neighbors

    def test_hub_step_follows_its_transition_row(self, star_graph):
        # Hub 0 has four equally likely out-neighbors.
        starts = np.zeros(40000, dtype=np.int64)
        successors = _walk_terminals(star_graph, starts, np.ones_like(starts), ensure_rng(5))
        freq = np.bincount(successors, minlength=5) / successors.size
        neighbors, probs = star_graph.out_edges(0)
        assert np.abs(freq[neighbors] - probs).max() < 0.01

    def test_weighted_edges_respected(self):
        g = graph_from_edges(3, [(0, 1, 3.0), (0, 2, 1.0), (1, 0, 1.0), (2, 0, 1.0)])
        starts = np.zeros(40000, dtype=np.int64)
        successors = _walk_terminals(g, starts, np.ones_like(starts), ensure_rng(9))
        assert np.mean(successors == 1) == pytest.approx(0.75, abs=0.01)

    def test_deterministic_on_a_cycle(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        terminals = _walk_terminals(g, np.array([0, 1]), np.array([3, 1]), ensure_rng(0))
        assert terminals.tolist() == [0, 2]

    def test_each_walker_takes_its_own_length(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        lengths = np.arange(10)
        terminals = _walk_terminals(g, np.zeros(10, dtype=np.int64), lengths, ensure_rng(0))
        assert terminals.tolist() == (lengths % 3).tolist()

    def test_zero_length_stays_put(self, toy_graph):
        starts = np.arange(toy_graph.n_nodes)
        terminals = _walk_terminals(toy_graph, starts, np.zeros_like(starts), ensure_rng(0))
        assert np.array_equal(terminals, starts)

    def test_dangling_node_keeps_its_walkers(self):
        # Node 2 has no out-edge: P gives it a unit self-loop.
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        terminals = _walk_terminals(g, np.array([0, 2]), np.array([5, 5]), ensure_rng(4))
        assert terminals.tolist() == [2, 2]

    @pytest.mark.parametrize("end", ["first", "last"])
    def test_extreme_draws_pick_the_row_ends(self, small_bibnet, end):
        # A draw near 1 can round past the row's last cumulative value; the
        # clamp keeps the walker on the row's last out-edge.
        u = 0.0 if end == "first" else np.nextafter(1.0, 0.0)

        class Fixed:
            def random(self, size):
                return np.full(size, u)

        graph = small_bibnet.graph
        p = graph.transition
        starts = np.arange(graph.n_nodes)
        successors = _walk_terminals(graph, starts, np.ones_like(starts), Fixed())
        slots = p.indptr[:-1] if end == "first" else p.indptr[1:] - 1
        assert successors.tolist() == p.indices[slots].tolist()

    def test_starts_and_lengths_are_not_mutated(self, toy_graph):
        starts = np.zeros(50, dtype=np.int64)
        lengths = np.full(50, 3, dtype=np.int64)
        _walk_terminals(toy_graph, starts, lengths, ensure_rng(2))
        assert not starts.any()
        assert (lengths == 3).all()


class TestAgreementWithTheLoopPath:
    """The vectorized estimators and the rng.choice loop draw from one law."""

    def _loop_frank_mc(self, graph, query, alpha, n_samples, seed):
        rng = ensure_rng(seed)
        counts = np.zeros(graph.n_nodes)
        for _ in range(n_samples):
            length = sample_geometric_length(alpha, rng)
            counts[walk_steps(graph, query, length, rng)[-1]] += 1
        return counts / n_samples

    def test_frank_estimates_agree(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        alpha, n = 0.25, 12000
        exact = frank_vector(toy_graph, q, alpha)
        loop = self._loop_frank_mc(toy_graph, q, alpha, n, seed=31)
        vectorized = estimate_frank_mc(toy_graph, q, alpha, n_samples=n, seed=32)
        # Both sit within Monte Carlo noise of the exact vector, and hence
        # of each other.
        assert np.abs(loop - exact).max() < 0.02
        assert np.abs(vectorized - exact).max() < 0.02
        assert np.abs(vectorized - loop).max() < 0.03

    def test_frank_on_the_star_hub(self, star_graph):
        estimate = estimate_frank_mc(star_graph, 0, 0.3, n_samples=30000, seed=8)
        assert np.abs(estimate - frank_vector(star_graph, 0, 0.3)).max() < 0.01


class TestSampleCountType:
    @pytest.mark.parametrize(
        "estimator", [estimate_frank_mc, estimate_trank_mc, estimate_roundtrip_mc]
    )
    def test_fractional_n_samples_is_a_type_error(self, toy_graph, estimator):
        with pytest.raises(TypeError, match="n_samples"):
            estimator(toy_graph, 0, n_samples=3.5)


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


class TestPinnedDraws:
    """Seeded estimates are pinned bit for bit.

    A draw added, removed or reordered in the sampler changes every later
    draw, so a change meant to keep the estimators' samples shows here.
    """

    def test_frank(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        estimate = estimate_frank_mc(toy_graph, q, 0.25, n_samples=12000, seed=32)
        assert _digest(estimate) == (
            "ccb1ce20b4e3a37c64362206ba83d25aea658eb83bb606bf35700d91aff80f3c"
        )

    def test_trank(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        estimate = estimate_trank_mc(toy_graph, q, alpha=0.25, n_samples=3000, seed=11)
        assert _digest(estimate) == (
            "7b419a0a48352914d3403464c0d74008530ba76a6d323aee2436e8d09232d7bc"
        )

    def test_roundtrip(self, toy_graph):
        q = toy_graph.node_by_label("t1")
        estimate, completed = estimate_roundtrip_mc(
            toy_graph, q, alpha=0.25, n_samples=60000, seed=5
        )
        assert completed == 15443
        assert _digest(estimate) == (
            "a02594a31c49336fd38b1023ac067231f3ff70fdfc60ba302b7c145a80b6ef31"
        )
