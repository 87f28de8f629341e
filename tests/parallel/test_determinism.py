"""Worker-count invariance and reproducibility of the parallel layer.

The contract under test: ``workers`` is a throughput knob, never a result
knob — ``workers=1`` (the sequential path) and ``workers=4`` agree bit for
bit under ``method="power"`` and to the verified residual tolerance under
``method="auto"``.
"""

import numpy as np
import pytest

from repro.engine import frank_batch, roundtriprank_batch, trank_batch
from repro.serving import ColumnCache, MicroBatcher


def _queries(graph, count, seed=23):
    rng = np.random.default_rng(seed)
    singles = [int(q) for q in rng.choice(graph.n_nodes, size=count - 2, replace=False)]
    # Mixed shapes: single nodes, a node list, a weighted mapping.
    return singles + [singles[:3], {singles[0]: 2.0, singles[1]: 1.0}]


class TestBatchSolverParity:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("solver", [frank_batch, trank_batch])
    def test_power_is_bit_exact_on_toy(self, toy_graph, solver, workers):
        queries = _queries(toy_graph, 12)
        sequential = solver(toy_graph, queries, method="power", workers=1)
        sharded = solver(toy_graph, queries, method="power", workers=workers)
        assert np.array_equal(sequential, sharded)

    def test_power_is_bit_exact_on_bibnet(self, small_bibnet):
        graph = small_bibnet.graph
        queries = _queries(graph, 16)
        sequential = frank_batch(graph, queries, method="power", workers=1)
        sharded = frank_batch(graph, queries, method="power", workers=4)
        assert np.array_equal(sequential, sharded)

    @pytest.mark.parametrize("case", ["bibnet-16q-w4", "toy-12q-w2"])
    def test_auto_stays_within_residual_tolerance(self, toy_graph, small_bibnet, case):
        graph, n_queries, workers = {
            "bibnet-16q-w4": (small_bibnet.graph, 16, 4),
            "toy-12q-w2": (toy_graph, 12, 2),
        }[case]
        queries = _queries(graph, n_queries)
        sequential = frank_batch(graph, queries, method="auto", workers=1)
        sharded = frank_batch(graph, queries, method="auto", workers=workers)
        # Each column is independently verified to tol=1e-12 in float64;
        # worker count may shift bits but never the converged answer.
        assert np.abs(sequential - sharded).max() < 1e-10

    def test_roundtriprank_batch_parity(self, toy_graph):
        queries = list(range(toy_graph.n_nodes))
        sequential = roundtriprank_batch(toy_graph, queries, method="power", workers=1)
        sharded = roundtriprank_batch(toy_graph, queries, method="power", workers=4)
        assert np.array_equal(sequential, sharded)

    def test_roundtriprank_batch_auto_on_bibnet(self, small_bibnet):
        # Both the F and the T solve are sharded; their product stays
        # within the residual tolerance of the unsharded scores.
        graph = small_bibnet.graph
        queries = _queries(graph, 16)
        sequential = roundtriprank_batch(graph, queries, method="auto", workers=1)
        sharded = roundtriprank_batch(graph, queries, method="auto", workers=4)
        assert np.abs(sequential - sharded).max() < 1e-10

    def test_worker_counts_two_and_four_agree(self, toy_graph):
        queries = _queries(toy_graph, 12)
        two = frank_batch(toy_graph, queries, method="power", workers=2)
        four = frank_batch(toy_graph, queries, method="power", workers=4)
        assert np.array_equal(two, four)


class TestServingParity:
    def test_microbatcher_flush_matches_sequential(self, toy_graph):
        plain = MicroBatcher(toy_graph, max_batch=64, method="power")
        pooled = MicroBatcher(toy_graph, max_batch=64, method="power", workers=4)
        queries = list(range(toy_graph.n_nodes))
        want = [plain.submit(q) for q in queries]
        got = [pooled.submit(q) for q in queries]
        plain.flush()
        pooled.flush()
        for w, g in zip(want, got):
            assert np.array_equal(w.result(), g.result())

    def test_column_cache_workers_is_not_part_of_the_key(self, toy_graph):
        sequential = ColumnCache(method="power")
        pooled = ColumnCache(method="power", workers=4)
        nodes = list(range(toy_graph.n_nodes))
        for node, seq_col, par_col in zip(
            nodes,
            sequential.get_many(toy_graph, "f", nodes),
            pooled.get_many(toy_graph, "f", nodes),
        ):
            assert np.array_equal(seq_col, par_col), f"column {node} diverged"

