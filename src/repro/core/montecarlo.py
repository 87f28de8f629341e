"""Monte Carlo random-walk estimators.

Simulates the paper's walk semantics directly — geometric-length trips
(Sect. III-A) and round trips (Definition 1) — providing an independent,
model-free estimator used to validate:

- Proposition 1: geometric-length F-Rank equals Personalized PageRank;
- Definition 2 / Proposition 2: conditional round-trip target probabilities
  equal the normalized product ``f * t``.

These are semantic oracles for the definitions, not a serving path: every
ranking route answers with exact or certified scores.  The estimators
advance all their walkers together, one ``searchsorted`` per step
(:func:`_walk_terminals`); the step-at-a-time :func:`walk_steps` (one
``rng.choice`` per step) is the readable reference they are statistically
tested against.  A call holds all its walkers in memory at once.
"""

from __future__ import annotations

import numpy as np

from repro.core.frank import DEFAULT_ALPHA
from repro.graph.digraph import DiGraph
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_in_range, check_node_id, check_positive_int


def sample_geometric_length(alpha: float, rng: np.random.Generator) -> int:
    """Sample ``L ~ Geo(alpha)`` with ``p(L = l) = (1 - alpha)^l * alpha``.

    This is the number of *failures* before the first success, i.e. the
    support starts at 0 (a zero-length trip stays at the query).
    """
    # numpy's geometric counts trials to first success (support >= 1).
    return int(rng.geometric(alpha)) - 1


def walk_steps(graph: DiGraph, start: int, n_steps: int, rng: np.random.Generator) -> list[int]:
    """Walk ``n_steps`` random steps from ``start``; returns all visited nodes.

    The returned list has ``n_steps + 1`` entries beginning with ``start``.
    This is the loop-based reference sampler; the estimators below step all
    their walkers at once instead and are tested to agree with walks drawn
    here.
    """
    path = [start]
    node = start
    for _ in range(n_steps):
        neighbors, probs = graph.out_edges(node)
        node = int(rng.choice(neighbors, p=probs))
        path.append(node)
    return path


def _check_mc_args(alpha: float, n_samples: int) -> None:
    """Shared estimator validation: ``alpha`` in (0, 1), ``n_samples`` a
    positive integer (:func:`repro.utils.validation.check_positive_int`)."""
    check_in_range(alpha, "alpha", 0.0, 1.0, inclusive_low=False, inclusive_high=False)
    check_positive_int(n_samples, "n_samples")


def _geometric_lengths(alpha: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` draws of :func:`sample_geometric_length`'s law in one array."""
    return rng.geometric(alpha, size=size).astype(np.int64) - 1


def _walk_terminals(
    graph: DiGraph, starts: np.ndarray, lengths: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """End node of one walk per entry: ``lengths[i]`` steps from ``starts[i]``.

    All walkers step together, and a walker drops out once its length is
    spent.  Every row of ``P`` sums to one, so its entries span one slice of
    the running sum of ``P.data``: a uniform draw scaled into the walker's
    slice picks an out-edge with one ``searchsorted`` (inverse-transform
    sampling).
    """
    p = graph.transition
    cum = np.cumsum(p.data)
    row_last = p.indptr[1:] - 1
    row_end = cum[row_last]
    row_base = np.concatenate(([0.0], row_end[:-1]))
    row_span = row_end - row_base
    nodes = np.array(starts, dtype=np.int64)
    remaining = np.array(lengths, dtype=np.int64)
    active = np.flatnonzero(remaining > 0)
    while active.size:
        at = nodes[active]
        targets = row_base[at] + rng.random(active.size) * row_span[at]
        chosen = np.searchsorted(cum, targets, side="right")
        # Rounding can push a draw past the row's last cumulative value;
        # clamping keeps the walk on the row's out-edges.
        nodes[active] = p.indices[np.minimum(chosen, row_last[at])]
        remaining[active] -= 1
        active = active[remaining[active] > 0]
    return nodes


def estimate_frank_mc(
    graph: DiGraph,
    query: int,
    alpha: float = DEFAULT_ALPHA,
    n_samples: int = 10000,
    seed: "int | np.random.Generator | None" = None,
) -> np.ndarray:
    """Monte Carlo F-Rank: empirical distribution of trip targets (Eq. 1)."""
    query = check_node_id(query, graph.n_nodes, "query")
    _check_mc_args(alpha, n_samples)
    rng = ensure_rng(seed)
    lengths = _geometric_lengths(alpha, n_samples, rng)
    starts = np.full(n_samples, query, dtype=np.int64)
    terminals = _walk_terminals(graph, starts, lengths, rng)
    return np.bincount(terminals, minlength=graph.n_nodes) / n_samples


def estimate_trank_mc(
    graph: DiGraph,
    query: int,
    sources: "np.ndarray | list[int] | None" = None,
    alpha: float = DEFAULT_ALPHA,
    n_samples: int = 2000,
    seed: "int | np.random.Generator | None" = None,
) -> np.ndarray:
    """Monte Carlo T-Rank: fraction of walks from each source ending at ``query``.

    ``sources=None`` estimates for every node.  All ``len(sources) *
    n_samples`` walks run at once, so keep that product to test sizes.
    """
    query = check_node_id(query, graph.n_nodes, "query")
    _check_mc_args(alpha, n_samples)
    rng = ensure_rng(seed)
    if sources is None:
        sources = np.arange(graph.n_nodes)
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size and not (0 <= sources.min() and sources.max() < graph.n_nodes):
        # A negative id would wrap around and estimate another node.
        raise ValueError(f"sources must be node ids in [0, {graph.n_nodes - 1}]")
    starts = np.repeat(sources, n_samples)
    lengths = _geometric_lengths(alpha, starts.size, rng)
    terminals = _walk_terminals(graph, starts, lengths, rng)
    hits = (terminals.reshape(sources.size, n_samples) == query).sum(axis=1)
    result = np.zeros(graph.n_nodes)
    result[sources] = hits / n_samples
    return result


def estimate_roundtrip_mc(
    graph: DiGraph,
    query: int,
    alpha: float = DEFAULT_ALPHA,
    n_samples: int = 50000,
    seed: "int | np.random.Generator | None" = None,
) -> tuple[np.ndarray, int]:
    """Monte Carlo RoundTripRank by direct simulation of Definition 2.

    Samples round trips (``L + L'`` steps with i.i.d. geometric lengths),
    keeps those that return to the query, and histograms their targets.
    Walks are Markovian, so each round trip is sampled as an out-leg to the
    target followed by an independent return leg from it.

    Returns ``(estimated_r, n_completed)`` where ``estimated_r`` is the
    conditional target distribution (sums to one when any trip completed)
    and ``n_completed`` counts accepted round trips — callers should check
    it is large enough for the estimate to be meaningful.
    """
    query = check_node_id(query, graph.n_nodes, "query")
    _check_mc_args(alpha, n_samples)
    rng = ensure_rng(seed)
    lengths_out = _geometric_lengths(alpha, n_samples, rng)
    lengths_back = _geometric_lengths(alpha, n_samples, rng)
    starts = np.full(n_samples, query, dtype=np.int64)
    targets = _walk_terminals(graph, starts, lengths_out, rng)
    ends = _walk_terminals(graph, targets, lengths_back, rng)
    accepted = targets[ends == query]
    counts = np.bincount(accepted, minlength=graph.n_nodes).astype(np.float64)
    completed = int(accepted.size)
    if completed:
        counts /= completed
    return counts, completed
