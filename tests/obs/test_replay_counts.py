"""Registry counts of fixed gateway replays.

Unstarted gateways flush inline on ``ask`` and the local path counts
sweeps, not time, so these counts repeat exactly: a change to what the
cache, the gateway or the local path records moves them.
"""

import numpy as np
import pytest

from repro import obs
from repro.datasets import BibNetConfig, generate_bibnet
from repro.gateway import RankGateway
from repro.serving import ColumnCache

ALPHA = 0.25
K = 10


@pytest.fixture(scope="module")
def replay(qlog_60):
    """300 Zipf-weighted QLog-60 phrases, then 24 cold BibNet-1200 papers, one rng."""
    rng = np.random.default_rng(47)
    phrases = np.asarray(qlog_60.phrase_nodes)
    weights = 1.0 / np.arange(1, phrases.size + 1) ** 1.1
    stream = rng.choice(phrases, size=300, p=weights / weights.sum())
    bib = generate_bibnet(BibNetConfig(n_papers=1200, n_authors=400, seed=29))
    cold = rng.permutation(bib.paper_nodes)[:24]
    return stream.tolist(), bib.graph, cold.tolist()


def test_gated_registry_counts_the_replays_cache_hits(obs_enabled, qlog_60, replay):
    stream, _, _ = replay
    hits = obs.REGISTRY.get("repro_cache_hits_total")
    before = hits.total()
    gateway = RankGateway(qlog_60.graph, cache=ColumnCache(alpha=ALPHA))
    for node in stream:
        gateway.ask(node, k=K)
    gateway.close()
    assert hits.total() - before == 424
    assert gateway.cache.cache_info().hits == 424


def test_local_outcomes_agree_with_the_gateway_registry(obs_enabled, replay):
    _, graph, cold = replay
    gateway = RankGateway(graph, cache=ColumnCache(alpha=ALPHA), local_topk=True)
    for node in cold:
        gateway.ask(node, k=K)
    snap = gateway.snapshot()
    outcomes = gateway.stats.registry.counter("repro_gateway_local_total", labels=("outcome",))
    gateway.close()
    assert (snap.n_local_certified, snap.n_local_escalated) == (24, 0)
    assert outcomes.value(outcome="certified") == 24
