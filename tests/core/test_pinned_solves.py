"""Pinned bits of the single-vector solvers.

``power_iteration`` is the one-column ``method="power"`` solve of the batch
engine, and ``frank_vector``, ``trank_vector`` and ``naive_topk`` solve
through it.  These sha256 digests of their outputs on fixed nodes hold the
arithmetic still: a change meant to keep every bit must keep them, and a
change meant to move the bits must say so and re-pin them.
"""

import hashlib

import numpy as np
import pytest

from repro.core import frank_vector, power_iteration, teleport_vector, trank_vector
from repro.ops import get_operator
from repro.topk import naive_topk

#: The fixed query nodes of each graph: every node type of the toy graph,
#: and three papers, a term and an author of ``small_bibnet``.
NODES = {"toy": [0, 3, 7, 11], "small_bibnet": [203, 206, 209, 0, 83]}

DIGESTS = {
    "toy": {
        "power_iteration": "b649d709f59ac9befe941457f61af629bd36503f996be0f2842327768a4739c0",
        "frank_vector": "cafd88733dad9e3792fe9e4c22bbfafe5bb9dbf45c4aa4922144418356b36045",
        "trank_vector": "aa211c642c5c737db6c8d4e65038fd311bd81b6d0301f5d81c7d738732ff99b2",
        "naive_topk": "3c509db363c019087c3479e3e3ffe41334490061518ba0575ec890c2e29a7bea",
    },
    "small_bibnet": {
        "power_iteration": "886a320608d01350b3f83619fed77384fa894491e8bcb526ba1c502b7b77e2eb",
        "frank_vector": "51fcfbda3795eebac5747622ea72130feb8d78a5f9950bf6bdba9a7bbc1c725f",
        "trank_vector": "112ce3782fdabdaf8c35941cb3000db0df68de3dfcad0d9c7faf6cd01097e29e",
        "naive_topk": "52ad1b58b35c0d1142f400116dd151e306ff38d3917c91cd64c073c2daec2146",
    },
}


def power_iteration_both_sides(graph, node):
    """F (``P^T``) then T (``P``) for one node, straight through the solver."""
    s = teleport_vector(graph, node)
    return [
        power_iteration(get_operator(graph, transpose=True), s, 0.25),
        power_iteration(get_operator(graph, transpose=False), s, 0.25),
    ]


SOLVES = {
    "power_iteration": power_iteration_both_sides,
    "frank_vector": lambda graph, node: [frank_vector(graph, node)],
    "trank_vector": lambda graph, node: [trank_vector(graph, node)],
    "naive_topk": lambda graph, node: [naive_topk(graph, node, 10).scores],
}


@pytest.mark.parametrize("solve", sorted(SOLVES))
@pytest.mark.parametrize("graph_name", sorted(NODES))
def test_single_vector_bits_are_pinned(request, graph_name, solve):
    if graph_name == "toy":
        graph = request.getfixturevalue("toy_graph")
    else:
        graph = request.getfixturevalue("small_bibnet").graph
    digest = hashlib.sha256()
    for node in NODES[graph_name]:
        for vector in SOLVES[solve](graph, node):
            digest.update(np.ascontiguousarray(vector).tobytes())
    assert digest.hexdigest() == DIGESTS[graph_name][solve]
