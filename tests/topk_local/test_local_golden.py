"""Golden certified local top-k outcomes and work on the small BibNet.

Pins, per query, the returned top-10 together with how the certified
sweeps got there: the outcome (certified or escalated), the rounds and the
sweeps run.  Any change to the residual drive schedule, the sweep budget or
the certification test that alters a decision shows up here, while
escalated answers keep matching the exact solve bit for bit (covered in
``test_local_topk.py``).
"""

import numpy as np
import pytest

from repro.topk import local_topk, naive_topk

K = 10
ALPHA = 0.25

#: [(query, indices, certified, escalated, rounds, sweeps)] for every 15th
#: paper node of ``small_bibnet``.
GOLDEN = [
    (203, [203, 165, 170, 119, 205, 51, 204, 209, 7, 5], True, False, 3, 34),
    (236, [236, 237, 195, 87, 61, 385, 232, 33, 38, 455], True, False, 2, 31),
    (270, [270, 152, 257, 141, 202, 271, 106, 256, 52, 5], True, False, 2, 19),
    (301, [301, 276, 302, 88, 60, 85, 36, 411, 232, 45], True, False, 2, 37),
    (327, [327, 328, 329, 87, 60, 648, 479, 232, 298, 436], True, False, 3, 30),
    (355, [355, 356, 55, 244, 243, 16, 85, 10, 0, 1], True, False, 2, 23),
    (383, [383, 384, 98, 182, 104, 319, 387, 476, 393, 655], True, False, 4, 27),
    (405, [405, 406, 177, 143, 181, 51, 168, 3, 340, 9], True, False, 2, 29),
    (433, [433, 380, 177, 429, 143, 181, 379, 51, 405, 228], True, False, 2, 39),
    (456, [456, 457, 458, 75, 191, 180, 29, 287, 20, 361], True, False, 2, 36),
    (489, [489, 115, 81, 279, 93, 255, 232, 87, 206, 85], True, False, 4, 37),
    (517, [517, 518, 519, 85, 60, 40, 35, 232, 38, 36], True, False, 2, 44),
    (542, [542, 205, 203, 527, 170, 165, 119, 126, 51, 264], True, False, 2, 28),
    (567, [567, 136, 198, 283, 343, 193, 186, 453, 39, 611], True, False, 2, 20),
    (591, [591, 128, 67, 351, 592, 707, 350, 104, 398, 543], True, False, 3, 24),
    (618, [618, 619, 177, 143, 181, 228, 51, 229, 168, 340], True, False, 2, 24),
    (645, [645, 646, 429, 143, 181, 168, 51, 3, 8, 4], True, False, 2, 21),
    (675, [675, 676, 677, 184, 214, 26, 90, 334, 27, 57], True, False, 4, 31),
    (703, [703, 169, 114, 78, 513, 86, 293, 708, 31, 30], True, False, 2, 20),
    (730, [730, 731, 269, 80, 84, 83, 411, 35, 31, 36], True, False, 3, 24),
]

#: {measure: [(query, indices, certified, escalated, rounds, sweeps)]} for the
#: same papers under the other local measures (RTR+ at the default beta).
GOLDEN_MEASURES = {
    "frank": [
        (203, [203, 119, 51, 165, 170, 42, 7, 49, 47, 45], True, False, 2, 21),
        (236, [236, 232, 87, 61, 195, 206, 49, 48, 44, 38], True, False, 3, 16),
        (270, [270, 256, 259, 202, 203, 106, 52, 141, 152, 42], True, False, 3, 17),
        (301, [301, 232, 222, 282, 85, 206, 60, 88, 44, 45], True, False, 3, 15),
        (327, [327, 232, 238, 243, 298, 87, 60, 220, 206, 47], True, False, 3, 15),
        (355, [355, 243, 85, 55, 6, 220, 43, 0, 34, 1], True, False, 2, 18),
        (383, [383, 57, 182, 98, 104, 42, 20, 47, 45, 21], True, False, 3, 14),
        (405, [405, 340, 51, 181, 143, 168, 177, 203, 228, 4], True, False, 4, 13),
        (433, [433, 203, 340, 379, 226, 51, 224, 405, 414, 398], True, False, 2, 16),
        (456, [456, 287, 361, 180, 191, 75, 215, 214, 20, 42], True, False, 2, 13),
        (489, [489, 232, 206, 274, 85, 81, 327, 87, 93, 115], True, False, 2, 12),
        (517, [517, 232, 236, 274, 85, 60, 206, 38, 45, 43], True, False, 2, 14),
        (542, [542, 203, 264, 224, 119, 226, 272, 414, 165, 51], True, False, 3, 13),
        (567, [567, 453, 251, 186, 60, 193, 198, 206, 136, 282], True, False, 2, 13),
        (591, [591, 350, 543, 398, 256, 67, 104, 203, 128, 707], True, False, 2, 12),
        (618, [618, 203, 228, 340, 514, 51, 550, 181, 143, 177], True, False, 3, 17),
        (645, [645, 51, 181, 168, 143, 49, 43, 47, 45, 4], True, False, 2, 19),
        (675, [675, 214, 334, 306, 291, 418, 57, 184, 90, 211], True, False, 3, 16),
        (703, [703, 291, 381, 86, 78, 114, 169, 6, 34, 512], True, False, 2, 14),
        (730, [730, 411, 324, 83, 84, 80, 206, 42, 232, 44], True, False, 2, 13),
    ],
    "trank": [
        (203, [203, 205, 209, 204, 464, 480, 272, 321, 226, 264], True, False, 3, 29),
        (236, [236, 237, 516, 251, 385, 298, 455, 341, 325, 517], True, False, 3, 19),
        (270, [270, 152, 257, 271, 141, 202, 550, 498, 106, 689], True, False, 3, 15),
        (301, [301, 276, 411, 302, 412, 88, 413, 36, 189, 60], True, False, 3, 22),
        (327, [327, 328, 329, 409, 479, 489, 410, 648, 437, 436], True, False, 2, 11),
        (355, [355, 356, 671, 244, 396, 672, 55, 716, 16, 717], True, False, 3, 16),
        (383, [383, 384, 387, 319, 98, 655, 476, 388, 521, 393], True, False, 2, 9),
        (405, [405, 406, 177, 143, 433, 181, 3, 9, 168, 380], True, False, 4, 15),
        (433, [433, 380, 429, 177, 143, 181, 379, 51, 645, 228], True, False, 2, 15),
        (456, [456, 457, 458, 29, 75, 191, 180, 20, 400, 353], True, False, 4, 18),
        (489, [489, 115, 279, 255, 81, 93, 40, 87, 737, 547], True, False, 2, 17),
        (517, [517, 518, 519, 565, 683, 566, 35, 40, 36, 60], True, False, 3, 13),
        (542, [542, 527, 205, 170, 682, 165, 126, 3, 8, 119], True, False, 2, 9),
        (567, [567, 343, 283, 136, 611, 612, 198, 193, 739, 39], True, False, 2, 11),
        (591, [591, 128, 592, 67, 351, 707, 104, 399, 178, 96], True, False, 3, 14),
        (618, [618, 619, 229, 177, 143, 181, 3, 168, 51, 379], True, False, 3, 10),
        (645, [645, 646, 429, 143, 181, 3, 8, 168, 51, 4], True, False, 2, 7),
        (675, [675, 676, 677, 184, 26, 29, 27, 90, 57, 334], True, False, 2, 14),
        (703, [703, 169, 513, 114, 78, 293, 708, 86, 709, 30], True, False, 2, 12),
        (730, [730, 731, 269, 80, 84, 83, 31, 35, 268, 36], True, False, 4, 13),
    ],
    "roundtriprank_plus": [
        (203, [203, 165, 170, 119, 205, 51, 204, 209, 7, 5], True, False, 3, 34),
        (236, [236, 237, 195, 87, 61, 385, 232, 33, 38, 455], True, False, 2, 31),
        (270, [270, 152, 257, 141, 202, 271, 106, 256, 52, 5], True, False, 2, 19),
        (301, [301, 276, 302, 88, 60, 85, 36, 411, 232, 45], True, False, 2, 36),
        (327, [327, 328, 329, 87, 60, 648, 479, 232, 298, 436], True, False, 3, 31),
        (355, [355, 356, 55, 244, 243, 16, 85, 10, 0, 1], True, False, 2, 23),
        (383, [383, 384, 98, 182, 104, 319, 387, 476, 393, 655], True, False, 4, 27),
        (405, [405, 406, 177, 143, 181, 51, 168, 3, 340, 9], True, False, 2, 30),
        (433, [433, 380, 177, 429, 143, 181, 379, 51, 405, 228], True, False, 2, 39),
        (456, [456, 457, 458, 75, 191, 180, 29, 287, 20, 361], True, False, 2, 36),
        (489, [489, 115, 81, 279, 93, 255, 232, 87, 206, 85], True, False, 4, 37),
        (517, [517, 518, 519, 85, 60, 40, 35, 232, 38, 36], True, False, 2, 43),
        (542, [542, 205, 203, 527, 170, 165, 119, 126, 51, 264], True, False, 2, 32),
        (567, [567, 136, 198, 283, 343, 193, 186, 453, 39, 611], True, False, 2, 20),
        (591, [591, 128, 67, 351, 592, 707, 350, 104, 398, 543], True, False, 3, 24),
        (618, [618, 619, 177, 143, 181, 228, 51, 229, 168, 340], True, False, 2, 24),
        (645, [645, 646, 429, 143, 181, 168, 51, 3, 8, 4], True, False, 2, 21),
        (675, [675, 676, 677, 184, 214, 26, 90, 334, 27, 57], True, False, 4, 31),
        (703, [703, 169, 114, 78, 513, 86, 293, 708, 31, 30], True, False, 2, 19),
        (730, [730, 731, 269, 80, 84, 83, 411, 35, 31, 36], True, False, 2, 23),
    ],
}

#: (sweeps, rounds) summed over the 33 cold BibNet-2200 papers of
#: ``tests/gateway/test_local_path.py``, the graph of the ledger's
#: cold-topk-local workload.
LEDGER_GRAPH_WORK = (989, 97)

#: (node, certified, escalated, rounds, sweeps) of two BibNet-2200 nodes
#: whose binding gap ends at ``CERT_MARGIN``: term 3413's gap clears the
#: margin by about 2e-11, so the states aim at the gap less the margin; author
#: 741's (8e-11) never can, and it escalates once the binding pair's bounds
#: resolve it.
LEDGER_GRAPH_MARGIN = [(3413, True, False, 11, 63), (741, False, True, 5, 55)]

#: [((a, b), indices, certified, escalated, rounds, sweeps)] for the
#: two-node RoundTripRank query ``{a: 1.0, b: 2.0}`` of consecutive golden papers.
GOLDEN_PAIRS = [
    ((203, 236), [236, 203, 237, 165, 170, 119, 205, 195, 87, 61], True, False, 5, 57),
    ((236, 270), [270, 236, 152, 257, 141, 202, 271, 237, 106, 256], True, False, 3, 79),
    ((270, 301), [301, 270, 152, 276, 257, 141, 202, 271, 302, 88], True, False, 3, 47),
    ((301, 327), [327, 301, 328, 329, 276, 60, 87, 302, 88, 232], True, False, 3, 46),
    ((327, 355), [355, 327, 356, 55, 244, 328, 243, 329, 16, 85], True, False, 2, 52),
    ((355, 383), [383, 355, 384, 98, 356, 182, 104, 319, 387, 476], True, False, 7, 45),
    ((383, 405), [405, 383, 406, 384, 98, 177, 143, 181, 182, 104], True, False, 3, 62),
    ((405, 433), [433, 405, 177, 143, 380, 181, 406, 51, 429, 379], True, False, 3, 50),
    ((433, 456), [456, 433, 457, 458, 75, 191, 380, 180, 29, 177], True, False, 3, 52),
    ((456, 489), [489, 456, 457, 458, 115, 81, 279, 93, 255, 75], True, False, 8, 49),
    ((489, 517), [517, 489, 518, 519, 115, 81, 85, 232, 40, 60], True, False, 3, 58),
    ((517, 542), [542, 517, 518, 519, 205, 203, 527, 170, 165, 119], True, False, 2, 54),
    ((542, 567), [567, 542, 136, 198, 283, 343, 193, 186, 453, 205], True, False, 5, 71),
    ((567, 591), [591, 567, 128, 67, 351, 592, 707, 350, 104, 136], True, False, 3, 50),
    ((591, 618), [618, 591, 619, 128, 67, 177, 143, 181, 351, 592], True, False, 5, 48),
    ((618, 645), [645, 618, 646, 429, 143, 181, 619, 51, 168, 3], True, False, 2, 41),
    ((645, 675), [675, 645, 646, 676, 677, 184, 429, 143, 214, 181], True, False, 3, 65),
    ((675, 703), [703, 675, 169, 114, 78, 513, 86, 676, 677, 293], True, False, 3, 49),
    ((703, 730), [730, 703, 169, 731, 269, 80, 114, 84, 78, 83], True, False, 3, 52),
]


def test_golden_queries_are_every_15th_paper(small_bibnet):
    assert [q for q, *_ in GOLDEN] == small_bibnet.paper_nodes[::15].tolist()


def test_outcomes_and_work_match_golden(small_bibnet):
    g = small_bibnet.graph
    got = []
    for q, *_ in GOLDEN:
        r = local_topk(g, q, K, ALPHA)
        got.append((q, r.indices.tolist(), r.certified, r.escalated, r.rounds, r.work))
    assert got == GOLDEN


@pytest.mark.parametrize("measure", sorted(GOLDEN_MEASURES))
def test_every_measure_matches_golden(small_bibnet, measure):
    g = small_bibnet.graph
    got = []
    for q, *_ in GOLDEN_MEASURES[measure]:
        r = local_topk(g, q, K, ALPHA, measure=measure)
        got.append((q, r.indices.tolist(), r.certified, r.escalated, r.rounds, r.work))
    assert got == GOLDEN_MEASURES[measure]


def test_two_node_queries_match_golden(small_bibnet):
    papers = [q for q, *_ in GOLDEN]
    assert [pair for pair, *_ in GOLDEN_PAIRS] == list(zip(papers, papers[1:]))
    g = small_bibnet.graph
    got = []
    for (a, b), *_ in GOLDEN_PAIRS:
        r = local_topk(g, {a: 1.0, b: 2.0}, K, ALPHA)
        got.append(((a, b), r.indices.tolist(), r.certified, r.escalated, r.rounds, r.work))
    assert got == GOLDEN_PAIRS


def test_cold_papers_of_the_ledger_graph_sum_to_golden_work(bibnet_2200):
    g = bibnet_2200.graph
    papers = np.random.default_rng(101).permutation(bibnet_2200.paper_nodes)[:33]
    results = [local_topk(g, q, K, ALPHA) for q in papers.tolist()]
    assert all(r.certified for r in results)
    assert (sum(r.work for r in results), sum(r.rounds for r in results)) == LEDGER_GRAPH_WORK


def test_gaps_at_the_margin_of_the_ledger_graph(bibnet_2200):
    g = bibnet_2200.graph
    got = []
    for q, *_ in LEDGER_GRAPH_MARGIN:
        r = local_topk(g, q, K, ALPHA)
        assert r.indices.tolist() == naive_topk(g, q, K, ALPHA).nodes
        got.append((q, r.certified, r.escalated, r.rounds, r.work))
    assert got == LEDGER_GRAPH_MARGIN
