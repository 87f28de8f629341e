"""Golden certified local top-k outcomes and work on the small BibNet.

Pins, per query, the returned top-10 together with how the certified
sweeps got there: the outcome (certified or escalated), the rounds and the
sweeps run.  Any change to the residual drive schedule, the sweep budget or
the certification test that alters a decision shows up here, while
escalated answers keep matching the exact solve bit for bit (covered in
``test_local_topk.py``).
"""

from repro.topk import local_topk

K = 10
ALPHA = 0.25

#: [(query, indices, certified, escalated, rounds, sweeps)] for every 15th
#: paper node of ``small_bibnet``.
GOLDEN = [
    (203, [203, 165, 170, 119, 205, 51, 204, 209, 7, 5], True, False, 2, 49),
    (236, [236, 237, 195, 87, 61, 385, 232, 33, 38, 455], True, False, 2, 52),
    (270, [270, 152, 257, 141, 202, 271, 106, 256, 52, 5], True, False, 2, 33),
    (301, [301, 276, 302, 88, 60, 85, 36, 411, 232, 45], True, False, 2, 54),
    (327, [327, 328, 329, 87, 60, 648, 479, 232, 298, 436], True, False, 2, 41),
    (355, [355, 356, 55, 244, 243, 16, 85, 10, 0, 1], True, False, 2, 38),
    (383, [383, 384, 98, 182, 104, 319, 387, 476, 393, 655], True, False, 2, 36),
    (405, [405, 406, 177, 143, 181, 51, 168, 3, 340, 9], True, False, 2, 41),
    (433, [433, 380, 177, 429, 143, 181, 379, 51, 405, 228], True, False, 2, 58),
    (456, [456, 457, 458, 75, 191, 180, 29, 287, 20, 361], True, False, 2, 51),
    (489, [489, 115, 81, 279, 93, 255, 232, 87, 206, 85], True, False, 3, 49),
    (517, [517, 518, 519, 85, 60, 40, 35, 232, 38, 36], True, False, 2, 56),
    (542, [542, 205, 203, 527, 170, 165, 119, 126, 51, 264], True, False, 2, 45),
    (567, [567, 136, 198, 283, 343, 193, 186, 453, 39, 611], True, False, 2, 35),
    (591, [591, 128, 67, 351, 592, 707, 350, 104, 398, 543], True, False, 2, 31),
    (618, [618, 619, 177, 143, 181, 228, 51, 229, 168, 340], True, False, 2, 33),
    (645, [645, 646, 429, 143, 181, 168, 51, 3, 8, 4], True, False, 2, 30),
    (675, [675, 676, 677, 184, 214, 26, 90, 334, 27, 57], True, False, 2, 33),
    (703, [703, 169, 114, 78, 513, 86, 293, 708, 31, 30], True, False, 2, 32),
    (730, [730, 731, 269, 80, 84, 83, 411, 35, 31, 36], True, False, 2, 37),
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
