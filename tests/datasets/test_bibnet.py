"""Tests for the synthetic BibNet generator."""

import hashlib

import numpy as np
import pytest

from repro.datasets import BibNetConfig, generate_bibnet
from repro.datasets.bibnet import AREA_SUBTOPICS, BIBNET_TYPE_NAMES


class TestDeterminism:
    def test_same_seed_same_graph(self):
        cfg = BibNetConfig(n_papers=60, n_authors=30, seed=5)
        a = generate_bibnet(cfg)
        b = generate_bibnet(cfg)
        assert a.graph.n_nodes == b.graph.n_nodes
        assert (a.graph.weights != b.graph.weights).nnz == 0
        assert a.paper_venue == b.paper_venue

    def test_different_seed_differs(self):
        a = generate_bibnet(BibNetConfig(n_papers=60, n_authors=30, seed=5))
        b = generate_bibnet(BibNetConfig(n_papers=60, n_authors=30, seed=6))
        if a.graph.n_nodes == b.graph.n_nodes:
            assert (a.graph.weights != b.graph.weights).nnz > 0
        else:
            assert a.graph.n_nodes != b.graph.n_nodes


def graph_digest(graph) -> str:
    """SHA-256 of the weight and transition CSR arrays plus the node types.

    Every array is cast to a fixed little-endian dtype first, so the digest
    pins values, not scipy's choice of index width.
    """
    h = hashlib.sha256()
    for matrix in (graph.weights, graph.transition):
        for array, dtype in (
            (matrix.indptr, "<i8"),
            (matrix.indices, "<i8"),
            (matrix.data, "<f8"),
        ):
            h.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    h.update(np.ascontiguousarray(graph.node_types, dtype="<i8").tobytes())
    return h.hexdigest()


def provenance_digest(bib) -> str:
    """SHA-256 of what a BibNet carries besides the arrays of :func:`graph_digest`.

    Covers the node labels, the birth years, the four role arrays and the
    per-paper maps in insertion order (keys; list values as lengths plus
    their concatenation).  ``eval.tasks`` reads ``paper_authors``, the
    snapshots read ``node_timestamps``, and a rare term's label encodes its
    pool position: reordering any of them leaves :func:`graph_digest` equal.
    Every array is hashed with its length first, so ids cannot slide from
    one array into the next.
    """
    h = hashlib.sha256()

    def ints(values) -> None:
        array = np.asarray(values, dtype="<i8")
        h.update(np.int64(array.size).astype("<i8").tobytes())
        h.update(np.ascontiguousarray(array).tobytes())

    h.update("\n".join(bib.graph.labels).encode())
    ints(bib.node_timestamps)
    for nodes in (bib.paper_nodes, bib.author_nodes, bib.term_nodes, bib.venue_nodes):
        ints(nodes)
    for mapping in (bib.paper_authors, bib.paper_terms):
        ints(list(mapping))
        ints([len(values) for values in mapping.values()])
        ints([node for values in mapping.values() for node in values])
    for mapping in (bib.paper_venue, bib.paper_subtopic):
        ints(list(mapping))
        ints(list(mapping.values()))
    return h.hexdigest()


#: :func:`graph_digest` of ``BibNetConfig(14000, 4500, seed=42)``.
BIBNET_14000_SHA256 = "6c29bc7554a367c5e26d7e72ce11fea9817bb7e880f776e7560a348e4e2f2887"

#: :func:`graph_digest` of ``BibNetConfig(2200, 740, seed=29)``.
BIBNET_2200_SHA256 = "fe2caeedbfa38c686cc3ac17a28e5ae7e25afb4517e02b5f782c03b2f8617b6d"

#: :func:`graph_digest` of ``BibNetConfig(300, 120, seed=13)``.
SMALL_BIBNET_SHA256 = "0c191aff685bb7b5ffeacaf0917bed03f4cc720f4ab4ec6377db01d32d093720"

#: :func:`provenance_digest` of the same three configs.
PROVENANCE_SHA256 = {
    14000: "347c01df247db42f6a3cfe48e4aab19f4a3fba1aca435d86bde8577e8a411ab6",
    2200: "73c0cd06270b8b560b675b8f2468447407217fe941fc12621dba9edd1056a03b",
    300: "61792199566f39c541ef947f3eeb840954d42fd04b3c12a75d2e575de89036d5",
}


class TestPinnedBytes:
    """The exact graphs the ledger and the shared fixtures are built on.

    Every before/after ledger comparison assumes both commits generate
    byte-identical graphs, and a faster generator must keep these digests.
    """

    def test_bibnet_2200_ledger_graph(self, bibnet_2200):
        assert bibnet_2200.config == BibNetConfig(n_papers=2200, n_authors=740, seed=29)
        assert graph_digest(bibnet_2200.graph) == BIBNET_2200_SHA256

    def test_small_bibnet(self, small_bibnet):
        assert small_bibnet.config == BibNetConfig(n_papers=300, n_authors=120, seed=13)
        assert graph_digest(small_bibnet.graph) == SMALL_BIBNET_SHA256

    def test_paper_scale_bibnet(self, bibnet_14000):
        assert bibnet_14000.config == BibNetConfig(n_papers=14000, n_authors=4500, seed=42)
        assert bibnet_14000.graph.n_nodes == 29_846
        assert graph_digest(bibnet_14000.graph) == BIBNET_14000_SHA256

    @pytest.mark.parametrize("fixture", ["small_bibnet", "bibnet_2200", "bibnet_14000"])
    def test_provenance(self, fixture, request):
        bib = request.getfixturevalue(fixture)
        assert provenance_digest(bib) == PROVENANCE_SHA256[bib.config.n_papers]


class TestSchema:
    def test_type_names(self, small_bibnet):
        assert small_bibnet.graph.type_names == BIBNET_TYPE_NAMES

    def test_node_partition(self, small_bibnet):
        total = (
            len(small_bibnet.paper_nodes)
            + len(small_bibnet.author_nodes)
            + len(small_bibnet.term_nodes)
            + len(small_bibnet.venue_nodes)
        )
        assert total == small_bibnet.graph.n_nodes

    def test_citations_point_to_earlier_papers(self, small_bibnet):
        g = small_bibnet.graph
        paper_code = g.type_code("paper")
        ts = small_bibnet.node_timestamps
        for p in small_bibnet.paper_nodes.tolist():
            for nb in g.out_neighbors(p).tolist():
                if g.node_types[nb] == paper_code:
                    assert ts[nb] <= ts[p]
                    assert nb < p  # generated strictly earlier

    def test_citation_edges_directed(self, small_bibnet):
        """Paper->paper arcs are one-way; other edge types are symmetric."""
        g = small_bibnet.graph
        paper_code = g.type_code("paper")
        coo = g.weights.tocoo()
        for u, v in zip(coo.row.tolist(), coo.col.tolist()):
            if g.node_types[u] == paper_code and g.node_types[v] == paper_code:
                assert not g.has_edge(v, u)
            else:
                assert g.has_edge(v, u)

    def test_provenance_edges_exist(self, small_bibnet):
        g = small_bibnet.graph
        for p in small_bibnet.paper_nodes[:50].tolist():
            assert g.has_edge(p, small_bibnet.paper_venue[p])
            for a in small_bibnet.paper_authors[p]:
                assert g.has_edge(p, a)
            for t in small_bibnet.paper_terms[p]:
                assert g.has_edge(p, t)

    def test_venue_spectrum(self, small_bibnet):
        """Broad venues collect far more papers than narrow venues."""
        counts: dict[int, int] = {}
        for venue in small_bibnet.paper_venue.values():
            counts[venue] = counts.get(venue, 0) + 1
        broad = [
            counts.get(v, 0)
            for v, s in small_bibnet.venue_subtopic.items()
            if s == -1
        ]
        narrow = [
            counts.get(v, 0)
            for v, s in small_bibnet.venue_subtopic.items()
            if s >= 0
        ]
        assert max(broad) > max(narrow)

    def test_subtopic_names_cover_all_areas(self, small_bibnet):
        expected = [name for area in AREA_SUBTOPICS.values() for name in area]
        assert small_bibnet.subtopic_names == expected


class TestQueries:
    def test_term_query_resolves_words(self, small_bibnet):
        nodes = small_bibnet.term_query("spatio temporal data")
        assert len(nodes) == 3
        for node in nodes:
            assert small_bibnet.graph.label_of(node).startswith("term:")

    def test_term_query_skips_unknown_words(self, small_bibnet):
        nodes = small_bibnet.term_query("spatio nonexistentword")
        assert len(nodes) == 1

    def test_term_query_all_unknown_raises(self, small_bibnet):
        with pytest.raises(KeyError):
            small_bibnet.term_query("zzz qqq")


class TestTimestamps:
    def test_all_nodes_have_timestamps(self, small_bibnet):
        assert small_bibnet.node_timestamps.shape == (small_bibnet.graph.n_nodes,)
        assert small_bibnet.node_timestamps.min() >= 0
        assert small_bibnet.node_timestamps.max() < small_bibnet.config.n_years

    def test_non_paper_nodes_born_with_first_paper(self, small_bibnet):
        ts = small_bibnet.node_timestamps
        for p in small_bibnet.paper_nodes[:50].tolist():
            for a in small_bibnet.paper_authors[p]:
                assert ts[a] <= ts[p]
            assert ts[small_bibnet.paper_venue[p]] <= ts[p]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_papers=5),
            dict(n_authors=5),
            dict(p_broad_venue=1.5),
            dict(terms_per_paper_min=0),
            dict(terms_per_paper_min=5, terms_per_paper_max=4),
            dict(authors_per_paper_min=0),
            dict(p_cite_same_subtopic=0.8, p_cite_same_area=0.3),
            dict(n_years=0),
            # These used to pass construction: bad locality probabilities
            # silently generated citations that ignore locality, and the
            # rest failed mid-generation.
            dict(p_cite_same_subtopic=float("nan")),
            dict(p_cite_same_subtopic=-0.1),
            dict(p_cite_same_area=float("nan")),
            dict(p_cite_same_area=-0.1),
            dict(broad_venues_per_area=0),
            dict(max_citations_per_paper=-1),
            dict(author_productivity_exponent=float("nan")),
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            BibNetConfig(**kwargs)

    def test_rejects_fractional_size(self):
        # Used to fail mid-generation, in range() over the paper count.
        with pytest.raises(TypeError, match="n_papers"):
            BibNetConfig(n_papers=50.5)
