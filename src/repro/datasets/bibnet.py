"""Synthetic bibliographic network (BibNet substitute).

The paper evaluates on a DBLP+Citeseer network of papers, authors, terms and
venues.  That data is not redistributable, so this generator produces a
structure-preserving synthetic replacement (README.md, Datasets):

- the same four node types and four edge types (directed paper->paper
  citations; undirected paper-term, paper-venue, paper-author);
- four research *areas* (DB/DM/IR/AI), each with topical *subtopics* whose
  names supply real multi-word term labels ("spatio temporal databases"),
  so the paper's qualitative queries (Fig. 6–7) can be posed verbatim;
- venues span the importance/specificity spectrum: each area has a few
  *broad* venues accepting papers from every subtopic (important, not
  specific — the paper's ``v1``) and one *narrow* venue per subtopic
  (specific — the paper's ``v3``);
- power-law citation in-degree via preferential attachment, power-law
  author productivity via Zipf weights;
- every node carries a year timestamp so cumulative snapshots (Fig. 12–13)
  can be taken.

Determinism: the same :class:`BibNetConfig` (including ``seed``) always
yields the identical graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DiGraph
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive, check_positive_int, check_probability

BIBNET_TYPE_NAMES = ["paper", "author", "term", "venue"]

#: Research areas and their subtopics.  Subtopic names double as term
#: vocabulary: every word becomes a term node, so multi-word queries like
#: "spatio temporal data" address real term nodes.
AREA_SUBTOPICS: dict[str, list[str]] = {
    "DB": [
        "spatio temporal databases",
        "transaction processing",
        "query optimization",
        "stream processing",
        "information integration",
    ],
    "DM": [
        "spatio temporal mining",
        "frequent pattern mining",
        "graph clustering",
        "anomaly detection",
        "recommender systems",
    ],
    "IR": [
        "semantic web search",
        "text retrieval models",
        "web ranking",
        "question answering",
        "entity linking",
    ],
    "AI": [
        "semantic knowledge representation",
        "neural network learning",
        "planning agents",
        "probabilistic reasoning",
        "constraint satisfaction",
    ],
}

#: Generic terms shared across all areas: they appear in many papers, giving
#: broad venues their reachability advantage (the "importance" sense).
GENERIC_TERMS = [
    "data",
    "system",
    "model",
    "analysis",
    "framework",
    "approach",
    "algorithm",
    "evaluation",
    "efficient",
    "scalable",
    "optimization",
    "learning",
]


@dataclass(frozen=True)
class BibNetConfig:
    """Knobs of the synthetic bibliographic network."""

    n_papers: int = 1200
    n_authors: int = 400
    broad_venues_per_area: int = 3
    #: probability a paper is published in one of its area's broad venues
    #: (otherwise in its subtopic's narrow venue).
    p_broad_venue: float = 0.6
    terms_per_paper_min: int = 4
    terms_per_paper_max: int = 8
    authors_per_paper_min: int = 1
    authors_per_paper_max: int = 4
    max_citations_per_paper: int = 10
    #: probability a citation stays within the citing paper's subtopic
    #: (else it goes to the same area, and a small tail anywhere).
    p_cite_same_subtopic: float = 0.65
    p_cite_same_area: float = 0.25
    n_years: int = 17  # papers are spread over years 0 .. n_years-1
    #: Zipf-ish exponent for author productivity weights.
    author_productivity_exponent: float = 1.2
    #: rare-term tail (Heaps' law): expected number of tail terms per paper,
    #: and the probability that a tail-term draw coins a brand-new term
    #: instead of reusing one from the paper's subtopic.  A growing
    #: vocabulary keeps hub-term degrees sub-linear in corpus size, as in
    #: real bibliographic data.
    rare_terms_per_paper: int = 2
    p_new_rare_term: float = 0.4
    #: apply the Sarkar et al. [14] style edge-type weights (citations carry
    #: the most authority flow, term edges the least) — the paper's setting.
    use_type_weights: bool = True
    seed: int = 7

    def __post_init__(self) -> None:
        for name in (
            "n_papers",
            "n_authors",
            "broad_venues_per_area",
            "terms_per_paper_min",
            "terms_per_paper_max",
            "authors_per_paper_min",
            "authors_per_paper_max",
            "n_years",
        ):
            check_positive_int(getattr(self, name), name)
        for name in ("max_citations_per_paper", "rare_terms_per_paper"):
            check_positive_int(getattr(self, name), name, strict=False)
        for name in (
            "p_broad_venue",
            "p_cite_same_subtopic",
            "p_cite_same_area",
            "p_new_rare_term",
        ):
            check_probability(getattr(self, name), name)
        check_positive(
            self.author_productivity_exponent, "author_productivity_exponent", strict=False
        )
        if self.n_papers < 10:
            raise ValueError("n_papers must be >= 10")
        if self.n_authors < 10:
            raise ValueError("n_authors must be >= 10")
        if self.terms_per_paper_max < self.terms_per_paper_min:
            raise ValueError("invalid terms_per_paper range")
        if self.authors_per_paper_max < self.authors_per_paper_min:
            raise ValueError("invalid authors_per_paper range")
        if self.p_cite_same_subtopic + self.p_cite_same_area > 1:
            raise ValueError("citation locality probabilities exceed 1")


@dataclass
class BibNet:
    """A generated bibliographic network with full provenance metadata."""

    graph: DiGraph
    config: BibNetConfig
    #: node ids by role
    paper_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    author_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    term_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    venue_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    #: ground-truth provenance (node-id keyed)
    paper_authors: dict[int, list[int]] = field(default_factory=dict)
    paper_venue: dict[int, int] = field(default_factory=dict)
    paper_terms: dict[int, list[int]] = field(default_factory=dict)
    paper_subtopic: dict[int, int] = field(default_factory=dict)
    venue_area: dict[int, str] = field(default_factory=dict)
    #: subtopic id of each narrow venue; broad venues map to -1
    venue_subtopic: dict[int, int] = field(default_factory=dict)
    subtopic_names: list[str] = field(default_factory=list)
    #: per-node birth year for snapshotting (length n_nodes)
    node_timestamps: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    def term_node_by_word(self, word: str) -> int:
        """Node id of the term ``word`` (terms are labeled ``term:<word>``)."""
        return self.graph.node_by_label(f"term:{word}")

    def term_query(self, phrase: str) -> list[int]:
        """Term-node query for a multi-word phrase, skipping unknown words."""
        nodes = []
        for word in phrase.split():
            try:
                nodes.append(self.term_node_by_word(word))
            except KeyError:
                continue
        if not nodes:
            raise KeyError(f"no query words of {phrase!r} exist as terms")
        return nodes


class _IdPool:
    """Append-only node ids in an int64 array grown by doubling."""

    def __init__(self) -> None:
        self._ids = np.empty(16, dtype=np.int64)
        self._size = 0

    @property
    def ids(self) -> np.ndarray:
        """The ids appended so far, in order (a view, valid until the next append)."""
        return self._ids[: self._size]

    def append(self, node: int) -> None:
        if self._size == self._ids.size:
            self._ids = np.concatenate([self._ids, np.empty_like(self._ids)])
        self._ids[self._size] = node
        self._size += 1


def generate_bibnet(config: "BibNetConfig | None" = None) -> BibNet:
    """Generate a synthetic bibliographic network from ``config``."""
    config = config or BibNetConfig()
    rng = ensure_rng(config.seed)

    areas = list(AREA_SUBTOPICS)
    subtopic_names: list[str] = []
    subtopic_area: list[str] = []
    for area in areas:
        for name in AREA_SUBTOPICS[area]:
            subtopic_names.append(name)
            subtopic_area.append(area)
    n_subtopics = len(subtopic_names)

    # ----- vocabulary ---------------------------------------------------- #
    vocabulary: list[str] = []
    seen_words: set[str] = set()
    for name in subtopic_names:
        for word in name.split():
            if word not in seen_words:
                seen_words.add(word)
                vocabulary.append(word)
    for word in GENERIC_TERMS:
        if word not in seen_words:
            seen_words.add(word)
            vocabulary.append(word)

    builder = GraphBuilder(type_names=BIBNET_TYPE_NAMES)
    term_ids: dict[str, int] = {}
    for word in vocabulary:
        term_ids[word] = builder.add_node(f"term:{word}", "term")

    # Per-subtopic term distribution: name words dominate, then area words,
    # then generic filler.
    subtopic_term_pools: list[tuple[list[int], np.ndarray]] = []
    for s, name in enumerate(subtopic_names):
        own_words = name.split()
        area_words = [
            w
            for other in AREA_SUBTOPICS[subtopic_area[s]]
            for w in other.split()
            if w not in own_words
        ]
        pool: list[int] = []
        weights: list[float] = []
        for w in own_words:
            pool.append(term_ids[w])
            weights.append(8.0)
        for w in dict.fromkeys(area_words):
            pool.append(term_ids[w])
            weights.append(1.0)
        for w in GENERIC_TERMS:
            if term_ids[w] not in pool:
                pool.append(term_ids[w])
                weights.append(2.5)
        wgt = np.asarray(weights)
        subtopic_term_pools.append((pool, wgt / wgt.sum()))

    # ----- venues --------------------------------------------------------- #
    broad_venues: dict[str, list[int]] = {}
    broad_prestige: dict[str, np.ndarray] = {}
    narrow_venue: list[int] = []
    venue_area: dict[int, str] = {}
    venue_subtopic: dict[int, int] = {}
    for area in areas:
        ids = []
        for i in range(config.broad_venues_per_area):
            vid = builder.add_node(f"venue:{area}_Major_{i}", "venue")
            ids.append(vid)
            venue_area[vid] = area
            venue_subtopic[vid] = -1
        broad_venues[area] = ids
        # First broad venue of each area is the most prestigious.
        prestige = np.array([2.0 ** (-i) for i in range(len(ids))])
        broad_prestige[area] = prestige / prestige.sum()
    for s, name in enumerate(subtopic_names):
        label = "venue:Wkshp_" + "_".join(name.split())
        vid = builder.add_node(label, "venue")
        narrow_venue.append(vid)
        venue_area[vid] = subtopic_area[s]
        venue_subtopic[vid] = s

    # ----- authors --------------------------------------------------------- #
    author_nodes: list[int] = []
    subtopic_authors: list[list[int]] = [[] for _ in range(n_subtopics)]
    subtopic_author_weights: list[list[float]] = [[] for _ in range(n_subtopics)]
    for a in range(config.n_authors):
        aid = builder.add_node(f"author:a{a}", "author")
        author_nodes.append(aid)
        primary = int(rng.integers(n_subtopics))
        interests = [primary]
        if rng.random() < 0.3:
            secondary = int(rng.integers(n_subtopics))
            if secondary != primary:
                interests.append(secondary)
        productivity = float((a % 97 + 1.0) ** -config.author_productivity_exponent)
        # A deterministic Zipf-like weight; the modulus decouples productivity
        # from subtopic id so every subtopic gets both heavy and light authors.
        for s in interests:
            subtopic_authors[s].append(aid)
            subtopic_author_weights[s].append(productivity)
    for s in range(n_subtopics):
        if not subtopic_authors[s]:
            # Guarantee every subtopic has at least one author.
            aid = author_nodes[int(rng.integers(len(author_nodes)))]
            subtopic_authors[s].append(aid)
            subtopic_author_weights[s].append(1.0)
    subtopic_author_ids = [np.asarray(ids, dtype=np.int64) for ids in subtopic_authors]
    subtopic_author_probs = [w / w.sum() for w in map(np.asarray, subtopic_author_weights)]

    # ----- papers --------------------------------------------------------- #
    paper_authors: dict[int, list[int]] = {}
    paper_venue: dict[int, int] = {}
    paper_terms: dict[int, list[int]] = {}
    paper_subtopic: dict[int, int] = {}
    papers = _IdPool()
    papers_by_subtopic = [_IdPool() for _ in range(n_subtopics)]
    papers_by_area = {area: _IdPool() for area in areas}

    subtopic_popularity = rng.dirichlet(np.full(n_subtopics, 3.0))
    rare_pools = [_IdPool() for _ in range(n_subtopics)]
    # Citation and rare-term draws weight a pool member by 1 + its use
    # count: citations received by a paper, papers using a rare term.  Each
    # paper adds one node and at most rare_terms_per_paper term nodes.
    uses = np.zeros(
        builder.n_nodes + config.n_papers * (1 + config.rare_terms_per_paper), dtype=np.int64
    )

    for i in range(config.n_papers):
        pid = builder.add_node(f"paper:p{i}", "paper")
        s = int(rng.choice(n_subtopics, p=subtopic_popularity))
        area = subtopic_area[s]
        paper_subtopic[pid] = s

        # Authors: weighted draw without replacement from the subtopic pool.
        pool = subtopic_author_ids[s]
        k_auth = int(rng.integers(config.authors_per_paper_min, config.authors_per_paper_max + 1))
        k_auth = min(k_auth, pool.size)
        chosen = rng.choice(pool.size, size=k_auth, replace=False, p=subtopic_author_probs[s])
        authors = pool[chosen].tolist()
        paper_authors[pid] = authors
        for aid in authors:
            builder.add_edge(pid, aid, directed=False)

        # Venue: broad (area-wide) with p_broad_venue, else the subtopic's
        # narrow venue.
        if rng.random() < config.p_broad_venue:
            venue = int(rng.choice(broad_venues[area], p=broad_prestige[area]))
        else:
            venue = narrow_venue[s]
        paper_venue[pid] = venue
        builder.add_edge(pid, venue, directed=False)

        # Terms from the subtopic distribution, without replacement.
        pool_terms, pool_probs = subtopic_term_pools[s]
        k_terms = int(rng.integers(config.terms_per_paper_min, config.terms_per_paper_max + 1))
        k_terms = min(k_terms, len(pool_terms))
        term_sel = rng.choice(len(pool_terms), size=k_terms, replace=False, p=pool_probs)
        terms = [pool_terms[j] for j in term_sel.tolist()]

        # Rare tail terms (Heaps' law): the vocabulary keeps growing with
        # the corpus, so hub-term degrees stay sub-linear in corpus size.
        rare_pool = rare_pools[s]
        for _ in range(config.rare_terms_per_paper):
            pool = rare_pool.ids
            if not pool.size or rng.random() < config.p_new_rare_term:
                term = builder.add_node(f"term:rare_{s}_{pool.size}", "term")
                rare_pool.append(term)
            else:
                w = 1.0 + uses[pool]
                term = int(pool[rng.choice(pool.size, p=w / w.sum())])
            if term not in terms:
                terms.append(term)
                uses[term] += 1

        paper_terms[pid] = terms
        for t in terms:
            builder.add_edge(pid, t, directed=False)

        # Citations to earlier papers: subtopic-local with preferential
        # attachment on current citation counts.
        n_cites = int(rng.integers(0, config.max_citations_per_paper + 1))
        cited: set[int] = set()
        for _ in range(n_cites):
            u = rng.random()
            if u < config.p_cite_same_subtopic:
                pool = papers_by_subtopic[s].ids
            elif u < config.p_cite_same_subtopic + config.p_cite_same_area:
                pool = papers_by_area[area].ids
            else:
                pool = papers.ids
            if not pool.size:
                continue
            w = 1.0 + uses[pool]
            target = int(pool[rng.choice(pool.size, p=w / w.sum())])
            if target not in cited:
                cited.add(target)
                builder.add_edge(pid, target, directed=True)
                uses[target] += 1

        papers.append(pid)
        papers_by_subtopic[s].append(pid)
        papers_by_area[area].append(pid)

    graph = builder.build()
    if config.use_type_weights:
        from repro.graph.hetero import DEFAULT_BIBNET_TYPE_WEIGHTS, apply_type_weights

        graph = apply_type_weights(graph, DEFAULT_BIBNET_TYPE_WEIGHTS)

    # ----- per-node timestamps (birth year) -------------------------------- #
    # A paper's year is its rank spread over n_years; every other node is
    # born with its first incident paper (nodes no paper touches, with the
    # last year).
    paper_nodes = papers.ids.copy()
    paper_year = np.arange(config.n_papers, dtype=np.int64) * config.n_years // config.n_papers
    incident = [
        paper_authors[pid] + paper_terms[pid] + [paper_venue[pid]] for pid in paper_nodes.tolist()
    ]
    timestamps = np.full(graph.n_nodes, config.n_years - 1, dtype=np.int64)
    np.minimum.at(
        timestamps,
        np.fromiter(chain.from_iterable(incident), dtype=np.int64),
        np.repeat(paper_year, [len(nodes) for nodes in incident]),
    )
    timestamps[paper_nodes] = paper_year

    return BibNet(
        graph=graph,
        config=config,
        paper_nodes=paper_nodes,
        author_nodes=np.asarray(author_nodes, dtype=np.int64),
        term_nodes=np.sort(
            np.concatenate(
                [np.fromiter(term_ids.values(), dtype=np.int64)]
                + [pool.ids for pool in rare_pools]
            )
        ),
        venue_nodes=np.asarray(sorted(venue_area), dtype=np.int64),
        paper_authors=paper_authors,
        paper_venue=paper_venue,
        paper_terms=paper_terms,
        paper_subtopic=paper_subtopic,
        venue_area=venue_area,
        venue_subtopic=venue_subtopic,
        subtopic_names=subtopic_names,
        node_timestamps=timestamps,
    )
