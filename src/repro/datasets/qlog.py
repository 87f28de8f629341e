"""Synthetic query-log click graph (QLog substitute).

The paper's QLog is an MSN search-engine log turned into a bipartite graph:
search phrases and clicked URLs are nodes, an undirected edge connects a
phrase to a URL it has clicks on, and the click count is the edge weight.
The log is not redistributable, so this generator produces a
structure-preserving substitute (README.md, Datasets):

- latent *concepts* each emit several equivalent phrasings: identical
  non-stop-word sets, shuffled word order, optional stop words — exactly the
  equivalence the paper's Task 4 detects ("the apple ipod" vs "ipod of
  apple");
- each concept has its own relevant URLs with power-law within-concept
  relevance, plus occasional clicks on global *portal* URLs shared across
  concepts — portals supply the importance/specificity contrast (they are
  reachable from everywhere, like the broad venues of BibNet);
- concepts are grouped into *domains* of related concepts whose phrases
  occasionally click each other's URLs (a hotel-booking query clicking a
  flights page).  Cross-concept clicks make Task 4 non-trivial: sibling
  concepts become two-hop neighbors and a measure must separate genuinely
  equivalent phrasings from merely related ones;
- click counts (edge weights) multiply phrase frequency, URL relevance and
  noise;
- every node has a day timestamp for cumulative snapshots (Fig. 12–13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DiGraph
from repro.utils.rng import ensure_rng

QLOG_TYPE_NAMES = ["phrase", "url"]

STOP_WORDS = frozenset({"the", "of", "for", "a", "an", "in", "on", "to", "and"})

#: Content words used to assemble concepts.  Concepts draw 2–4 words, so
#: with ~160 words distinct concepts routinely share a word — queries like
#: "apple ipod" and "apple store" overlap without being equivalent.
_CONTENT_WORDS = [
    "apple", "ipod", "google", "mail", "weather", "forecast", "hotel", "booking",
    "cheap", "flights", "pizza", "delivery", "movie", "times", "bank", "online",
    "news", "sports", "scores", "music", "download", "video", "games", "free",
    "recipes", "chicken", "cars", "used", "jobs", "search", "maps", "driving",
    "directions", "phone", "numbers", "white", "pages", "yellow", "insurance",
    "quotes", "credit", "cards", "mortgage", "rates", "stock", "market", "taxes",
    "filing", "university", "courses", "degree", "schools", "rankings", "books",
    "store", "shoes", "running", "laptop", "reviews", "camera", "digital",
    "printer", "drivers", "software", "windows", "update", "virus", "removal",
    "lyrics", "songs", "guitar", "chords", "piano", "lessons", "yoga", "poses",
    "diet", "plans", "weight", "loss", "exercise", "fitness", "doctor", "symptoms",
    "medicine", "dosage", "pharmacy", "hours", "airport", "parking", "train",
    "schedule", "bus", "routes", "ferry", "tickets", "concert", "events",
    "calendar", "holiday", "packages", "beach", "resorts", "mountain", "hiking",
    "trails", "camping", "gear", "fishing", "license", "hunting", "season",
    "garden", "plants", "flowers", "seeds", "vegetables", "growing", "kitchen",
    "cabinets", "paint", "colors", "furniture", "outlet", "dogs", "breeds",
    "puppies", "adoption", "cats", "food", "aquarium", "fish", "tanks",
    "wedding", "dresses", "invitations", "baby", "names", "toys", "education",
    "science", "museum", "exhibits", "history", "timeline", "language",
    "translation", "dictionary", "spanish", "french", "learning",
]


@dataclass(frozen=True)
class QLogConfig:
    """Knobs of the synthetic query-log graph."""

    n_concepts: int = 500
    phrases_per_concept_min: int = 2
    phrases_per_concept_max: int = 5
    words_per_concept_min: int = 2
    words_per_concept_max: int = 4
    urls_per_concept_min: int = 2
    urls_per_concept_max: int = 7
    #: global high-traffic URLs occasionally clicked from any concept.
    n_portal_urls: int = 15
    #: probability that a phrase also clicks one portal URL.
    p_portal_click: float = 0.25
    #: concepts per domain (related concepts share occasional clicks).
    concepts_per_domain: int = 5
    #: probability that a phrase also clicks one sibling-concept URL.
    p_sibling_click: float = 0.45
    #: power-law exponent of within-concept URL relevance.
    url_relevance_exponent: float = 1.3
    max_click_count: int = 40
    n_days: int = 30
    seed: int = 11

    def __post_init__(self) -> None:
        if self.n_concepts < 2:
            raise ValueError("n_concepts must be >= 2")
        if self.phrases_per_concept_min < 1 or (
            self.phrases_per_concept_max < self.phrases_per_concept_min
        ):
            raise ValueError("invalid phrases_per_concept range")
        if self.words_per_concept_min < 1 or (
            self.words_per_concept_max < self.words_per_concept_min
        ):
            raise ValueError("invalid words_per_concept range")
        if self.urls_per_concept_min < 1 or (
            self.urls_per_concept_max < self.urls_per_concept_min
        ):
            raise ValueError("invalid urls_per_concept range")
        if not 0 <= self.p_portal_click <= 1:
            raise ValueError("p_portal_click must be in [0, 1]")
        if not 0 <= self.p_sibling_click <= 1:
            raise ValueError("p_sibling_click must be in [0, 1]")
        if self.concepts_per_domain < 1:
            raise ValueError("concepts_per_domain must be >= 1")
        if self.n_days < 1:
            raise ValueError("n_days must be >= 1")


@dataclass
class QLog:
    """A generated query-log graph with concept provenance."""

    graph: DiGraph
    config: QLogConfig
    phrase_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    url_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    portal_urls: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    #: concept id of each phrase node
    phrase_concept: dict[int, int] = field(default_factory=dict)
    #: phrase nodes of each concept
    concept_phrases: dict[int, list[int]] = field(default_factory=dict)
    #: concept-relevant URLs each phrase actually clicked
    phrase_clicked_urls: dict[int, list[int]] = field(default_factory=dict)
    #: phrase text by node id (same as graph labels, without the prefix)
    phrase_text: dict[int, str] = field(default_factory=dict)
    #: domain id of each concept (concepts in a domain share stray clicks)
    concept_domain: dict[int, int] = field(default_factory=dict)
    node_timestamps: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    def non_stop_words(self, phrase_node: int) -> frozenset[str]:
        """The non-stop-word set of a phrase node (the Task 4 equivalence key)."""
        words = self.phrase_text[phrase_node].split()
        return frozenset(w for w in words if w not in STOP_WORDS)

    def equivalent_phrases(self, phrase_node: int) -> list[int]:
        """All *other* phrase nodes with the same non-stop-word set.

        Implements the paper's rule directly on text ("we deem two phrases
        equivalent if they contain the exact same non-stop words") rather
        than trusting generator provenance, so the returned ground truth is
        exactly what the paper's procedure would produce.
        """
        key = self.non_stop_words(phrase_node)
        return [
            p
            for p in self.phrase_nodes.tolist()
            if p != phrase_node and self.non_stop_words(p) == key
        ]


def sample_zipf_queries(
    population: "np.ndarray | list[int] | int",
    n_queries: int,
    s: float = 1.1,
    seed: "int | np.random.Generator" = 0,
) -> np.ndarray:
    """A Zipf-distributed query stream over a node population.

    Real query logs are heavily skewed: the ``r``-th most popular query
    accounts for mass proportional to ``r^-s`` (Zipf's law, ``s`` near 1 for
    web search).  This sampler drives the serving benchmarks: popularity
    ranks are assigned by a seeded shuffle of ``population`` (an array of
    node ids, or an int ``n`` meaning ``0..n-1``), then ``n_queries`` draws
    are taken i.i.d. from the rank-``-s`` power law.  The repetition this
    induces is exactly what a serving-side column cache exploits.

    Returns an ``int64`` array of node ids of length ``n_queries``.
    """
    if isinstance(population, (int, np.integer)):
        population = np.arange(int(population), dtype=np.int64)
    else:
        population = np.asarray(population, dtype=np.int64)
    if population.size == 0:
        raise ValueError("population must not be empty")
    if n_queries < 1:
        raise ValueError(f"n_queries must be >= 1, got {n_queries}")
    if s <= 0:
        raise ValueError(f"s must be > 0, got {s}")
    rng = ensure_rng(seed)
    ranked = rng.permutation(population)
    probs = np.arange(1, ranked.size + 1, dtype=np.float64) ** -float(s)
    probs /= probs.sum()
    return ranked[rng.choice(ranked.size, size=int(n_queries), p=probs)]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a multi-tenant query mixture.

    Parameters
    ----------
    name:
        Tenant identifier carried on every query of the stream.
    weight:
        Relative arrival share in non-burst phases (need not be normalized).
    s:
        The tenant's own Zipf skew; tenants get *independent* popularity
        permutations, so their hot heads are disjoint with high probability —
        the property that makes shared-cache contention non-trivial.
    burst_phases:
        Phase indices (see ``n_phases`` of :func:`sample_multitenant_queries`)
        during which this tenant's arrival weight is multiplied by
        ``burst_multiplier`` — modelling the bursty tenant that goes from
        trickle to flood.
    burst_multiplier:
        The weight multiplier applied in burst phases.
    """

    name: str
    weight: float = 1.0
    s: float = 1.1
    burst_phases: "tuple[int, ...]" = ()
    burst_multiplier: float = 8.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"tenant weight must be > 0, got {self.weight}")
        if self.s <= 0:
            raise ValueError(f"tenant s must be > 0, got {self.s}")
        if self.burst_multiplier <= 0:
            raise ValueError(
                f"burst_multiplier must be > 0, got {self.burst_multiplier}"
            )


@dataclass(frozen=True)
class MultiTenantLog:
    """A mixed multi-tenant query stream in arrival order.

    ``nodes[i]`` is the queried node of the ``i``-th arrival, issued by
    tenant ``tenants[tenant_ids[i]]`` during phase ``phases[i]``.
    """

    tenants: "tuple[str, ...]"
    tenant_ids: np.ndarray  # int64, index into ``tenants``
    nodes: np.ndarray  # int64 node ids
    phases: np.ndarray  # int64 phase index per arrival
    n_phases: int

    def __len__(self) -> int:
        return int(self.nodes.size)

    def for_tenant(self, name: str) -> np.ndarray:
        """This tenant's queried nodes, in arrival order."""
        try:
            tid = self.tenants.index(name)
        except ValueError:
            raise KeyError(f"unknown tenant {name!r}; have {self.tenants}") from None
        return self.nodes[self.tenant_ids == tid]

    def phase_slice(self, phase: int) -> "tuple[np.ndarray, np.ndarray]":
        """``(tenant_ids, nodes)`` of one phase, in arrival order."""
        mask = self.phases == phase
        return self.tenant_ids[mask], self.nodes[mask]


def sample_multitenant_queries(
    population: "np.ndarray | list[int] | int",
    n_queries: int,
    tenants: "Sequence[TenantSpec]",
    n_phases: int = 4,
    seed: "int | np.random.Generator" = 0,
) -> MultiTenantLog:
    """A seeded multi-tenant query mixture: per-tenant Zipf skew + bursts.

    The single-tenant :func:`sample_zipf_queries` models one repeated-query
    stream; a serving *gateway* faces a mixture — several tenants with their
    own hot sets and skews, arrival shares that shift when a tenant bursts,
    and phases during which a previously-quiet tenant floods in (a cold
    tenant's burst).  This sampler makes
    that workload reproducible:

    - each tenant draws from its own seeded popularity permutation of
      ``population`` with its own Zipf exponent ``s`` (independent hot heads);
    - the stream is split into ``n_phases`` equal contiguous phases; within
      phase ``p`` each arrival picks its tenant from the categorical
      distribution of tenant weights, with ``burst_multiplier`` applied to
      tenants whose ``burst_phases`` contain ``p``;
    - everything derives from one :class:`numpy.random.SeedSequence`-spawned
      stream per tenant plus one for arrival mixing, so the log is
      deterministic per ``(population, n_queries, tenants, n_phases, seed)``.

    Returns a :class:`MultiTenantLog` (arrival-ordered tenant ids, node ids
    and phase indices).
    """
    if isinstance(population, (int, np.integer)):
        population = np.arange(int(population), dtype=np.int64)
    else:
        population = np.asarray(population, dtype=np.int64)
    if population.size == 0:
        raise ValueError("population must not be empty")
    if n_queries < 1:
        raise ValueError(f"n_queries must be >= 1, got {n_queries}")
    if n_phases < 1:
        raise ValueError(f"n_phases must be >= 1, got {n_phases}")
    specs = list(tenants)
    if not specs:
        raise ValueError("tenants must not be empty")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"tenant names must be unique, got {names}")
    for spec in specs:
        for p in spec.burst_phases:
            if not 0 <= p < n_phases:
                raise ValueError(
                    f"tenant {spec.name!r} bursts in phase {p}, "
                    f"but only {n_phases} phases exist"
                )

    base = ensure_rng(seed)
    # One independent child stream per tenant plus one for arrival mixing,
    # derived from the caller's seed so the whole log replays exactly.
    children = np.random.SeedSequence(
        base.integers(np.iinfo(np.int64).max)
    ).spawn(len(specs) + 1)
    mix_rng = np.random.default_rng(children[-1])

    # Per-tenant Zipf machinery: own permutation (hot head), own exponent.
    ranked: "list[np.ndarray]" = []
    probs: "list[np.ndarray]" = []
    for spec, child in zip(specs, children):
        rng = np.random.default_rng(child)
        ranked.append(rng.permutation(population))
        weights = np.arange(1, population.size + 1, dtype=np.float64) ** -float(spec.s)
        probs.append(weights / weights.sum())

    # Arrival mixing: phase-dependent categorical over tenants.
    tenant_ids = np.empty(n_queries, dtype=np.int64)
    phases = np.empty(n_queries, dtype=np.int64)
    bounds = np.linspace(0, n_queries, n_phases + 1).astype(np.int64)
    for p in range(n_phases):
        lo, hi = int(bounds[p]), int(bounds[p + 1])
        if hi <= lo:
            continue
        share = np.array(
            [
                spec.weight * (spec.burst_multiplier if p in spec.burst_phases else 1.0)
                for spec in specs
            ]
        )
        share /= share.sum()
        tenant_ids[lo:hi] = mix_rng.choice(len(specs), size=hi - lo, p=share)
        phases[lo:hi] = p

    # Per-tenant node draws from that tenant's own Zipf stream.
    nodes = np.empty(n_queries, dtype=np.int64)
    for tid, spec in enumerate(specs):
        mask = tenant_ids == tid
        count = int(mask.sum())
        if count:
            rng = np.random.default_rng(children[tid].spawn(1)[0])
            nodes[mask] = ranked[tid][rng.choice(population.size, size=count, p=probs[tid])]

    return MultiTenantLog(
        tenants=tuple(names),
        tenant_ids=tenant_ids,
        nodes=nodes,
        phases=phases,
        n_phases=int(n_phases),
    )


def generate_qlog(config: "QLogConfig | None" = None) -> QLog:
    """Generate a synthetic query-log click graph from ``config``."""
    config = config or QLogConfig()
    rng = ensure_rng(config.seed)
    stop_words = sorted(STOP_WORDS)

    # ----- concepts: distinct non-stop word sets --------------------------- #
    concept_words: list[tuple[str, ...]] = []
    used_keys: set[frozenset[str]] = set()
    attempts = 0
    while len(concept_words) < config.n_concepts:
        attempts += 1
        if attempts > config.n_concepts * 200:
            raise RuntimeError(
                "could not generate enough distinct concepts; "
                "reduce n_concepts or enlarge the vocabulary"
            )
        k = int(rng.integers(config.words_per_concept_min, config.words_per_concept_max + 1))
        words = tuple(
            sorted(rng.choice(len(_CONTENT_WORDS), size=k, replace=False).tolist())
        )
        key = frozenset(_CONTENT_WORDS[i] for i in words)
        if key in used_keys:
            continue
        used_keys.add(key)
        concept_words.append(tuple(_CONTENT_WORDS[i] for i in words))

    builder = GraphBuilder(type_names=QLOG_TYPE_NAMES)

    # ----- URLs ------------------------------------------------------------ #
    portal_urls = [
        builder.add_node(f"url:portal{i}.example.com", "url")
        for i in range(config.n_portal_urls)
    ]
    portal_pop = np.array([2.0 ** (-i * 0.4) for i in range(config.n_portal_urls)])
    portal_pop /= portal_pop.sum() if config.n_portal_urls else 1.0

    concept_urls: list[list[int]] = []
    concept_url_relevance: list[np.ndarray] = []
    for c in range(config.n_concepts):
        k = int(rng.integers(config.urls_per_concept_min, config.urls_per_concept_max + 1))
        urls = [
            builder.add_node(f"url:c{c}-{j}.example.com/page", "url") for j in range(k)
        ]
        relevance = np.arange(1, k + 1, dtype=np.float64) ** -config.url_relevance_exponent
        concept_urls.append(urls)
        concept_url_relevance.append(relevance / relevance.sum())

    # ----- phrases and clicks ---------------------------------------------- #
    phrase_nodes: list[int] = []
    phrase_concept: dict[int, int] = {}
    concept_phrases: dict[int, list[int]] = {}
    phrase_clicked_urls: dict[int, list[int]] = {}
    phrase_text: dict[int, str] = {}
    phrase_day: dict[int, int] = {}
    url_first_day: dict[int, int] = {}

    for c, words in enumerate(concept_words):
        n_phrases = int(
            rng.integers(config.phrases_per_concept_min, config.phrases_per_concept_max + 1)
        )
        concept_phrases[c] = []
        texts_used: set[str] = set()
        for j in range(n_phrases):
            # Shuffle word order; sometimes inject stop words.
            order = rng.permutation(len(words))
            tokens = [words[i] for i in order]
            if j > 0 and rng.random() < 0.6:
                n_stop = int(rng.integers(1, 3))
                for _ in range(n_stop):
                    pos = int(rng.integers(0, len(tokens) + 1))
                    tokens.insert(pos, stop_words[int(rng.integers(len(stop_words)))])
            text = " ".join(tokens)
            if text in texts_used:
                text = " ".join([stop_words[j % len(stop_words)]] + tokens)
            if text in texts_used:
                continue
            texts_used.add(text)
            pid = builder.add_node(f"phrase:{text}", "phrase")
            phrase_nodes.append(pid)
            phrase_concept[pid] = c
            concept_phrases[c].append(pid)
            phrase_text[pid] = text
            day = int(rng.integers(config.n_days))
            phrase_day[pid] = day

            # Frequent phrasing (the first) gets the most clicks.
            phrase_freq = 1.0 if j == 0 else float(rng.uniform(0.2, 0.7))
            urls = concept_urls[c]
            relevance = concept_url_relevance[c]
            n_clicked = int(rng.integers(1, len(urls) + 1))
            clicked_idx = rng.choice(len(urls), size=n_clicked, replace=False, p=relevance)
            clicked = [urls[i] for i in clicked_idx.tolist()]
            phrase_clicked_urls[pid] = clicked
            for u, rel in zip(clicked, relevance[clicked_idx].tolist()):
                count = max(1, int(round(config.max_click_count * phrase_freq * rel)))
                builder.add_edge(pid, u, weight=float(count), directed=False)
                url_first_day[u] = min(url_first_day.get(u, config.n_days - 1), day)
            if config.n_portal_urls and rng.random() < config.p_portal_click:
                portal = int(np.asarray(portal_urls)[rng.choice(len(portal_urls), p=portal_pop)])
                count = max(1, int(round(config.max_click_count * phrase_freq * 0.3)))
                builder.add_edge(pid, portal, weight=float(count), directed=False)
                url_first_day[portal] = min(
                    url_first_day.get(portal, config.n_days - 1), day
                )
            # Related-concept click: a phrase sometimes lands on a sibling
            # concept's top URL (same domain), blurring concept boundaries.
            domain_start = (c // config.concepts_per_domain) * config.concepts_per_domain
            siblings = [
                s
                for s in range(
                    domain_start,
                    min(domain_start + config.concepts_per_domain, config.n_concepts),
                )
                if s != c
            ]
            if siblings and rng.random() < config.p_sibling_click:
                sib = siblings[int(rng.integers(len(siblings)))]
                sib_url = concept_urls[sib][0]  # their most relevant URL
                count = max(1, int(round(config.max_click_count * phrase_freq * 0.25)))
                builder.add_edge(pid, sib_url, weight=float(count), directed=False)
                url_first_day[sib_url] = min(
                    url_first_day.get(sib_url, config.n_days - 1), day
                )

    graph = builder.build()

    timestamps = np.zeros(graph.n_nodes, dtype=np.int64)
    for pid, day in phrase_day.items():
        timestamps[pid] = day
    for uid in range(graph.n_nodes):
        if uid in url_first_day:
            timestamps[uid] = url_first_day[uid]
    # URLs never clicked keep timestamp 0; they are isolated, which mirrors
    # a URL appearing in the log only via its concept going live later.

    all_urls = np.asarray(
        [v for v in range(graph.n_nodes) if graph.node_types[v] == graph.type_code("url")],
        dtype=np.int64,
    )
    return QLog(
        graph=graph,
        config=config,
        phrase_nodes=np.asarray(phrase_nodes, dtype=np.int64),
        url_nodes=all_urls,
        portal_urls=np.asarray(portal_urls, dtype=np.int64),
        phrase_concept=phrase_concept,
        concept_phrases=concept_phrases,
        phrase_clicked_urls=phrase_clicked_urls,
        phrase_text=phrase_text,
        concept_domain={
            c: c // config.concepts_per_domain for c in range(config.n_concepts)
        },
        node_timestamps=timestamps,
    )
