"""The experiment runner: evaluate measures on tasks, tune beta, compare.

Reproduces the paper's methodology end to end:

- rank, filter (query node out, target type only), score with NDCG@K;
- share one F-Rank/T-Rank computation per query node across every measure
  that is a function of ``(f, t)`` (all of Fig. 8–10 sweeps);
- tune each :class:`BetaTunable` measure's bias on *development* queries
  disjoint from the test queries, exactly as Sect. VI-A2 prescribes;
- compare two measures with the paper's two-tail paired t-test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.baselines.base import BetaTunable, ProximityMeasure
from repro.core.frank import DEFAULT_ALPHA
from repro.core.queries import normalize_query
from repro.eval.metrics import ndcg_at_k, ranking_from_scores
from repro.eval.significance import PairedTTestResult, paired_t_test
from repro.eval.tasks import QueryCase, RankingTask
from repro.serving.cache import DEFAULT_MAX_BYTES, ColumnCache

DEFAULT_K_VALUES = (5, 10, 20)


@dataclass
class MeasureTaskResult:
    """Per-task evaluation of one measure: per-query NDCG at each K."""

    measure_name: str
    task_name: str
    k_values: tuple[int, ...]
    #: shape (n_queries, len(k_values))
    ndcg: np.ndarray

    def mean_ndcg(self, k: int) -> float:
        """Mean NDCG@k over all queries."""
        return float(self.ndcg[:, self.k_values.index(k)].mean())

    def per_query(self, k: int) -> np.ndarray:
        """Per-query NDCG@k column (for paired significance tests)."""
        return self.ndcg[:, self.k_values.index(k)]


class FTCache:
    """Bounded cache of the per-node (F-Rank, T-Rank) columns shared across
    measures.

    Delegates storage to a :class:`repro.serving.ColumnCache`: what is
    memoized are *per-node* F/T solution columns under the cache's LRU /
    byte-budget eviction, so the cache no longer grows without bound across
    graphs (the paper's edge-removal tasks give every case its own graph,
    which used to pin every graph's vectors forever).  A multi-node case
    gets one column pair per query node, which
    :meth:`repro.baselines.base.FTMeasure.scores_from_ft` combines.

    :meth:`warm` still batches: the uncached query nodes of each graph are
    solved in one multi-column power iteration per direction, so cases that
    share a graph pay for the sparse operator once per sweep instead of once
    per query.  :meth:`cache_info` exposes hit/miss/eviction counters for
    the runner's logs.
    """

    def __init__(
        self,
        alpha: float = DEFAULT_ALPHA,
        max_bytes: "int | None" = None,
        cache: "ColumnCache | None" = None,
        workers: "int | None" = None,
    ) -> None:
        self.alpha = alpha
        if cache is None:
            cache = ColumnCache(
                max_bytes=max_bytes if max_bytes is not None else DEFAULT_MAX_BYTES,
                alpha=alpha,
                workers=workers,
            )
        elif workers is not None:
            # Solver settings live on the cache (the key-consistency
            # contract); silently ignoring the request would let a caller
            # believe the sweep was parallelized when nothing changed.
            raise ValueError(
                "pass workers on the ColumnCache itself when supplying an explicit cache"
            )
        self._columns = cache

    def _case_nodes(self, case: QueryCase) -> np.ndarray:
        nodes, _ = normalize_query(case.graph, case.query)
        return nodes

    def warm(self, cases: Sequence[QueryCase]) -> None:
        """Batch-compute the per-node columns of every uncached case."""
        groups: dict[int, list[QueryCase]] = {}
        for case in cases:
            groups.setdefault(id(case.graph), []).append(case)
        for members in groups.values():
            graph = members[0].graph
            nodes = sorted({int(v) for case in members for v in self._case_nodes(case)})
            self._columns.warm(graph, nodes, self.alpha)

    def get(self, case: QueryCase) -> "tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]":
        """``(weights, f_columns, t_columns)`` of a case, one column pair per
        query node, solving on first access.

        Every returned column is the cache's own read-only array, shared
        across hits — a caller mutating one would otherwise silently
        corrupt every future hit.  Copy before mutating.
        """
        nodes, weights = normalize_query(case.graph, case.query)
        node_list = nodes.tolist()
        return (
            weights,
            self._columns.get_many(case.graph, "f", node_list, self.alpha),
            self._columns.get_many(case.graph, "t", node_list, self.alpha),
        )

    def cache_info(self):
        """Hit/miss/eviction counters of the underlying column cache."""
        return self._columns.cache_info()

    def clear(self) -> None:
        """Drop all cached columns."""
        self._columns.clear()


def evaluate_measure(
    measure: ProximityMeasure,
    task: RankingTask,
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    ft_cache: "FTCache | None" = None,
) -> MeasureTaskResult:
    """Evaluate one measure over all cases of a task."""
    k_values = tuple(k_values)
    if not k_values or any(k <= 0 for k in k_values):
        raise ValueError(f"k_values must be positive, got {k_values}")
    max_k = max(k_values)
    rows = np.zeros((len(task.cases), len(k_values)))
    if ft_cache is not None and measure.uses_ft:
        ft_cache.warm(task.cases)
    for i, case in enumerate(task.cases):
        if measure.uses_ft and ft_cache is not None:
            scores = measure.scores_from_ft(*ft_cache.get(case))  # type: ignore[attr-defined]
        else:
            scores = measure.scores(case.graph, case.query)
        ranking = ranking_from_scores(
            scores,
            exclude=case.excluded,
            candidate_mask=case.candidate_mask,
            limit=max(max_k, len(case.ground_truth)) + len(case.ground_truth),
        )
        for j, k in enumerate(k_values):
            rows[i, j] = ndcg_at_k(ranking, case.ground_truth, k)
    return MeasureTaskResult(
        measure_name=measure.name,
        task_name=task.name,
        k_values=k_values,
        ndcg=rows,
    )


def evaluate_measures(
    measures: Iterable[ProximityMeasure],
    task: RankingTask,
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    alpha: float = DEFAULT_ALPHA,
    workers: "int | None" = None,
) -> dict[str, MeasureTaskResult]:
    """Evaluate several measures on one task with a shared (f, t) cache.

    ``workers`` shards the cache-warming column solves across
    :mod:`repro.parallel` threads — the sweep's dominant cost is the
    batched F/T solves during :meth:`FTCache.warm`, which parallelize
    per-column; scoring and NDCG stay on the calling thread.
    """
    cache = FTCache(alpha, workers=workers)
    results = {}
    for measure in measures:
        results[measure.name] = evaluate_measure(measure, task, k_values, ft_cache=cache)
    return results


def tune_beta(
    measure: BetaTunable,
    dev_task: RankingTask,
    betas: Sequence[float] = tuple(np.round(np.linspace(0.0, 1.0, 11), 2)),
    k: int = 5,
    alpha: float = DEFAULT_ALPHA,
    workers: "int | None" = None,
) -> tuple[float, dict[float, float]]:
    """Pick the beta maximizing mean NDCG@k on development queries.

    Returns ``(best_beta, {beta: mean_ndcg})``.  Ties prefer the beta
    closest to 0.5 (the paper's default), then the smaller beta, making the
    choice deterministic.  The (f, t) cache is shared across the whole
    sweep, so the solves happen once; ``workers`` shards them as in
    :func:`evaluate_measures`.
    """
    if not isinstance(measure, ProximityMeasure):
        raise TypeError("measure must be a ProximityMeasure with a tunable beta")
    cache = FTCache(alpha, workers=workers)
    curve: dict[float, float] = {}
    for beta in betas:
        candidate = measure.with_beta(float(beta))
        result = evaluate_measure(candidate, dev_task, (k,), ft_cache=cache)
        curve[float(beta)] = result.mean_ndcg(k)
    best = max(curve.items(), key=lambda kv: (kv[1], -abs(kv[0] - 0.5), -kv[0]))
    return best[0], curve


def compare_measures(
    result_a: MeasureTaskResult,
    result_b: MeasureTaskResult,
    k: int = 5,
) -> PairedTTestResult:
    """Two-tail paired t-test between two measures' per-query NDCG@k."""
    return paired_t_test(result_a.per_query(k), result_b.per_query(k))


@dataclass
class TaskSuiteResult:
    """Results of several measures across several tasks (a Fig. 5/9 table)."""

    k_values: tuple[int, ...]
    #: results[measure_name][task_name]
    results: dict[str, dict[str, MeasureTaskResult]] = field(default_factory=dict)

    def add(self, result: MeasureTaskResult) -> None:
        """Insert one measure-on-task result into the suite."""
        self.results.setdefault(result.measure_name, {})[result.task_name] = result

    @property
    def measure_names(self) -> list[str]:
        return list(self.results)

    @property
    def task_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for per_task in self.results.values():
            for name in per_task:
                seen.setdefault(name)
        return list(seen)

    def average_ndcg(self, measure_name: str, k: int) -> float:
        """Mean NDCG@k across tasks (the paper's "Average" column)."""
        per_task = self.results[measure_name]
        return float(np.mean([r.mean_ndcg(k) for r in per_task.values()]))

    def format_table(self, k_values: "Sequence[int] | None" = None) -> str:
        """Render the Fig. 5/9-style table: tasks x K columns, Average last."""
        k_values = tuple(k_values or self.k_values)
        tasks = self.task_names
        header_cols = [f"{t} @ {k}" for t in tasks for k in k_values]
        header_cols += [f"Avg @ {k}" for k in k_values]
        name_w = max(len(m) for m in self.measure_names) + 2
        lines = ["".ljust(name_w) + "  ".join(c.rjust(10) for c in header_cols)]
        for m in self.measure_names:
            cells = []
            for t in tasks:
                for k in k_values:
                    cells.append(f"{self.results[m][t].mean_ndcg(k):.4f}".rjust(10))
            for k in k_values:
                cells.append(f"{self.average_ndcg(m, k):.4f}".rjust(10))
            lines.append(m.ljust(name_w) + "  ".join(cells))
        return "\n".join(lines)


def run_task_suite(
    measures: Sequence[ProximityMeasure],
    tasks: Sequence[RankingTask],
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    alpha: float = DEFAULT_ALPHA,
    workers: "int | None" = None,
) -> TaskSuiteResult:
    """Evaluate every measure on every task (one shared FT cache per task).

    ``workers`` shards each task's cache-warming solves across threads
    (see :func:`evaluate_measures`).
    """
    suite = TaskSuiteResult(k_values=tuple(k_values))
    for task in tasks:
        per_task = evaluate_measures(measures, task, k_values, alpha, workers=workers)
        for result in per_task.values():
            suite.add(result)
    return suite
