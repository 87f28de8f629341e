"""Certified local top-k: early-stopped sweeps with an exactness contract.

A full solve runs every F/T column to its 1e-12 fixed point even when the
caller wants k=10.  This module runs the same iteration only as far as the
top-k needs: each column is a resumable sweep state whose residual turns
into per-node lower and upper bounds on the exact column (Wang-style error
bounds), and the driver stops as soon as those bounds *certify* the
returned top-k set and ranking against the true fixed point
(Fujiwara-style exact top-k pruning) — or escalates to the exact solver
when they cannot.

Sweep recurrence (one routine for both sides; the operator and the weights
differ):

- **F-Rank** (PPR *from* the query): ``f = alpha * e_q + (1-alpha) * P^T f``.
- **T-Rank** (PPR *to* the query): ``t = alpha * e_q + (1-alpha) * P t``.

With ``O`` the side's solve operator (``P^T`` or ``P``: the cached CSR that
:func:`repro.engine.batch.frank_batch` / ``trank_batch`` sweep), a state
iterates ``x <- omega (alpha e_q + (1-alpha) O x) + (1 - omega) x_prev``
from ``x = 0``.  The f-side takes ``omega`` from the engine's Chebyshev
schedule (:func:`repro.engine.batch.chebyshev_weights`, here in float64 on
one column); the t-side sweeps plainly (``omega = 1``, the power series),
where Chebyshev measured no gain.  A sweep's one sparse matvec forms the
new iterate's product, which also gives its signed residual
``r' = alpha e_q + (1-alpha) O x - x``.  Work is counted in sweeps, and a
query's states share ``MAX_SWEEPS`` of them.

Error bounds.  ``x* - x = (I - (1-alpha) O)^{-1} r' = sum_u r'(u) / alpha *
x_u``, where ``x_u = alpha (I - (1-alpha) O)^{-1} e_u`` is the side's
(non-negative) column of node ``u``.  So with ``r'_+`` and ``r'_-`` the
largest positive and negative residual entries and
``s(v) = sum_u x_u(v)``::

    x(v) - r'_- / alpha * s(v)  <=  x*(v)  <=  x(v) + r'_+ / alpha * s(v)

- t-side: rows of ``P`` sum to one, so ``s(v) = sum_u t_u(v) = 1``.
- f-side: ``s(v) = c(v) = sum_u f_u(v) = n * PPR_uniform(v)``, the node's
  *in-mass*: one cached full solve per ``(graph, alpha)`` buys a per-node
  bound.

The bounds hold for any iterate, so the acceleration never touches
soundness; lower bounds are clamped at zero.  Plain sweeps from zero leave
no negative residual, so there the iterate is itself the lower bound.
Chebyshev's weights assume a real spectrum in ``[-(1-alpha), 1-alpha]``; a
directed graph's can be complex, and the iteration then diverges.  An
f-state whose drive sets no new low for ``_STALL_SWEEPS`` sweeps in a row
drops to plain sweeps from its current iterate for good, so such a graph
costs extra sweeps, never a wrong answer.

Certification contract (the part that keeps the project's exactness
promise): the clamped iterates pick the claimed top-k and the gap signal
that aims the next round; a result is returned *certified* only when the
per-node lower and upper score bounds prove, with margin ``CERT_MARGIN``,
that the claimed k nodes beat every other node (set) and that each
consecutive claimed pair is strictly ordered (ranking).  Strict separation
of the *true* scores makes tie-breaking irrelevant, so a certified ranking
equals the full-solve oracle's ranking.  Certified scores are the
unnormalized lower bounds, and the exact scores sit in
``[scores, scores + bound]`` — ``normalize`` is deliberately ignored for
them (ranking is invariant under the positive per-query rescaling; callers
needing calibrated values should escalate or solve fully).  Whenever
certification fails — exact ties, tiny gaps, exhausted sweep budget — the
query escalates: it solves the full F/T columns (``solve_columns``),
combines them with :func:`repro.engine.batch.combine_columns` and ranks the
result exactly, so an escalated answer is *bit-identical* to the
full-solve path.

The solver is wired into the serving entry points as ``method="local"``
(see :mod:`repro.serving.topk`) and into the gateway as the cache-miss fast
path (see :class:`repro.gateway.RankGateway`).
"""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.core.frank import DEFAULT_ALPHA, power_iteration
from repro.core.queries import Query, normalize_query
from repro.core.roundtrip_plus import DEFAULT_BETA, combine_beta
from repro.engine.batch import (
    chebyshev_weights,
    combine_columns,
    frank_batch,
    normalize_columns,
    trank_batch,
)
from repro.graph.digraph import DiGraph
from repro.ops import get_operator
from repro.ops.kernels import matvec_accumulate
from repro.utils.validation import check_in_range, check_positive, check_positive_int

#: Drives below this are numerical noise; a sweep state whose drive sits
#: under the floor is drained (its bounds will not improve).
MIN_RESIDUAL = 1e-14

#: Floor for the per-side residual drive target.  Below this the sweep
#: bounds compete with the exact solvers' own 1e-12-scale error, so
#: tightening further cannot make certification more trustworthy.
MIN_TARGET = 1e-11

#: Strict-separation margin required by every certification inequality.
#: Keeping it an order of magnitude above the exact solvers' verified
#: residual scale guarantees a certified ordering is also the ordering any
#: full solve at default tolerance computes.
CERT_MARGIN = 1e-10

#: First-round residual drive target (see :meth:`ColumnPush.drive`);
#: shrunk adaptively toward the observed k-th/(k+1)-th score gap.
DEFAULT_TARGET = 1e-2

#: Fallback shrink factor per round when the score gaps give no signal.
TARGET_SHRINK = 16.0

#: Sweep rounds before a query stops trying to certify and escalates.
MAX_ROUNDS = 12

#: Safety inflation added to the cached in-mass vector, dominating the
#: 1e-12-tolerance solve error it carries (at most n * 3 * tol, under the
#: slack below ~33k nodes) so the f-side bound stays sound.
_INMASS_SLACK = 1e-7

#: Consecutive sweeps without a new lowest drive after which an F-Rank
#: state stops extrapolating and sweeps plainly.  On a real spectrum the
#: drive (a max-norm) can rise for one sweep; on BibNet-2200 and the
#: 29.8k-node BibNet it always set a new low on the next.
_STALL_SWEEPS = 2

#: Measures the local solver certifies.  ``roundtriprank_plus`` rides on the
#: monotonicity of ``combine_beta`` in both arguments.
LOCAL_MEASURES = ("roundtriprank", "roundtriprank_plus", "frank", "trank")

#: Point gaps at or below this are margin-limited: certification could
#: never separate them with ``CERT_MARGIN`` to spare, so the driver stops
#: sweeping and escalates once the bounds resolve a gap this small.
ESCALATE_GAP = 4.0 * CERT_MARGIN

#: Sweeps a query may spend, summed over its F and T states, before it
#: escalates.  At alpha = 0.25 a side's residual drops below 1e-12 in about
#: 96 sweeps (0.75**96 ~ 1e-12), so a query that fails to certify costs
#: about one extra full solve.  Read at call time.
MAX_SWEEPS = 96


# --------------------------------------------------------------------------- #
# In-mass cache: c(v) = n * PPR_uniform(v), one solve per (graph, alpha)
# --------------------------------------------------------------------------- #

_INMASS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_inmass_lock = threading.Lock()


def inmass_vector(graph: DiGraph, alpha: float) -> np.ndarray:
    """The cached in-mass bound vector ``c + slack`` for ``graph`` at ``alpha``.

    ``c(v) = sum_u f_u(v)`` (row sums of the F-Rank resolvent) equals ``n``
    times the uniform-teleport PPR, so one full solve — amortized across
    every local query on the graph — yields the per-node f-side error
    coefficient.  The returned array is shared and read-only.
    """
    key = float(alpha)
    with _inmass_lock:
        per_graph = _INMASS.get(graph)
        if per_graph is None:
            per_graph = {}
            _INMASS[graph] = per_graph
        found = per_graph.get(key)
    if found is not None:
        return found
    # Solve outside the lock: unrelated graphs must not serialize, and a
    # racing duplicate solve is wasted work, not a bug.
    n = graph.n_nodes
    op = get_operator(graph, transpose=True)
    c = n * power_iteration(
        op, np.full(n, 1.0 / n), alpha, tol=1e-12, warn_on_nonconvergence=False
    )
    c += _INMASS_SLACK
    c.setflags(write=False)
    with _inmass_lock:
        existing = per_graph.get(key)
        if existing is None:
            per_graph[key] = c
            existing = c
    return existing


class ColumnPush:
    """Resumable certified-sweep state for one (side, seed-node) column.

    ``kind`` selects the side: ``"f"`` solves the F-Rank column of ``node``
    on ``P^T``, ``"t"`` the T-Rank column on ``P`` (the same cached CSR the
    batch solvers sweep); for ``"f"`` it also takes the in-mass vector.
    The state keeps an iterate ``x`` of ``x = alpha e_q + (1-alpha) O x``,
    starting from zero, and the product of its latest sweep, so the signed
    residual ``r' = alpha e_q + (1-alpha) O x - x`` of every iterate comes
    with no extra product.  The f-side extrapolates with the engine's
    Chebyshev weights (:func:`repro.engine.batch.chebyshev_weights`) and
    drops to plain sweeps for good once its drive sets no new low for
    ``_STALL_SWEEPS`` sweeps in a row; the t-side sweeps plainly
    throughout.  :meth:`bounds` turns the residual into per-node lower and
    upper bounds on the exact column, :meth:`drive` is the scalar residual
    signal :meth:`advance` sweeps down.
    """

    __slots__ = (
        "kind",
        "node",
        "alpha",
        "work",
        "drained",
        "inmass",
        "_indptr",
        "_indices",
        "_data",
        "_x",
        "_x_prev",
        "_y",
        "_scratch",
        "_weights",
        "_pos",
        "_neg",
        "_best",
        "_stalls",
        "_bounds",
    )

    def __init__(self, graph: DiGraph, node: int, alpha: float, kind: str) -> None:
        if kind not in ("f", "t"):
            raise ValueError(f"kind must be 'f' or 't', got {kind!r}")
        operator = get_operator(graph, transpose=kind == "f")
        self.kind = kind
        self.node = int(node)
        self.alpha = float(alpha)
        self.inmass = inmass_vector(graph, alpha) if kind == "f" else None
        self._indptr, self._indices, self._data = operator.csr_parts(np.float64)
        n = operator.n_nodes
        self._x = np.zeros(n)
        self._x_prev = np.zeros(n)
        # The first sweep's product: alpha e_q + (1-alpha) O 0.
        self._y = np.zeros(n)
        self._y[self.node] = self.alpha
        self._scratch = np.empty(n)
        # One plain sweep from zero reaches the engine's starting iterate
        # ``alpha e_q``; the engine's schedule runs from there.
        self._weights = (
            itertools.chain((1.0,), chebyshev_weights(1.0 - self.alpha))
            if kind == "f"
            else itertools.repeat(1.0)
        )
        self.work = 0
        self.drained = False
        # Largest positive and negative residual entries over alpha: x = 0
        # leaves ``alpha e_q``.
        self._pos, self._neg = 1.0, 0.0
        self._best = 1.0
        self._stalls = 0
        self._bounds = None

    def drive(self) -> float:
        """Scalar residual signal ``max|r'| / alpha``: the bounds scale with it."""
        return max(self._pos, self._neg)

    def bounds(self) -> "tuple[np.ndarray, np.ndarray]":
        """Per-node ``(lower, upper)`` bounds on the exact column.

        ``x* - x = sum_u r'(u) / alpha * x_u``, and the columns ``x_u`` are
        non-negative, so the positive residual entries bound the error from
        above and the negative ones from below, each by its largest entry
        times ``sum_u x_u(v)``: the in-mass ``c(v)`` on the f-side, exactly
        one on the t-side (rows of ``P`` sum to one).  The lower bound is
        clamped at zero and the upper at the lower; plain sweeps from zero
        leave no negative residual, so there ``x`` itself is the lower bound.
        """
        if self._bounds is None:
            coef = self.inmass if self.inmass is not None else 1.0
            lower = self._x - self._neg * coef
            np.maximum(lower, 0.0, out=lower)
            upper = self._x + self._pos * coef
            np.maximum(upper, lower, out=upper)
            self._bounds = (lower, upper)
        return self._bounds

    @property
    def estimate(self) -> np.ndarray:
        """The lower bound on the exact column."""
        return self.bounds()[0]

    def error(self) -> np.ndarray:
        """Per-node width of the bounds: ``estimate + error()`` is the upper bound."""
        lower, upper = self.bounds()
        return upper - lower

    def point(self) -> np.ndarray:
        """The iterate clamped at zero: the state's best guess at the column."""
        return np.maximum(self._x, 0.0)

    def advance(self, target: float, work_limit: int) -> None:
        """Sweep until ``drive() <= target``, the sweep limit, or drain-out.

        ``work_limit`` is an absolute cap on :attr:`work`, the number of
        sweeps this state has run (the driver hands each state its share of
        the query's remaining budget).  A state whose drive is at most
        ``MIN_RESIDUAL`` is drained: another sweep would not tighten its
        bounds.
        """
        while self.drive() > target and self.work < work_limit:
            if self.drive() <= MIN_RESIDUAL:
                self.drained = True
                return
            self._sweep()

    def _sweep(self) -> None:
        """One sweep: ``x <- omega y + (1 - omega) x_prev``, then the product.

        ``y = alpha e_q + (1-alpha) O x`` of the current iterate is already
        known, so the step itself costs no product; the one sparse matvec
        forms the new iterate's ``y``, and ``y - x`` is its residual.  At
        ``omega = 1`` the step is plain (``x <- y``).
        """
        omega = next(self._weights)
        x, y, spare = self._x, self._y, self._x_prev
        if omega == 1.0:
            new, y = y, spare
        else:
            y *= omega
            spare *= 1.0 - omega
            spare += y
            new = spare
        self._x_prev, self._x = x, new
        y.fill(0.0)
        matvec_accumulate(self._indptr, self._indices, self._data, new, y)
        y *= 1.0 - self.alpha
        y[self.node] += self.alpha
        self._y = y
        self.work += 1
        self._bounds = None
        residual = np.subtract(y, new, out=self._scratch)
        self._pos = max(float(residual.max()), 0.0) / self.alpha
        self._neg = max(-float(residual.min()), 0.0) / self.alpha
        drive = self.drive()
        if drive < self._best:
            self._best, self._stalls = drive, 0
        else:
            self._stalls += 1
            if self._stalls >= _STALL_SWEEPS:
                # The spectrum is not the real interval the weights assume
                # (a directed graph's can be complex, and Chebyshev then
                # diverges).  Plain sweeps from here converge on any one.
                self._weights = itertools.repeat(1.0)


class _ExactColumn:
    """A fully-solved column (e.g. a cache hit) posing as a sweep state."""

    __slots__ = ("kind", "node", "estimate", "work", "drained")

    def __init__(self, kind: str, node: int, column: np.ndarray) -> None:
        self.kind = kind
        self.node = int(node)
        self.estimate = np.asarray(column, dtype=np.float64)
        self.work = 0
        self.drained = True

    def drive(self) -> float:
        return 0.0

    def bounds(self) -> "tuple[np.ndarray, np.ndarray]":
        return self.estimate, self.estimate

    def point(self) -> np.ndarray:
        return self.estimate

    def advance(self, target: float, work_limit: int) -> None:
        pass


@dataclass
class LocalTopKResult:
    """Outcome of one :func:`local_topk` query.

    Exactly one of two shapes:

    - ``certified=True``: ``scores`` are unnormalized lower bounds on the
      exact scores and ``bound`` is the largest per-node upper-lower width
      among the claimed nodes, so each exact score sits in
      ``[score, score + bound]``; the set *and* order are proven identical
      to the full-solve ranking.
    - ``escalated=True``: the exact solver produced the result; ``scores``
      are bit-identical to the full-solve path (normalized when requested)
      and ``bound`` is ``0.0``.
    """

    indices: np.ndarray
    scores: np.ndarray
    bound: float
    certified: bool
    escalated: bool
    rounds: int
    work: int


def _views(state) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """A sweep state's ``(lower, point, upper)`` vectors."""
    lower, upper = state.bounds()
    return lower, state.point(), upper


def _combine_scores(
    measure: str,
    beta: float,
    weights: np.ndarray,
    f_states: "list | None",
    t_states: "list | None",
    n: int,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Dense per-node ``(lower, point, upper)`` scores for the whole query.

    ``lower`` and ``upper`` combine the states' bounds, ``point`` their
    clamped iterates.  Linearity over query nodes: every weighted term is
    combined separately and summed.  Monotonicity of the per-measure
    combination (product, or ``combine_beta``, on non-negative arguments)
    makes both bounds sound.
    """
    combined = (np.zeros(n), np.zeros(n), np.zeros(n))
    for i, w in enumerate(weights.tolist()):
        fv = _views(f_states[i]) if f_states is not None else None
        tv = _views(t_states[i]) if t_states is not None else None
        for j, total in enumerate(combined):
            if measure == "frank":
                total += w * fv[j]
            elif measure == "trank":
                total += w * tv[j]
            elif measure == "roundtriprank":
                total += w * (fv[j] * tv[j])
            else:  # roundtriprank_plus
                total += w * combine_beta(fv[j], tv[j], beta)
    return combined


_OBS_LOCAL = obs.counter(
    "repro_local_outcomes_total",
    "Local top-k queries by outcome (certified / escalated).",
    labels=("outcome",),
)
_OBS_WORK = obs.counter(
    "repro_local_work_units_total", "Sweeps spent by local top-k queries."
)


def local_topk(
    graph: DiGraph,
    query: Query,
    k: int,
    alpha: float = DEFAULT_ALPHA,
    *,
    measure: str = "roundtriprank",
    beta: float = DEFAULT_BETA,
    normalize: bool = True,
    exclude: "set[int] | frozenset[int] | Sequence[int] | None" = None,
    candidate_mask: "np.ndarray | None" = None,
    tol: float = 1e-12,
    max_iter: int = 1000,
    warn_on_nonconvergence: bool = True,
    solve_columns: "Callable[[str, list[int]], np.ndarray] | None" = None,
    column_probe: "Callable[[str, int], np.ndarray | None] | None" = None,
) -> LocalTopKResult:
    """Exact top-``k`` for one query via certified early-stopped sweeps.

    Sweeps the query's F/T columns until the score bounds certify the
    top-``k`` set and ranking (see the module docstring for the contract),
    shrinking the residual target toward the observed k-th/(k+1)-th score
    gap each round; when certification is impossible within ``MAX_SWEEPS``
    sweeps or ``MAX_ROUNDS`` rounds the query escalates: its full F/T
    columns are solved and ranked exactly, matching the full-solve path
    bit-for-bit.

    Hooks: ``solve_columns(kind, nodes) -> n x m`` column stack replaces the
    engine solves (``frank_batch`` / ``trank_batch`` at ``tol`` /
    ``max_iter``) on escalation — the gateway routes it through
    ``ColumnCache`` so escalations warm the cache; ``column_probe(kind,
    node)`` may return an already-exact column (cache hit) that then
    participates with error zero.  ``normalize`` only affects escalated
    ``roundtriprank`` scores — certified scores are unnormalized lower
    bounds.  ``k`` and ``max_iter`` must be positive integers and ``tol``
    positive; all three are checked before any sweep, though only an
    escalation reads ``tol`` and ``max_iter``.
    """
    alpha = check_in_range(alpha, "alpha", 0.0, 1.0, inclusive_low=False, inclusive_high=False)
    if measure not in LOCAL_MEASURES:
        raise ValueError(f"measure must be one of {LOCAL_MEASURES}, got {measure!r}")
    # The escalation's arguments too: a query that certifies never reads
    # them, so a bad one would otherwise pass unnoticed until one escalates.
    k = check_positive_int(k, "k")
    check_positive(tol, "tol")
    check_positive_int(max_iter, "max_iter")
    with obs.span("topk.local", k=k, measure=measure) as ospan:
        from repro.serving.topk import topk_select  # circular at module level

        nodes, weights = normalize_query(graph, query)
        n = graph.n_nodes
        needs_f = measure != "trank"
        needs_t = measure != "frank"

        f_states = t_states = None
        if needs_f:
            f_states = [_make_state(graph, int(v), alpha, "f", column_probe) for v in nodes]
        if needs_t:
            t_states = [_make_state(graph, int(v), alpha, "t", column_probe) for v in nodes]
        states = (f_states or []) + (t_states or [])
        work_budget = MAX_SWEEPS
        target = DEFAULT_TARGET

        def total_work() -> int:
            return sum(s.work for s in states)

        result = None
        rounds = 0
        while True:
            rounds += 1
            for state in states:
                remaining = work_budget - total_work()
                if remaining <= 0:
                    break
                state.advance(target, state.work + remaining)

            lower, point, upper = _combine_scores(measure, beta, weights, f_states, t_states, n)
            # The iterates pick the claim and the gap signal: they sit near
            # the exact scores, while the lower bounds trail them by a
            # width that differs from node to node.
            order, _ = topk_select(point, k, exclude=exclude, candidate_mask=candidate_mask)
            low_vals = lower[order]
            certified, needed = _certify(
                lower, upper, point, order, low_vals, exclude, candidate_mask
            )
            width = float(np.max(upper[order] - low_vals)) if order.size else 0.0
            if certified:
                result = LocalTopKResult(
                    indices=order,
                    scores=low_vals,
                    bound=width,
                    certified=True,
                    escalated=False,
                    rounds=rounds,
                    work=total_work(),
                )
                break
            out_of_road = (
                total_work() >= work_budget
                or target <= MIN_TARGET
                or rounds >= MAX_ROUNDS
                or all(s.drained for s in states)
                # Margin-limited: the bounds have resolved the binding gap
                # (the widths are down to it) and it is too small for
                # CERT_MARGIN — or the widths already sit at the margin floor
                # against an exact tie.  No amount of sweeping certifies; the
                # exact solve is the fast exit.
                or (needed > 0.0 and needed <= ESCALATE_GAP and width <= needed)
                or (needed == 0.0 and 0.0 < width <= 2.0 * ESCALATE_GAP)
            )
            if out_of_road:
                break
            # Aim the next round at the observed gaps (the k-th/(k+1)-th
            # rule): score widths decay linearly with the residual drive, so
            # scale the target by the needed-over-achieved width ratio; with
            # no usable gap (ties in the points) fall back to the
            # geometric schedule.
            if needed > 0.0 and width > 0.0:
                ratio = needed / (2.0 * width)
                target = max(MIN_TARGET, min(target / 4.0, target * ratio))
            else:
                target = max(MIN_TARGET, target / TARGET_SHRINK)

        if result is None:
            node_list = [int(v) for v in nodes]

            def solve(kind: str) -> np.ndarray:
                if solve_columns is not None:
                    return solve_columns(kind, node_list)
                fn = frank_batch if kind == "f" else trank_batch
                return fn(
                    graph,
                    node_list,
                    alpha,
                    tol=tol,
                    max_iter=max_iter,
                    warn_on_nonconvergence=warn_on_nonconvergence,
                )

            f = solve("f") if needs_f else None
            t = solve("t") if needs_t else None
            scores = combine_columns(measure, f, t, node_list, [(nodes, weights)], beta)
            if measure == "roundtriprank" and normalize:
                scores = normalize_columns(scores, "local_topk")
            order, values = topk_select(
                scores[:, 0], k, exclude=exclude, candidate_mask=candidate_mask
            )
            result = LocalTopKResult(
                indices=order,
                scores=values,
                bound=0.0,
                certified=False,
                escalated=True,
                rounds=rounds,
                work=total_work(),
            )
        if obs.enabled():
            ospan.set_attributes(
                certified=result.certified,
                escalated=result.escalated,
                rounds=int(result.rounds),
                work=int(result.work),
                bound=float(result.bound),
            )
            outcome = "certified" if result.certified else "escalated"
            _OBS_LOCAL.inc(outcome=outcome)
            _OBS_WORK.inc(int(result.work))
    return result


def _make_state(graph, node, alpha, kind, column_probe):
    if column_probe is not None:
        column = column_probe(kind, node)
        if column is not None:
            return _ExactColumn(kind, node, column)
    return ColumnPush(graph, node, alpha, kind)


def _certify(
    lower: np.ndarray,
    upper: np.ndarray,
    point: np.ndarray,
    order: np.ndarray,
    low_vals: np.ndarray,
    exclude,
    candidate_mask,
) -> "tuple[bool, float]":
    """Check the set and ranking inequalities; report the binding gap.

    The claim ``order`` is certified when every claimed node's lower bound
    clears the next claimed node's upper bound, and the last one clears
    every other eligible node's, each by ``CERT_MARGIN``.  Returns
    ``(certified, needed)`` where ``needed`` is the smallest positive
    ``point`` gap among the failing inequalities (the signal for the next
    width target), or 0.0 when the points give none (ties).
    """
    if order.size == 0:
        return True, 0.0
    # Upper bounds of every eligible node outside the claimed set; the dense
    # array already covers untouched nodes via their unseen error bounds.
    rest_upper = upper.copy()
    if candidate_mask is not None:
        rest_upper[~np.asarray(candidate_mask, dtype=bool)] = -np.inf
    if exclude:
        rest_upper[list(exclude)] = -np.inf
    rest_point = np.where(np.isneginf(rest_upper), -np.inf, point)
    rest_upper[order] = -np.inf
    rest_point[order] = -np.inf
    rest_up = float(rest_upper.max()) if rest_upper.size else -np.inf
    set_ok = not np.isfinite(rest_up) or low_vals[-1] > rest_up + CERT_MARGIN
    order_ok = bool(np.all(low_vals[:-1] > upper[order[1:]] + CERT_MARGIN))
    if set_ok and order_ok:
        return True, 0.0
    gaps = []
    if not set_ok and np.isfinite(rest_up):
        rest_best = float(rest_point.max())
        if np.isfinite(rest_best):
            gaps.append(float(point[order[-1]]) - rest_best)
    if not order_ok:
        consecutive = point[order[:-1]] - point[order[1:]]
        failing = consecutive[low_vals[:-1] <= upper[order[1:]] + CERT_MARGIN]
        if failing.size:
            gaps.append(float(failing.min()))
    positive = [g for g in gaps if g > 0.0]
    return False, min(positive) if positive else 0.0
