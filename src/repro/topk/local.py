"""Sublinear local top-k: residual push with a certified exactness contract.

Every full solve pays O(n_edges * sweeps) even when the caller wants k=10.
This module implements the ROADMAP "sublinear single-query path": F and T
columns are grown *locally* by residual push on the raw CSR of a
:class:`repro.ops.TransitionOperator` (Fujiwara-style exact top-k pruning
over Wang-style backward-push estimates), with additive error bounds that
let the driver *certify* the returned top-k set and ranking against the true
fixed point — or fall back to the exact solver when it cannot.

Push recurrences (both sides share one vectorized routine, only the CSR
orientation differs):

- **F-Rank** (PPR *from* the query): ``f = alpha * e_q + (1-alpha) * P^T f``.
  Forward push along rows of ``P`` (out-edges): retiring residual ``r(u)``
  adds ``alpha * r(u)`` to the estimate at ``u`` and spreads
  ``(1-alpha) * r(u) * P[u, w]`` to each out-neighbor ``w``, preserving the
  invariant ``f = estimate + sum_u residual(u) * f_u``.
- **T-Rank** (PPR *to* the query): ``t = alpha * e_q + (1-alpha) * P t``.
  With ``M = alpha (I - (1-alpha) P)^{-1}``, column linearity gives
  ``t_u = alpha * e_u + (1-alpha) * sum_w P[w, u] * t_w`` — so the same push
  along rows of ``P^T`` (in-edges) maintains
  ``t = estimate + sum_u residual(u) * t_u``.

Error bounds (additive; the t-side is uniform, the f-side per-node):

- t-side: rows of ``P`` sum to one, so ``sum_u t_u(v) = 1`` for every ``v``
  and ``err_t(v) <= min(r_max, r_sum)`` — the residual *maximum* is the
  operative bound, which is what makes backward push local.
- f-side: ``err_f(v) = sum_u r(u) f_u(v) <= r_max * c(v)`` where
  ``c(v) = sum_u f_u(v) = n * PPR_uniform(v)`` is the node's *in-mass* —
  one cached full solve per ``(graph, alpha)`` buys a per-node bound that
  decays with ``r_max`` instead of ``r_sum`` (the uniform Proposition-4
  bound ``alpha r_max + (1-alpha) r_sum``, discounted by ``1/(2-alpha)`` on
  loop-free operators as in :class:`repro.topk.fbound.FBoundSide`, only
  reaches a target width after near-global convergence; the in-mass bound
  keeps forward push as local as backward push).  Both are sound, so the
  pointwise minimum is used.

Certification contract (the part that keeps the project's exactness
promise): a result is returned *certified* only when the per-node lower and
upper score bounds prove, with margin ``CERT_MARGIN``, that the claimed k
nodes beat every other node (set) and that each consecutive claimed pair is
strictly ordered (ranking).  Strict separation of the *true* scores makes
tie-breaking irrelevant, so a certified ranking equals the full-solve
oracle's ranking.  Certified scores are the unnormalized lower estimates —
``normalize`` is deliberately ignored for them (ranking is invariant under
the positive per-query rescaling; callers needing calibrated values should
escalate or solve fully).  Whenever certification fails — exact ties, tiny
gaps, exhausted work budget — the driver escalates to the exact solver
(``solve_columns``) and the result is *bit-identical* to the full-solve
path, with Sect. V pruning (:func:`repro.topk.bounds.combine_bounds` +
``candidates_from_bounds``) narrowing the final selection to the uncertified
candidate set when the push bounds support it.

The solver is wired into the serving entry points as ``method="local"``
(see :mod:`repro.serving.topk`) and into the gateway as the cache-miss fast
path (see :class:`repro.gateway.RankGateway`).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.core.frank import DEFAULT_ALPHA, power_iteration
from repro.core.queries import Query, normalize_query
from repro.core.roundtrip_plus import DEFAULT_BETA, combine_beta
from repro.graph.digraph import DiGraph
from repro.ops import TransitionOperator, get_operator
from repro.topk.graphaccess import gather_csr_rows
from repro.utils.validation import check_in_range

#: Residuals below this are numerical noise; a push state whose residuals
#: all sit under the floor is drained (its bound will not improve).
MIN_RESIDUAL = 1e-14

#: Floor for the per-side residual drive target.  Below this the push
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

#: Safety inflation added to the cached in-mass vector, dominating the
#: 1e-12-tolerance solve error it carries (n * 3 * tol for the graphs the
#: budget allows) so the f-side bound stays sound.
_INMASS_SLACK = 1e-7

#: Residual drive target for candidate-refinement pushes, as a fraction of
#: the main round target (the refinement term enters multiplied by the
#: f-side residual mass, so it can run two orders of magnitude looser).
REFINE_DRIVE_RATIO = 1e-2

#: Per-round work allowance for a single refinement push.  Pushing the
#: t-column of a hub candidate can cost several sweeps' worth of edges; the
#: cap keeps one stubborn candidate from eating the query's budget (the
#: push is resumable, so later rounds continue where it stopped).
def _refine_push_cap(nnz: int) -> int:
    return max(4096, nnz // 8)

#: Per-edge cost advantage of a sparse matvec over the frontier gather
#: (measured ~10-20x; kept conservative).  A frontier whose gathered edges
#: exceed ``nnz / SWEEP_DISCOUNT`` runs as a dense sweep instead, and a
#: sweep bills ``nnz / SWEEP_DISCOUNT`` gather-equivalent work units.
SWEEP_DISCOUNT = 8

#: Measures the local solver certifies.  ``roundtriprank_plus`` rides on the
#: monotonicity of ``combine_beta`` in both arguments.
LOCAL_MEASURES = ("roundtriprank", "roundtriprank_plus", "frank", "trank")


#: Estimate gaps at or below this are margin-limited: certification could
#: never separate them with ``CERT_MARGIN`` to spare, so the driver stops
#: pushing and escalates as soon as the estimates resolve to this scale.
ESCALATE_GAP = 4.0 * CERT_MARGIN


def _default_work_budget(nnz: int) -> int:
    # A full two-sided 1e-12 solve costs ~200 nnz-equivalents of matvec
    # work; certification typically lands at 4-12 (dense sweeps bill at
    # nnz / SWEEP_DISCOUNT), so this cap keeps the worst case (push, fail,
    # escalate) within about one extra full solve while letting every
    # realistically-certifiable query finish.
    return max(8192, 12 * nnz)


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
    """Resumable residual-push state for one (side, seed-node) column.

    ``kind`` selects the orientation: ``"f"`` pushes along rows of ``P``
    (out-edges) and solves the F-Rank column of ``node``; ``"t"`` pushes
    along rows of ``P^T`` (in-edges) and solves the T-Rank column.  The
    invariant ``solution = estimate + sum_u residual[u] * column_u`` holds
    after every push; :meth:`error` turns the residual state into additive
    per-node error bounds and :meth:`drive` is the scalar residual signal
    :meth:`advance` pushes down.
    """

    __slots__ = (
        "kind",
        "node",
        "alpha",
        "estimate",
        "residual",
        "work",
        "drained",
        "inmass",
        "_indptr",
        "_indices",
        "_data",
        "_matrix_t",
        "_nnz",
        "_discount",
        "_theta",
        "_r_max",
        "_r_sum",
    )

    def __init__(
        self,
        operator: TransitionOperator,
        node: int,
        alpha: float,
        kind: str,
        inmass: "np.ndarray | None" = None,
    ) -> None:
        if kind not in ("f", "t"):
            raise ValueError(f"kind must be 'f' or 't', got {kind!r}")
        if kind == "f" and inmass is None:
            raise ValueError("f-side pushes need the in-mass vector (see inmass_vector)")
        self.kind = kind
        self.node = int(node)
        self.alpha = float(alpha)
        self.inmass = inmass
        self._indptr, self._indices, self._data = operator.csr_parts(np.float64)
        # Transposed view of the push matrix (CSC shares the CSR buffers):
        # lets a saturated frontier run as one sparse matvec instead of a
        # gather — same arithmetic, roughly an order of magnitude cheaper
        # per edge.
        self._matrix_t = operator.matrix(np.float64).T
        self._nnz = int(self._indices.size)
        n = operator.n_nodes
        self.estimate = np.zeros(n)
        self.residual = np.zeros(n)
        self.residual[self.node] = 1.0
        # Prop. 4's repeated-return discount needs a loop-free diagonal.
        self._discount = kind == "f" and not operator.has_self_loops
        self.work = 0
        self.drained = False
        self._theta = 0.25
        self._r_max: "float | None" = 1.0
        self._r_sum: "float | None" = 1.0

    def _residual_stats(self) -> "tuple[float, float]":
        if self._r_max is None:
            r = self.residual
            self._r_max = float(r.max()) if r.size else 0.0
            self._r_sum = float(r.sum())
        return self._r_max, self._r_sum

    def drive(self) -> float:
        """Scalar residual signal: the error bounds decay linearly with it."""
        r_max, r_sum = self._residual_stats()
        return r_max if self.kind == "f" else min(r_max, r_sum)

    def error(self):
        """Additive error bound: per-node array (f-side) or scalar (t-side).

        f-side: ``min(r_max * c, alpha r_max + (1-alpha) r_sum [/(2-alpha)])``
        pointwise — the in-mass bound is what keeps forward push local, the
        uniform Prop. 4 bound tightens hubs early on.  t-side:
        ``min(r_max, r_sum)`` uniformly (``sum_u t_u(v) = 1`` exactly).
        """
        r_max, r_sum = self._residual_stats()
        if self.kind == "t":
            return min(r_max, r_sum)
        uniform = self.alpha * r_max + (1.0 - self.alpha) * r_sum
        if self._discount:
            uniform /= 2.0 - self.alpha
        return np.minimum(r_max * self.inmass, uniform)

    def advance(self, target: float, work_limit: int) -> None:
        """Push until ``drive() <= target``, the work limit, or drain-out.

        ``work_limit`` is an absolute cap on :attr:`work` (the driver hands
        each state its share of the query's remaining budget).  Work is
        counted in *gather-equivalent* edge units: a frontier batch costs
        its gathered edges, a dense sweep costs ``nnz // SWEEP_DISCOUNT``
        (one matvec touches every edge but at a fraction of the per-edge
        gather cost), so the budget tracks wall-clock rather than raw edges.
        """
        while self.drive() > target and self.work < work_limit:
            frontier = np.flatnonzero(self.residual >= self._theta)
            if frontier.size == 0:
                if self._theta <= MIN_RESIDUAL:
                    self.drained = True
                    return
                self._theta = max(self._theta / 8.0, MIN_RESIDUAL)
                continue
            gathered = int((self._indptr[frontier + 1] - self._indptr[frontier]).sum())
            if gathered * SWEEP_DISCOUNT >= self._nnz:
                # The frontier covers enough of the matrix that one sparse
                # matvec (= pushing *every* node with residual mass, in one
                # shot) is cheaper than gathering the rows.
                self._sweep()
            else:
                self._push(frontier, gathered)

    def _sweep(self) -> None:
        """Retire every residual at once via the transposed matvec.

        Identical semantics to pushing the full support as a frontier —
        including dangling rows (their mass retires with no spread) and
        self-loop refill — because ``spread = (1-alpha) * A^T r`` is exactly
        the batched scatter.
        """
        r = self.residual
        self.estimate += self.alpha * r
        spread = self._matrix_t.dot(r)
        spread *= 1.0 - self.alpha
        self.residual = spread
        self.work += max(1, self._nnz // SWEEP_DISCOUNT)
        self._r_max = self._r_sum = None

    def _push(self, frontier: np.ndarray, total: int) -> None:
        """Retire the residual of every frontier node in one vectorized batch.

        All spread amounts are taken from the residual values *before* the
        batch (the push is linear, so batching is exact); self-loop refill
        lands back in the residual through the scatter.  ``total`` is the
        frontier's gathered edge count (the caller already has it).
        """
        r = self.residual
        amounts = r[frontier].copy()
        self.estimate[frontier] += self.alpha * amounts
        r[frontier] = 0.0
        if total:
            _, row_ids, flat = gather_csr_rows(self._indptr, frontier)
            spread = self._data[flat] * ((1.0 - self.alpha) * amounts)[row_ids]
            r += np.bincount(self._indices[flat], weights=spread, minlength=r.size)
        # A t-side node with no in-edges retires its residual entirely —
        # sound: dropping a non-negative term only tightens the invariant.
        self.work += total + int(frontier.size)
        self._r_max = self._r_sum = None


class _ExactColumn:
    """A fully-solved column (e.g. a cache hit) posing as a push state."""

    __slots__ = ("kind", "node", "estimate", "work", "drained")

    def __init__(self, kind: str, node: int, column: np.ndarray) -> None:
        self.kind = kind
        self.node = int(node)
        self.estimate = np.asarray(column, dtype=np.float64)
        self.work = 0
        self.drained = True

    def drive(self) -> float:
        return 0.0

    def error(self) -> float:
        return 0.0

    def advance(self, target: float, work_limit: int) -> None:
        pass


class _Refiner:
    """Stage-II f-bound refinement via backward pushes *from the candidates*.

    The crude f-side bound ``r_max * c(v)`` overstates the true error by an
    order of magnitude because it ignores where the residual actually sits.
    The exact identity ``err_f(v) = <r_f, t_v>`` (since ``f_u(v) = t_v(u)``
    — both are the resolvent entry ``M(v, u)``) turns the error at one
    candidate ``v`` into an inner product with the t-column *of v*, which
    backward push grows cheaply.  Bounding the unpushed part of ``t_v`` two
    ways and taking the min gives the certified refinement

    ``err_f(v) <= <r_f, est_tv> + min(rsum_f * drive_tv,
                                      rmax_tv * <r_f, c>)``

    (first term: uniform t-side error times total f-residual mass; second:
    the per-node t-side bound ``err_tv(u) <= rmax_tv * c(u)`` folded through
    the inner product).  ``<r_f, est_tv>`` is itself a lower bound on the
    error, so refined bounds track the truth closely — and also *raise* the
    lower score estimate at ``v``, tightening both sides of certification.

    Pushes are cached per candidate node and resumable across rounds; they
    are shared across all query nodes' f-states (the inner products differ,
    the t-column does not).
    """

    __slots__ = ("alpha", "inmass", "pushes", "_operator")

    def __init__(self, graph: DiGraph, alpha: float, inmass: np.ndarray) -> None:
        self.alpha = float(alpha)
        self.inmass = inmass
        self.pushes: "dict[int, ColumnPush]" = {}
        self._operator = get_operator(graph, transpose=True)

    @property
    def work(self) -> int:
        return sum(p.work for p in self.pushes.values())

    def column(self, node: int, target: float, allowance: int) -> ColumnPush:
        """The candidate's t-push, advanced by at most ``allowance`` work."""
        push = self.pushes.get(node)
        if push is None:
            push = ColumnPush(self._operator, node, self.alpha, "t")
            self.pushes[node] = push
        push.advance(target, push.work + allowance)
        return push


def _refine_candidates(
    upper: np.ndarray,
    order: np.ndarray,
    low_vals: np.ndarray,
    exclude,
    candidate_mask,
    cap: int,
) -> "tuple[np.ndarray, bool]":
    """Nodes whose bounds block certification, worst offenders first.

    Returns ``(candidates, covered)``: the claimed nodes (their widths gate
    the *order* inequalities) plus every eligible rest node whose upper
    bound crosses the k-th lower estimate (they gate the *set* inequality),
    truncated to ``cap``.  ``covered`` reports whether all violators fit —
    when they do not, refinement still helps (tighter claimed bounds raise
    the threshold) but cannot certify this round.
    """
    rest = upper.copy()
    if candidate_mask is not None:
        rest[~np.asarray(candidate_mask, dtype=bool)] = -np.inf
    if exclude:
        rest[list(exclude)] = -np.inf
    rest[order] = -np.inf
    violators = np.flatnonzero(rest >= low_vals[-1] - CERT_MARGIN)
    room = max(cap - order.size, 0)
    covered = violators.size <= room
    if not covered:
        # Too many threshold violators to refine this round: refine only
        # the claimed nodes (raising the threshold is cheap and thins the
        # violator set) and let the next pass or round mop up.
        return np.asarray(order), False
    if violators.size:
        violators = violators[np.argsort(-rest[violators], kind="stable")]
    return np.concatenate([order, violators]), True


def _refine_scores_at(
    measure: str,
    beta: float,
    weights: np.ndarray,
    f_states: list,
    t_states: "list | None",
    refiner: _Refiner,
    candidates: np.ndarray,
    refine_target: float,
    push_cap: int,
    budget_left: Callable,
    lower: np.ndarray,
    upper: np.ndarray,
) -> None:
    """Overwrite ``lower``/``upper`` at ``candidates`` with refined bounds.

    Refined entries are never looser than the crude ones (each error takes
    the pointwise min with the crude bound) and the refined lower estimate
    ``est + <r_f, est_tv>`` is still a true lower bound, so the mutated
    arrays remain globally sound for selection and certification.
    """
    prep = []
    for state in f_states:
        if isinstance(state, ColumnPush):
            _, r_sum = state._residual_stats()
            prep.append(
                (
                    state.estimate,
                    state.residual,
                    r_sum,
                    state.error(),
                    float(state.residual @ refiner.inmass),
                )
            )
        else:  # exact column: nothing to refine
            prep.append((state.estimate, None, 0.0, None, 0.0))
    for v in candidates:
        v = int(v)
        allowance = min(push_cap, budget_left())
        if allowance <= 0:
            return
        tv = refiner.column(v, refine_target, allowance)
        tv_drive = tv.drive()
        tv_rmax, _ = tv._residual_stats()
        lo = up = 0.0
        for i, (est, resid, r_sum, crude, dot_c) in enumerate(prep):
            if resid is None:
                f_lo = f_hi = float(est[v])
            else:
                inner = float(resid @ tv.estimate)
                err = inner + min(r_sum * tv_drive, tv_rmax * dot_c)
                err = min(err, float(crude[v]))
                f_lo = float(est[v]) + inner
                f_hi = max(float(est[v]) + err, f_lo)
            w = float(weights[i])
            if measure == "frank":
                lo += w * f_lo
                up += w * f_hi
            else:
                ts = t_states[i]
                t_lo = float(ts.estimate[v])
                t_hi = t_lo + float(ts.error())
                if measure == "roundtriprank":
                    lo += w * (f_lo * t_lo)
                    up += w * (f_hi * t_hi)
                else:  # roundtriprank_plus
                    lo += w * float(combine_beta(f_lo, t_lo, beta))
                    up += w * float(combine_beta(f_hi, t_hi, beta))
        lower[v] = lo
        upper[v] = max(up, lo)


@dataclass
class LocalTopKResult:
    """Outcome of one :func:`local_topk` query.

    Exactly one of two shapes:

    - ``certified=True``: ``scores`` are the unnormalized lower estimates;
      ``bound`` is the largest per-node upper-lower width among the claimed
      nodes, and the set *and* order are proven identical to the full-solve
      ranking.
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


class _PushSideBounds:
    """Duck-typed per-side bounds adapter feeding Eq. 15-16 combination.

    Exposes exactly the attributes :func:`repro.topk.bounds.combine_bounds`
    reads from :class:`FBoundSide` / :class:`TBoundSide`, built from a push
    state: seen nodes carry ``estimate <= true <= estimate + err`` and every
    other node shares the worst unseen error as its unseen upper bound.
    """

    __slots__ = ("seen", "lower", "upper", "unseen_upper")

    def __init__(self, push) -> None:
        err = push.error()
        self.seen = push.estimate > 0.0
        self.lower = push.estimate
        self.upper = push.estimate + err
        if isinstance(err, np.ndarray):
            unseen = err[~self.seen]
            self.unseen_upper = float(unseen.max()) if unseen.size else 0.0
        else:
            self.unseen_upper = float(err)


def _combine_scores(
    measure: str,
    beta: float,
    weights: np.ndarray,
    f_states: "list | None",
    t_states: "list | None",
    n: int,
) -> "tuple[np.ndarray, np.ndarray]":
    """Dense per-node ``(lower, upper)`` score bounds for the whole query.

    Linearity over query nodes: every weighted term is bounded separately
    and summed.  Monotonicity of the per-measure combination (product, or
    ``combine_beta`` on non-negative arguments) makes the upper bound sound.
    """
    lower = np.zeros(n)
    upper = np.zeros(n)
    for i in range(len(weights)):
        w = float(weights[i])
        if measure == "frank":
            s = f_states[i]
            lower += w * s.estimate
            upper += w * (s.estimate + s.error())
        elif measure == "trank":
            s = t_states[i]
            lower += w * s.estimate
            upper += w * (s.estimate + s.error())
        elif measure == "roundtriprank":
            fs, ts = f_states[i], t_states[i]
            lower += w * (fs.estimate * ts.estimate)
            upper += w * ((fs.estimate + fs.error()) * (ts.estimate + ts.error()))
        else:  # roundtriprank_plus
            fs, ts = f_states[i], t_states[i]
            lower += w * combine_beta(fs.estimate, ts.estimate, beta)
            upper += w * combine_beta(
                fs.estimate + fs.error(), ts.estimate + ts.error(), beta
            )
    return lower, upper


def _escalation_mask(
    measure: str,
    f_states: "list | None",
    t_states: "list | None",
    k: int,
    n: int,
) -> "np.ndarray | None":
    """Sect. V candidate pruning for the exact fallback (single-node only).

    The push states' bounds are valid for the *true* scores, so feeding them
    through :func:`combine_bounds` and ``candidates_from_bounds`` yields a
    sound candidate set: the exact solve still runs full columns, but the
    final selection only ranks nodes that can possibly be top-k.
    """
    if measure != "roundtriprank" or f_states is None or t_states is None:
        return None
    if len(f_states) != 1 or len(t_states) != 1:
        return None
    from repro.serving.topk import candidates_from_bounds  # circular at module level

    from repro.topk.bounds import combine_bounds

    bounds = combine_bounds(_PushSideBounds(f_states[0]), _PushSideBounds(t_states[0]))
    return candidates_from_bounds(bounds, k, n)


def _solve_exact(
    graph: DiGraph,
    nodes: np.ndarray,
    weights: np.ndarray,
    measure: str,
    beta: float,
    normalize: bool,
    solve_columns: Callable,
) -> np.ndarray:
    """Exact full-score vector, replicating the batch engine's arithmetic.

    The column stacks come from ``solve_columns`` (the engine by default, a
    cache-backed hook in the gateway) and the per-query combination repeats
    :func:`repro.engine.batch.roundtriprank_batch` /
    :class:`repro.serving.MicroBatcher` operation-for-operation, so the
    escalated result is bit-identical to the corresponding full-solve path.
    """
    needs_f = measure != "trank"
    needs_t = measure != "frank"
    node_list = [int(v) for v in nodes]
    f = solve_columns("f", node_list) if needs_f else None
    t = solve_columns("t", node_list) if needs_t else None
    if measure == "frank":
        scores = f @ weights
    elif measure == "trank":
        scores = t @ weights
    elif measure == "roundtriprank":
        scores = (f * t) @ weights
        if normalize:
            from repro.engine.batch import normalize_columns

            scores = normalize_columns(scores[:, None], "local_topk")[:, 0]
    else:
        scores = np.zeros(graph.n_nodes)
        for j in range(len(node_list)):
            scores += float(weights[j]) * combine_beta(f[:, j], t[:, j], beta)
    return scores


def _engine_solver(
    graph: DiGraph,
    alpha: float,
    tol: float,
    max_iter: int,
    warn_on_nonconvergence: bool,
    exact_method: str,
) -> Callable:
    def solve(kind: str, node_list: "list[int]") -> np.ndarray:
        from repro.engine.batch import frank_batch, trank_batch

        fn = frank_batch if kind == "f" else trank_batch
        return fn(
            graph,
            node_list,
            alpha,
            tol=tol,
            max_iter=max_iter,
            warn_on_nonconvergence=warn_on_nonconvergence,
            method=exact_method,
        )

    return solve


def _local_topk_impl(
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
    target: float = DEFAULT_TARGET,
    work_budget: "int | None" = None,
    refine: bool = False,
    max_rounds: int = 12,
    tol: float = 1e-12,
    max_iter: int = 1000,
    warn_on_nonconvergence: bool = True,
    exact_method: str = "auto",
    solve_columns: "Callable[[str, list[int]], np.ndarray] | None" = None,
    column_probe: "Callable[[str, int], np.ndarray | None] | None" = None,
) -> LocalTopKResult:
    """Exact top-``k`` for one query via certified local push.

    Pushes residual mass locally around the query until the score bounds
    certify the top-``k`` set and ranking (see the module docstring for the
    contract), shrinking the residual target toward the observed
    k-th/(k+1)-th score gap each round; when certification is impossible
    within the work budget the exact solver takes over and the result
    matches the full-solve path bit-for-bit.

    Hooks: ``solve_columns(kind, nodes) -> n x m`` column stack replaces the
    engine solves on escalation (the gateway routes it through
    ``ColumnCache`` so escalations warm the cache); ``column_probe(kind,
    node)`` may return an already-exact column (cache hit) that then
    participates with error zero.  ``normalize`` only affects escalated
    ``roundtriprank`` scores — certified scores are unnormalized estimates.
    ``refine=True`` enables the stage-II candidate refinement
    (:class:`_Refiner`): sound and tighter per round, but the dense-sweep
    crude path certifies faster on every graph profiled so far, so it is
    off by default.
    """
    alpha = check_in_range(alpha, "alpha", 0.0, 1.0, inclusive_low=False, inclusive_high=False)
    if measure not in LOCAL_MEASURES:
        raise ValueError(f"measure must be one of {LOCAL_MEASURES}, got {measure!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if target <= 0.0:
        raise ValueError(f"target must be > 0, got {target}")
    from repro.serving.topk import topk_select  # circular at module level

    nodes, weights = normalize_query(graph, query)
    n = graph.n_nodes
    needs_f = measure != "trank"
    needs_t = measure != "frank"

    # Push orientation is the *opposite* of the solve orientation: the f
    # recurrence multiplies by P^T but pushes along rows of P, and vice
    # versa (see the module docstring).
    f_states = t_states = None
    if needs_f:
        op = get_operator(graph, transpose=False)
        c = inmass_vector(graph, alpha)
        f_states = [_make_state(op, int(v), alpha, "f", column_probe, c) for v in nodes]
    if needs_t:
        op = get_operator(graph, transpose=True)
        t_states = [_make_state(op, int(v), alpha, "t", column_probe, None) for v in nodes]
    states = (f_states or []) + (t_states or [])

    if work_budget is None:
        work_budget = _default_work_budget(graph.n_edges)

    refiner: "_Refiner | None" = None
    refinable = refine and needs_f and any(
        isinstance(s, ColumnPush) for s in (f_states or [])
    )
    push_cap = _refine_push_cap(graph.n_edges)
    refine_cap = max(48, 4 * k)

    def total_work() -> int:
        spent = sum(s.work for s in states)
        return spent + (refiner.work if refiner is not None else 0)

    rounds = 0
    while True:
        rounds += 1
        for state in states:
            remaining = work_budget - total_work()
            if remaining <= 0:
                break
            state.advance(target, state.work + remaining)

        lower, upper = _combine_scores(measure, beta, weights, f_states, t_states, n)
        order, low_vals = topk_select(
            lower, k, exclude=exclude, candidate_mask=candidate_mask
        )
        certified, needed = _certify(lower, upper, order, low_vals, exclude, candidate_mask)
        if not certified and refinable and order.size and low_vals[-1] > 0.0:
            # Stage II: the crude f-bound blocks certification long before
            # the estimates are actually wrong — refine it where it binds
            # (claimed nodes and threshold violators) with candidate-seeded
            # backward pushes.  A second pass covers nodes the refined
            # estimates newly promote into the claimed set.
            if refiner is None:
                refiner = _Refiner(graph, alpha, inmass_vector(graph, alpha))
            refine_target = max(MIN_TARGET, REFINE_DRIVE_RATIO * target)
            for _pass in range(3):
                claimed_before = set(int(v) for v in order)
                candidates, covered = _refine_candidates(
                    upper, order, low_vals, exclude, candidate_mask, refine_cap
                )
                _refine_scores_at(
                    measure, beta, weights, f_states, t_states, refiner,
                    candidates, refine_target, push_cap,
                    lambda: work_budget - total_work(), lower, upper,
                )
                order, low_vals = topk_select(
                    lower, k, exclude=exclude, candidate_mask=candidate_mask
                )
                certified, needed = _certify(
                    lower, upper, order, low_vals, exclude, candidate_mask
                )
                if certified:
                    break
                # Keep passing while there is something new to act on: a
                # moved claimed set, or violators left unrefined (refining
                # the claimed nodes raises the threshold, so the next pass
                # may find them coverable).  A fully-covered pass with a
                # stable claimed set has converged for this round.
                if covered and set(int(v) for v in order) == claimed_before:
                    break
        spent = total_work()
        if certified:
            width = float(np.max(upper[order] - low_vals)) if order.size else 0.0
            return LocalTopKResult(
                indices=order,
                scores=low_vals,
                bound=width,
                certified=True,
                escalated=False,
                rounds=rounds,
                work=spent,
            )
        achieved = float(np.max(upper[order] - low_vals)) if order.size else 0.0
        out_of_road = (
            spent >= work_budget
            or target <= MIN_TARGET
            or rounds >= max_rounds
            or all(s.drained for s in states)
            # Margin-limited: the estimates have resolved the binding gap
            # and it is too small for CERT_MARGIN — or the widths already
            # sit at the margin floor against an exact tie.  No amount of
            # pushing certifies; the exact solve is the fast exit.
            or (needed > 0.0 and needed <= ESCALATE_GAP)
            or (needed == 0.0 and 0.0 < achieved <= 2.0 * ESCALATE_GAP)
        )
        if out_of_road:
            break
        # Aim the next round at the observed gaps (the ISSUE's k-th/(k+1)-th
        # rule): score widths decay linearly with the residual drive, so
        # scale the target by the needed-over-achieved width ratio; with no
        # usable gap (ties in the estimates) fall back to the geometric
        # schedule.
        if needed > 0.0 and achieved > 0.0:
            ratio = needed / (2.0 * achieved)
            target = max(MIN_TARGET, min(target / 4.0, target * ratio))
        else:
            target = max(MIN_TARGET, target / TARGET_SHRINK)

    if solve_columns is None:
        solve_columns = _engine_solver(
            graph, alpha, tol, max_iter, warn_on_nonconvergence, exact_method
        )
    prune = None
    if exclude is None and candidate_mask is None:
        prune = _escalation_mask(measure, f_states, t_states, k, n)
    scores = _solve_exact(graph, nodes, weights, measure, beta, normalize, solve_columns)
    order, values = topk_select(
        scores, k, exclude=exclude, candidate_mask=prune if prune is not None else candidate_mask
    )
    return LocalTopKResult(
        indices=order,
        scores=values,
        bound=0.0,
        certified=False,
        escalated=True,
        rounds=rounds,
        work=total_work(),
    )


_OBS_LOCAL = obs.counter(
    "repro_local_outcomes_total",
    "Local top-k queries by outcome (certified / escalated).",
    labels=("outcome",),
)
_OBS_WORK = obs.counter(
    "repro_local_work_units_total", "Push work units spent by local top-k queries."
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
    target: float = DEFAULT_TARGET,
    work_budget: "int | None" = None,
    refine: bool = False,
    max_rounds: int = 12,
    tol: float = 1e-12,
    max_iter: int = 1000,
    warn_on_nonconvergence: bool = True,
    exact_method: str = "auto",
    solve_columns: "Callable[[str, list[int]], np.ndarray] | None" = None,
    column_probe: "Callable[[str, int], np.ndarray | None] | None" = None,
) -> LocalTopKResult:
    with obs.span("topk.local", k=int(k), measure=measure) as ospan:
        result = _local_topk_impl(
            graph,
            query,
            k,
            alpha,
            measure=measure,
            beta=beta,
            normalize=normalize,
            exclude=exclude,
            candidate_mask=candidate_mask,
            target=target,
            work_budget=work_budget,
            refine=refine,
            max_rounds=max_rounds,
            tol=tol,
            max_iter=max_iter,
            warn_on_nonconvergence=warn_on_nonconvergence,
            exact_method=exact_method,
            solve_columns=solve_columns,
            column_probe=column_probe,
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


local_topk.__doc__ = _local_topk_impl.__doc__


def _make_state(operator, node, alpha, kind, column_probe, inmass):
    if column_probe is not None:
        column = column_probe(kind, node)
        if column is not None:
            return _ExactColumn(kind, node, column)
    return ColumnPush(operator, node, alpha, kind, inmass=inmass)


def _certify(
    lower: np.ndarray,
    upper: np.ndarray,
    order: np.ndarray,
    low_vals: np.ndarray,
    exclude,
    candidate_mask,
) -> "tuple[bool, float]":
    """Check the set and ranking inequalities; report the binding gap.

    Returns ``(certified, needed)`` where ``needed`` is the smallest
    positive *estimate* gap among the failing inequalities (the signal for
    the next width target), or 0.0 when the estimates give none (ties).
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
    rest_lower = np.where(np.isneginf(rest_upper), -np.inf, lower)
    rest_upper[order] = -np.inf
    rest_lower[order] = -np.inf
    rest_up = float(rest_upper.max()) if rest_upper.size else -np.inf
    set_ok = not np.isfinite(rest_up) or low_vals[-1] > rest_up + CERT_MARGIN
    order_ok = bool(np.all(low_vals[:-1] > upper[order[1:]] + CERT_MARGIN))
    if set_ok and order_ok:
        return True, 0.0
    gaps = []
    if not set_ok and np.isfinite(rest_up):
        rest_low = float(rest_lower.max())
        if np.isfinite(rest_low):
            gaps.append(float(low_vals[-1]) - rest_low)
    if not order_ok:
        consecutive = low_vals[:-1] - lower[order[1:]]
        failing = consecutive[low_vals[:-1] <= upper[order[1:]] + CERT_MARGIN]
        if failing.size:
            gaps.append(float(failing.min()))
    positive = [g for g in gaps if g > 0.0]
    return False, min(positive) if positive else 0.0
