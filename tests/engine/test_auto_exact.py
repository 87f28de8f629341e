"""Bit-exactness oracle for the ``method="auto"`` solver's footprint and
correction tolerance.

:func:`repro.engine.batch._solve_auto` forms ``alpha * teleports`` where it
is used, drops each phase's blocks before the next one is allocated, reuses
the Chebyshev phase's ``y`` as its delta scratch and scales residuals and
corrections in place; correction rounds after the first stop at
``tol / scale`` relative accuracy instead of the float32 floor.  The
reference loops below are the solver without any of that: a float64
``base`` held beside the teleports, a separate scratch block, allocating
products, and every phase run to the same floor.  Against them:

- every solve the reference verifies below ``tol`` within two float32
  phases gives the same bytes, the same residuals and the same sweep count;
- every other solve verifies below ``tol`` or has spent ``max_iter``, and
  the right-sized third phases take fewer sweeps;
- a 64-column solve peaks at no more than 4.5 result-sized blocks.

Hypothesis digraphs (dangling nodes, self-loops, strongly directed cycles)
and 40 or more BibNet solves of one and 64 columns, both orientations.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import frank_batch, stack_teleports, trank_batch
from repro.engine.batch import _F32_FLOOR, _PHASE_BUDGET, _jacobi_masked, _solve_auto
from repro.graph import graph_from_edges
from repro.ops import get_operator

TOL = 1e-12
MAX_ITER = 1000


# ---------------------------------------------------------------------- #
# The reference loops
# ---------------------------------------------------------------------- #


def _reference_chebyshev_phase(damped_top, base, damp, tol, budget):
    x_old = base.copy()
    x = base + damped_top.matmat(x_old)
    sweeps = 1
    omega = 2.0 / (2.0 - damp * damp)
    rate = damp / (1.0 + math.sqrt(1.0 - damp * damp))
    predicted = max(2, int(math.ceil(math.log(max(tol, 1e-300)) / math.log(rate))))
    y = np.empty_like(x)
    scratch = np.empty_like(x)
    best = np.inf
    stalls = 0
    col_scale = 1.0
    scale_known = False
    k = 1
    while sweeps < budget:
        np.copyto(y, base)
        damped_top.matmat(x, out=y, accumulate=True)
        sweeps += 1
        y *= x.dtype.type(omega)
        x_old *= x.dtype.type(1.0 - omega)
        x_old += y
        x, x_old = x_old, x
        k += 1
        omega = 1.0 / (1.0 - 0.25 * damp * damp * omega)
        if k == 8 or (k >= predicted and k % 2 == 1) or sweeps >= budget:
            np.subtract(x, x_old, out=scratch)
            np.abs(scratch, out=scratch)
            delta = float(scratch.sum(axis=0).max())
            if not np.isfinite(delta) or delta > 1e4 * best + 1e4:
                return x, sweeps, False
            if not scale_known:
                np.abs(x, out=scratch)
                col_scale = max(1.0, float(scratch.sum(axis=0).max()))
                scale_known = True
            if delta < tol * col_scale:
                return x, sweeps, True
            if delta > 0.5 * best:
                stalls += 1
                if stalls >= 3:
                    return x, sweeps, True
            else:
                stalls = 0
            best = min(best, delta)
    return x, sweeps, True


def _reference_residual(top, base, damp, x):
    r = top.matmat(x)
    r *= damp
    r += base
    r -= x
    return r


def _reference_solve_auto(top, base, damp, tol, max_iter):
    """Returns ``(x, per_column_residual, sweeps_used, float32_phases)``."""
    damped32 = top.damped(damp, np.float32)
    base32 = base.astype(np.float32)
    phase_tol = max(tol, _F32_FLOOR)
    sweeps_left = max_iter
    phases = 1

    x = None
    budget = min(_PHASE_BUDGET, sweeps_left)
    x32, used, healthy = _reference_chebyshev_phase(damped32, base32, damp, phase_tol, budget)
    sweeps_left -= used
    if healthy:
        x = x32.astype(np.float64)
        for _ in range(3):
            if sweeps_left <= 0:
                break
            r = _reference_residual(top, base, damp, x)
            sweeps_left -= 1
            col_res = np.abs(r).sum(axis=0)
            scale = float(col_res.max())
            if scale < tol:
                return x, col_res, max_iter - sweeps_left, phases
            r32 = (r * (1.0 / scale)).astype(np.float32)
            budget = min(_PHASE_BUDGET, sweeps_left)
            d32, used, healthy = _reference_chebyshev_phase(damped32, r32, damp, phase_tol, budget)
            phases += 1
            sweeps_left -= used
            if not healthy:
                break
            x += scale * d32.astype(np.float64)

    if x is None:
        x = base.copy()
    x, _, used = _jacobi_masked(top, base, damp, x, tol, max(0, sweeps_left))
    sweeps_left -= used
    r = _reference_residual(top, base, damp, x)
    sweeps_left -= 1
    col_res = np.abs(r).sum(axis=0)
    return x, col_res, max_iter - sweeps_left, phases


# ---------------------------------------------------------------------- #
# Side by side
# ---------------------------------------------------------------------- #


def _compare(top, teleports, alpha):
    """Solve with both paths, check the contract, and return
    ``(reference_phases, reference_sweeps, sweeps)``."""
    x, res, sweeps = _solve_auto(top, teleports, alpha, TOL, MAX_ITER)
    want, want_res, want_sweeps, phases = _reference_solve_auto(
        top, alpha * teleports, 1.0 - alpha, TOL, MAX_ITER
    )
    if phases <= 2 and want_res.max() < TOL:
        assert x.tobytes() == want.tobytes()
        assert res.tobytes() == want_res.tobytes()
        assert sweeps == want_sweeps
    else:
        assert res.max() < TOL or sweeps >= MAX_ITER
        if want_res.max() < TOL:
            assert res.max() < TOL
    return phases, want_sweeps, sweeps


@st.composite
def _digraph_solves(draw):
    """A small digraph (dangling nodes and self-loops allowed), query
    columns and a teleport probability."""
    n = draw(st.integers(min_value=1, max_value=12))
    node = st.integers(min_value=0, max_value=n - 1)
    weight = st.floats(min_value=0.1, max_value=10.0)
    edges = draw(st.lists(st.tuples(node, node, weight), max_size=3 * n))
    queries = draw(st.lists(node, min_size=1, max_size=4))
    alpha = draw(st.sampled_from([0.05, 0.15, 0.25, 0.5, 0.85]))
    return graph_from_edges(n, edges), queries, alpha


@settings(max_examples=150, deadline=None)
@given(case=_digraph_solves())
def test_small_digraphs_match_the_reference(case):
    graph, queries, alpha = case
    teleports = stack_teleports(graph, queries)
    for transpose in (True, False):
        _compare(get_operator(graph, transpose=transpose), teleports, alpha)


@pytest.mark.parametrize("graph_name", ["small_bibnet", "bibnet_2200"])
def test_bibnet_solves_match_the_reference(request, graph_name):
    graph = request.getfixturevalue(graph_name).graph
    rng = np.random.default_rng(41)
    nodes = [int(v) for v in rng.choice(graph.n_nodes, size=64, replace=False)]
    blocks = [nodes] + [[v] for v in nodes[:20]]
    third_phases = []
    for transpose in (True, False):
        top = get_operator(graph, transpose=transpose)
        for block in blocks:
            phases, want_sweeps, sweeps = _compare(
                top, stack_teleports(graph, block), 0.25
            )
            if phases == 3:
                third_phases.append((want_sweeps, sweeps))
    # T-Rank's 64-column solve needs a third phase on both graphs; that
    # phase stops at its own tolerance, short of the reference's float32
    # floor.
    assert third_phases
    assert all(sweeps < want_sweeps for want_sweeps, sweeps in third_phases)


@pytest.mark.parametrize("batch", [frank_batch, trank_batch])
def test_wide_solve_peaks_at_four_result_blocks(small_bibnet, batch):
    graph = small_bibnet.graph
    nodes = [int(v) for v in np.random.default_rng(3).choice(graph.n_nodes, 64, replace=False)]
    batch(graph, nodes[:2])  # builds the operator and its damped float32 copy
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        x = batch(graph, nodes)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 4.5 * x.nbytes, peak / x.nbytes
