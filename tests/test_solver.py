"""Joint power-allocation and energy-transfer solver."""

import dataclasses
import math

import numpy as np
import pytest

from ecomp import (
    DegeneracyError,
    EnergyState,
    InfeasibleError,
    ZfGains,
    as_beta_matrix,
    generate_rayleigh,
    kkt_residual,
    per_bs_zf_gains,
    recover_transfers,
    solve_p1,
    zf_gains,
)
from ecomp import solver
from ecomp.energy import TransferNetwork, _best_paths, _incidence
from ecomp.solver import (ConvergenceError, _DualProblem, _cancel_bidirectional,
                          _minimize_dual_1d, _minimize_dual_ellipsoid, _polish_dual)
from verifiers import grid_search_p1, waterfill_sum_power


def _instance(seed, n_bs=2, m_ant=1, n_mt=2, e_hi=30.0):
    rng = np.random.default_rng(seed)
    var = rng.uniform(0.2, 1.0, size=(n_bs, n_mt))
    ch = generate_rayleigh(n_bs, m_ant, n_mt, var, rng)
    g = zf_gains(ch)
    es = EnergyState(re=rng.uniform(0.0, e_hi, size=n_bs))
    return g, es


def test_matches_grid_oracle_on_small_instances():
    for seed, beta in ((0, 0.0), (1, 0.4), (2, 0.8), (3, 1.0)):
        g, es = _instance(seed)
        sol = solve_p1(g, es, beta)
        ref_obj, _, _ = grid_search_p1(g, es, beta)
        assert sol.objective == pytest.approx(ref_obj, rel=1e-4, abs=1e-9)


def test_solution_is_primal_feasible():
    for seed in range(6):
        beta = 0.2 + 0.1 * seed
        g, es = _instance(seed, n_bs=3, m_ant=2, n_mt=4)
        sol = solve_p1(g, es, beta)
        bm = as_beta_matrix(beta, 3)
        slack = es.budget + (bm * sol.e).sum(axis=0) - sol.e.sum(axis=1) \
            - g.b @ sol.p
        assert np.all(slack > -1e-7 * np.maximum(es.budget, 1.0))
        assert np.all(sol.p >= 0) and np.all(sol.e >= 0)


def test_no_station_both_sends_and_receives():
    for seed in range(6):
        g, es = _instance(seed, n_bs=3, m_ant=2, n_mt=4)
        sol = solve_p1(g, es, 0.7)
        inflow = sol.e.sum(axis=0)
        outflow = sol.e.sum(axis=1)
        assert np.all(np.minimum(inflow, outflow) < 1e-8)


def test_duality_gap_certificate():
    for seed in range(6):
        g, es = _instance(seed, n_bs=3, m_ant=2, n_mt=4)
        sol = solve_p1(g, es, 0.5)
        assert sol.duality_gap < 1e-6
        assert sol.dual_value >= sol.objective - 1e-9


def test_objective_is_scale_invariant():
    # Scaling all budgets by s while dividing every gain by s maps the
    # problem onto itself with powers scaled by s.
    g, es = _instance(4)
    sol = solve_p1(g, es, 0.6)
    s = 1e-4
    g2 = ZfGains(a=g.a / s, b=g.b, t_dir=g.t_dir, weights=g.weights)
    sol2 = solve_p1(g2, EnergyState(re=es.budget * s), 0.6)
    assert sol2.objective == pytest.approx(sol.objective, rel=1e-8)
    np.testing.assert_allclose(sol2.p, sol.p * s, rtol=1e-6, atol=1e-12)


def test_tiny_budgets_remain_solvable():
    for seed in range(8):
        g, es = _instance(seed, e_hi=1e-3)
        sol = solve_p1(g, es, 0.9)
        assert np.isfinite(sol.objective)
        assert kkt_residual(sol, g, es, 0.9) < 1e-8


def test_lossless_transfers_collapse_to_sum_power_waterfilling():
    g, es = _instance(5, n_bs=3, m_ant=2, n_mt=4)
    sol = solve_p1(g, es, 1.0)
    ref = waterfill_sum_power(g.weights, g.a, g.b.sum(axis=0),
                              float(np.sum(es.budget)))
    np.testing.assert_allclose(sol.p, ref, rtol=1e-7, atol=1e-9)


def test_isolated_zero_budget_station_kills_the_rate():
    # Every beam spends power at both stations, so without transfers an
    # empty station silences the whole cluster.
    g, _ = _instance(6)
    es = EnergyState(re=np.array([12.0, 0.0]))
    sol = solve_p1(g, es, 0.0)
    assert sol.objective == 0.0
    assert np.all(sol.p == 0.0)
    # The empty station's price certifies that no terminal gains from power.
    assert kkt_residual(sol, g, es, 0.0) <= 1e-9


def test_transfers_rescue_the_zero_budget_station():
    g, _ = _instance(6)
    es = EnergyState(re=np.array([12.0, 0.0]))
    sol = solve_p1(g, es, 0.5)
    assert sol.objective > 0.1
    assert sol.e[0, 1] > 0.0


def test_zero_total_budget_gives_zero_objective():
    g, _ = _instance(7)
    sol = solve_p1(g, EnergyState(re=np.zeros(2)), 0.9)
    assert sol.objective == 0.0


def test_objective_monotone_in_transfer_efficiency():
    g, es = _instance(8)
    objs = [solve_p1(g, es, b).objective for b in (0.0, 0.3, 0.6, 0.9, 1.0)]
    assert all(hi >= lo - 1e-9 for lo, hi in zip(objs, objs[1:]))


def test_weights_tilt_the_allocation():
    g, es = _instance(9)
    gw = ZfGains(a=g.a, b=g.b, t_dir=g.t_dir,
                 weights=np.array([10.0, 1.0]))
    base = solve_p1(g, es, 0.5)
    tilted = solve_p1(gw, es, 0.5)
    assert tilted.p[0] > base.p[0]


def test_dual_prices_satisfy_the_transfer_cone():
    g, es = _instance(10, n_bs=3, m_ant=2, n_mt=4)
    mu = solve_p1(g, es, 0.8).mu
    bm = as_beta_matrix(0.8, 3)
    assert np.all(mu >= 0)
    assert np.all(bm * mu[None, :] - mu[:, None] <= 1e-8 * max(mu.max(), 1.0))


def test_recover_transfers_balances_the_books():
    g, es = _instance(11)
    sol = solve_p1(g, es, 0.7)
    bm = as_beta_matrix(0.7, 2)
    e = recover_transfers(sol.p, es.budget, bm, g.b)
    avail = es.budget + (bm * e).sum(axis=0) - e.sum(axis=1)
    assert np.all(g.b @ sol.p <= avail + 1e-7)


def _incidence_cases():
    """Seeded beta matrices, N 1..6 with 0 and 1 entries, and expanded scalars.

    A scalar 0 (and N = 1) has no positive pair, so its D has no row.
    """
    rng = np.random.default_rng([2013, 0x1D])
    for trial in range(300):
        n = 1 + trial % 6
        beta = rng.uniform(size=(n, n))
        u = rng.random((n, n))
        beta[u < 0.2] = 0.0
        beta[u > 0.8] = 1.0
        yield as_beta_matrix(beta, n), rng
    for scalar in (0.0, 0.5, 1.0):
        for n in range(1, 7):
            yield as_beta_matrix(scalar, n), rng


def test_incidence_lists_the_positive_pairs_in_row_major_order():
    for beta, _ in _incidence_cases():
        n = beta.shape[0]
        src, dst, d = _incidence(beta)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j and beta[i, j] > 0]
        assert list(zip(src.tolist(), dst.tolist())) == pairs
        assert d.shape == (len(pairs), n)
        # Row (i, j) is e_i - beta_ij e_j, every other entry +0.0.
        ref = np.zeros((len(pairs), n))
        for row, (i, j) in enumerate(pairs):
            ref[row, i], ref[row, j] = 1.0, -beta[i, j]
        assert np.array_equal(d, ref) and not np.any(np.signbit(d) & (d == 0.0))


def test_incidence_products_are_the_cone_and_the_net_outflow():
    eps = np.finfo(float).eps
    for beta, rng in _incidence_cases():
        n = beta.shape[0]
        src, dst, d = _incidence(beta)
        x = rng.uniform(size=n) * 10.0 ** rng.uniform(-4.0, 4.0, size=n)
        # A BLAS product may fuse the multiply-add, so the two-term
        # difference matches to within one rounding of its terms.
        terms = x[src] + beta[src, dst] * x[dst]
        assert np.all(np.abs(d @ x - (x[src] - beta[src, dst] * x[dst])) <= 2 * eps * terms)
        flows = rng.uniform(size=src.size) * 10.0 ** rng.uniform(-4.0, 4.0, size=src.size)
        e = np.zeros((n, n))
        e[src, dst] = flows
        sent, delivered = e.sum(axis=1), (beta * e).sum(axis=0)
        assert np.all(np.abs(d.T @ flows - (sent - delivered)) <= 1e-15 * (sent + delivered))


def test_reroute_keeps_a_relay_the_direct_link_would_make_dearer():
    # Moving the unit relay 0 -> 1 -> 2 onto the direct link 0 -> 2 would
    # need 0.9 * 0.9 / 0.1 = 8.1 from station 0 to deliver the same 0.81.
    beta = np.array([[0.0, 0.9, 0.1],
                     [0.9, 0.0, 0.9],
                     [0.1, 0.9, 0.0]])
    e = np.zeros((3, 3))
    e[0, 1], e[1, 2] = 1.0, 0.9
    e2 = _cancel_bidirectional(e, beta)

    def net(pattern):
        return (beta * pattern).sum(axis=0) - pattern.sum(axis=1)

    assert np.all(net(e2) >= net(e) - 1e-12)
    assert e2.sum(axis=1)[0] <= 1.0


def _direct_instances(count):
    """Seeded instances over the accepted input space, round robin over cells.

    Cells are N in 2..6 x M in {1, 2} x (scalar beta, beta matrix with
    some 0 and 1 entries); per-station budgets U(0,1) times 10^U(-4,4),
    each zero with probability 0.1.
    """
    rng = np.random.default_rng([2013, 0xD1])
    cells = [(n, m, matrix) for n in range(2, 7) for m in (1, 2) for matrix in (False, True)]
    out = []
    while len(out) < count:
        n, m, matrix = cells[len(out) % len(cells)]
        k = int(rng.integers(n, n * m + 1))
        var = 10.0 ** rng.uniform(-1.0, 0.0, size=(n, k))
        weights = rng.uniform(0.5, 2.0, size=k)
        if matrix:
            beta = rng.uniform(size=(n, n))
            u = rng.random((n, n))
            beta[u < 0.15] = 0.0
            beta[u > 0.85] = 1.0
            np.fill_diagonal(beta, 0.0)
        else:
            beta = (0.0, 0.5, 0.9, 1.0, float(rng.uniform()))[int(rng.integers(5))]
        budget = rng.uniform(size=n) * 10.0 ** rng.uniform(-4.0, 4.0)
        budget[rng.random(n) < 0.1] = 0.0
        ch = generate_rayleigh(n, m, k, var, rng)
        try:
            g = zf_gains(ch, weights)
        except DegeneracyError:
            continue
        out.append((g, EnergyState(re=budget), beta))
    return out


def test_returned_solutions_meet_every_budget():
    """Every returned solution is feasible; a scalar beta is also certified.

    A beta matrix may still fail to solve or to certify (ROADMAP item 2),
    so only its budgets are checked.  A scalar-beta solve must return, with
    a closed duality gap, a small KKT residual and no station that both
    sends and receives energy.
    """
    returned = scalar = 0
    for g, es, beta in _direct_instances(200):
        try:
            sol = solve_p1(g, es, beta)
        except (InfeasibleError, ConvergenceError):
            if np.ndim(beta) == 0:
                raise
            continue
        returned += 1
        bm = as_beta_matrix(beta, es.n_bs)
        slack = es.budget + (bm * sol.e).sum(axis=0) - sol.e.sum(axis=1) - g.b @ sol.p
        assert np.min(slack) >= -1e-6 * np.max(es.budget)
        assert np.all(sol.p >= 0) and np.all(sol.e >= 0)
        if np.ndim(beta) == 0:
            scalar += 1
            assert abs(sol.duality_gap) <= 1e-6 * max(abs(sol.objective), 1.0)
            assert kkt_residual(sol, g, es, beta) <= 1e-5
            sends, receives = sol.e.sum(axis=1) > 0, sol.e.sum(axis=0) > 0
            assert not np.any(sends & receives)
    assert returned >= 180 and scalar == 100


def test_low_snr_solves_meet_every_budget_and_the_kkt_bound():
    # With every gain a scaled by 1e-4 the prices are about 1e-4, so cut
    # widths in budget units would stop the ellipsoid far from the optimum
    # relative to them.  No relative gap is asserted: one solve still
    # returns p = 0 against a dual value of 2.8e-8 (ROADMAP item 10).
    for g, es, beta in _direct_instances(200):
        g = dataclasses.replace(g, a=g.a * 1e-4)
        sol = solve_p1(g, es, beta)
        bm = as_beta_matrix(beta, es.n_bs)
        slack = es.budget + (bm * sol.e).sum(axis=0) - sol.e.sum(axis=1) - g.b @ sol.p
        assert np.min(slack) >= -1e-6 * np.max(es.budget)
        assert kkt_residual(sol, g, es, beta) <= 1e-5


def test_rates_and_objective_are_consistent():
    g, es = _instance(12)
    sol = solve_p1(g, es, 0.4)
    np.testing.assert_allclose(sol.rates,
                               g.weights * np.log2(1.0 + g.a * sol.p),
                               rtol=1e-12)
    assert sol.objective == pytest.approx(float(np.sum(sol.rates)))


_VALID_GAINS = {"a": [1.0, 2.0], "b": [[0.6, 0.3], [0.4, 0.7]], "weights": [1.0, 1.0]}


@pytest.mark.parametrize("change, bandwidth, match", [
    ({"weights": [1.0, np.nan]}, 1.0, "weights"),
    ({"weights": [-1.0, -1.0]}, 1.0, "weights"),
    ({"weights": [1.0]}, 1.0, "weights"),
    ({"a": [0.0, 1.0]}, 1.0, "a > 0"),
    ({"a": [-1.0, 1.0]}, 1.0, "a > 0"),
    ({"a": [np.inf, 1.0]}, 1.0, "finite"),
    ({"b": [[0.6], [0.4]]}, 1.0, "shape"),
    ({"b": [[0.6, np.nan], [0.4, 0.7]]}, 1.0, "finite"),
    ({"b": [[0.6, -0.3], [0.4, 0.7]]}, 1.0, "b >= 0"),
    ({"b": [[0.6, 0.0], [0.4, 0.0]]}, 1.0, "every column"),
    ({}, 0.0, "bandwidth"),
    ({}, -1.0, "bandwidth"),
    ({}, np.inf, "bandwidth"),
    ({}, np.nan, "bandwidth"),
])
def test_inputs_the_solver_cannot_certify_raise_before_any_cut(monkeypatch, change,
                                                                bandwidth, match):
    # Unchecked, each of these fails deep inside the solver (an empty
    # reduction, a log domain error, a divide-by-zero warning, an index
    # error), spends thousands of cuts on a ConvergenceError, or returns
    # a Solution with a negative duality gap.
    monkeypatch.setattr(solver, "_minimize_dual_ellipsoid",
                        lambda prob: pytest.fail("the ellipsoid ran"))
    with pytest.raises(ValueError, match=match):
        gains = ZfGains(t_dir=np.zeros((2, 2)), **{**_VALID_GAINS, **change})
        solve_p1(gains, EnergyState(re=np.ones(2)), 0.5, bandwidth=bandwidth)


# ---------------------------------------------------------------------------
# The dual oracle and its loops against numpy references in one fixed
# arithmetic: every sum accumulates numpy rows one station or terminal at a
# time, left to right, logarithms are ``math.log2``, and no BLAS call is
# made.  The solver runs the same operations on Python floats, so results
# must match bit for bit (==, not approx).

LN2 = math.log(2.0)


def _ref_prices_powers(prob, x):
    s = np.zeros(prob.a.size)
    for g in range(prob.n):
        s = s + prob.bg[g] * x[g]
    s = np.maximum(s, 1e-300)
    return s, np.maximum(prob.w / (LN2 * s) - 1.0 / prob.a, 0.0)


def _ref_value(prob, x):
    s, p = _ref_prices_powers(prob, x)
    val = dot = 0.0
    for k in range(prob.a.size):
        val = val + (prob.w[k] * math.log2(1.0 + prob.a[k] * p[k]) - s[k] * p[k])
    for g in range(prob.n):
        dot = dot + x[g] * prob.eg[g]
    return float(val + dot)


def _ref_subgradient(prob, x):
    p = _ref_prices_powers(prob, x)[1]
    spent = np.zeros(prob.n)
    for k in range(prob.a.size):
        spent = spent + prob.bg[:, k] * p[k]
    return prob.eg - spent


def _ref_violated_cut(prob, x):
    """Most violated bound, else the argmax over all off-diagonal pairs."""
    worst, cut = 0.0, None
    for i in range(prob.n):
        if x[i] < -0.0 and -x[i] > worst:
            worst = -x[i]
            cut = np.zeros(prob.n)
            cut[i] = -1.0
    viol = prob.betag * x[None, :] - x[:, None]
    np.fill_diagonal(viol, -np.inf)
    i, j = np.unravel_index(int(np.argmax(viol)), viol.shape)
    if prob.betag[i, j] > 0 and viol[i, j] > worst and viol[i, j] > 0:
        cut = np.zeros(prob.n)
        cut[i] = -1.0
        cut[j] = prob.betag[i, j]
    return cut


def _dense_cut(prob, cut):
    """The gradient b e_j - e_i of a cut (i, j, b)."""
    if cut is None:
        return None
    i, j, b = cut
    g = np.zeros(prob.n)
    g[j] = b
    g[i] -= 1.0
    return g


def _ref_matvec(a_mat, g):
    """a_mat @ g, accumulated one column at a time."""
    out = np.zeros(g.size)
    for c in range(g.size):
        out = out + a_mat[:, c] * g[c]
    return out


def _box_start(prob):
    """Centre u / 2 of the price box, the diagonal shape n c_g^2 and the
    width scale min(1, max(u))."""
    u = np.array(prob.box())
    c = 0.5 * u
    return c, prob.n * c * c, min(1.0, float(np.max(u)))


def _ref_ellipsoid(prob, tol, max_iter, start, polish=_polish_dual):
    """The cut loop from ``start`` (centre, diagonal shape, width scale s),
    polished at widths s 1e-3 and s 1e-6 and at its exit.

    Every width is in units of s: the exit widths s ``tol`` and s 1e-18
    too.  With ``polish=None`` it is the bare cut loop, which returns the
    raw best point.  Returns the point, the cuts and whether the run
    converged (it left at width s ``tol`` or a polish accepted).
    """
    n = prob.n
    x, diag, s = start
    a_mat = np.diag(diag)
    best_x, best_f = None, np.inf
    converged = False
    milestones = [s * m for m in (1e-3, 1e-6) if m > tol] if polish else []
    for it in range(1, max_iter + 1):
        g = _ref_violated_cut(prob, x)
        objective_cut = g is None
        if objective_cut:
            f = _ref_value(prob, x)
            if f < best_f:
                best_f, best_x = f, x.copy()
            g = _ref_subgradient(prob, x)
        ag = _ref_matvec(a_mat, g)
        gag = float(_ref_matvec(ag[None, :], g)[0])
        if gag <= 0:
            break
        width = math.sqrt(gag)
        if objective_cut and width <= s * tol:
            converged = True
            break
        if width <= s * 1e-18:
            break
        if objective_cut and milestones and width <= milestones[0]:
            while milestones and width <= milestones[0]:
                milestones.pop(0)
            polished = polish(prob, best_x)
            if polished is not None:
                return polished, it, True
        gn = ag / width
        x = x - gn / (n + 1)
        a_mat = (n * n) / (n * n - 1.0) * (a_mat - (2.0 / (n + 1)) * np.outer(gn, gn))
        a_mat = 0.5 * (a_mat + a_mat.T)
    if best_x is None:
        best_x = np.maximum(x, 0.0)
    polished = polish(prob, best_x) if polish else None
    if polished is None:
        return best_x, it, converged
    return polished, it, True


def _ref_bisection(prob, tol):
    """Bisection on the one-price dual's slope; returns its last bracket (lo, hi)."""
    hi = max(float(np.max(prob.w * prob.a / (LN2 * np.maximum(prob.bg[0], 1e-12)))), 1.0)
    lo = min(tol, 1e-12) * 1e-3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _ref_subgradient(prob, np.array([mid]))[0] >= 0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-16 * max(hi, 1.0):
            break
    return lo, hi


# The lossless groups by a plain graph search, and the polish with a
# per-step loop assembly of its KKT system.  The solver sums the polish's
# linear terms in another order, so the polish agrees to rounding, not bit
# for bit.


def _ref_groups(beta: np.ndarray) -> list[list[int]]:
    """Strongly connected components of the beta = 1 graph.

    A chain of loss-free links from i to j forces mu_i >= mu_j in the dual
    cone, so stations that reach each other both ways share one price.
    """
    n = beta.shape[0]
    reach = []
    for i in range(n):
        seen, stack = {i}, [i]
        while stack:
            u = stack.pop()
            for v in range(n):
                if v != u and v not in seen and beta[u, v] >= 1.0:
                    seen.add(v)
                    stack.append(v)
        reach.append(seen)
    groups = {tuple(j for j in sorted(reach[i]) if i in reach[j]) for i in range(n)}
    return [list(g) for g in sorted(groups)]


def _ref_polish(prob: _DualProblem, x0: np.ndarray) -> np.ndarray | None:
    """Newton refinement of the reduced KKT system at the ellipsoid point.

    The active structure at x0 fixes a square smooth system: water-filling
    stationarity for transmitting terminals, budget balance for positive
    prices, and equality on the active cone edges (whose multipliers are
    the group-level transfer flows).  Returns the refined price vector, or
    None when the active-set guess does not validate.
    """
    n = prob.n
    scale = max(float(np.max(x0)), 1e-12)
    p0 = np.array(prob.oracle(x0)[0])
    active_p = set(np.where(p0 > 1e-8 * max(float(np.max(p0, initial=0.0)), 1.0))[0])
    free = set(np.where(x0 > 1e-7 * scale)[0])
    # Over-include nearly-active edges: spurious ones are pruned when their
    # flow comes out negative, while a missing edge leaves the balance
    # equations inconsistent and stalls the Newton iteration.
    edges = [(g, h) for (g, h, _) in prob.edges
             if prob.betag[g, h] * x0[h] - x0[g] > -1e-3 * scale]

    for _ in range(6):          # active-set adjustment rounds
        ks = sorted(active_p)
        gs = sorted(free)
        if not ks or not gs:
            return None
        nv = len(gs) + len(ks) + len(edges)
        xi = {g: i for i, g in enumerate(gs)}
        pi = {k: len(gs) + i for i, k in enumerate(ks)}
        ei = {gh: len(gs) + len(ks) + i for i, gh in enumerate(edges)}

        x = x0.copy()
        x[[g for g in range(n) if g not in free]] = 0.0
        p = p0.copy()
        e = np.zeros(len(edges))

        def unpack(v):
            xx = np.zeros(n)
            for g in gs:
                xx[g] = v[xi[g]]
            pp = np.zeros(prob.a.size)
            for k in ks:
                pp[k] = v[pi[k]]
            return xx, pp, v[len(gs) + len(ks):]

        v = np.concatenate([[x[g] for g in gs], [p[k] for k in ks], e])
        ok = False
        for _ in range(60):
            xx, pp, ee = unpack(v)
            f = np.zeros(nv)
            jac = np.zeros((nv, nv))
            row = 0
            for k in ks:        # stationarity in p
                s_k = float(prob.bg[:, k] @ xx)
                denom = 1.0 + prob.a[k] * pp[k]
                f[row] = prob.w[k] * prob.a[k] / (LN2 * denom) - s_k
                jac[row, pi[k]] = -prob.w[k] * prob.a[k] ** 2 / (LN2 * denom ** 2)
                for g in gs:
                    jac[row, xi[g]] = -prob.bg[g, k]
                row += 1
            for g in gs:        # budget balance (complementary slackness)
                f[row] = float(prob.bg[g] @ pp) - prob.eg[g]
                for k in ks:
                    jac[row, pi[k]] = prob.bg[g, k]
                for idx, (gi, gj) in enumerate(edges):
                    col = ei[(gi, gj)]
                    if gj == g:
                        f[row] -= prob.betag[gi, gj] * ee[idx]
                        jac[row, col] = -prob.betag[gi, gj]
                    if gi == g:
                        f[row] += ee[idx]
                        jac[row, col] = 1.0
                row += 1
            for (gi, gj) in edges:   # active cone edges
                f[row] = prob.betag[gi, gj] * xx[gj] - xx[gi]
                if gj in xi:
                    jac[row, xi[gj]] = prob.betag[gi, gj]
                if gi in xi:
                    jac[row, xi[gi]] = -1.0
                row += 1
            # The residual lives in price units while the powers respond with
            # a factor ~1/s^2, so take one more step after the residual test
            # before accepting: quadratic convergence squares the power error.
            if ok:
                break
            if float(np.max(np.abs(f))) < 1e-12 * max(scale, 1.0):
                ok = True
            # Equilibrate: stationarity rows are O(a^2) while budget rows are
            # O(1), and the raw system's conditioning caps lstsq accuracy.
            row_s = np.max(np.abs(jac), axis=1)
            row_s[row_s == 0.0] = 1.0
            jac_r = jac / row_s[:, None]
            col_s = np.max(np.abs(jac_r), axis=0)
            col_s[col_s == 0.0] = 1.0
            try:
                step = np.linalg.lstsq(jac_r / col_s[None, :], -f / row_s,
                                       rcond=None)[0] / col_s
            except np.linalg.LinAlgError:
                return None
            if not np.all(np.isfinite(step)):
                return None
            v = v + step
        if not ok:
            # Newton can stall when a nearly-zero price was misread as a
            # tight budget, making the balance equations inconsistent.
            # Drop the free group with the largest surplus and retry.
            slack = prob.oracle(x0)[2]
            g_drop = max(free, key=lambda g: slack[g])
            if len(free) > 1 and slack[g_drop] > 0:
                free.discard(g_drop)
                continue
            return None
        xx, pp, ee = unpack(v)
        pw = prob.oracle(np.maximum(xx, 0.0))[0]
        # A group held at price 0 has no budget row; counting the flows on
        # the active edges, it must not overspend, or it gets a price.
        overspent = []
        for g in range(n):
            if g in free:
                continue
            left = prob.eg[g] - sum(prob.bg[g, k] * pw[k] for k in range(prob.a.size))
            for idx, (gi, gj) in enumerate(edges):
                if gi == g:
                    left -= ee[idx]
                if gj == g:
                    left += prob.betag[gi, gj] * ee[idx]
            if left < -1e-9 * scale:
                overspent.append(g)
        # Validate the active-set guess; shrink it where signs flipped.
        changed = bool(overspent)
        for idx, (gi, gj) in enumerate(list(edges)):
            if ee[idx] < -1e-9 * max(scale, 1.0):
                edges.remove((gi, gj))
                changed = True
        for k in list(active_p):
            if pp[k] < -1e-10:
                active_p.remove(k)
                changed = True
        # Terminals left out of the active set can come back above the water
        # level at the refined prices; transfer recovery sees their power, so
        # the balance equations must too.
        for k in range(prob.a.size):
            if k not in active_p and pw[k] > 0.0:
                active_p.add(k)
                changed = True
        for g in list(free):
            if xx[g] < -1e-10 * scale:
                free.remove(g)
                changed = True
        free.update(overspent)
        if changed:
            continue
        xx = np.maximum(xx, 0.0)
        cone = prob.betag * xx[None, :] - xx[:, None]
        np.fill_diagonal(cone, -np.inf)
        if float(np.max(cone)) > 1e-9 * max(scale, 1.0):
            return None
        if prob.oracle(xx)[1] > prob.oracle(x0)[1] + 1e-9 * max(scale, 1.0):
            return None
        return xx
    return None


def _dual_problems(count):
    """Seeded reduced duals: N in 2..6, K in [N, 2N], scalar and matrix beta.

    Matrix betas hold 0 and 1 entries, and every third one a mutual 1 pair,
    so that some stations merge into one dual variable.
    """
    for seed in range(count):
        rng = np.random.default_rng([seed, 55])
        n = 2 + seed % 5
        k = int(rng.integers(n, 2 * n + 1))
        g, es = _instance(100 + seed, n_bs=n, m_ant=2, n_mt=k)
        if seed % 2:
            beta = (0.0, 0.5, 0.9, float(rng.uniform()))[seed // 2 % 4]
        else:
            beta = rng.uniform(size=(n, n))
            u = rng.random((n, n))
            beta[u < 0.2] = 0.0
            beta[u > 0.8] = 1.0
            if seed % 3 == 0:
                beta[0, 1] = beta[1, 0] = 1.0
        yield _DualProblem(g.a, g.b, g.weights, es.budget, TransferNetwork(beta, n))


def _probe_points(prob, rng):
    """Prices inside and outside the cone: negatives, ties, +-0.0, 0/1 entries."""
    n = prob.n
    pts = [rng.uniform(0.0, 2.0, n), rng.normal(size=n), np.full(n, 0.7),
           -np.full(n, 0.3), rng.integers(0, 2, n).astype(float),
           np.where(rng.random(n) < 0.5, -0.0, 0.0), np.ones(n)]
    tied = rng.uniform(0.1, 1.0, n)
    tied[n // 2:] = tied[0]
    pts.append(tied)
    # Points on cone edges: x_i = betag_ij * x_j exactly.
    for i, j, b in prob.edges[:3]:
        x = rng.uniform(0.1, 1.0, n)
        x[i] = b * x[j]
        pts.append(x)
    return pts


def test_dual_oracle_matches_the_numpy_reference_bit_for_bit():
    rng = np.random.default_rng(2026)
    merged = 0
    for prob in _dual_problems(40):
        merged += prob.n < sum(len(grp) for grp in prob.groups)
        for x in _probe_points(prob, rng):
            p, val, sub = prob.oracle(x)
            assert np.array_equal(p, _ref_prices_powers(prob, x)[1])
            assert val == _ref_value(prob, x)
            assert np.array_equal(sub, _ref_subgradient(prob, x))
            cut, ref = _dense_cut(prob, prob.violated_cut(x)), _ref_violated_cut(prob, x)
            assert (cut is None) == (ref is None)
            if ref is not None:
                assert np.array_equal(cut, ref)
    assert merged > 0


def _blas_oracle(prob, x):
    """Dual value and spent power by the former formula: BLAS products, np.log2."""
    s = np.maximum(prob.bg.T @ x, 1e-300)
    p = np.maximum(prob.w / (LN2 * s) - 1.0 / prob.a, 0.0)
    val = np.sum(prob.w * np.log2(1.0 + prob.a * p) - s * p)
    return float(val + x @ prob.eg), prob.bg @ p


def test_float_oracle_stays_within_rounding_of_the_blas_formula():
    # The fixed left-to-right order moves the oracle by rounding only.
    rng = np.random.default_rng(2026)
    for prob in _dual_problems(40):
        for x in _probe_points(prob, rng):
            val_ref, spent = _blas_oracle(prob, x)
            _, val, sub = prob.oracle(x)
            assert abs(val - val_ref) <= 1e-12 * abs(val_ref)
            bound = 1e-12 * np.maximum(np.abs(prob.eg), np.abs(spent))
            assert np.all(np.abs(np.array(sub) - (prob.eg - spent)) <= bound)


def test_violated_cut_keeps_the_argmax_rule_on_ties_and_zero_pairs():
    # Few distinct values make ties between bounds and edges common.
    rng = np.random.default_rng(7)
    beta = np.array([[0.0, 0.0, 0.5, 1.0],
                     [0.0, 0.0, 0.5, 0.0],
                     [0.5, 0.5, 0.0, 0.0],
                     [0.5, 0.0, 0.0, 0.0]])
    g, es = _instance(300, n_bs=4, m_ant=2, n_mt=5)
    prob = _DualProblem(g.a, g.b, g.weights, es.budget, TransferNetwork(beta, 4))
    assert prob.n == 4
    for _ in range(3000):
        x = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0], size=4)
        cut, ref = _dense_cut(prob, prob.violated_cut(x)), _ref_violated_cut(prob, x)
        assert (cut is None) == (ref is None)
        if ref is not None:
            assert np.array_equal(cut, ref)


def test_ellipsoid_matches_the_numpy_reference_bit_for_bit():
    # The low-SNR duals reject more polishes, so some of them also run the
    # cut loop to its end.
    early = late = 0
    for prob in [*_dual_problems(40), *_low_snr_problems(40)]:
        if prob.n < 2:
            continue
        max_iter = 5000 * prob.n * prob.n
        start = _box_start(prob)
        x, cuts, converged = _minimize_dual_ellipsoid(prob)
        ref = _ref_ellipsoid(prob, 1e-9, max_iter, start)
        assert np.array_equal(x, ref[0]) and (cuts, converged) == ref[1:]
        raw, raw_cuts, raw_converged = _ref_ellipsoid(prob, 1e-9, max_iter, start,
                                                      polish=None)
        polished = _polish_dual(prob, raw)
        if cuts < raw_cuts:
            # An early accept is the point the polish reaches from the
            # fully converged one.
            early += 1
            assert polished is not None
            assert np.max(np.abs(x - polished)) <= 1e-12 * np.max(np.abs(polished))
        else:
            # Otherwise the result is the full loop's point, polished once
            # where the polish accepts it.
            late += 1
            assert np.array_equal(x, raw if polished is None else polished)
            assert (cuts, converged) == (raw_cuts, raw_converged)
    assert early >= 30 and late >= 5


def test_a_degenerate_exit_is_converged_only_when_the_polish_accepts(monkeypatch):
    # A zero box gives a zero shape matrix, so the run leaves at its first
    # cut through the gag <= 0 exit; a rejecting polish must not read as
    # converged.
    monkeypatch.setattr(_DualProblem, "box", lambda self: [0.0] * self.n)
    monkeypatch.setattr(solver, "_polish_dual", lambda prob, x0: None)
    g, es = _instance(3, n_bs=3, m_ant=2, n_mt=4)
    prob = _DualProblem(g.a, g.b, g.weights, es.budget, TransferNetwork(0.5, 3))
    x, cuts, converged = _minimize_dual_ellipsoid(prob)
    assert (cuts, converged) == (1, False)
    ref = _ref_ellipsoid(prob, 1e-9, 5000 * 9, _box_start(prob), polish=lambda p, x0: None)
    assert ref[1:] == (1, False)
    np.testing.assert_array_equal(x, np.zeros(3))
    with pytest.raises(ConvergenceError):
        solve_p1(g, es, 0.5)


def test_an_unpriced_terminal_is_a_typed_failure(monkeypatch):
    # Zero prices send every kept terminal's water level past any budget;
    # the recovery must reject those powers without a floating-point warning.
    monkeypatch.setattr(solver, "_solve_dual", lambda prob, start: (np.zeros(prob.n), 0))
    g, es = _instance(3, n_bs=3, m_ant=2, n_mt=4)
    beta = np.array([[0.0, 0.5, 0.9], [0.5, 0.0, 1.0], [0.2, 0.5, 0.0]])
    for b in (0.0, 0.8, beta):
        with pytest.raises(InfeasibleError):
            solve_p1(g, es, b)


def test_one_price_dual_lies_in_the_bisection_bracket():
    for n in range(1, 7):
        g, es = _instance(200 + n, n_bs=n, m_ant=2, n_mt=n + 1)
        for scale in (1e-4, 1.0, 1e4):
            prob = _DualProblem(g.a, g.b, g.weights, es.budget * scale,
                                TransferNetwork(1.0, n))
            assert prob.n == 1
            price = _minimize_dual_1d(prob)
            lo, hi = _ref_bisection(prob, 1e-9)
            # The bracket holds the exact minimizer; the closed form rounds
            # within two units in the last place of it.
            assert lo - 2 * np.spacing(hi) <= price <= hi + 2 * np.spacing(hi)
            spent = prob.bg[0] @ np.array(prob.oracle(np.array([price]))[0])
            assert spent == pytest.approx(prob.eg[0], rel=1e-12)


def _low_snr_instances(count):
    """Instances at budgets of 1e-5 to 1e-3 as (gains, energy state, beta).

    Few terminals transmit there, so the polish often misreads a zero
    price as a tight budget and drops that price to retry.
    """
    for seed in range(count):
        rng = np.random.default_rng([seed, 66])
        n = 2 + seed % 4
        g, _ = _instance(500 + seed, n_bs=n, m_ant=1, n_mt=n)
        budget = rng.uniform(size=n) * 10.0 ** rng.uniform(-5.0, -3.0)
        yield g, EnergyState(re=budget), (0.0, 0.5)[seed % 2]


def _low_snr_problems(count):
    """The reduced duals ``solve_p1`` builds for ``_low_snr_instances``."""
    for g, es, beta in _low_snr_instances(count):
        scale = es.budget.max()
        yield _DualProblem(g.a * scale, g.b, g.weights, es.budget / scale,
                           TransferNetwork(beta, es.n_bs))


def _recorded_runs(monkeypatch):
    """Wrap ``_minimize_dual_ellipsoid``; each call appends (prob, result,
    whether a polish accepted)."""
    runs, polished = [], []

    def polish(prob, x0):
        polished.append(_polish_dual(prob, x0))
        return polished[-1]

    def recorded(prob, start=None):
        del polished[:]
        out = _minimize_dual_ellipsoid(prob, start)
        runs.append((prob, out, bool(polished) and polished[-1] is out[0]))
        return out

    monkeypatch.setattr(solver, "_polish_dual", polish)
    monkeypatch.setattr(solver, "_minimize_dual_ellipsoid", recorded)
    return runs


def test_accepted_dual_points_lie_in_the_box_and_the_start_ellipsoid(monkeypatch):
    # Zero budgets, beta matrices and N up to 6; each accepted point is
    # checked against both bounds.
    runs = _recorded_runs(monkeypatch)
    cells = set()
    for g, es, beta in _direct_instances(200):
        before = len(runs)
        try:
            solve_p1(g, es, beta)
        except (InfeasibleError, ConvergenceError):
            pass
        if len(runs) > before:
            cells.add((es.n_bs, np.ndim(beta), bool(np.any(es.budget == 0.0))))
    accepted = 0
    for prob, (x, _, _), polished in runs:
        if not polished:
            continue
        accepted += 1
        u = np.array(prob.box())
        c, diag, _ = _box_start(prob)
        assert np.all(x >= 0.0) and np.all(x <= u * (1 + 1e-9))
        assert np.sum((x - c) ** 2 / diag) <= 1.0 + 1e-9
    assert accepted >= 150
    assert {n for n, _, _ in cells} == {2, 3, 4, 5, 6}
    assert {(m, zero) for _, m, zero in cells} == {(0, False), (0, True), (2, False), (2, True)}


def test_a_polish_prices_a_zero_price_group_that_overspends():
    # The start of ROADMAP item 7: the prices of a cluster whose station 1
    # has budget to spare (price 0), polished after that budget fell to
    # 0.05.  Without a budget row for station 1 the polish accepted its
    # old prices, at which station 1 overspends.
    accepted = 0
    for seed in range(30):
        g, _ = _instance(700 + seed)
        net = TransferNetwork(0.0, 2)
        rich = _DualProblem(g.a, g.b, g.weights, np.array([1.0, 1e3]), net)
        x0 = _minimize_dual_ellipsoid(rich)[0]
        assert x0[1] == 0.0
        poor = _DualProblem(g.a, g.b, g.weights, np.array([1.0, 0.05]), net)
        x = _polish_dual(poor, x0)
        if x is None:
            continue
        accepted += 1
        assert min(poor.oracle(x)[2]) >= -1e-9
        x_opt = _minimize_dual_ellipsoid(poor)[0]
        assert np.max(np.abs(x - x_opt)) <= 1e-9 * np.max(x_opt)
    assert accepted >= 10


def test_polish_matches_the_loop_reference():
    # Looser ellipsoid points make the polish prune its active-set guess
    # and reject more often.  Some of them bring back an earlier active
    # set, which the solver rejects at once and the reference only after
    # its last round.
    starts = []
    for prob in _dual_problems(40):
        if prob.n > 1:
            max_iter = 5000 * prob.n * prob.n
            starts += [(prob, _ref_ellipsoid(prob, tol, max_iter, _box_start(prob),
                                             polish=None)[0])
                       for tol in (1e-9, 1e-4, 1e-2)]
            # Scaling a dual optimum keeps it in the cone but moves the water
            # level: at half the prices extra terminals look active and must
            # be pruned, at twice the prices some drop out and must rise back.
            x_opt = _minimize_dual_ellipsoid(prob)[0]
            starts += [(prob, 0.5 * x_opt), (prob, 2.0 * x_opt)]
    starts += [(prob, _ref_ellipsoid(prob, tol, 5000 * prob.n * prob.n, _box_start(prob),
                                     polish=None)[0])
               for prob in _low_snr_problems(40) if prob.n > 1 for tol in (1e-9, 1e-4)]
    polished = rejected = 0
    for prob, x0 in starts:
        got, ref = _polish_dual(prob, x0), _ref_polish(prob, x0)
        assert (got is None) == (ref is None)
        if ref is None:
            rejected += 1
            continue
        polished += 1
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))
    assert polished >= 150 and rejected >= 30


def _counting(monkeypatch, owner, name):
    """Patch ``owner.name`` with a wrapper that counts its calls; returns the count."""
    calls, real = [0], getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("x0, accepts", [([0.5, 5.0], True), ([1.0, 30.0], False)])
def test_a_round_whose_budget_rows_have_no_solution_stops_at_once(monkeypatch, x0, accepts):
    # Station 1 serves only terminal 1, which is off at x0 (its cutoff
    # w a / ln2 is 4.3), so the first round's budget row for station 1
    # reads 0 = 0.5.  The polish must leave that round after its first
    # Newton step and end exactly as the reference does, which spends 60
    # steps on it.  A round that ran all 20 steps would make about a third
    # of the reference's calls, hence the bound of a quarter.
    # From [0.5, 5] it drops station 1, then prices it again and accepts;
    # from [1, 30] it drops station 0, whose round stalls too.
    prob = _DualProblem(np.array([1.0, 2.0]), np.eye(2), np.array([1.0, 1.5]),
                        np.array([1.0, 0.5]), TransferNetwork(0.0, 2))
    x0 = np.array(x0)
    calls = _counting(monkeypatch, np.linalg, "lstsq")
    got = _polish_dual(prob, x0)
    polish_calls, calls[0] = calls[0], 0
    ref = _ref_polish(prob, x0)
    assert (got is None) == (ref is None) == (not accepts)
    assert got is None or np.array_equal(got, ref)
    assert polish_calls < calls[0] / 4


def test_a_warm_solve_from_its_own_optimum_costs_its_newton_steps(monkeypatch):
    # A sweep2-sized draw (2 stations, 1 antenna, 2 terminals) at beta 0.5,
    # restarted from its own prices: no cut, two Newton steps (one lstsq
    # each) and two oracle calls, at the start prices and at the result.
    g, es = _instance(0)
    start = solve_p1(g, es, 0.5).mu
    lstsq = _counting(monkeypatch, np.linalg, "lstsq")
    oracle = _counting(monkeypatch, _DualProblem, "oracle")
    warm = solve_p1(g, es, 0.5, start=start)
    assert warm.iterations == 0
    assert (lstsq[0], oracle[0]) == (2, 2)


@pytest.mark.parametrize("power_step, rejects_at", [(-1.0, "1 + a p == 0"), (np.nan, "nan")])
def test_a_step_numpy_would_carry_as_inf_or_nan_rejects_without_raising(
        monkeypatch, power_step, rejects_at):
    # w = ln2 and unit prices put both powers at exactly 1 - 1/a = 0.5, and
    # each power's column scale is exactly 1 (its budget row holds one 1).
    # A step of -1 on power 0 then lands it on -1/a, so the next residual
    # divides by 1 + a p = 0, where numpy gave inf and Python raises; a NaN
    # step fails the finite check.  Both reject after one lstsq call.
    prob = _DualProblem(np.array([2.0, 2.0]), np.eye(2), np.full(2, math.log(2.0)),
                        np.ones(2), TransferNetwork(0.0, 2))
    assert prob.oracle([1.0, 1.0])[0] == [0.5, 0.5]
    calls = [0]

    def stub(a_mat, rhs, rcond=None):
        calls[0] += 1
        return np.array([0.0, 0.0, power_step, 0.0]), np.zeros(0), len(rhs), np.ones(len(rhs))

    monkeypatch.setattr(np.linalg, "lstsq", stub)
    assert _polish_dual(prob, np.array([1.0, 1.0])) is None, rejects_at
    assert calls[0] == 1


def test_a_step_whose_s_overflows_rejects_before_lstsq(monkeypatch):
    # Near 1 + a p = 0 the stationarity diagonal S = -w a^2 / (ln2 (1 + a p)^2)
    # can overflow.  In floats 1 + a p is 0 or at least 2^-53, so a large
    # w a^2 makes it here: w = ln2 2^1000, a = 2 and prices 2^1000 put both
    # powers at exactly 0.5, with S = -2^1000 and budgets of 2^1000 that the
    # first step does not meet.  That (stubbed) step moves power 0 to
    # -1/2 + 2^-53, where 1 + a p = 2^-52 and S is -inf: the polish must
    # reject with no lstsq call at that step, where an inf row scale would
    # give lstsq a NaN matrix.
    w, x = math.log(2.0) * 2.0 ** 1000, 2.0 ** 1000
    prob = _DualProblem(np.array([2.0, 2.0]), np.eye(2), np.full(2, w), np.full(2, x),
                        TransferNetwork(0.0, 2))
    assert prob.oracle([x, x])[0] == [0.5, 0.5]
    calls = [0]

    def stub(a_mat, rhs, rcond=None):
        calls[0] += 1
        assert np.all(np.isfinite(a_mat))
        return np.array([0.0, 0.0, 2.0 ** -53 - 1.0, 0.0]), np.zeros(0), len(rhs), np.ones(len(rhs))

    monkeypatch.setattr(np.linalg, "lstsq", stub)
    assert _polish_dual(prob, np.array([x, x])) is None
    assert calls[0] == 1


def _random_betas():
    """3000 seeded efficiency matrices, N in 1..7, with many loss-free links."""
    rng = np.random.default_rng(404)
    for trial in range(3000):
        n = 1 + trial % 7
        beta = rng.uniform(size=(n, n))
        u = rng.random((n, n))
        ones = rng.uniform(0.3, 0.9)
        beta[u < 0.1] = 0.0
        beta[u > 1.0 - ones] = 1.0
        yield beta


def _structure(beta):
    """The reduced dual of ``beta`` with one terminal that every station powers."""
    n = beta.shape[0]
    return _DualProblem(np.ones(1), np.ones((n, 1)), np.ones(1), np.ones(n),
                        TransferNetwork(beta, n))


def test_lossless_groups_match_the_reachability_reference():
    for beta in _random_betas():
        assert _structure(beta).groups == _ref_groups(beta)


def test_a_directed_lossless_cycle_is_one_group():
    # 0 -> 1 -> 2 -> 0 at beta = 1 forces mu_0 >= mu_1 >= mu_2 >= mu_0;
    # no link back into the cycle leaves station 3, so it keeps its own price.
    beta = np.array([[0.0, 1.0, 0.5, 0.0],
                     [0.2, 0.0, 1.0, 0.0],
                     [1.0, 0.0, 0.0, 1.0],
                     [0.0, 0.7, 0.0, 0.0]])
    g, es = _instance(17, n_bs=4, m_ant=2, n_mt=5)
    prob = _DualProblem(g.a, g.b, g.weights, es.budget, TransferNetwork(beta, 4))
    assert prob.groups == [[0, 1, 2], [3]]
    np.testing.assert_array_equal(prob.label, [0, 0, 0, 1])
    np.testing.assert_array_equal(prob.betag, [[0.0, 1.0], [0.7, 0.0]])
    np.testing.assert_array_equal(prob.paths, [[0.0, 1.0], [0.7, 0.0]])


def test_group_paths_are_the_best_paths_between_groups():
    # Without merges the group level is the station level, bit for bit.
    # A merged group's best path may take its loss-free hops in another
    # order than the closure of betag does, which rounds within 1 ulp.
    merged = apart = 0
    for prob in [*_dual_problems(40), *map(_structure, _random_betas())]:
        ref = _best_paths(prob.betag)
        if prob.n == prob.label.size:
            apart += 1
            assert np.array_equal(prob.paths, ref)
        else:
            merged += 1
            assert np.all(np.abs(prob.paths - ref) <= np.spacing(np.maximum(prob.paths, ref)))
            assert np.array_equal(prob.paths > 0, ref > 0)
    assert merged >= 500 and apart >= 500


# ---------------------------------------------------------------------------
# The closed-form dual of per-station precoding under one scalar beta.


def _per_bs_instances(count):
    """Seeded per-station ZF instances as ``solve_energy_only`` solves them.

    N in 2..6 and M in {1, 2}, terminals dealt to random stations, so some
    stations serve none; beta from {0, 0.3, 0.5, 0.9, 0.99, U(0,1)};
    per-station budgets U(0,1) times 10^U(-4,4), each zero with
    probability 0.15.
    """
    rng = np.random.default_rng([2013, 0xB5])
    out = []
    while len(out) < count:
        n, m = 2 + len(out) % 5, 1 + len(out) // 5 % 2
        k = int(rng.integers(1, n * m + 1))
        slots = rng.permutation(np.repeat(np.arange(n), m))[:k]
        assoc = [np.flatnonzero(slots == i).tolist() for i in range(n)]
        ch = generate_rayleigh(n, m, k, 10.0 ** rng.uniform(-1.0, 0.0, size=(n, k)), rng)
        g = per_bs_zf_gains(ch, assoc, rng.uniform(0.5, 2.0, size=k))
        beta = (0.0, 0.3, 0.5, 0.9, 0.99, float(rng.uniform()))[int(rng.integers(6))]
        budget = rng.uniform(size=n) * 10.0 ** rng.uniform(-4.0, 4.0)
        budget[rng.random(n) < 0.15] = 0.0
        out.append((g, EnergyState(re=budget), beta))
    return out


def test_separable_dual_certifies_per_station_precoding(monkeypatch):
    compared = 0
    for g, es, beta in _per_bs_instances(300):
        bw = 1.0 / es.n_bs
        sol = solve_p1(g, es, beta, bandwidth=bw)
        assert sol.iterations == 0
        assert kkt_residual(sol, g, es, beta, bandwidth=bw) <= 1e-9
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_minimize_dual_separable", lambda prob: None)
            try:
                ref = solve_p1(g, es, beta, bandwidth=bw)
            except (InfeasibleError, ConvergenceError):
                continue
        if kkt_residual(ref, g, es, beta, bandwidth=bw) <= 1e-9:
            compared += 1
            assert sol.objective == pytest.approx(ref.objective, rel=1e-9)
    assert compared >= 250


def test_every_exact_per_station_optimum_lies_in_the_box(monkeypatch):
    # A station can export its whole budget; its price then follows the
    # price it exports to, above anything its own terminals would pay.
    # The box caps a group by its terminals only where every terminal
    # spends, so it still holds the exact optimum.
    found = []
    separable = solver._minimize_dual_separable

    def recorded(prob):
        x = separable(prob)
        if x is not None:
            found.append((prob, x))
        return x

    monkeypatch.setattr(solver, "_minimize_dual_separable", recorded)
    for g, es, beta in _per_bs_instances(300):
        solve_p1(g, es, beta, bandwidth=1.0 / es.n_bs)
    for prob, x in found:
        assert np.all(x >= 0.0) and np.all(x <= np.array(prob.box()) * (1 + 1e-9))
    assert len(found) >= 290


def test_separable_dual_solves_a_low_budget_instance_the_ellipsoid_missed():
    # One terminal at station 0, and station 1 idle with a budget that half
    # reaches station 0.  The ellipsoid path returned p = 0 here, with a KKT
    # residual of 0.053; the optimum spends E_0 + E_1 / 2.
    g = ZfGains(a=np.array([0.0571]), b=np.array([[1.0], [0.0]]),
                t_dir=np.zeros((1, 2)), weights=np.array([1.7257]))
    es = EnergyState(re=np.array([3.89e-5, 7.05e-6]))
    sol = solve_p1(g, es, 0.5, bandwidth=0.5)
    assert sol.p[0] == pytest.approx(3.89e-5 + 0.5 * 7.05e-6, rel=1e-12)
    assert kkt_residual(sol, g, es, 0.5, bandwidth=0.5) <= 1e-12


def test_cluster_zf_and_beta_matrices_still_take_the_ellipsoid(monkeypatch):
    calls = []
    ellipsoid = solver._minimize_dual_ellipsoid

    def counted(prob, start=None):
        calls.append(prob.n)
        return ellipsoid(prob, start)

    monkeypatch.setattr(solver, "_minimize_dual_ellipsoid", counted)
    g, es = _instance(3, n_bs=3, m_ant=2, n_mt=4)
    solve_p1(g, es, 0.5)
    assert calls == [3]
    ch = generate_rayleigh(3, 1, 3, np.ones((3, 3)), 21)
    g = per_bs_zf_gains(ch, [[0], [1], [2]])
    beta = np.array([[0.0, 0.5, 0.9], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    solve_p1(g, EnergyState(re=np.array([1.0, 2.0, 3.0])), beta, bandwidth=1.0 / 3)
    assert calls == [3, 3]


# ---------------------------------------------------------------------------
# A start: the prices of an earlier solution, polished before the first cut


def test_an_accepted_start_matches_the_cold_solve():
    # The start is the optimum after station 0's budget rose by 30%, as
    # along a sweep that rescales the budgets of one channel draw.
    accepted = 0
    for seed in range(40):
        n = 2 + seed % 3
        g, es = _instance(900 + seed, n_bs=n, m_ant=2, n_mt=n + 1)
        beta = (0.5, 0.9)[seed % 2]
        budget = es.budget.copy()
        budget[0] *= 1.3
        start = solve_p1(g, EnergyState(re=budget), beta).mu
        cold, warm = solve_p1(g, es, beta), solve_p1(g, es, beta, start=start)
        assert cold.iterations > 0
        if warm.iterations:
            continue
        accepted += 1
        assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
        assert kkt_residual(warm, g, es, beta) <= 1e-9
    assert accepted >= 30


def test_a_rejected_start_gives_the_cold_solution_bit_for_bit():
    # Another draw's prices: the polish rejects them and the box run that
    # follows is the cold one.
    for seed in range(5):
        g, es = _instance(900 + seed, n_bs=3, m_ant=2, n_mt=4)
        g_other, es_other = _instance(1900 + seed, n_bs=3, m_ant=2, n_mt=4)
        start = solve_p1(g_other, es_other, 0.5).mu
        cold, warm = solve_p1(g, es, 0.5), solve_p1(g, es, 0.5, start=start)
        assert warm.iterations == cold.iterations > 0
        for f in dataclasses.fields(cold):
            np.testing.assert_array_equal(getattr(warm, f.name), getattr(cold, f.name))


@pytest.mark.parametrize("start", [
    np.ones(3), np.ones((2, 1)), [], [1.0, -1e-300], [np.nan, 1.0], [1.0, np.inf],
])
def test_a_start_that_is_not_n_prices_raises_before_any_cut(monkeypatch, start):
    monkeypatch.setattr(solver, "_minimize_dual_ellipsoid",
                        lambda prob, start=None: pytest.fail("the ellipsoid ran"))
    g, es = _instance(3)
    with pytest.raises(ValueError, match="start"):
        solve_p1(g, es, 0.5, start=start)


def test_the_station_incidence_is_the_group_one_unless_stations_merge():
    shared = merged = separable = 0
    scalars = [as_beta_matrix(s, n) for s in (0.0, 0.5, 1.0) for n in (1, 2, 4)]
    for beta in [*_random_betas(), *scalars]:
        n = beta.shape[0]
        net = TransferNetwork(beta, n)
        ref = _incidence(as_beta_matrix(beta, n))
        for got, want in zip((net.src, net.dst, net.d), ref):
            np.testing.assert_array_equal(got, want)
        shared += net.d is net.cone
        merged += len(net.groups) < n
        assert (net.d is net.cone) == (len(net.groups) == n)
        np.testing.assert_array_equal(net.phase1, np.hstack([net.d.T, np.eye(n)]))
        # beta1: the one cross-group efficiency, zero pairs included, when below 1.
        off = net.betag[~np.eye(len(net.groups), dtype=bool)]
        one = off.size > 0 and np.all(off == off[0]) and off[0] < 1.0
        assert net.beta1 == (float(off[0]) if one else None)
        separable += net.beta1 is not None
    assert shared >= 500 and merged >= 500 and separable >= 4


# ---------------------------------------------------------------------------
# Transfers: an accepted polish's flows, the LP as the fallback


def test_an_accepted_polish_s_flows_are_the_transfers(monkeypatch):
    """Without merged stations an accepted polish's flows give e; the
    closed-form duals (one price, per-station precoding) still take the LP.
    Every returned e is nonnegative, meets every budget, passes the KKT
    bound and sends nothing both ways between two stations."""
    events = []

    def record(name, event):
        real = getattr(solver, name)

        def wrapped(*args, **kwargs):
            out = real(*args, **kwargs)
            if out is not None:
                events.append(event)
            return out

        monkeypatch.setattr(solver, name, wrapped)

    record("_minimize_dual_1d", "one price")
    record("_minimize_dual_separable", "separable")
    record("recover_transfers", "lp")
    record("_polished_transfers", "flows")
    cases = ([(g, es, beta, 1.0) for g, es, beta in _direct_instances(200)]
             + [(g, es, beta, 1.0 / es.n_bs) for g, es, beta in _per_bs_instances(60)])
    counts = {}
    for g, es, beta, bw in cases:
        events.clear()
        sol = solve_p1(g, es, beta, bandwidth=bw)
        if events[:1] in (["one price"], ["separable"]):
            assert events[1:] == ["lp"]
        assert events.count("flows") + events.count("lp") <= 1
        key = (events[0] if events else "none", "matrix" if np.ndim(beta) else "scalar")
        counts[key] = counts.get(key, 0) + 1
        bm = as_beta_matrix(beta, es.n_bs)
        slack = es.budget + (bm * sol.e).sum(axis=0) - sol.e.sum(axis=1) - g.b @ sol.p
        assert np.all(sol.e >= 0) and np.min(slack) >= -1e-6 * np.max(es.budget)
        assert kkt_residual(sol, g, es, beta, bandwidth=bw) <= 1e-5
        assert not np.any((sol.e > 0) & (sol.e.T > 0))
    assert counts[("flows", "scalar")] >= 50 and counts[("flows", "matrix")] >= 50
    assert counts[("one price", "scalar")] >= 10 and counts[("separable", "scalar")] >= 30


def test_flows_short_of_a_deficit_fall_back_to_the_lp_and_only_e_differs(monkeypatch):
    # Deficits raised by 2 RECOVERY_TOL leave a free station short, since
    # the polish meets its budget row; the LP then recovers the transfers
    # for the same powers and prices.
    real, fallbacks = solver._polished_transfers, []

    def short(net, rows, flow, deficit):
        e = real(net, rows, flow, deficit + 2 * solver.RECOVERY_TOL)
        fallbacks.append(e is None)
        return e

    for g, es, beta in _direct_instances(60):
        flows = solve_p1(g, es, beta)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_polished_transfers", short)
            lp = solve_p1(g, es, beta)
        for f in dataclasses.fields(lp):
            if f.name != "e":
                np.testing.assert_array_equal(getattr(lp, f.name), getattr(flows, f.name))
    assert len(fallbacks) >= 30 and all(fallbacks)
