"""Joint power-allocation and energy-transfer solver."""

import math

import numpy as np
import pytest

from ecomp import (
    EnergyState,
    ZfGains,
    as_beta_matrix,
    generate_rayleigh,
    grid_search_p1,
    kkt_residual,
    recover_transfers,
    solve_p1,
    waterfill_sum_power,
    zf_gains,
)
from ecomp.solver import (_DualProblem, _merge_lossless_groups,
                          _minimize_dual_1d, _minimize_dual_ellipsoid,
                          _polish_dual)


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


def test_rates_and_objective_are_consistent():
    g, es = _instance(12)
    sol = solve_p1(g, es, 0.4)
    np.testing.assert_allclose(sol.rates,
                               g.weights * np.log2(1.0 + g.a * sol.p),
                               rtol=1e-12)
    assert sol.objective == pytest.approx(float(np.sum(sol.rates)))


# ---------------------------------------------------------------------------
# The dual oracle and its loops against plain numpy references.  The
# solver computes every value with the same numpy call on the same operands
# as these references, so results must match bit for bit (==, not approx).

LN2 = math.log(2.0)


def _ref_prices_powers(prob, x):
    s = np.maximum(prob.bg.T @ x, 1e-300)
    return s, np.maximum(prob.w / (LN2 * s) - 1.0 / prob.a, 0.0)


def _ref_value(prob, x):
    s, p = _ref_prices_powers(prob, x)
    val = np.sum(prob.w * np.log2(1.0 + prob.a * p) - s * p)
    return float(val + x @ prob.eg)


def _ref_subgradient(prob, x):
    return prob.eg - prob.bg @ _ref_prices_powers(prob, x)[1]


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


def _ref_ellipsoid(prob, tol, max_iter):
    n = prob.n
    x = np.ones(n)
    r = prob.radius()
    a_mat = (r * r) * np.eye(n)
    best_x, best_f = None, np.inf
    converged = False
    for it in range(1, max_iter + 1):
        g = _ref_violated_cut(prob, x)
        objective_cut = g is None
        if objective_cut:
            f = _ref_value(prob, x)
            if f < best_f:
                best_f, best_x = f, x.copy()
            g = _ref_subgradient(prob, x)
        ag = a_mat @ g
        gag = float(g @ ag)
        if gag <= 0:
            converged = best_x is not None
            break
        width = math.sqrt(gag)
        if objective_cut and width <= tol:
            converged = True
            break
        if width <= 1e-18:
            converged = best_x is not None
            break
        gn = ag / width
        x = x - gn / (n + 1)
        a_mat = (n * n) / (n * n - 1.0) * (a_mat - (2.0 / (n + 1)) * np.outer(gn, gn))
        a_mat = 0.5 * (a_mat + a_mat.T)
    if best_x is None:
        best_x = np.maximum(x, 0.0)
    return best_x, it, converged


def _ref_bisection(prob, tol):
    hi = max(float(np.max(prob.w * prob.a / (LN2 * np.maximum(prob.bg[0], 1e-12)))), 1.0)
    lo = min(tol, 1e-12) * 1e-3
    for it in range(200):
        mid = 0.5 * (lo + hi)
        if _ref_subgradient(prob, np.array([mid]))[0] >= 0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-16 * max(hi, 1.0):
            break
    return hi, it + 1


# The lossless groups as a union-find, and the polish with a per-step loop
# assembly of its KKT system.  The solver sums the polish's linear terms in
# another order, so the polish agrees to rounding, not bit for bit.


def _ref_groups(beta: np.ndarray) -> list[list[int]]:
    """Union BSs connected by loss-free transfers in both directions.

    beta_ij = beta_ji = 1 forces mu_i = mu_j in the dual cone, which makes
    the feasible set lower-dimensional; collapsing those BSs into one dual
    variable keeps the ellipsoid method well posed.
    """
    n = beta.shape[0]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if beta[i, j] >= 1.0 and beta[j, i] >= 1.0:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


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
    p0 = prob.powers(x0)
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
            slack = prob.subgradient(x0)
            g_drop = max(free, key=lambda g: slack[g])
            if len(free) > 1 and slack[g_drop] > 0:
                free.discard(g_drop)
                continue
            return None
        xx, pp, ee = unpack(v)
        # Validate the active-set guess; shrink it where signs flipped.
        changed = False
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
        pw = prob.powers(np.maximum(xx, 0.0))
        for k in range(prob.a.size):
            if k not in active_p and pw[k] > 0.0:
                active_p.add(k)
                changed = True
        for g in list(free):
            if xx[g] < -1e-10 * scale:
                free.remove(g)
                changed = True
        if changed:
            continue
        xx = np.maximum(xx, 0.0)
        cone = prob.betag * xx[None, :] - xx[:, None]
        np.fill_diagonal(cone, -np.inf)
        if float(np.max(cone)) > 1e-9 * max(scale, 1.0):
            return None
        if prob.value(xx) > prob.value(x0) + 1e-9 * max(scale, 1.0):
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
        yield _DualProblem(g.a, g.b, g.weights, es.budget, as_beta_matrix(beta, n))


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
            s_ref, p_ref = _ref_prices_powers(prob, x)
            assert np.array_equal(prob.powers(x), p_ref)
            assert prob.value(x) == _ref_value(prob, x)
            assert np.array_equal(prob.subgradient(x), _ref_subgradient(prob, x))
            val, sub = prob.value_and_subgradient(x)
            assert val == _ref_value(prob, x)
            assert np.array_equal(sub, _ref_subgradient(prob, x))
            cut, ref = prob.violated_cut(x), _ref_violated_cut(prob, x)
            assert (cut is None) == (ref is None)
            if ref is not None:
                assert np.array_equal(cut, ref)
    assert merged > 0


def test_violated_cut_keeps_the_argmax_rule_on_ties_and_zero_pairs():
    # Few distinct values make ties between bounds and edges common.
    rng = np.random.default_rng(7)
    beta = np.array([[0.0, 0.0, 0.5, 1.0],
                     [0.0, 0.0, 0.5, 0.0],
                     [0.5, 0.5, 0.0, 0.0],
                     [0.5, 0.0, 0.0, 0.0]])
    g, es = _instance(300, n_bs=4, m_ant=2, n_mt=5)
    prob = _DualProblem(g.a, g.b, g.weights, es.budget, beta)
    assert prob.n == 4
    for _ in range(3000):
        x = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0], size=4)
        cut, ref = prob.violated_cut(x), _ref_violated_cut(prob, x)
        assert (cut is None) == (ref is None)
        if ref is not None:
            assert np.array_equal(cut, ref)


def test_ellipsoid_matches_the_numpy_reference_bit_for_bit():
    tried = 0
    for prob in _dual_problems(10):
        if prob.n < 2:
            continue
        tried += 1
        max_iter = 5000 * prob.n * prob.n
        x, cuts, converged = _minimize_dual_ellipsoid(prob, 1e-9, max_iter)
        x_ref, cuts_ref, converged_ref = _ref_ellipsoid(prob, 1e-9, max_iter)
        assert np.array_equal(x, x_ref)
        assert (cuts, converged) == (cuts_ref, converged_ref)
    assert tried >= 5


def test_bisection_stops_at_its_last_float_with_the_same_bits():
    for n in range(1, 7):
        g, es = _instance(200 + n, n_bs=n, m_ant=2, n_mt=n + 1)
        for scale in (1e-4, 1.0, 1e4):
            prob = _DualProblem(g.a, g.b, g.weights, es.budget * scale,
                                as_beta_matrix(1.0, n))
            assert prob.n == 1
            hi, steps = _minimize_dual_1d(prob, 1e-9)
            hi_ref, steps_ref = _ref_bisection(prob, 1e-9)
            assert hi == hi_ref
            assert steps <= steps_ref and steps < 200


def _low_snr_problems(count):
    """Reduced duals as ``solve_p1`` builds them at budgets of 1e-5 to 1e-3.

    Few terminals transmit there, so the polish often misreads a zero
    price as a tight budget and drops that price to retry.
    """
    for seed in range(count):
        rng = np.random.default_rng([seed, 66])
        n = 2 + seed % 4
        g, _ = _instance(500 + seed, n_bs=n, m_ant=1, n_mt=n)
        budget = rng.uniform(size=n) * 10.0 ** rng.uniform(-5.0, -3.0)
        scale = budget.max()
        yield _DualProblem(g.a * scale, g.b, g.weights, budget / scale,
                           as_beta_matrix((0.0, 0.5)[seed % 2], n))


def test_polish_matches_the_loop_reference():
    # Looser ellipsoid points make the polish prune its active-set guess
    # and reject more often.
    points = [(prob, tol) for prob in _dual_problems(40) if prob.n > 1
              for tol in (1e-9, 1e-4, 1e-2)]
    points += [(prob, 1e-9) for prob in _low_snr_problems(40) if prob.n > 1]
    polished = rejected = 0
    for prob, tol in points:
        x0 = _minimize_dual_ellipsoid(prob, tol, 5000 * prob.n * prob.n)[0]
        got, ref = _polish_dual(prob, x0), _ref_polish(prob, x0)
        assert (got is None) == (ref is None)
        if ref is None:
            rejected += 1
            continue
        polished += 1
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))
    assert polished >= 80 and rejected >= 20


def test_lossless_groups_match_the_union_find_reference():
    rng = np.random.default_rng(404)
    for trial in range(3000):
        n = 1 + trial % 7
        beta = rng.uniform(size=(n, n))
        u = rng.random((n, n))
        ones = rng.uniform(0.3, 0.9)
        beta[u < 0.1] = 0.0
        beta[u > 1.0 - ones] = 1.0
        assert _merge_lossless_groups(beta) == _ref_groups(beta)
