import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

import marketeq as mq
from marketeq import hessian as hes
from marketeq import oracle
from marketeq.ipm import theory_strict_Q
from marketeq.market import (ADDITIVE, CES, LINEAR_BARRIER, MarketInstance, ShareFactors,
                             UtilitySpec, build_flow_instance, flow_constraint_rows)
from marketeq.oracle import (
    OracleError,
    constrained_best_response,
    constrained_dual_hessian,
    linear_barrier_kkt_residual,
    market_state,
)

from conftest import (central_diff, central_diff_vec, load_bench, mixed_flow_instance,
                      one_player_market, random_player)


def bid_rows(state):
    """The CES/additive players' bidding rows gamma of a market state, dense."""
    return state.shares.csr().toarray()


def log_utility(state, w, d):
    """log u of a one-player market's player, read off the potential's value
    phi = <p, 1> + (w/d) log u."""
    return (state.value - float(state.p.sum())) * d / w


class TestCesBestResponse:
    """One-player markets through ``market_state``, the query every solve runs."""

    def test_single_good(self):
        state = market_state(one_player_market([1.0], 2.0, rho=0.5), np.array([4.0]))
        assert np.allclose(state.demand, [0.5])
        assert np.allclose(bid_rows(state)[0], [1.0])

    @pytest.mark.parametrize("rho", [0.5, 0.9, -0.5, -2.0])
    def test_symmetric(self, rho):
        state = market_state(one_player_market([1.0, 1.0], 1.0, rho=rho), np.array([1.0, 1.0]))
        assert np.allclose(state.demand, [0.5, 0.5], atol=1e-15)
        assert np.allclose(bid_rows(state)[0], [0.5, 0.5], atol=1e-15)

    def test_against_projected_gradient_oracle(self):
        # frozen from the entropic mirror-ascent UMP oracle over the bid
        # simplex (20k iterations); values are exact rationals 6/17, 3/34,
        # 8/51 for this instance
        p = np.array([1.0, 2.0, 3.0])
        c = np.array([1.0, 1.0, 2.0])
        expected = np.array([0.35294117647058826, 0.08823529411764706, 0.15686274509803921])
        state = market_state(one_player_market(c, 1.0, rho=0.5), p)
        assert np.max(np.abs(state.demand - expected)) < 1e-6

    def test_offsupport_zero(self):
        state = market_state(one_player_market([1.0, 0.0, 2.0], 1.0, rho=0.5),
                             np.array([1.0, 2.0, 1.0]))
        assert state.demand[1] == 0.0 and bid_rows(state)[0, 1] == 0.0

    def test_log_domain_survives_extreme_rho(self):
        # rho = 0.999 makes direct powers c^{1000} overflow
        state = market_state(one_player_market([1.0, 2.0], 1.0, rho=0.999), np.array([1.0, 1.1]))
        assert np.all(np.isfinite(state.demand)) and abs(bid_rows(state).sum() - 1.0) < 1e-12

    def test_no_support_is_refused_by_validate(self):
        # the query does not check its market; validate refuses the player first
        inst = one_player_market([0.0], 1.0, rho=0.5)
        assert "player 0: needs at least one positive coefficient" in mq.validate(inst)


class TestAdditiveBestResponse:
    def test_reduces_to_ces_for_k_equals_inv_r(self):
        p = np.array([1.0, 2.0, 0.5])
        c = np.array([1.0, 3.0, 2.0])
        a = market_state(one_player_market(c, 1.5, ADDITIVE, k=1.0 / 0.4, r=0.4), p)
        b = market_state(one_player_market(c, 1.5, rho=0.4), p)
        assert np.allclose(a.demand, b.demand, atol=1e-15)
        assert abs(log_utility(a, 1.5, 1.0) - log_utility(b, 1.5, 1.0)) < 1e-12

    def test_symmetric_half_power(self):
        state = market_state(one_player_market([1.0, 1.0], 1.0, ADDITIVE, k=1.0, r=0.5),
                             np.array([2.0, 2.0]))
        assert np.allclose(state.demand, [0.25, 0.25])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_oracle_invariants_property(seed):
    """Budget exhaustion, simplex bidding, homogeneity, log-homogeneity."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 21))
    spec = random_player(rng, n, kind="ces" if rng.random() < 0.5 else "additive")
    w = float(rng.uniform(0.1, 5.0))
    p = rng.uniform(0.05, 10.0, n)
    c = spec.dense(n)
    inst = MarketInstance(n, 1, [w], [spec])
    k, r = inst.k[0], inst.r[0]
    d = k * r
    state = market_state(inst, p)
    x, gamma = state.demand, bid_rows(state)[0]
    assert abs(float(p @ x) - w) <= 1e-10 * w
    assert abs(gamma.sum() - 1.0) <= 1e-12
    assert np.all(gamma >= 0)
    # homogeneity of degree -1
    x2 = market_state(inst, 2.0 * p).demand
    assert np.max(np.abs(x2 - x / 2.0)) <= 1e-12 * max(1.0, np.max(np.abs(x)))
    # <grad v(x), x> = -d, with grad v evaluated directly from theta shares
    supp = c > 0
    gv = np.zeros(n)
    S = float(np.sum(c[supp] * x[supp] ** r))
    gv[supp] = -k * r * c[supp] * x[supp] ** (r - 1.0) / S
    assert abs(float(gv[supp] @ x[supp]) + d) <= 1e-10 * max(1.0, abs(d))
    # log u = k log S, with S = sum c x^r evaluated at the returned demand
    log_u = log_utility(state, w, d)
    assert abs(log_u - k * np.log(S)) <= 1e-12 * max(1.0, abs(k * np.log(S)))


class TestPotential:
    def test_symmetric_equilibrium_gradient_zero(self):
        from conftest import symmetric_instance
        inst = symmetric_instance(4, 6)
        p = np.full(4, 1.0 / 4.0)
        g = market_state(inst, p).grad
        assert np.max(np.abs(g)) < 1e-14

    def test_scaled_prices_gradient(self):
        from conftest import symmetric_instance
        inst = symmetric_instance(5, 3)
        g = market_state(inst, np.full(5, 2.0 / 5.0)).grad
        assert np.allclose(g, 0.5)

    def test_gradient_matches_finite_differences(self, rng):
        inst = mq.generate_random(2, 3, 1.0, rho=0.7, seed=8)
        p = rng.uniform(0.5, 2.0, 2)
        g = market_state(inst, p).grad
        fd = central_diff(lambda q: market_state(inst, q).value, p)
        assert np.max(np.abs(g - fd) / (1.0 + np.abs(fd))) < 1e-5

    def test_batch_matches_serial_reduction(self, rng):
        # bench/checks.py recomputes each CES player's demand from its own closed form;
        # the second market has constrained players, so the batch covers a row subset,
        # and checks.check_flow certifies their rows as best responses
        checks = load_bench("checks")
        for inst in (mq.generate_random(6, 9, 0.7, rho=-0.8, seed=15), mixed_flow_instance()):
            p = rng.uniform(0.5, 2.0, inst.n)
            state = market_state(inst, p)
            flow_x = {i: x for grp, X in state.con_x for i, x in zip(grp.players.tolist(), X)}
            serial = checks.ces_demand(inst, p, inst.uncon) + sum(flow_x.values(), np.zeros(inst.n))
            assert np.max(np.abs(serial - state.demand)) <= 1e-12
            assert checks.check_flow(inst, p, flow_x) == []
            gammas = np.array([checks.ces_demand(inst, p, [i]) * p / inst.budgets[i]
                               for i in inst.uncon])
            assert np.max(np.abs(bid_rows(state) - gammas)) <= 1e-12


class TestJacobianAndBlocks:
    def test_single_player_closed_form_block(self):
        inst = MarketInstance(2, 1, [1.0], [UtilitySpec(CES, [0, 1], [1.0, 1.0], rho=0.5)])
        H = hes.assemble(inst, np.array([1.0, 1.0])).dense()
        assert np.allclose(H, [[0.75, -0.25], [-0.25, 0.75]])

    def test_jacobian_matches_finite_differences(self, rng):
        # grad phi = 1 - demand, so one player's demand Jacobian is -P^-1 H P^-1
        # with H the scaled Hessian of its one-player market
        inst = mq.generate_random(5, 4, 1.0, rho=-0.6, seed=3)
        p = rng.uniform(0.5, 2.0, 5)
        for i in range(2):
            one = MarketInstance(inst.n, 1, [inst.budgets[i]], [inst.utilities[i]])
            J = -hes.assemble(one, p).dense() / p[:, None] / p[None, :]
            Jfd = central_diff_vec(lambda q, one=one: market_state(one, q).demand, p)
            assert np.max(np.abs(J - Jfd)) / np.max(np.abs(Jfd)) < 1e-4

    @staticmethod
    def check_matvec_against_finite_differences(inst, rng):
        p = rng.uniform(0.5, 2.0, inst.n)
        op = hes.assemble(inst, p)
        v = rng.standard_normal(inst.n)
        h = 1e-6
        grad = lambda q: market_state(inst, q).grad
        fd = p * (grad(p + h * p * v) - grad(p - h * p * v)) / (2 * h)
        assert np.linalg.norm(op.matvec(v) - fd) / np.linalg.norm(fd) < 1e-4

    def test_scaled_hessian_matvec_matches_finite_differences(self, rng):
        self.check_matvec_against_finite_differences(mq.generate_random(5, 7, 0.9, rho=0.8, seed=4),
                                                     rng)

    @pytest.mark.parametrize("build", [lambda: mixed_flow_instance(),
                                       lambda: mixed_row_count_instance()],
                             ids=["flow", "row-counts"])
    def test_constrained_hessian_matvec_matches_finite_differences(self, build, rng):
        # the constrained players' rows, appended to the share rows of R
        self.check_matvec_against_finite_differences(build(), rng)


class TestLinearBarrier:
    def test_single_good_closed_form(self):
        for sigma in (0.5, 1e-3):
            inst = one_player_market([3.0], 1.5, LINEAR_BARRIER, sigma=sigma)
            x = market_state(inst, np.array([2.0])).linear_x[0]
            assert abs(x[0] - 0.75) < 1e-12
            assert abs(3.0 * x[0] - 3.0 * 1.5 / 2.0) < 1e-10  # u = <c, x>

    def test_psi_root_and_kkt(self):
        p = np.array([1.0, 2.0, 3.0])
        c = np.array([3.0, 2.0, 1.0])
        x = market_state(one_player_market(c, 1.0, LINEAR_BARRIER, sigma=0.01), p).linear_x[0]
        assert linear_barrier_kkt_residual(p, c, 0.01, 1.0, x) < 1e-10
        assert abs(float(p @ x) - 1.0) < 1e-10
        gamma = (1.0 + 0.01 * 3) * x * p / 1.0 - 0.01  # the shifted bidding vector
        assert abs(gamma.sum() - 1.0) < 1e-12
        # frozen SLSQP oracle solution of max log<c,x> + sigma sum log x
        expected = np.array([0.97460036, 0.00724546, 0.00363624])
        assert np.max(np.abs(x - expected)) < 1e-5

    def test_sigma_sweep_concentrates_on_best_ratio(self):
        p = np.array([1.0, 2.0, 1.5, 0.8])
        c = np.array([2.0, 1.0, 2.5, 1.1])
        best = int(np.argmax(c / p))
        shares = []
        for sigma in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
            inst = one_player_market(c, 1.0, LINEAR_BARRIER, sigma=sigma)
            x = market_state(inst, p).linear_x[0]
            shares.append(x[best] * p[best] / 1.0)
        assert all(b > a for a, b in zip(shares, shares[1:]))
        assert shares[-1] > 0.999

    def test_hessian_block_matches_finite_differences(self, rng):
        inst = mq.generate_random(4, 5, 1.0, seed=2, kind="linear_barrier", sigma=0.02)
        p = np.array([0.9, 1.4, 0.7, 1.1])
        op = hes.assemble(inst, p)
        v = rng.standard_normal(4)
        h = 1e-6
        grad = lambda q: market_state(inst, q).grad
        fd = p * (grad(p + h * p * v) - grad(p - h * p * v)) / (2 * h)
        assert np.linalg.norm(op.matvec(v) - fd) / np.linalg.norm(fd) < 1e-4

    def test_shifted_gamma_simplex(self, rng):
        inst = mq.generate_random(6, 4, 0.8, seed=3, kind="linear_barrier", sigma=0.05)
        p = rng.uniform(0.5, 2.0, 6)
        # gamma_i = (1 + sigma n) P x_i / w_i - sigma, row by row
        sig, w = inst.sigma[:, None], inst.budgets[:, None]
        G = (1.0 + sig * inst.n) * market_state(inst, p).linear_x * p / w - sig
        assert np.max(np.abs(G.sum(axis=1) - 1.0)) < 1e-10
        assert np.all(G > -1e-12)


class TestPsiRootFinder:
    @pytest.mark.parametrize("sigma", [0.05, 1e-3, 5e-8])
    def test_demand_matches_independent_root(self, sigma):
        # bench/checks.py roots every player with brentq in a shifted variable
        checks = load_bench("checks")
        for seed in range(3):
            inst = mq.generate_random(12, 30, 0.5, seed=seed, kind="linear_barrier", sigma=sigma)
            p = np.random.default_rng(seed).uniform(0.2, 3.0, inst.n)
            st = market_state(inst, p)
            ref = checks.linear_barrier_demand(inst, p)
            assert np.array_equal(st.demand, st.linear_x.sum(axis=0))
            assert np.max(np.abs(st.demand - ref) / ref) <= 1e-9

    @pytest.mark.parametrize("n, m, seed, sigma", [(20, 50, 21, 5e-8), (40, 100, 21, 2.5e-8),
                                                   (50, 150, 1, 1e-3)])
    def test_newton_rounds_on_benchmark_shapes(self, n, m, seed, sigma):
        # the near-linear benchmark's markets; bisection alone took 110 rounds
        inst = mq.generate_random(n, m, 0.5, seed=seed, kind="linear_barrier", sigma=sigma)
        st = market_state(inst, np.full(n, inst.total_budget() / n))
        assert 1 <= st.psi_rounds <= 12

    @pytest.mark.parametrize("sigma", [5e-8, 1e-3, 0.05])
    def test_polish_returns_the_six_round_demand(self, monkeypatch, sigma):
        # the polish stops once every row repeats; its answer must be bitwise
        # the one all six extended-precision rounds give
        def six_rounds(u, u_lo, c, sig, lamp, rows, starts):
            for _ in range(6):
                denom = lamp - c / u[rows]
                pu = np.add.reduceat(sig * (c / denom), starts) - u
                dpsi = -np.add.reduceat(sig * (c**2 / (u[rows] * denom) ** 2), starts) - 1.0
                u_new = u - pu / dpsi
                u = np.where(u_new > u_lo, u_new, u)
            return u

        inst = mq.generate_random(40, 100, 0.5, seed=21, kind="linear_barrier", sigma=sigma)
        rng = np.random.default_rng(0)
        prices = [np.full(inst.n, inst.total_budget() / inst.n)]
        prices += [rng.uniform(0.2, 3.0, inst.n) for _ in range(3)]
        short = [market_state(inst, p).linear_x for p in prices]
        monkeypatch.setattr(oracle, "_psi_polish", six_rounds)
        for p, X in zip(prices, short):
            assert np.array_equal(market_state(inst, p).linear_x, X)

    def test_batch_value_reads_the_root_finder_row_index(self):
        # _linear_batch gathers <c, x> with the rows _psi_roots built, not a fresh index
        inst = mq.generate_random(12, 30, 0.5, seed=5, kind="linear_barrier", sigma=1e-3)
        p = np.random.default_rng(5).uniform(0.2, 3.0, inst.n)
        X, rows, _ = oracle._psi_roots(inst.C, inst.cols, p, inst.sigma, inst.budgets)
        assert np.array_equal(rows, inst.nnz_row_index())
        w, sig, C = inst.budgets, inst.sigma, inst.C
        uval = np.add.reduceat(C.data * X[inst.nnz_row_index(), inst.cols], C.indptr[:-1])
        value = float(p.sum() + np.sum(w * (np.log(uval) + sig * np.log(X).sum(axis=1))))
        assert market_state(inst, p).value == value

    def test_round_cap_raises_instead_of_returning(self, monkeypatch):
        inst = mq.generate_random(12, 30, 0.5, seed=0, kind="linear_barrier", sigma=0.05)
        p = np.full(inst.n, inst.total_budget() / inst.n)
        assert market_state(inst, p).psi_rounds > 1
        monkeypatch.setattr(oracle, "PSI_ROUND_CAP", 1)
        with pytest.raises(OracleError, match="unconverged"):
            market_state(inst, p)


def v_value(x, c, k, r):
    """v = -log u for u(x) = <c, x^r>^k."""
    return -k * math.log(float(np.sum(c * x**r)))


def v_grad(x, c, k, r):
    t = c * x**r
    return -(k * r) * (t / t.sum()) / x


def v_hess(x, c, k, r):
    t = c * x**r
    xinv_g = (t / t.sum()) / x
    return k * r * (1.0 - r) * np.diag(xinv_g / x) + k * r * r * np.outer(xinv_g, xinv_g)


def serial_kkt_response(p, c, k, r, w, A, tol_stat=1e-10):
    """Reference constrained LUMP: one player, full (n + rows + 1) KKT solves.

    The clip-and-reproject start from the unconstrained closed form (with the
    uniform-price fallback), then damped Newton with the 0.99
    fraction-to-boundary cap and Armijo backtracking; returns (x, y, lam).
    """
    n = len(p)
    B = np.vstack([A, p[None, :]])
    b = np.zeros(len(B))
    b[-1] = w

    def start(x):
        floor = 1e-8 * float(np.median(x[x > 0]))
        for _ in range(200):
            x = x - B.T @ np.linalg.solve(B @ B.T, B @ x - b)
            if np.min(x) >= floor:
                break
            x = np.maximum(x, floor)
        ok = np.min(x) > 0 and np.linalg.norm(B @ x - b) <= 1e-9 * (1.0 + w)
        return x if ok else None

    x = start(market_state(one_player_market(c, w, rho=r), p).demand)
    if x is None:
        x = start(np.full(n, w / p.sum()))
    for _ in range(100):
        g, H = v_grad(x, c, k, r), v_hess(x, c, k, r)
        KKT = np.block([[H, B.T], [B, np.zeros((len(B), len(B)))]])
        sol = np.linalg.solve(KKT, np.concatenate([-g, np.zeros(len(B))]))
        dx, nu = sol[:n], sol[n:]
        stat = np.max(np.abs(g + B.T @ nu))
        if stat <= tol_stat * (1.0 + np.max(np.abs(g))) and dx @ H @ dx <= tol_stat:
            return x, nu[:-1], nu[-1]
        neg = dx < 0
        alpha = min(1.0, 0.99 * float(np.min(-x[neg] / dx[neg]))) if neg.any() else 1.0
        v0, slope = v_value(x, c, k, r), float(g @ dx)
        while not (np.all(x + alpha * dx > 0)
                   and v_value(x + alpha * dx, c, k, r) <= v0 + 1e-4 * alpha * slope):
            alpha *= 0.5
            assert alpha > 1e-14
        x = x + alpha * dx
    raise AssertionError("reference Newton did not converge")


def mixed_row_count_instance(seed=5):
    """Constrained players in three row-count groups plus two CES players.

    On the triangle network s->a, a->t, s->t: players 0 and 1 route s-t
    flows (two balance rows; player 1 is additive with r, k < 0, so the
    rank-one weight of its hess v is negative), player 2 keeps only the
    source-balance row of an a-t flow (one row), player 3 has a zero-row
    constraint matrix.
    """
    edges = [("s", "a"), ("a", "t"), ("s", "t")]
    flow = build_flow_instance(edges, [("s", "t")])
    n = flow.n
    rng = np.random.default_rng(seed)
    pos = lambda: rng.uniform(0.5, 1.5, n)
    utilities = [
        UtilitySpec(CES, np.arange(n), pos(), rho=0.5),
        UtilitySpec(ADDITIVE, np.arange(n), pos(), k=-0.8, r=-1.5),
        UtilitySpec(CES, np.arange(n), pos(), rho=-0.7),
        UtilitySpec(CES, np.arange(n), pos(), rho=0.3),
        UtilitySpec(CES, np.arange(n), pos(), rho=0.5),
        UtilitySpec(CES, np.arange(n), pos(), rho=-0.4),
    ]
    constraints = {0: flow.constraints[0], 1: flow.constraints[0],
                   2: flow_constraint_rows(edges, ["a", "s", "t"], "a", "t")[:1],
                   3: np.zeros((0, n))}
    budgets = rng.uniform(0.5, 1.5, len(utilities))
    return MarketInstance(n, len(utilities), budgets, utilities, constraints)


def penalty_oracle(p, c, k, r, w, A, rho_pen=1e8):
    """Quadratic-penalty brute force for the constrained LUMP (log-x coords)."""
    def obj(q):
        x = np.exp(q)
        S = float(np.sum(c * x**r))
        v = -k * math.log(S)
        pen = float(np.sum((A @ x) ** 2)) + float((p @ x - w) ** 2)
        return v + rho_pen * pen
    x0 = np.full(len(p), w / float(p.sum()))
    res = minimize(obj, np.log(x0), method="BFGS", options={"maxiter": 2000, "gtol": 1e-12})
    return np.exp(res.x)


class TestConstrained:
    def test_one_best_response_per_player_per_query(self, monkeypatch):
        # the dual-Hessian blocks reuse the responses of the price query
        inst = mixed_flow_instance(players=3)
        real = oracle._constrained_newton
        solved = []

        def counting(p, C, *args, **kwargs):
            solved.append(len(C))
            return real(p, C, *args, **kwargs)

        monkeypatch.setattr(oracle, "_constrained_newton", counting)
        state = market_state(inst, np.full(inst.n, 0.5))
        assert sum(solved) == 3
        op = hes.assemble_from_state(state, inst)
        p = state.p
        blocks = [inst.budgets[i] / inst.degree[i] * np.outer(p, p)
                  * constrained_dual_hessian(inst, i, x)
                  for grp, X in state.con_x for i, x in zip(grp.players, X)]
        assert len(blocks) == 3
        uncon = inst.uncon
        share = hes.share_operator(inst.n, state.shares, inst.budgets[uncon], inst.r[uncon])
        assert np.allclose(op.dense(), share.dense() + sum(blocks), rtol=1e-12, atol=0.0)
        assert sum(solved) == 3

    def test_batch_equals_serial_kkt(self):
        inst = mixed_row_count_instance()
        groups = inst.con_groups()
        assert [g.A.shape[1] for g in groups] == [0, 1, 2]
        assert [g.players.tolist() for g in groups] == [[3], [2], [0, 1]]
        assert inst.r[1] < 0 and inst.k[1] < 0
        rng = np.random.default_rng(11)
        rel = lambda a, b: np.max(np.abs(a - b)) / np.max(np.abs(b))
        for _ in range(3):
            p = rng.uniform(0.5, 2.0, inst.n)
            state = market_state(inst, p)
            assert [grp for grp, _ in state.con_x] == groups
            for grp, stacked in state.con_x:
                X, Y, lam, _ = oracle._constrained_newton(p, grp.C, grp.k, grp.r, grp.w, grp.A)
                D, R, s = oracle.constrained_hessian_rows(X, grp.C, grp.k, grp.r, grp.w, grp.A)
                M = [np.diag(D[g]) - R[g].T @ (s[g][:, None] * R[g]) for g in range(len(X))]
                for g, i in enumerate(grp.players.tolist()):
                    c, k, r, w, A = grp.C[g], grp.k[g], grp.r[g], grp.w[g], grp.A[g]
                    x, y, lm = serial_kkt_response(p, c, k, r, w, A)
                    assert np.array_equal(stacked[g], X[g])
                    assert rel(X[g], x) <= 1e-12
                    assert abs(lam[g] - lm) <= 1e-12 * abs(lm)
                    if A.shape[0]:
                        assert rel(Y[g], y) <= 1e-12
                    Winv = np.linalg.inv(v_hess(x, c, k, r))
                    ref = Winv
                    if A.shape[0]:
                        ref = Winv - Winv @ A.T @ np.linalg.solve(A @ Winv @ A.T, A @ Winv)
                    ref = (k * r / w) ** 2 * ref
                    assert rel(M[g], ref) <= 1e-12

    def test_query_assembly_and_certificate_read_the_stacks(self, monkeypatch):
        inst = mixed_row_count_instance()
        p = np.random.default_rng(3).uniform(0.5, 2.0, inst.n)

        def no_response(*args, **kwargs):
            raise AssertionError("a BestResponse was built")

        monkeypatch.setattr(oracle, "BestResponse", no_response)
        state = market_state(inst, p)
        hes.assemble_from_state(state, inst)
        cert = mq.equilibrium_certificate(inst, p)
        monkeypatch.undo()
        assert [X.shape for _, X in state.con_x] == [(1, inst.n), (1, inst.n), (2, inst.n)]
        rows = {i: x for grp, X in state.con_x for i, x in zip(grp.players.tolist(), X)}
        # the per-player formulas: relative budget miss and max |A_i x_i|
        w, A = inst.budgets, inst.constraints
        assert cert["budget_residual_max"] == max(abs(float(rows[i] @ p) - w[i]) / w[i]
                                                  for i in rows)
        assert cert["kkt_residual_max"] == max(float(np.max(np.abs(A[i] @ rows[i]), initial=0.0))
                                               for i in rows)
        assert cert["kkt_residual_max"] > 0.0
        # the read-only per-player view that the benchmark's check reads
        view = state.con_responses
        assert sorted(view) == sorted(rows)
        assert all(np.array_equal(view[i].x, rows[i]) for i in rows)
        with pytest.raises(TypeError):
            view[0] = None

    def test_uniform_price_fallback_start(self):
        # on the plane x_0 = 5e-8 x_1 the clip-and-reproject loop fails from
        # the closed-form start and succeeds from the uniform-price start
        p = np.array([0.064, 0.77, 0.0016, 0.032])
        A = np.array([[[1.0, -5e-8, 0.0, 0.0]], [[1.0, -1.0, 0.0, 0.0]]])
        C, k, r, w = np.ones((2, 4)), np.array([2.0, 2.0]), np.array([0.5, 0.5]), np.array([1.0, 0.5])
        B = np.concatenate([A, np.broadcast_to(p, (2, 1, 4))], axis=1)
        b = np.stack([np.zeros(2), w], axis=1)
        start = np.stack([market_state(one_player_market(C[g], w[g], rho=r[g]), p).demand
                          for g in range(2)])
        assert oracle._feasible_start(B, b, start)[1].tolist() == [False, True]
        X, Y, lam, _ = oracle._constrained_newton(p, C, k, r, w, A)
        for g in range(2):
            x, y, lm = serial_kkt_response(p, C[g], k[g], r[g], w[g], A[g])
            assert np.max(np.abs(X[g] - x)) <= 1e-12 * np.max(x)
            assert abs(lam[g] - lm) <= 1e-12 * lm
            # x spans 1e-10 to 600 on the first plane, which leaves its
            # multiplier determined to about 1e-10 by either solve
            assert abs(Y[g, 0] - y[0]) <= 1e-9 * abs(y[0])

    def test_error_types(self):
        p, c = np.array([0.8, 1.1, 0.5]), np.ones(3)
        with pytest.raises(OracleError, match="strictly positive"):
            constrained_best_response(p, np.array([1.0, 0.0, 1.0]), 2.0, 0.5, 1.0, np.zeros((0, 3)))
        with pytest.raises(oracle.FeasibleStartError):  # x_0 + x_1 = 0 has no positive point
            constrained_best_response(p, c, 2.0, 0.5, 1.0, np.array([[1.0, 1.0, 0.0]]))
        with pytest.raises(oracle.NewtonStagnationError, match="no convergence in 1 Newton"):
            constrained_best_response(p, c, 2.0, 0.5, 1.0, np.array([[1.0, -1.0, 0.0]]),
                                      max_newton=1)

    def test_newton_steps_are_counted_on_constrained_markets_only(self):
        inst = mixed_flow_instance(players=3)
        steps = market_state(inst, np.full(inst.n, 0.5)).con_newton_steps
        assert steps > 0
        ces = mq.generate_random(8, 20, 0.5, seed=1)
        assert market_state(ces, np.ones(8)).con_newton_steps == 0
        lin = mq.generate_random(8, 20, 0.5, seed=1, kind="linear_barrier", sigma=0.01)
        assert market_state(lin, np.ones(8)).con_newton_steps == 0

    def test_warm_query_matches_cold_in_fewer_newton_steps(self):
        # p1 -> p2 is a 1% move, the size of a solve's late steps.  Both answers meet the
        # Newton's stop rule (stationarity 1e-10 (1 + |grad v|)), which leaves each one up
        # to about 1e-10 from the exact demand: over these ten pairs the two agreed to
        # 5e-16 - 1.2e-10 relative, so the bound is 1e-9
        inst = mixed_flow_instance(players=3)
        for seed in range(7, 17):
            rng = np.random.default_rng(seed)
            p2 = rng.uniform(0.3, 0.7, inst.n)
            p1 = p2 * (1.0 + 0.01 * rng.standard_normal(inst.n))
            warm = market_state(inst, p2, market_state(inst, p1))
            cold = market_state(inst, p2)
            assert np.max(np.abs(warm.demand - cold.demand) / cold.demand) <= 1e-9
            assert warm.con_newton_steps < cold.con_newton_steps
            (grp, X), = warm.con_x
            assert np.max(np.abs(grp.A @ X[..., None])) <= 1e-12
            assert np.max(np.abs(X @ p2 - grp.w) / grp.w) <= 1e-12

    def test_warm_start_from_far_prices_converges(self):
        inst = mixed_flow_instance(players=3)
        for seed in range(7, 17):
            p = np.random.default_rng(seed).uniform(0.3, 0.7, inst.n)
            far = market_state(inst, 10.0 * p[::-1])
            warm, cold = market_state(inst, p, far), market_state(inst, p)
            assert warm.con_newton_steps > 0
            assert np.max(np.abs(warm.demand - cold.demand) / cold.demand) <= 1e-9

    def test_prev_of_another_market_is_not_read(self):
        # same shapes, but other groups: the query is the cold one, bit for bit
        inst, other = mixed_flow_instance(players=3), mixed_flow_instance(players=3)
        p = np.full(inst.n, 0.5)
        cold = market_state(inst, p)
        for prev in (market_state(other, 0.9 * p), market_state(mq.generate_random(4, 6, 0.5), p)):
            state = market_state(inst, p, prev)
            assert state.con_newton_steps == cold.con_newton_steps
            assert np.array_equal(state.demand, cold.demand)

    def test_singular_schur_matrix_raises_conditioning_error(self):
        # two equal constraint rows make A W' A^T singular
        A = np.array([[1.0, -1.0, 0.0], [1.0, -1.0, 0.0]])
        X = np.array([[0.5, 0.5, 0.3]])
        args = (np.ones((1, 3)), np.array([2.0]), np.array([0.5]), np.array([1.0]))
        with pytest.raises(oracle.ConditioningError, match="A W\\^-1 A\\^T condition number"):
            oracle.constrained_hessian_rows(X, *args, A[None])
        D, R, s = oracle.constrained_hessian_rows(X, *args, A[None, :1])
        assert R.shape == (1, 2, 3) and np.all(np.isfinite(R))

    def test_zero_rows_equals_unconstrained(self):
        p = np.array([1.0, 2.0])
        c = np.array([1.0, 1.0])
        A = np.zeros((0, 2))
        resp, y, lam = constrained_best_response(p, c, 2.0, 0.5, 1.0, A)
        free = market_state(one_player_market(c, 1.0, rho=0.5), p).demand
        assert np.max(np.abs(resp.x - free)) < 1e-9

    def test_single_edge_forced_value(self):
        inst = build_flow_instance([("s", "t")], [("s", "t")])
        p = np.array([1.3, 0.7])
        x = market_state(inst, p).demand  # the one player's row
        w = float(inst.budgets[0])
        assert np.max(np.abs(x - w / (p.sum()))) < 1e-10
        assert abs(float(p @ x) - w) < 1e-10

    def test_triangle_kkt_and_penalty_oracle(self):
        inst = build_flow_instance([("s", "t"), ("s", "v"), ("v", "t")], [("s", "t")])
        A = inst.constraints[0]
        p = np.array([0.8, 1.1, 0.5, 0.9])
        k, r = inst.k[0], inst.r[0]
        w = float(inst.budgets[0])
        resp, y, lam = constrained_best_response(p, np.ones(4), k, r, w, A)
        assert np.max(np.abs(A @ resp.x)) <= 1e-10
        assert abs(resp.spend - w) <= 1e-10
        # stationarity residual of (D.6) with s = 0
        stat = v_grad(resp.x, np.ones(4), k, r) + lam * p + A.T @ y
        assert np.max(np.abs(stat)) <= 1e-8
        assert abs(lam - (k * r) / w) < 1e-8
        # objective agreement with the quadratic-penalty brute force
        x_pen = penalty_oracle(p, np.ones(4), k, r, w, A)
        v_best = v_value(resp.x, np.ones(4), k, r)
        v_pen = v_value(x_pen, np.ones(4), k, r)
        assert v_best <= v_pen + 1e-6

    def test_dual_hessian_annihilates_rows_and_matches_fd(self):
        inst = build_flow_instance([("s", "t")], [("s", "t")], rho=0.5)
        A = inst.constraints[0]
        p = np.array([1.3, 0.7])
        M = constrained_dual_hessian(inst, 0, market_state(inst, p).demand)
        assert np.max(np.abs(A @ M)) <= 1e-10 * np.max(np.abs(M))
        assert np.linalg.eigvalsh((M + M.T) / 2).min() >= -1e-12 * np.max(np.abs(M))
        d = inst.k[0] * inst.r[0]
        w = float(inst.budgets[0])
        J = -(w / d) * M  # Jacobian of the constrained demand
        Jfd = central_diff_vec(lambda q: market_state(inst, q).demand, p, rel_step=1e-5)
        assert np.max(np.abs(J - Jfd)) / np.max(np.abs(Jfd)) < 1e-4

    def test_dual_hessian_zero_rows_matches_dr1_form(self, rng):
        n = 3
        inst = MarketInstance(n, 1, [1.0],
                              [UtilitySpec(CES, np.arange(n), np.array([1.0, 2.0, 0.5]), rho=0.4)],
                              constraints={0: np.zeros((0, n))})
        # constrained players must have positive coefficients; zero-row A
        p = rng.uniform(0.5, 2.0, n)
        M = constrained_dual_hessian(inst, 0, market_state(inst, p).demand)
        # the player's bids from bench/checks.py's closed form, apart from the oracle
        gamma = load_bench("checks").ces_demand(inst, p, [0]) * p / 1.0
        closed = (1.0 / (1.0 - 0.4)) * (np.diag(gamma) - 0.4 * np.outer(gamma, gamma))
        closed = closed / p[:, None] / p[None, :]
        assert np.max(np.abs(M - closed)) < 1e-8 * np.max(np.abs(closed))


def softmax_reference(inst, p):
    """The log-domain softmax of every unconstrained row: (shares, log_S)."""
    C, cols = inst.uncon_C, inst.uncon_cols
    logc = np.log(C.data)
    counts = np.diff(C.indptr)
    r = inst.r[inst.uncon]
    a = 1.0 / (1.0 - r)
    logits = np.repeat(a, counts) * logc + np.repeat(-r * a, counts) * np.log(p)[cols]
    return oracle._row_softmax(logits, C.indptr)


def assert_matches_softmax(inst, p):
    shares, logS = oracle.bid_shares(inst, p)
    G = shares.csr()
    shares, ref_logS = softmax_reference(inst, p)
    assert np.all(np.isfinite(G.data))
    np.testing.assert_allclose(np.add.reduceat(G.data, G.indptr[:-1]), 1.0, rtol=1e-14)
    np.testing.assert_allclose(G.data, shares, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(logS, ref_logS, rtol=1e-13, atol=0.0)
    return G


def mixed_exponent_market(seed=3, n=30, m=40, exponents=(0.9, 0.5, -0.5, -2.0)):
    """CES and additive players cycling through ``exponents``, about 60% dense."""
    rng = np.random.default_rng(seed)
    utilities = []
    for i in range(m):
        idx = np.flatnonzero(rng.random(n) < 0.6)
        idx = idx if idx.size else np.array([i % n])
        val = rng.uniform(0.05, 2.0, idx.size)
        r = exponents[i % len(exponents)]
        utilities.append(UtilitySpec(CES, idx, val, rho=r) if i % 2 else
                         UtilitySpec(ADDITIVE, idx, val, k=0.8 / r, r=r))
    return MarketInstance(n, m, rng.uniform(0.5, 1.5, m), utilities)


class TestBidShares:
    """The factored kernel theta = c^a p^b against the log-domain softmax."""

    @pytest.mark.parametrize("r", [0.9, 0.5, -0.5, -2.0])
    def test_shared_exponent_matches_softmax(self, rng, r):
        # CES and additive players with one r share one b: the factored path
        inst = mixed_exponent_market(exponents=(r,))
        assert isinstance(inst.share_factors(), ShareFactors)
        for _ in range(5):
            assert_matches_softmax(inst, rng.uniform(0.05, 20.0, inst.n))

    def test_mixed_exponents_fall_back(self, rng):
        inst = mixed_exponent_market()
        logc = inst.share_factors()  # the softmax's log c, cached in place of c^a
        assert isinstance(logc, np.ndarray) and np.array_equal(logc, np.log(inst.uncon_C.data))
        for _ in range(5):
            assert_matches_softmax(inst, rng.uniform(0.05, 20.0, inst.n))

    def test_wide_price_spread_falls_back(self):
        # |b| (max log p - min log p) = 9 * 40 log 10 > SPREAD_LIMIT: the factored
        # product would underflow the rows that value only the dearest goods
        n = 12
        utilities = [UtilitySpec(CES, np.arange(n), np.linspace(1.0, 2.0, n), rho=0.9),
                     UtilitySpec(CES, [n - 2, n - 1], [1.0, 0.5], rho=0.9)]
        inst = MarketInstance(n, 2, [0.5, 0.5], utilities)
        p = np.logspace(-40, 0, n)
        assert 9.0 * np.log(p[-1] / p[0]) > oracle.SPREAD_LIMIT
        G = assert_matches_softmax(inst, p)
        assert G.data[-2:].min() > 0.0

    def test_goods_outnumbering_nonzeros(self, rng):
        # the p^b row spans all 50 goods while the rows hold 15 nonzeros
        n = 50
        utilities = [UtilitySpec(CES, rng.choice(n, 3, replace=False), rng.uniform(0.5, 2.0, 3),
                                 rho=-0.5) for _ in range(5)]
        inst = MarketInstance(n, 5, np.full(5, 0.2), utilities)
        assert isinstance(inst.share_factors(), ShareFactors) and inst.uncon_C.nnz < n
        assert_matches_softmax(inst, rng.uniform(0.1, 10.0, n))

    def test_queries_return_fresh_data_and_keep_the_cache(self, rng):
        inst = mixed_exponent_market(exponents=(0.5,))
        f = inst.share_factors()
        ca = f.Ca.data.copy()
        # the cached c^a sits on uncon_C's index arrays, not copies
        assert np.shares_memory(f.Ca.indices, inst.uncon_C.indices)
        assert np.shares_memory(f.Ca.indptr, inst.uncon_C.indptr)
        s1, _ = oracle.bid_shares(inst, rng.uniform(0.5, 2.0, inst.n))
        G1 = s1.csr()
        first = G1.data.copy()
        s2, _ = oracle.bid_shares(inst, rng.uniform(0.5, 2.0, inst.n))
        assert s1.Ca is s2.Ca is f.Ca
        assert not np.shares_memory(s1.q, s2.q) and not np.shares_memory(s1.S, s2.S)
        assert not np.shares_memory(G1.data, s2.csr().data)
        assert not np.shares_memory(G1.data, f.Ca.data)
        assert np.array_equal(G1.data, first)
        assert inst.share_factors() is f and np.array_equal(f.Ca.data, ca)


class NoSpecs:
    """Stands in for ``MarketInstance.utilities``: any use of it fails."""

    def refuse(self, *args):
        raise AssertionError("a solver read instance.utilities")

    __getattr__ = __getitem__ = __iter__ = __len__ = __bool__ = __contains__ = refuse


def additive_market(seed=4, n=6, m=10):
    """Additive players with two exponents, so their shares take the softmax path."""
    rng = np.random.default_rng(seed)
    utilities = [UtilitySpec(ADDITIVE, np.arange(n), rng.uniform(0.5, 2.0, n), k=2.0, r=0.4)
                 if i % 2 else
                 UtilitySpec(ADDITIVE, np.arange(n), rng.uniform(0.5, 2.0, n), k=-1.0, r=-0.5)
                 for i in range(m)]
    return MarketInstance(n, m, rng.uniform(0.5, 1.5, m), utilities)


@pytest.mark.parametrize("build", [
    lambda: mq.generate_random(8, 16, 0.6, rho=0.5, seed=3),
    additive_market,
    mixed_flow_instance,
    lambda: mq.generate_random(6, 10, 0.6, seed=2, kind="linear_barrier", sigma=0.1),
], ids=["ces", "additive", "mixed-flow", "linear-barrier"])
def test_solvers_never_read_the_specs(build):
    inst = build()
    assert mq.validate(inst) == []
    inst.utilities = NoSpecs()
    p = np.linspace(0.5, 1.5, inst.n) * inst.total_budget() / inst.n
    state = market_state(inst, p)
    hes.assemble_from_state(state, inst)
    mq.equilibrium_certificate(inst, p)
    _, trace = mq.logbar_run(inst, mq.LogBarConfig(sigma_override=0.6, max_iters=3))
    assert trace.iterations() == 3


class TestConstants:
    def test_t_phi_examples(self):
        # theory_strict_Q(inst, eps) = eps / (14 eps + 4 T_phi (sqrt(n) + 1))
        for rho, T_phi in ((0.5, 24.0), (-1.0, 2.0)):
            inst = MarketInstance(2, 1, [1.0], [UtilitySpec(CES, [0, 1], [1.0, 1.0], rho=rho)])
            Q = 1.0 / (14.0 + 4.0 * T_phi * (math.sqrt(2.0) + 1.0))
            assert abs(theory_strict_Q(inst, 1.0) - Q) < 1e-12 * Q


class TestSlcAndSelfConcordance:
    @staticmethod
    def f_value(inst, p, c, k, r):
        """(k log S at the player's demand, demand, bids) of a one-player market."""
        state = market_state(inst, p)
        supp = c > 0
        S = float(np.sum(c[supp] * state.demand[supp] ** r))
        return k * math.log(S), state.demand, bid_rows(state)[0]

    def test_dual_slc_third_order_remainder(self, rng):
        # |f(p+q) - quadratic model| <= rho^3 T_f / (6(1-rho)) for the scaled
        # radius rho <= 0.3
        n = 6
        for trial in range(10):
            spec = random_player(np.random.default_rng(trial), n)
            c = spec.dense(n)
            w = 1.3
            inst = MarketInstance(n, 1, [w], [spec])
            k, r = inst.k[0], inst.r[0]
            d = k * r
            p = rng.uniform(0.5, 2.0, n)
            q = rng.standard_normal(n)
            q *= 0.3 / np.linalg.norm(q / p) * rng.random()
            rho_n = np.linalg.norm(q / p)
            f0, x, gamma = self.f_value(inst, p, c, k, r)
            f1, _, _ = self.f_value(inst, p + q, c, k, r)
            grad = -(d / w) * x
            M = (d / (1.0 - r)) * (np.diag(gamma) - r * np.outer(gamma, gamma))
            hess_qq = float(q @ (M / p[:, None] / p[None, :] @ q))
            remainder = abs(f1 - f0 - float(grad @ q) - 0.5 * hess_qq)
            T_f = max(6.0 * d / (1.0 - r) ** 2, 2.0 * d)
            bound = rho_n**3 * T_f / (6.0 * (1.0 - rho_n))
            assert remainder <= bound * (1.0 + 1e-9) + 1e-12

    def test_self_concordance_ratio_bounded(self, rng):
        # third-vs-second directional derivative ratio of v at the best
        # response stays below the kappa-based constant
        n = 5
        for trial in range(10):
            spec = random_player(np.random.default_rng(100 + trial), n)
            c = spec.dense(n)
            inst = MarketInstance(n, 1, [1.0], [spec])
            k, r = inst.k[0], inst.r[0]
            d = k * r
            state = market_state(inst, rng.uniform(0.5, 2.0, n))
            supp = c > 0
            x, gamma = state.demand[supp], bid_rows(state)[0][supp]
            kappa = 1.0 / gamma.min()
            C_v = kappa**3 * max(2.0, 6.0 * r**2 - 6.0 * r + 2.0) / math.sqrt(d)
            for _ in range(20):
                h = rng.standard_normal(len(x))
                z = h / x
                t1, t2, t3 = (float(gamma @ z**m) for m in (1, 2, 3))
                H3 = d * (-(r - 1) * (r - 2) * t3 + 3 * r * (r - 1) * t2 * t1 - 2 * r**2 * t1**3)
                H2 = d * ((1 - r) * t2 + r * t1**2)
                if H2 <= 1e-300:
                    continue
                assert abs(H3) <= C_v * H2**1.5 * (1.0 + 1e-9)
