import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import marketeq as mq
from marketeq import hessian as hes
from marketeq import ipm
from marketeq.market import ADDITIVE, CES, MarketInstance, UtilitySpec
from marketeq.oracle import ShareRows
from marketeq.hessian import (
    ScaledHessianOp,
    SingularUpdateError,
    assemble,
    diff_norm_estimate,
    dr1_solve,
    pcg_solve,
    share_operator,
)

from conftest import load_bench, mixed_flow_instance, mixed_sign_ces_instance


def explicit_rows(gammas):
    """Dense bidding rows as ``oracle.ShareRows``: the explicit CSR, q and S ones."""
    m, n = gammas.shape
    return ShareRows(sp.csr_matrix(gammas), np.ones(n), np.ones(m))


def op_from_gammas(gammas, w, r):
    """Operator straight from bidding rows (test construction path)."""
    return share_operator(gammas.shape[1], explicit_rows(gammas), w, r)


def dr1_dense(op):
    """The DR1 surrogate diag(D) - Omega xi xi^T of an operator, as a dense matrix."""
    if op.dr1_xi is None:
        return np.diag(op.diag)
    return np.diag(op.diag) - op.dr1_omega * np.outer(op.dr1_xi, op.dr1_xi)


class TestAssemble:
    def test_single_player_dr1_equals_exact(self, rng):
        inst = mq.generate_random(6, 1, 1.0, rho=0.7, seed=3)
        p = rng.uniform(0.5, 2.0, 6)
        op = assemble(inst, p)
        for _ in range(5):
            v = rng.standard_normal(6)
            assert np.max(np.abs(op.matvec(v) - dr1_dense(op) @ v)) < 1e-14
        assert op.dr1_xi is not None
        assert np.max(np.abs(op.dense() - dr1_dense(op))) < 1e-14

    def test_omega_cancellation_drops_rank_one(self):
        # r = +0.5 and r = -0.5 with budgets tuned so sum w r/(1-r) = 0
        gam = np.array([[0.3, 0.7], [0.6, 0.4]])
        op = op_from_gammas(gam, w=np.array([1.0, 3.0]), r=np.array([0.5, -0.5]))
        assert op.dr1_xi is None
        v = np.array([0.2, -1.0])
        assert np.allclose(dr1_solve(op, 1.0, v), v / (op.diag + 1.0))  # the diagonal alone

    def test_zero_omega_drops_rank_one_without_dividing(self):
        # r = 0 for every player: s = 0, so omega = 0 and there is no xi
        gam = np.array([[0.3, 0.7], [0.6, 0.4]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = share_operator(2, explicit_rows(gam), np.array([1.0, 3.0]), np.zeros(2))
        assert op.dr1_omega == 0.0 and op.dr1_xi is None
        v = np.array([0.2, -1.0])
        assert np.array_equal(dr1_dense(op) @ v, op.matvec(v))

    def test_dr1_error_decreases_in_m(self):
        rng = np.random.default_rng(0)
        n = 60
        errs = []
        for m in (50, 200, 800):
            gam = rng.dirichlet(np.ones(n), size=m)
            op = op_from_gammas(gam, np.full(m, 1.0 / m), 0.5)
            errs.append(diff_norm_estimate(op, iters=40, seed=1))
        assert errs[0] > errs[1] > errs[2]

    def test_dr1_one_sided_psd(self, rng):
        # uniform r > 0: H~ - H is PSD; uniform r < 0 flips the sign
        for r, sign in ((0.6, 1.0), (-0.8, -1.0)):
            gam = rng.dirichlet(np.ones(8), size=12)
            op = op_from_gammas(gam, np.full(12, 1.0 / 12), r)
            D = np.zeros((8, 8))
            for j in range(8):
                e = np.zeros(8)
                e[j] = 1.0
                D[:, j] = op.diff_matvec(e)
            evals = np.linalg.eigvalsh(sign * (D + D.T) / 2)
            assert evals.min() >= -1e-12

    def test_psd_random_directions(self, rng):
        inst = mq.generate_random(10, 20, 0.6, rho=-1.5, seed=7)
        op = assemble(inst, rng.uniform(0.5, 2.0, 10))
        for _ in range(200):
            v = rng.standard_normal(10)
            assert float(v @ op.matvec(v)) >= -1e-12 * float(v @ v)

    def test_dense_cap(self):
        op = ScaledHessianOp(n=hes.DENSE_LIMIT + 1)
        with pytest.raises(ValueError):
            op.dense()

    def test_dr1_rejected_for_linear_markets(self):
        inst = mq.generate_random(4, 3, 1.0, seed=0, kind="linear_barrier", sigma=0.1)
        with pytest.raises(ValueError):
            dr1_solve(assemble(inst, np.ones(4)), 1e-3, np.ones(4))

    def test_dr1_rejected_for_flow_markets(self, rng):
        # the flow players' rows join the CES players' in R, and the operator
        # carries no DR1 data: the surrogate cannot represent them
        inst = mixed_flow_instance()
        p = rng.uniform(0.5, 2.0, inst.n)
        op = assemble(inst, p)
        assert op.dr1_omega is None
        with pytest.raises(ValueError, match="unconstrained"):
            dr1_solve(op, 1e-3, np.ones(inst.n))
        with pytest.raises(ValueError, match="unconstrained"):
            ipm._StepSolver(op, "dr1", 1e-10).newton_step(ipm.MU_FLOOR,
                                                          p * mq.market_state(inst, p).grad)


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def linear_blocks_reference(inst, p):
    """Sum of the per-player linear-barrier blocks (w/sigma)[diag((gamma+sigma)^2)
    - v v^T/(sigma+|gamma|^2)], v = (gamma+sigma) gamma; returns (H, rank-one part)."""
    # each player's demand from bench/checks.py's own root, apart from the oracle
    checks = load_bench("checks")
    xs = [checks.linear_barrier_demand(MarketInstance(inst.n, 1, [w], [u]), p)
          for u, w in zip(inst.utilities, inst.budgets)]
    gammas = [(1.0 + u.sigma * inst.n) * x * p / w - u.sigma
              for u, w, x in zip(inst.utilities, inst.budgets, xs)]
    H = np.zeros((inst.n, inst.n))
    R = np.zeros((inst.n, inst.n))
    for u, w, g in zip(inst.utilities, inst.budgets, gammas):
        v = (g + u.sigma) * g
        rank1 = (w / u.sigma) * np.outer(v, v) / (u.sigma + g @ g)
        H += (w / u.sigma) * np.diag((g + u.sigma) ** 2) - rank1
        R += rank1
    return H, R


class TestArrayPieces:
    @pytest.mark.parametrize("sigma", [0.05, 1e-3])
    def test_linear_pieces_match_per_player_blocks(self, rng, sigma):
        inst = mq.generate_random(15, 40, 0.5, seed=5, kind="linear_barrier", sigma=sigma)
        p = rng.uniform(0.5, 2.0, inst.n)
        op = assemble(inst, p)
        H, R = linear_blocks_reference(inst, p)
        assert rel_err(op.dense(), H) <= 1e-12
        for _ in range(5):
            v = rng.standard_normal(inst.n)
            assert rel_err(op.matvec(v), H @ v) <= 1e-12
            assert rel_err(op.diff_matvec(v), R @ v) <= 1e-12

    def test_blocked_ces_dense_matches_gram(self, rng):
        # more players than one Gram block, rho of both signs so s is mixed
        inst = mixed_sign_ces_instance(rng, m=2 * hes.GRAM_BLOCK + 37)
        op = assemble(inst, rng.uniform(0.5, 2.0, inst.n))
        assert op.s.min() < 0 < op.s.max()
        G = op.G.csr().toarray()
        a = inst.budgets / (1 - inst.r)
        ref = np.diag(G.T @ a) - G.T @ np.diag(op.s) @ G
        assert rel_err(op.dense(), ref) <= 1e-12

    def test_dense_into_a_buffer_writes_the_upper_triangle(self, rng):
        # the exact Newton solve's path: one reused Fortran buffer, upper triangle only
        inst = mixed_sign_ces_instance(rng)
        op = assemble(inst, rng.uniform(0.5, 2.0, inst.n))
        H = op.dense()
        assert np.array_equal(H, H.T)
        buf = np.asfortranarray(rng.standard_normal((inst.n, inst.n)))
        assert op.dense(out=buf) is buf
        assert np.array_equal(np.triu(buf), np.triu(H))


class TestDr1Solve:
    def test_diagonal_only_closed_form(self):
        op = ScaledHessianOp(n=3, diag=np.ones(3), dr1_omega=0.0)
        d = dr1_solve(op, 1.0, np.array([2.0, 4.0, -1.0]))
        assert np.allclose(d, [1.0, 2.0, -0.5])

    def test_matvec_residual(self, rng):
        inst = mq.generate_random(6, 1, 1.0, rho=0.7, seed=3)
        op = assemble(inst, rng.uniform(0.5, 2.0, 6))
        rhs = rng.standard_normal(6)
        d = dr1_solve(op, 0.1, rhs)
        resid = dr1_dense(op) @ d + 0.1 * d - rhs
        assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(rhs)

    def test_matches_dense_factorization(self, rng):
        n = 50
        gam = rng.dirichlet(np.ones(n), size=30)
        op = op_from_gammas(gam, np.full(30, 1.0 / 30), 0.4)
        rhs = rng.standard_normal(n)
        mu = 1e-3
        d = dr1_solve(op, mu, rhs)
        Ht = np.diag(op.diag) - op.dr1_omega * np.outer(op.dr1_xi, op.dr1_xi)
        dense = np.linalg.solve(Ht + mu * np.eye(n), rhs)
        assert np.max(np.abs(d - dense)) <= 1e-10 * max(1.0, np.max(np.abs(dense)))

    def test_roundtrip_identity(self, rng):
        inst = mq.generate_random(12, 30, 0.5, rho=0.3, seed=9)
        op = assemble(inst, rng.uniform(0.5, 2.0, 12))
        for _ in range(20):
            rhs = rng.standard_normal(12)
            d = dr1_solve(op, 1e-2, rhs)
            back = dr1_dense(op) @ d + 1e-2 * d
            assert np.max(np.abs(back - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))

    def test_indefinite_surrogate_refused(self):
        # Omega > 0 with 1/Omega < xi^T M^-1 xi: D + mu - Omega xi xi^T has a
        # negative eigenvalue, so it is neither a Newton metric nor a preconditioner
        op = ScaledHessianOp(n=2, diag=np.ones(2), dr1_omega=2.0, dr1_xi=np.array([1.0, 0.0]))
        with pytest.raises(SingularUpdateError):
            dr1_solve(op, 0.0, np.array([1.0, 1.0]))

    def test_singular_update_detected(self):
        # craft Omega^-1 == xi^T M^-1 xi exactly: D = 1, mu = 0, xi = e1,
        # Omega = 1
        op = ScaledHessianOp(n=2, diag=np.ones(2), dr1_omega=1.0, dr1_xi=np.array([1.0, 0.0]))
        with pytest.raises(SingularUpdateError):
            dr1_solve(op, 0.0, np.array([1.0, 1.0]))

    def test_missing_dr1_data(self):
        with pytest.raises(ValueError):
            dr1_solve(ScaledHessianOp(n=2), 1.0, np.ones(2))


class TestPcg:
    def test_identity_converges_in_one_iteration(self, rng):
        # single block with r = 0 and w = n, uniform gamma: H = I
        n = 6
        op = op_from_gammas(np.full((1, n), 1.0 / n), np.array([float(n)]), np.array([0.0]))
        rhs = rng.standard_normal(n)
        d, iters = pcg_solve(op, 0.0, rhs, 1e-10)
        assert iters == 1
        assert np.allclose(d, rhs, atol=1e-12)

    def test_residual_criterion(self, rng):
        inst = mq.generate_random(30, 60, 0.5, rho=0.8, seed=4)
        op = assemble(inst, rng.uniform(0.5, 2.0, 30))
        rhs = rng.standard_normal(30)
        eps_k = 1e-7
        d, iters = pcg_solve(op, 1e-3, rhs, eps_k, op.preconditioner())
        resid = np.linalg.norm(op.matvec(d) + 1e-3 * d - rhs)
        assert resid <= eps_k * max(np.linalg.norm(d), 1e-30) or iters == 30

    def test_preconditioning_reduces_iterations(self, rng):
        wins = 0
        for seed in range(10):
            inst = mq.generate_random(80, 120, 0.4, rho=0.9, seed=seed)
            op = assemble(inst, np.random.default_rng(seed).uniform(0.5, 2.0, 80))
            rhs = np.random.default_rng(seed + 99).standard_normal(80)
            _, it_pre = pcg_solve(op, 1e-3, rhs, 1e-8, op.preconditioner())
            _, it_raw = pcg_solve(op, 1e-3, rhs, 1e-8, None)
            wins += it_pre <= it_raw
        assert wins >= 9

    def test_zero_rhs(self):
        op = ScaledHessianOp(n=3, diag=np.ones(3), dr1_omega=0.0)
        d, iters = pcg_solve(op, 1.0, np.zeros(3), 1e-8)
        assert iters == 0 and np.all(d == 0)

    def test_indefinite_operator_detected(self):
        class BadOp:
            n = 2
            def matvec(self, v):
                return -v
        with pytest.raises(FloatingPointError):
            pcg_solve(BadOp(), 0.0, np.array([1.0, 0.0]), 1e-8)

    def test_preconditioner_not_positive_refused(self):
        op = ScaledHessianOp(n=3, diag=np.ones(3), dr1_omega=0.0)
        with pytest.raises(FloatingPointError, match="preconditioner"):
            pcg_solve(op, 1.0, np.array([1.0, 2.0, 3.0]), 1e-8, precond=lambda r: -r)

    @pytest.mark.parametrize("r", [0.6, -0.8])
    @pytest.mark.parametrize("mu", [1e-12, 1e-3])
    def test_dr1_preconditioner_no_more_iterations_than_jacobi(self, r, mu):
        n, eps_k = 120, 1e-8
        for seed in range(5):
            inst = mq.generate_random(n, 3 * n, 0.2, rho=r, seed=seed)
            op = assemble(inst, np.random.default_rng(seed).uniform(0.5, 2.0, n))
            rhs = np.random.default_rng(seed + 7).standard_normal(n)
            d_jac, it_jac = pcg_solve(op, mu, rhs, eps_k, op.preconditioner())
            d_dr1, it_dr1 = pcg_solve(op, mu, rhs, eps_k, precond=hes.dr1_inverse(op, mu))
            for d in (d_jac, d_dr1):
                assert np.linalg.norm(op.matvec(d) + mu * d - rhs) <= eps_k * np.linalg.norm(d)
            assert it_dr1 <= it_jac, f"seed {seed}: DR1 {it_dr1} > Jacobi {it_jac}"


class TestPreconditioner:
    def test_row_sum_identity(self, rng):
        inst = mq.generate_random(8, 15, 0.7, rho=0.5, seed=6)
        p = rng.uniform(0.5, 2.0, 8)
        op = assemble(inst, p)
        pre = op.preconditioner()
        assert np.max(np.abs(pre - op.matvec(np.ones(8)))) < 1e-12
        G = mq.oracle.bid_shares(inst, p)[0].csr()
        assert np.max(np.abs(pre - G.T @ inst.budgets)) < 1e-12

    def test_zero_guard(self):
        op = ScaledHessianOp(n=2, diag=np.zeros(2), dr1_omega=0.0)
        pre = op.preconditioner()
        assert np.all(pre >= hes.KC_FLOOR)

    def test_condition_number_bound_small(self, rng):
        # Theorem-style bound at modest size; the acceptance suite runs the
        # n = 200 version for all four r values
        for r, bound in ((0.5, 2.0), (-0.9, 1.9)):
            inst = mq.generate_random(40, 80, 0.5, rho=r, seed=12)
            op = assemble(inst, rng.uniform(0.5, 2.0, 40))
            H = op.dense()
            kc = op.row_sums()
            Hc = H / np.sqrt(kc)[:, None] / np.sqrt(kc)[None, :]
            ev = np.linalg.eigvalsh(Hc)
            assert ev[-1] / ev[0] <= bound + 1e-8


def shared_r_additive_instance(rng, n=25, m=70, r=0.4):
    """Additive and CES players with one exponent r, so their shares stay factored."""
    utilities = []
    for i in range(m):
        idx = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        c = rng.uniform(0.1, 2.0, idx.size)
        utilities.append(UtilitySpec(ADDITIVE, idx, c, k=rng.uniform(0.2, 2.0), r=r) if i % 2
                         else UtilitySpec(CES, idx, c, rho=r))
    return MarketInstance(n, m, rng.uniform(0.5, 1.5, m) / m, utilities)


def explicit_reference(inst, state):
    """H, the DR1 vector xi and demand from the explicit share matrix, in dense numpy."""
    uncon, p = inst.uncon, state.p
    G = state.shares.csr().toarray()
    w, r = inst.budgets[uncon], inst.r[uncon]
    a, s = w / (1 - r), w * r / (1 - r)
    H = np.diag(G.T @ a) - G.T @ (s[:, None] * G)
    demand = G.T @ w / p
    for grp, X in state.con_x:
        for i, x in zip(grp.players, X):
            H += (inst.budgets[i] / inst.degree[i] * np.outer(p, p)
                  * mq.oracle.constrained_dual_hessian(inst, i, x))
            demand = demand + x
    return H, G.T @ s / s.sum(), demand


FACTORED_MARKETS = {
    "ces-rho=0.9": lambda rng: mq.generate_random(40, 120, 0.3, rho=0.9, seed=4),
    "ces-rho=-0.9": lambda rng: mq.generate_random(40, 120, 0.3, rho=-0.9, seed=4),
    "additive-shared-r": shared_r_additive_instance,
    "flow": lambda rng: mixed_flow_instance(players=3, ces_players=6),
}


class TestFactoredShares:
    """G = diag(1/S) C^a diag(q) kept factored against the explicit share matrix."""

    @pytest.mark.parametrize("name", list(FACTORED_MARKETS))
    def test_factored_matches_materialized(self, rng, monkeypatch, name):
        inst = FACTORED_MARKETS[name](rng)
        p = rng.uniform(0.5, 2.0, inst.n)
        state = mq.market_state(inst, p)
        assert state.shares.Ca is inst.share_factors().Ca  # the factored path ran
        op = hes.assemble_from_state(state, inst)
        # the softmax path computes the explicit shares independently
        monkeypatch.setattr(mq.oracle, "SPREAD_LIMIT", -1.0)
        ref = mq.market_state(inst, p)
        assert ref.shares.Ca is not inst.share_factors().Ca
        H, xi, demand = explicit_reference(inst, ref)
        assert rel_err(state.demand, ref.demand) <= 1e-13
        assert rel_err(state.demand, demand) <= 1e-13
        assert abs(state.value - ref.value) <= 1e-13 * abs(ref.value)
        assert rel_err(op.row_sums(), H.sum(axis=1)) <= 1e-13
        assert rel_err(op.dense(), H) <= 1e-13
        for _ in range(3):
            v = rng.standard_normal(inst.n)
            assert rel_err(op.matvec(v), H @ v) <= 1e-13
        if not inst.con.size:
            G = ref.shares.csr().toarray()
            uncon = inst.uncon
            a = inst.budgets[uncon] / (1 - inst.r[uncon])
            assert rel_err(op.diag, G.T @ a) <= 1e-13
            assert rel_err(op.dr1_xi, xi) <= 1e-13
            assert rel_err(op.k_c, G.T @ inst.budgets[uncon]) <= 1e-13

    def test_spread_just_under_the_limit(self, monkeypatch):
        # rho = 0.9, so b = -9 and q = p^b spans e^-598.5: the player valuing only
        # the two dearest goods has S ~ 1e-239, and 1/S^2 overflows
        n = 12
        utilities = [UtilitySpec(CES, np.arange(n), np.linspace(1.0, 2.0, n), rho=0.9),
                     UtilitySpec(CES, [n - 2, n - 1], [0.5, 1.0], rho=0.9),
                     UtilitySpec(CES, [0, 1, n - 1], [0.7, 1.0, 2.0], rho=0.9)]
        inst = MarketInstance(n, 3, [0.3, 0.3, 0.4], utilities)
        p = np.exp(np.linspace(-598.5 / 18, 598.5 / 18, n))
        assert 9.0 * np.log(p[-1] / p[0]) == pytest.approx(598.5)
        state = mq.market_state(inst, p)
        assert state.shares.Ca is inst.share_factors().Ca
        with np.errstate(over="ignore"):
            assert (1.0 / state.shares.S.min()) ** 2 == np.inf
        op = hes.assemble_from_state(state, inst)
        monkeypatch.setattr(mq.oracle, "SPREAD_LIMIT", -1.0)
        ref = mq.market_state(inst, p)
        ref_op = hes.assemble_from_state(ref, inst)
        H, _, _ = explicit_reference(inst, ref)
        assert np.all(np.isfinite(state.demand)) and np.isfinite(state.value)
        assert np.max(np.abs(state.demand - ref.demand) / ref.demand) <= 1e-12
        assert abs(state.value - ref.value) <= 1e-12 * abs(ref.value)
        dense = op.dense()
        assert np.all(np.isfinite(dense))
        assert rel_err(dense, ref_op.dense()) <= 1e-12 and rel_err(dense, H) <= 1e-12
        for v in np.random.default_rng(5).standard_normal((3, n)):
            Hv = op.matvec(v)
            assert np.all(np.isfinite(Hv))
            assert rel_err(Hv, ref_op.matvec(v)) <= 1e-12 and rel_err(Hv, H @ v) <= 1e-12

    def test_price_query_to_pcg_builds_no_share_matrix(self, rng, monkeypatch):
        inst = mq.generate_random(30, 60, 0.4, rho=0.9, seed=2)
        p = rng.uniform(0.5, 2.0, inst.n)
        mq.market_state(inst, p)  # the first query caches C^a, a CSR built once

        def refuse(*args, **kwargs):
            raise AssertionError("a CSR matrix was built")

        # oracle.sp and hessian.sp are this module
        monkeypatch.setattr(sp, "csr_matrix", refuse)
        state = mq.market_state(inst, p)
        op = hes.assemble_from_state(state, inst)
        d, iters = pcg_solve(op, 1e-3, state.p * state.grad, 1e-10, op.preconditioner())
        assert iters > 0 and np.all(np.isfinite(d))
        with pytest.raises(AssertionError, match="CSR"):
            state.shares.csr()  # the explicit share matrix is built on demand only
