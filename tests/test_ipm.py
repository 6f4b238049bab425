import dataclasses
import math
import os
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

import marketeq as mq
from marketeq import hessian as hes
from marketeq import ipm, oracle
from marketeq.ipm import (
    ConfigError,
    LogBarConfig,
    PathFolConfig,
    SolveTrace,
    TraceRow,
    equilibrium_certificate,
    logbar_run,
    newton_polish,
    pathfol_run,
    theory_strict_Q,
)
from marketeq.market import CES, MarketInstance, UtilitySpec
from marketeq.oracle import OracleError, linear_barrier_kkt_residual, market_state

from conftest import (load_bench, mixed_flow_instance, mixed_sign_ces_instance, run_with_iterates,
                      symmetric_instance)


class TestLogBarInit:
    def test_unit_budget_example(self):
        inst = symmetric_instance(4, 6)
        mu0, state = ipm._initial_center(inst, 0.25, SolveTrace())
        p0 = state.p
        assert abs(mu0 - 2.0) < 1e-12
        assert np.allclose(p0, 2.0)

    def test_scaled_budget_lemma_value(self):
        from marketeq.ipm import lemma_initial_mu
        utilities = [UtilitySpec(CES, np.arange(3), np.ones(3), rho=0.5) for _ in range(4)]
        inst = MarketInstance(3, 4, np.full(4, 1.0), utilities)  # sum w = 4
        assert abs(lemma_initial_mu(inst, 0.25) - 4.0) < 1e-12
        # the lemma value fails direct membership on this symmetric instance
        # (residual ||sum x|| = 1/sqrt(3) > Q), so init escalates past it
        mu0, state = ipm._initial_center(inst, 0.25, SolveTrace())
        p0 = state.p
        assert mu0 > 4.0
        g = market_state(inst, p0).grad
        assert np.linalg.norm(p0 * g - mu0) / mu0 <= 0.25

    def test_membership_verified(self):
        inst = mq.generate_random(10, 30, 0.8, rho=0.6, seed=4)
        mu0, state = ipm._initial_center(inst, 0.25, SolveTrace())
        p0 = state.p
        g = market_state(inst, p0).grad
        assert np.linalg.norm(p0 * g - mu0) / mu0 <= 0.25

    def test_escalation_for_tiny_Q(self):
        # the sqrt choice does not cover theory-strict Q; the doubling loop
        # must still return a certified center
        inst = mq.generate_random(5, 8, 1.0, rho=-0.5, seed=3)
        Q = 1e-4
        mu0, state = ipm._initial_center(inst, Q, SolveTrace())
        p0 = state.p
        g = market_state(inst, p0).grad
        assert np.linalg.norm(p0 * g - mu0) / mu0 <= Q * (1 + 1e-12)
        assert mu0 > math.sqrt(1.0 / Q)  # escalated beyond the lemma value


class TestLogBarRun:
    def test_sigma_formula_example(self):
        inst = symmetric_instance(4, 4)
        cfg = LogBarConfig(Q=0.25, eps=1e-4, max_iters=5)
        _, trace = logbar_run(inst, cfg)
        assert abs(trace.extras["sigma"] - 0.9) < 1e-12

    def test_symmetric_converges_to_uniform(self):
        inst = symmetric_instance(6, 10)
        cfg = LogBarConfig(eps=1e-9, sigma_override=0.6, max_iters=200)
        p, trace = logbar_run(inst, cfg)
        assert trace.status == "Converged"
        assert np.max(np.abs(p - 1.0 / 6.0)) < 1e-7

    def test_mu_sequence_exactly_geometric(self):
        inst = mq.generate_random(8, 20, 0.9, rho=0.5, seed=2)
        cfg = LogBarConfig(eps=1e-7, sigma_override=0.7, max_iters=100)
        _, trace = logbar_run(inst, cfg)
        mus = [r.homotopy for r in trace.rows]
        mu = mus[0]
        for k in range(1, len(mus)):
            mu = 0.7 * mu
            assert mus[k] == mu  # bitwise: the loop multiplies in place

    def test_mu_underflow_ends_numerical_failure(self):
        # eps = 1e-300 is out of reach, so mu = mu0 0.01^k runs into the subnormals
        inst = mq.generate_random(8, 20, 0.9, rho=0.5, seed=2)
        cfg = LogBarConfig(eps=1e-300, sigma_override=0.01, max_iters=400)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            _, trace = logbar_run(inst, cfg)
        assert trace.status == "NumericalFailure"
        assert "mu underflow" in trace.extras["error"]
        mus = [r.homotopy for r in trace.rows]
        assert len(mus) == 154  # the step from row 153 would make mu subnormal
        assert min(mus) >= np.finfo(float).tiny > 0.01 * mus[-1]
        assert all(math.isfinite(r.nbhd_resid) for r in trace.rows)
        mu = mus[0]
        for k in range(1, len(mus)):
            mu = 0.01 * mu
            assert mus[k] == mu

    def test_positive_iterates_and_no_safeguard_on_path(self):
        inst = mq.generate_random(12, 30, 0.8, rho=-0.9, seed=6)
        cfg = LogBarConfig(eps=1e-7, sigma_override=0.6, max_iters=200)
        _, trace, iterates = run_with_iterates(logbar_run, inst, cfg)
        assert trace.status == "Converged"
        assert all(np.all(p > 0) for p in iterates)
        assert trace.extras["safeguards"] == 0

    def test_all_modes_agree(self):
        inst = mq.generate_random(20, 60, 0.7, rho=0.9, seed=5)
        sols = {}
        for mode in ("exact", "dr1", "pcg"):
            cfg = LogBarConfig(eps=1e-9, sigma_override=0.6, hessian_mode=mode, max_iters=300)
            p, trace = logbar_run(inst, cfg)
            assert trace.status == "Converged"
            sols[mode] = p
        assert np.linalg.norm(sols["exact"] - sols["dr1"]) / np.linalg.norm(sols["exact"]) < 1e-6
        assert np.linalg.norm(sols["exact"] - sols["pcg"]) / np.linalg.norm(sols["exact"]) < 1e-6

    def test_decrement_is_the_step_barrier_decrement(self):
        # row k records ||P grad phi - mu_{k+1} 1||* in the metric H~ + mu_{k+1} I
        inst = mq.generate_random(10, 30, 0.8, rho=0.5, seed=4)
        cfg = LogBarConfig(eps=1e-7, sigma_override=0.6, hessian_mode="exact", max_iters=200)
        _, trace, iterates = run_with_iterates(logbar_run, inst, cfg)
        assert trace.status == "Converged"
        for k, row in enumerate(trace.rows[:-1]):
            mu = trace.rows[k + 1].homotopy
            state = market_state(inst, iterates[k])
            H = hes.assemble_from_state(state, inst).dense()
            g = iterates[k] * state.grad - mu
            lam = math.sqrt(g @ np.linalg.solve(H + mu * np.eye(inst.n), g))
            assert abs(row.decrement - lam) <= 1e-8 * max(1.0, lam)
        assert math.isnan(trace.rows[-1].decrement)

    def test_one_factorization_per_step(self, monkeypatch):
        real = scipy.linalg.cho_factor
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_factor", counting)
        inst = mq.generate_random(12, 30, 0.8, rho=-0.9, seed=6)
        cfg = LogBarConfig(eps=1e-7, sigma_override=0.6, hessian_mode="exact", max_iters=200)
        _, trace = logbar_run(inst, cfg)
        assert trace.status == "Converged"
        assert len(calls) == trace.iterations() - 1

    def test_pcg_iterations_recorded(self):
        inst = mq.generate_random(15, 40, 0.8, rho=0.5, seed=8)
        cfg = LogBarConfig(eps=1e-7, sigma_override=0.6, hessian_mode="pcg", max_iters=200)
        _, trace = logbar_run(inst, cfg)
        assert any(r.pcg_iters and r.pcg_iters > 0 for r in trace.rows)

    def test_maxiters_status(self):
        inst = mq.generate_random(8, 20, 0.9, rho=0.5, seed=2)
        cfg = LogBarConfig(eps=1e-12, sigma_override=0.99, max_iters=3)
        _, trace = logbar_run(inst, cfg)
        assert trace.status == "MaxIters"

    def test_mu_stop_flag(self):
        inst = mq.generate_random(8, 20, 0.9, rho=0.5, seed=2)
        cfg = LogBarConfig(eps=1e-4, sigma_override=0.6, max_iters=500, mu_stop=True)
        _, trace = logbar_run(inst, cfg)
        assert trace.status == "Converged"
        assert trace.extras["mu_threshold_k"] is not None

    def test_oracle_error_ends_the_run_as_numerical_failure(self, monkeypatch):
        # call 1 accepts the center and gives row 0, calls 2-3 rows 1-2, call 4 fails before row 3
        real, calls = ipm.market_state, []

        def failing(instance, p, prev=None):
            calls.append(1)
            if len(calls) == 4:
                raise OracleError("forced oracle failure")
            return real(instance, p)

        monkeypatch.setattr(ipm, "market_state", failing)
        inst = mq.generate_random(8, 20, 0.9, rho=0.5, seed=2)
        _, trace = logbar_run(inst, LogBarConfig(eps=1e-7, sigma_override=0.6, max_iters=200))
        assert trace.status == "NumericalFailure"
        assert trace.extras["error"] == "forced oracle failure"
        assert trace.iterations() == 3

    def test_dr1_failure_falls_back_to_pcg_bit_for_bit(self, monkeypatch):
        inst = mq.generate_random(30, 90, 0.5, rho=0.8, seed=5)
        cfg = LogBarConfig(eps=1e-7, sigma_override=0.6, hessian_mode="pcg", max_iters=300)
        p_pcg, tr_pcg = logbar_run(inst, cfg)
        dr1_calls = []

        def singular(op, mu, rhs):
            dr1_calls.append(1)
            raise hes.SingularUpdateError("forced")

        monkeypatch.setattr(hes, "dr1_solve", singular)
        p_dr1, tr_dr1 = logbar_run(inst, dataclasses.replace(cfg, hessian_mode="dr1"))
        assert tr_pcg.status == tr_dr1.status == "Converged"
        assert tr_dr1.iterations() == tr_pcg.iterations()
        assert np.array_equal(p_dr1, p_pcg)
        # one step solve per row but the last, each one a fallback
        assert tr_dr1.extras["dr1_fallbacks"] == len(dr1_calls) == tr_dr1.iterations() - 1
        assert tr_pcg.extras["dr1_fallbacks"] == 0

    def test_dr1_preconditioner_failure_falls_back_to_jacobi(self, monkeypatch):
        inst = mq.generate_random(30, 90, 0.5, rho=0.8, seed=5)
        op = hes.assemble(inst, np.random.default_rng(5).uniform(0.5, 2.0, 30))
        rhs = np.random.default_rng(6).standard_normal(30)
        solver = ipm._StepSolver(op, "pcg", 1e-10)
        dr1_pcg = hes.pcg_solve(op, 1e-3, rhs, 1e-10, precond=hes.dr1_inverse(op, 1e-3))[0]
        assert np.array_equal(solver.solve(1e-3, rhs), dr1_pcg) and solver.fallbacks == 0

        def singular(op, mu):
            raise hes.SingularUpdateError("forced")

        monkeypatch.setattr(hes, "dr1_inverse", singular)
        solver = ipm._StepSolver(op, "pcg", 1e-10)
        jacobi = hes.pcg_solve(op, 1e-3, rhs, 1e-10, op.preconditioner())[0]
        assert np.array_equal(solver.solve(1e-3, rhs), jacobi)
        assert np.array_equal(solver.solve(1e-3, -rhs), -jacobi)
        assert solver.fallbacks == 1  # one factorization per shift
        cfg = LogBarConfig(eps=1e-7, sigma_override=0.6, hessian_mode="pcg", max_iters=300)
        _, trace = logbar_run(inst, cfg)
        assert trace.status == "Converged"
        assert trace.extras["dr1_fallbacks"] == trace.iterations() - 1

    def test_config_validation(self):
        inst = mq.generate_random(4, 4, 1.0, seed=0)
        with pytest.raises(ConfigError):
            logbar_run(inst, LogBarConfig(Q=0.7))
        with pytest.raises(ConfigError):
            logbar_run(inst, LogBarConfig(sigma_override=1.5))
        linear = mq.generate_random(4, 4, 1.0, seed=0, kind="linear_barrier", sigma=0.1)
        with pytest.raises(ConfigError):
            logbar_run(linear, LogBarConfig(hessian_mode="dr1"))

    @pytest.mark.parametrize("sigma", [0.0, math.nan])
    def test_drivers_refuse_a_sigma_that_is_not_positive(self, sigma):
        # built directly, past with_barrier_sigma's check; unchecked, sigma=0
        # ran the sigma ladder down until a stage underflowed to 0 and
        # sigma=nan ended NumericalFailure at iteration 0
        base = mq.generate_random(6, 10, 0.6, seed=2, kind="linear_barrier", sigma=1e-2)
        inst = MarketInstance(base.n, base.m, base.budgets,
                              [dataclasses.replace(u, sigma=sigma) for u in base.utilities])
        with pytest.raises(ConfigError, match="sigma"):
            logbar_run(inst, LogBarConfig(eps=1e-7))
        with pytest.raises(ConfigError, match="sigma"):
            pathfol_run(inst, PathFolConfig(), np.ones(inst.n))

    @pytest.mark.parametrize("budget", [0.0, -1.0, math.inf, math.nan])
    def test_drivers_refuse_a_budget_that_is_not_positive(self, budget):
        base = symmetric_instance(3, 4)
        w = base.budgets.copy()
        w[2] = budget
        inst = MarketInstance(base.n, base.m, w, base.utilities)
        with pytest.raises(ConfigError, match="budgets"):
            logbar_run(inst, LogBarConfig())
        with pytest.raises(ConfigError, match="budgets"):
            pathfol_run(inst, PathFolConfig(), np.ones(inst.n))


def test_logbar_on_flow_market():
    # single-edge flow market clears (x0 = e = 1 at p0 + pe = w); the
    # equilibrium prices form a ray, but the gradient criterion is reached
    from marketeq.market import build_flow_instance
    inst = build_flow_instance([("s", "t")], [("s", "t")])
    p, trace = logbar_run(inst, LogBarConfig(eps=1e-8, hessian_mode="exact", max_iters=200))
    assert trace.status == "Converged"
    rep = equilibrium_certificate(inst, p, eps=1e-8)
    assert rep["grad_inf"] <= 1e-8
    assert rep["kkt_residual_max"] <= 1e-10
    assert abs(p.sum() - inst.total_budget()) < 1e-7


def test_logbar_on_the_benchmark_flow_market_at_money_scale():
    # W ~ 116: the constrained Newton's Armijo test, decided by rounding where a player's
    # slope is within v's accuracy, ended this run NumericalFailure after 18 rows
    # ("line search failed at stationarity 7.513e-09"); the flat rule accepts those steps
    inst = load_bench("workloads")._flow_cells(13)[0].instance
    w = 1.0 - np.random.default_rng(1013).random(inst.m)
    inst = MarketInstance(inst.n, inst.m, w, inst.utilities, inst.constraints)
    p, trace = logbar_run(inst, LogBarConfig(eps=1e-7, sigma_override=0.5, eps_k=1e-8,
                                             hessian_mode="exact", max_iters=2000))
    assert trace.status == "Converged", trace.extras.get("error")
    rep = equilibrium_certificate(inst, p, eps=1e-7)
    assert rep["converged"] and rep["kkt_residual_max"] <= 1e-12


def test_solves_leave_coefficient_arrays_unchanged():
    # the bidding-share matrix shares its index arrays with coeff_csr()
    inst = mq.generate_random(8, 16, 0.6, rho=0.5, seed=3)
    C = inst.coeff_csr()
    before = [arr.copy() for arr in (C.data, C.indices, C.indptr)]
    p0 = np.full(8, inst.total_budget() / 8)
    _, logbar = logbar_run(inst, LogBarConfig(eps=1e-8, sigma_override=0.5, hessian_mode="exact",
                                              max_iters=200))
    _, pathfol = pathfol_run(inst, PathFolConfig(eps=1e-8, hessian_mode="dr1", c_phi=10.0,
                                                 max_iters=2000), p0)
    assert logbar.status == pathfol.status == "Converged"
    assert inst.coeff_csr() is C
    for arr, old in zip((C.data, C.indices, C.indptr), before):
        assert arr.dtype == old.dtype and arr.tobytes() == old.tobytes()


class TestTheoryStrict:
    def test_neighborhood_invariance_small(self):
        # short version of the acceptance criterion: every covered iteration
        # satisfies the containment chain
        inst = mq.generate_random(4, 6, 1.0, rho=-0.5, seed=3)
        eps = 0.5
        Q = theory_strict_Q(inst, eps)
        cfg = LogBarConfig(Q=Q, eps=eps, hessian_mode="exact", max_iters=20000, mu_stop=True)
        p, trace, iterates = run_with_iterates(logbar_run, inst, cfg)
        sig = trace.extras["sigma"]
        mus = [r.homotopy for r in trace.rows]
        mu_thr = eps / (1.0 + math.sqrt(inst.n))
        checked = 0
        for k in range(len(mus) - 1):
            mu_next = mus[k] * sig
            if mu_next < mu_thr:
                break
            gk = market_state(inst, iterates[k]).grad
            r1 = np.linalg.norm(iterates[k] * gk - mus[k]) / mus[k]
            r2 = np.linalg.norm(iterates[k] * gk - mu_next) / mu_next
            gk1 = market_state(inst, iterates[k + 1]).grad
            r3 = np.linalg.norm(iterates[k + 1] * gk1 - mu_next) / mu_next
            assert r1 <= Q * (1 + 1e-9)
            assert r2 <= 2 * Q * (1 + 1e-9)
            assert r3 <= Q * (1 + 1e-9)
            checked += 1
        assert checked > 50
        assert trace.extras["safeguards"] == 0


class TestPathFolParams:
    def test_beta_gamma_sum_above_one_rejected(self):
        inst = mq.generate_random(4, 4, 1.0, seed=0)
        with pytest.raises(ConfigError):
            PathFolConfig(beta=0.25, gamma_step=0.76).validate(inst)


class TestPathFolRun:
    def test_initial_centering_residual_zero(self):
        inst = mq.generate_random(6, 12, 1.0, rho=0.5, seed=1)
        p0 = np.full(6, inst.total_budget() / 6)
        cfg = PathFolConfig(eps=1e-7, hessian_mode="exact", c_phi=10.0, max_iters=500)
        _, trace = pathfol_run(inst, cfg, p0)
        assert trace.rows[0].homotopy == 1.0
        assert trace.rows[0].nbhd_resid <= 1e-12

    def test_symmetric_converges(self):
        inst = symmetric_instance(5, 8)
        p0 = np.full(5, 0.1)
        cfg = PathFolConfig(eps=1e-9, hessian_mode="exact", c_phi=10.0, max_iters=2000)
        p, trace = pathfol_run(inst, cfg, p0)
        assert trace.status == "Converged"
        assert np.max(np.abs(p - 1.0 / 5.0)) < 1e-7

    def test_t_monotone_and_hits_zero(self):
        inst = mq.generate_random(20, 50, 0.7, rho=-0.9, seed=9)
        p0 = np.full(20, inst.total_budget() / 20)
        cfg = PathFolConfig(eps=1e-7, hessian_mode="exact", c_phi=10.0, max_iters=2000)
        _, trace = pathfol_run(inst, cfg, p0)
        assert trace.status == "Converged"
        ts = [r.homotopy for r in trace.rows]
        assert all(b <= a + 1e-15 for a, b in zip(ts, ts[1:]))
        assert ts[-1] == 0.0
        assert trace.extras["t_zero_k"] is not None

    def test_dr1_mode_runs_pcg(self, monkeypatch):
        # the surrogate's error is never estimated: dr1 is the pcg solve, bit for bit
        estimates = []
        real = hes.diff_norm_estimate

        def counting_estimate(*args, **kwargs):
            estimates.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(hes, "diff_norm_estimate", counting_estimate)
        inst = mq.generate_random(20, 60, 0.7, rho=0.5, seed=10)
        p0 = np.full(20, inst.total_budget() / 20)
        runs = {}
        for mode in ("dr1", "pcg"):
            cfg = PathFolConfig(eps=1e-7, hessian_mode=mode, c_phi=10.0, max_iters=2000)
            runs[mode] = pathfol_run(inst, cfg, p0)
        (p_dr1, tr_dr1), (p_pcg, tr_pcg) = runs["dr1"], runs["pcg"]
        assert tr_dr1.status == tr_pcg.status == "Converged"
        assert np.array_equal(p_dr1, p_pcg)
        strip = lambda tr: [dataclasses.replace(r, wall_ms=math.nan) for r in tr.rows]
        assert repr(strip(tr_dr1)) == repr(strip(tr_pcg))  # repr: NaN fields compare equal
        assert all(r.pcg_iters for r in tr_dr1.rows)
        assert estimates == []

    def test_p0_validation(self):
        inst = mq.generate_random(4, 4, 1.0, seed=0)
        with pytest.raises(ConfigError):
            pathfol_run(inst, PathFolConfig(), np.array([1.0, -1.0, 1.0, 1.0]))
        # non-finite or wrong-length starts are refused up front, not run
        for p0 in ([1.0, math.nan, 1.0, 1.0], [1.0, math.inf, 1.0, 1.0], [1.0, 1.0, 1.0]):
            with pytest.raises(ConfigError, match="p0"):
                pathfol_run(inst, PathFolConfig(), np.array(p0))

    def test_two_solves_per_row_while_homotopy_positive(self, monkeypatch):
        # rows are told apart by their price query, one per row (row 0's is the anchor);
        # the jump is off, so that t > 0 lasts several rows
        monkeypatch.setattr(ipm, "JUMP_DECREMENT", 0.0)
        row, rows_of_solves = [-1], []
        query, pcg_solve = ipm.market_state, hes.pcg_solve

        def counting_query(*args):
            row[0] += 1
            return query(*args)

        def counting_pcg(*args, **kwargs):
            rows_of_solves.append(row[0])
            return pcg_solve(*args, **kwargs)

        monkeypatch.setattr(ipm, "market_state", counting_query)
        monkeypatch.setattr(hes, "pcg_solve", counting_pcg)
        inst = mq.generate_random(8, 20, 0.8, rho=0.5, seed=2)
        cfg = PathFolConfig(eps=1e-7, hessian_mode="pcg", c_phi=10.0, max_iters=500)
        _, trace = pathfol_run(inst, cfg, np.full(8, inst.total_budget() / 8))
        assert trace.status == "Converged"
        ts = [r.homotopy for r in trace.rows]
        assert ts[0] > 0.0 and ts[-1] == 0.0
        solves = Counter(rows_of_solves)
        assert [solves[r.k] for r in trace.rows] == [2 if t > 0.0 else 1 for t in ts]

    def test_forcing_term_loose_early_and_eps_k_on_the_last_row(self, monkeypatch):
        # rows are told apart by their price query, as in the test above
        row, tols = [-1], []
        query, pcg_solve = ipm.market_state, hes.pcg_solve

        def counting_query(*args):
            row[0] += 1
            return query(*args)

        def recording_pcg(op, mu, rhs, eps_k, *args, **kwargs):
            tols.append((row[0], eps_k))
            return pcg_solve(op, mu, rhs, eps_k, *args, **kwargs)

        monkeypatch.setattr(ipm, "market_state", counting_query)
        monkeypatch.setattr(hes, "pcg_solve", recording_pcg)
        inst = mq.generate_random(20, 60, 0.7, rho=0.5, seed=10)
        cfg = PathFolConfig(eps=1e-7, hessian_mode="pcg", eps_k=1e-9, max_iters=2000)
        _, trace = pathfol_run(inst, cfg, np.full(20, inst.total_budget() / 20))
        assert trace.status == "Converged"
        last = trace.rows[-1]
        solves = 2 if last.homotopy > 0.0 else 1
        assert trace.extras["retreats"] == 0  # one query per row
        assert [tol for r, tol in tols if r == last.k] == [cfg.eps_k] * solves
        # while t > 0 the forcing term stops at a tenth of gamma's nbhd_resid target
        cap = 0.1 * 0.5 * cfg.beta / cfg.c_phi
        for r, tol in tols:
            row = trace.rows[r]
            forcing = min(ipm.PCG_FORCING_CAP, row.grad_inf ** 2)
            assert tol == max(cfg.eps_k, min(forcing, cap) if row.homotopy > 0.0 else forcing)
        assert tols[0][1] == min(ipm.PCG_FORCING_CAP, cap)

    @pytest.mark.parametrize("rho", [0.9, -0.9])
    def test_forcing_term_keeps_status_and_iterations(self, monkeypatch, rho):
        # the benchmark's density.  While t > 0 both solves stop at a tenth of
        # gamma's nbhd_resid target, so the t-steps match; a looser solve at
        # t = 0 can cost a row: seed 2 at rho = -0.9 takes one row more than
        # with every solve at eps_k.  The jump is off, so that both runs walk the path
        monkeypatch.setattr(ipm, "JUMP_DECREMENT", 0.0)
        moved = []
        for seed in range(1, 5):
            inst = mq.generate_random(60, 180, 0.2, rho=rho, seed=seed)
            p0 = np.full(60, inst.total_budget() / 60)
            cfg = PathFolConfig(eps=1e-7, hessian_mode="pcg", eps_k=1e-8, max_iters=2000)
            _, forced = pathfol_run(inst, cfg, p0)
            with monkeypatch.context() as patch:
                patch.setattr(ipm, "PCG_FORCING_CAP", 0.0)  # every solve at eps_k
                _, fixed = pathfol_run(inst, cfg, p0)
            assert forced.status == fixed.status == "Converged"
            assert forced.extras["t_zero_k"] == fixed.extras["t_zero_k"]
            assert sum(r.pcg_iters for r in forced.rows) < sum(r.pcg_iters for r in fixed.rows)
            moved.append(forced.iterations() - fixed.iterations())
        assert moved == ([0, 0, 0, 0] if rho > 0 else [0, 1, 0, 0])

    def test_decrement_and_residual_are_dual_norms_at_each_iterate(self):
        # a and b combine linearly; each row must match direct solves at its iterate
        inst = mq.generate_random(8, 20, 0.8, rho=0.5, seed=2)
        p0 = np.full(8, inst.total_budget() / 8)
        cfg = PathFolConfig(eps=1e-7, hessian_mode="exact", c_phi=10.0, max_iters=500)
        _, trace, iterates = run_with_iterates(pathfol_run, inst, cfg, p0)
        assert trace.status == "Converged"
        assert trace.rows[0].nbhd_resid == 0.0
        g0 = market_state(inst, p0).grad
        for row, p in zip(trace.rows, iterates):
            state = market_state(inst, p)
            op = hes.assemble_from_state(state, inst)
            solver = ipm._StepSolver(op, "exact", 1e-10)
            lam = solver.newton_step(ipm.MU_FLOOR, p * state.grad)[1]
            nbhd = solver.newton_step(ipm.MU_FLOOR, p * (state.grad - row.homotopy * g0))[1]
            assert abs(row.decrement - lam) <= 1e-10 * lam
            assert abs(row.nbhd_resid - nbhd) <= 1e-10 * nbhd

    def test_a_step_that_leaves_the_neighbourhood_is_retaken_at_half_its_t_step(
            self, monkeypatch):
        monkeypatch.setattr(ipm, "JUMP_DECREMENT", 0.0)  # the t-step rule alone
        measured = _inflate_nbhd_resid(monkeypatch, rows={2})
        inst = mq.generate_random(8, 20, 0.8, rho=0.5, seed=2)
        cfg = PathFolConfig(eps=1e-7, hessian_mode="exact")
        _, trace = pathfol_run(inst, cfg, np.full(8, inst.total_budget() / 8))
        assert trace.status == "Converged"
        assert [k for k, _ in measured] == [0, 1, 2] + list(range(2, trace.iterations()))
        t_before, t_rejected, t_kept = measured[1][1], measured[2][1], measured[3][1]
        assert t_before == trace.rows[1].homotopy > t_rejected > 0.0
        assert trace.rows[2].homotopy == t_kept
        assert t_before - t_kept == pytest.approx(0.5 * (t_before - t_rejected), rel=1e-9)
        assert trace.extras["retreats"] == 1
        assert trace.extras["price_queries"] == trace.iterations() + 1
        ts = [r.homotopy for r in trace.rows]
        assert all(b <= a for a, b in zip(ts, ts[1:]))
        assert trace.extras["centering_warnings"] == 0

    def test_retreats_in_a_row_end_the_run_with_the_reason(self, monkeypatch):
        # every point after the anchor reads outside the neighbourhood
        monkeypatch.setattr(ipm, "JUMP_DECREMENT", 0.0)  # the t-step rule alone
        measured = _inflate_nbhd_resid(monkeypatch, rows=None)
        inst = mq.generate_random(8, 20, 0.8, rho=0.5, seed=2)
        _, trace = pathfol_run(inst, PathFolConfig(eps=1e-7), np.full(8, inst.total_budget() / 8))
        assert trace.status == "NumericalFailure"
        assert "t-steps in a row left the neighbourhood" in trace.extras["error"]
        assert trace.iterations() == 1
        assert trace.extras["retreats"] == ipm.MAX_RETREATS
        assert trace.extras["price_queries"] == len(measured) == ipm.MAX_RETREATS + 2
        steps = [1.0 - t for _, t in measured[1:]]  # each trial's t-step from the anchor
        assert all(b == pytest.approx(0.5 * a, rel=1e-9) for a, b in zip(steps, steps[1:]))

    @pytest.mark.parametrize("persists", [False, True])
    def test_an_oracle_error_after_the_anchor_retreats(self, monkeypatch, persists):
        # the third query fails, then every one after it or none; the t-step rule alone
        monkeypatch.setattr(ipm, "JUMP_DECREMENT", 0.0)
        real, calls = oracle.bid_shares, []

        def failing(*args):
            calls.append(1)
            if len(calls) == 3 or (persists and len(calls) > 3):
                raise OracleError("forced oracle failure")
            return real(*args)

        monkeypatch.setattr(oracle, "bid_shares", failing)
        _, trace = DRIVERS["pathfol"][1]()
        if persists:
            assert trace.status == "NumericalFailure"
            assert trace.extras["error"] == "forced oracle failure"
            assert trace.extras["retreats"] == ipm.MAX_RETREATS
            assert trace.iterations() == 2
        else:
            assert trace.status == "Converged"
            assert trace.extras["retreats"] == 1
            assert trace.extras["price_queries"] == trace.iterations() + 1

    def test_a_rejected_jump_resumes_the_path_at_the_t_step_it_replaced(self, monkeypatch):
        # criterion 8's agreement cell: row 0's decrement (0.265) is below the bar,
        # but the jump's point only reaches 0.255; once a rejected jump halved the
        # t-step until the run ended NumericalFailure
        inst = mq.generate_random(20, 60, 0.5, rho=0.9, seed=1)
        p0 = np.full(20, inst.total_budget() / 20)
        cfg = PathFolConfig(eps=1e-7, hessian_mode="exact")
        _, trace = pathfol_run(inst, cfg, p0)
        with monkeypatch.context() as patch:
            patch.setattr(ipm, "JUMP_DECREMENT", 0.0)
            _, off = pathfol_run(inst, cfg, p0)
        assert trace.status == off.status == "Converged"
        assert trace.rows[0].decrement <= ipm.JUMP_DECREMENT
        assert trace.extras["rejected_jumps"] == trace.extras["retreats"] == 1
        assert trace.rows[1].homotopy == off.rows[1].homotopy > 0.0
        assert trace.extras["jump_k"] == trace.extras["t_zero_k"] > 1
        assert trace.iterations() < off.iterations()
        assert trace.extras["centering_warnings"] == 0

    def test_an_oracle_error_after_a_jump_rejects_it(self, monkeypatch):
        # the second query, the jump's point from the anchor, fails
        real, calls = oracle.bid_shares, []

        def failing(*args):
            calls.append(1)
            if len(calls) == 2:
                raise OracleError("forced oracle failure")
            return real(*args)

        monkeypatch.setattr(oracle, "bid_shares", failing)
        _, trace = DRIVERS["pathfol"][1]()
        assert trace.status == "Converged"
        assert trace.rows[0].decrement <= ipm.JUMP_DECREMENT  # W = 1
        assert trace.extras["rejected_jumps"] == trace.extras["retreats"] == 1
        assert trace.rows[1].homotopy > 0.0
        assert trace.extras["price_queries"] == trace.iterations() + 1

    @pytest.mark.parametrize("cell", [("ces", rho, seed) for rho in (0.9, 0.5, -0.5, -0.9)
                                      for seed in (1, 2, 3)] + [("flow", 0.25), ("flow", 0.5)],
                             ids=lambda cell: "-".join(map(str, cell)))
    def test_the_jump_never_costs_price_queries(self, monkeypatch, cell):
        if cell[0] == "ces":
            inst = mq.generate_random(60, 180, 0.2, rho=cell[1], seed=cell[2])
            p0, mode = np.full(60, inst.total_budget() / 60), "pcg"
        else:
            inst, mode = mixed_flow_instance(), "exact"
            p0 = np.full(inst.n, cell[1])
        cfg = PathFolConfig(eps=1e-7, hessian_mode=mode)
        _, trace = pathfol_run(inst, cfg, p0)
        with monkeypatch.context() as patch:
            patch.setattr(ipm, "JUMP_DECREMENT", 0.0)
            _, off = pathfol_run(inst, cfg, p0)
        assert trace.status == off.status == "Converged"
        assert trace.extras["price_queries"] <= off.extras["price_queries"]
        assert trace.extras["centering_warnings"] == 0

    @pytest.mark.parametrize("start", [0.25, 0.5])
    def test_flow_market_converges_from_either_start(self, start):
        # from 0.5 a fixed t-step ended NumericalFailure after 169 rows: the constrained
        # oracle's Newton stalled at a t-step's point ("no convergence in 100 Newton steps")
        _, trace = pathfol_run(mixed_flow_instance(), PathFolConfig(eps=1e-7), np.full(4, start))
        assert trace.status == "Converged"
        assert trace.extras["centering_warnings"] == 0

    @pytest.mark.parametrize("rho", [0.9, 0.5, -0.5, -0.9])
    def test_random_budgets_at_money_scale_converge(self, rho):
        # W ~ 90, then budgets x100, where a fixed t-step ran out of 2000 rows; the
        # prices scale with the budgets
        base = mq.generate_random(60, 180, 0.2, rho=rho, seed=1)
        w = 1.0 - np.random.default_rng(1001).random(180)
        prices, runs = [], []
        for scale in (1.0, 100.0):
            inst = MarketInstance(60, 180, scale * w, base.utilities)
            p, trace = pathfol_run(inst, PathFolConfig(eps=1e-7, hessian_mode="pcg"),
                                   np.full(60, inst.total_budget() / 60))
            assert trace.status == "Converged"
            assert trace.extras["centering_warnings"] == 0
            assert trace.extras["jump_k"] is not None
            prices.append(p / scale)
            runs.append((trace.iterations(), trace.extras["jump_k"],
                         trace.extras["price_queries"]))
        np.testing.assert_allclose(prices[1], prices[0], rtol=1e-6)
        if rho < 0.0:  # the jump's bar scales with sqrt(W), as the decrement does; at
            # rho > 0 the first jump is rejected, and the path's beta/C is absolute
            assert runs[0] == runs[1]


def _inflate_nbhd_resid(monkeypatch, rows):
    """Make PathFol's measure report nbhd_resid 1.0 (far above beta/C) on the
    first measure of each row in ``rows``, or on every measure after row 0's
    when rows is None; returns the (k, homotopy) of every measure."""
    real, measured = ipm._newton_loop, []

    def loop(instance, p, trace, measure, step, *args, **kwargs):
        def inflated(k, state, solver):
            homotopy, nbhd, decrement = measure(k, state, solver)
            first = all(j != k for j, _ in measured)
            if (k in rows and first) if rows is not None else k > 0:
                nbhd = 1.0
            measured.append((k, homotopy))
            return homotopy, nbhd, decrement

        return real(instance, p, trace, inflated, step, *args, **kwargs)

    monkeypatch.setattr(ipm, "_newton_loop", loop)
    return measured


class TestNewtonPolish:
    def test_polish_reaches_tight_tolerance(self):
        inst = mq.generate_random(15, 40, 0.8, rho=0.5, seed=8)
        p, _ = logbar_run(inst, LogBarConfig(eps=1e-5, sigma_override=0.6, max_iters=200))
        p, trace = newton_polish(inst, p, eps=1e-12)
        assert trace.status == "Converged"
        assert np.max(np.abs(market_state(inst, p).grad)) <= 1e-12
        assert all(r.pcg_iters for r in trace.rows[:-1])
        # full steps: each accepted trial is the next iteration's price query
        assert trace.extras["price_queries"] == trace.iterations()

    @pytest.mark.parametrize("start", [np.ones(3), np.array([1.0, np.nan, 1.0, 1.0]),
                                       np.array([1.0, -1.0, 1.0, 1.0])],
                             ids=["wrong-length", "nan", "negative"])
    def test_polish_refuses_a_bad_start(self, start):
        # a matmul ValueError and two NumericalFailure traces before the check
        with pytest.raises(ConfigError, match="4 strictly positive, finite prices"):
            newton_polish(mq.generate_random(4, 4, 1.0, seed=0), start)

    @pytest.mark.parametrize("instance, mode, message", [
        (lambda: mq.generate_random(4, 4, 1.0, seed=0), "foo", "unknown hessian mode"),
        (lambda: mq.generate_random(hes.DENSE_LIMIT + 1, 4, 0.01, seed=0), "exact", "capped"),
        (mixed_flow_instance, "dr1", "unconstrained"),
    ], ids=["unknown", "exact-too-large", "dr1-constrained"])
    def test_polish_refuses_a_bad_mode_before_querying(self, monkeypatch, instance, mode, message):
        # these ran PCG, or failed as a bare ValueError inside the first Newton step
        inst, calls = instance(), []
        monkeypatch.setattr(ipm, "market_state", lambda *args: calls.append(args))
        with pytest.raises(ConfigError, match=message):
            newton_polish(inst, np.ones(inst.n), hessian_mode=mode)
        assert calls == []

    def test_polish_stops_at_iteration_budget(self):
        inst = mq.generate_random(15, 40, 0.8, rho=0.5, seed=8)
        p, trace = newton_polish(inst, np.full(15, 5.0), eps=1e-12, max_iters=2)
        assert trace.status == "MaxIters"
        assert trace.iterations() == 2

    def test_polish_never_accepts_a_rise_in_phi(self, monkeypatch):
        inst = mq.generate_random(15, 40, 0.8, rho=0.5, seed=8)
        queries = []

        def rising(instance, p, prev=None):  # every query reads phi 1e6 higher than the last
            queries.append(p)
            state = market_state(instance, p)
            return dataclasses.replace(state, value=state.value + 1e6 * len(queries))

        monkeypatch.setattr(ipm, "market_state", rising)
        p0 = np.full(15, 5.0)
        p, trace = newton_polish(inst, p0, eps=1e-12)
        assert trace.status == "MaxIters"
        assert "no step fraction" in trace.extras["error"]
        assert trace.iterations() == 1
        assert np.array_equal(p, p0)
        # the start's query, then trials at 1, 0.1, ..., 1e-10: each rise clamps to a tenth
        assert trace.extras["price_queries"] == len(queries) == 12
        assert trace.extras["backtracks"] == trace.extras["price_queries"] - 1

    def test_oracle_error_at_a_trial_halves_the_step(self, monkeypatch):
        inst = mq.generate_random(15, 40, 0.8, rho=0.5, seed=8)
        p0 = np.full(15, 5.0)
        _, full = newton_polish(inst, p0, eps=1e-12, max_iters=1)
        queries = []

        def refuse_first_trial(instance, p, prev=None):
            queries.append(p)
            if len(queries) == 2:
                raise OracleError("trial outside the oracle's domain")
            return market_state(instance, p)

        monkeypatch.setattr(ipm, "market_state", refuse_first_trial)
        _, halved = newton_polish(inst, p0, eps=1e-12, max_iters=1)
        assert full.extras["price_queries"] == 2
        assert halved.extras["price_queries"] == 3
        assert halved.rows[0].step_norm == pytest.approx(0.5 * full.rows[0].step_norm, rel=1e-12)

    @staticmethod
    def _line_search(monkeypatch, phi, refuse=(), direction=-1.0):
        """_backtrack from p = (1, 1), grad phi = (1, 1) and phi = 0 along d =
        direction (1, 1), where a trial at alpha reads phi(alpha) or, at the
        trial numbers in ``refuse``, raises OracleError.  Returns (alpha, trial
        alphas, rejected-trial count)."""
        Start = dataclasses.make_dataclass("Start", ["p", "grad", "value",
                                                     ("con_newton_steps", int, 0)])
        start, trials = Start(np.ones(2), np.ones(2), 0.0), []

        def query(instance, p, prev=None):
            trials.append((float(p[0]) - 1.0) / direction)
            if len(trials) in refuse:
                raise OracleError("trial outside the oracle's domain")
            return Start(p, None, phi(trials[-1]))

        monkeypatch.setattr(ipm, "market_state", query)
        trace = SolveTrace(extras={"price_queries": 0, "backtracks": 0})
        alpha, _ = ipm._backtrack(None, start, np.full(2, direction), trace, 1.0)
        return alpha, trials, trace.extras["backtracks"]

    @pytest.mark.parametrize("phi, expected", [
        (lambda a: -2 * a + 3 * a**2, [1, 1 / 3]),  # a quadratic: its minimiser
        (lambda a: -2 * a + 40 * a**3, [1, 0.1]),  # fit at 0.025, clamped up
        (lambda a: -2 * a + 1.99999 * a**2, [1, 0.5]),  # fit past 1/2, clamped down
        (lambda a: -2 * a + 2e5 * a**4, [1, 0.1, 0.01]),
    ], ids=["quadratic", "lower-clamp", "upper-clamp", "two-rejections"])
    def test_backtrack_interpolates_within_the_clamp(self, monkeypatch, phi, expected):
        alpha, trials, rejected = self._line_search(monkeypatch, phi)
        assert trials == pytest.approx(expected, rel=1e-12)
        assert rejected == len(trials) - 1
        for prev, now in zip(trials, trials[1:]):
            assert ipm.BACKTRACK_MIN * prev * (1 - 1e-12) <= now <= ipm.BACKTRACK_MAX * prev
        assert alpha == pytest.approx(trials[-1], rel=1e-12)
        assert phi(alpha) <= ipm.ARMIJO * alpha * -2.0

    def test_oracle_error_at_an_interpolated_trial_halves_it(self, monkeypatch):
        # the first rise interpolates to 1/3; that trial is refused, so the next is 1/6
        alpha, trials, _ = self._line_search(monkeypatch, lambda a: -2 * a + 3 * a**2,
                                             refuse={2})
        assert trials == pytest.approx([1, 1 / 3, 1 / 6], rel=1e-12)
        assert alpha == pytest.approx(1 / 6, rel=1e-12)

    @pytest.mark.parametrize("phi", [lambda a: 10.0 * a, lambda a: 1e-3 * a],
                             ids=["steep-rise", "flat-rise"])
    def test_an_ascent_direction_ends_the_search_unqueried(self, monkeypatch, phi):
        # slope +2 along d: the flat rise was accepted at alpha = 2**-24 (rise 6e-11),
        # the steep one halved 34 times
        queried = []
        with pytest.raises(FloatingPointError, match=r"not a descent direction: slope 2\.000e\+00"):
            self._line_search(monkeypatch, lambda a: queried.append(a) or phi(a), direction=1.0)
        assert queried == []

    @pytest.mark.parametrize("direction", [-5e-12, 5e-12])
    def test_a_slope_within_phi_accuracy_keeps_the_flat_rule(self, monkeypatch, direction):
        # |slope| = 1e-11 <= PHI_ACCURACY: a rise of at most PHI_ACCURACY is accepted at once
        alpha, trials, rejected = self._line_search(monkeypatch, lambda a: 5e-11,
                                                    direction=direction)
        assert (alpha, len(trials), rejected) == (1.0, 1, 0)

    def test_an_ascent_direction_ends_the_polish_as_a_numerical_failure(self, monkeypatch):
        inst = mq.generate_random(15, 40, 0.8, rho=0.5, seed=8)
        real_step = ipm._StepSolver.newton_step
        monkeypatch.setattr(ipm._StepSolver, "newton_step",
                            lambda self, *args: (-real_step(self, *args)[0], math.nan))
        p0 = np.full(15, 5.0)
        p, trace = newton_polish(inst, p0, eps=1e-12)
        assert trace.status == "NumericalFailure"
        assert "not a descent direction: slope" in trace.extras["error"]
        assert trace.iterations() == 1 and trace.extras["price_queries"] == 1
        assert np.array_equal(p, p0)

    def test_line_search_schedule_on_a_market(self, monkeypatch):
        # every rejected trial within [0.1, 0.5] of the last, every accepted one Armijo's,
        # and every step after the first starts at min(1, 2 x the last accepted fraction)
        inst = mq.generate_random(20, 50, 0.5, seed=21, kind="linear_barrier", sigma=1e-4)
        real_backtrack, real_query, searches = ipm._backtrack, ipm._query, []

        def recording_query(instance, p, trace, prev=None):
            if searches and "found" not in searches[-1]:
                searches[-1]["trials"].append(np.array(p))
            return real_query(instance, p, trace, prev)

        def recording_backtrack(instance, state, d, trace, alpha):
            searches.append({"state": state, "d": d, "first": alpha, "trials": []})
            searches[-1]["found"] = real_backtrack(instance, state, d, trace, alpha)
            return searches[-1]["found"]

        monkeypatch.setattr(ipm, "_query", recording_query)
        monkeypatch.setattr(ipm, "_backtrack", recording_backtrack)
        _, trace = newton_polish(inst, np.full(20, inst.total_budget() / 20), eps=1e-9,
                                 hessian_mode="exact")
        assert trace.status == "Converged"
        shortened = 0
        for k, search in enumerate(searches):
            state, d = search["state"], search["d"]
            # each trial's alpha, read back from its prices to within tol
            j = int(np.argmax(np.abs(d)))
            alphas = [(q[j] / state.p[j] - 1.0) / d[j] for q in search["trials"]]
            tol = 1e-13 / abs(d[j])
            assert abs(alphas[0] - search["first"]) <= tol
            for prev, now in zip(alphas, alphas[1:]):
                assert ipm.BACKTRACK_MIN * prev - tol <= now <= ipm.BACKTRACK_MAX * prev + tol
            alpha, accepted = search["found"]
            assert abs(alpha - alphas[-1]) <= tol
            slope = float((state.p * state.grad) @ d)
            assert accepted.value - state.value <= ipm.ARMIJO * alpha * slope
            if k:
                previous = searches[k - 1]["found"][0]
                assert search["first"] == min(1.0, 2.0 * previous)
                shortened += previous < 1.0
        assert shortened >= 2 and trace.extras["backtracks"] >= 2


class TestSigmaContinuation:
    def test_ladder_lands_on_the_target(self):
        # 0.05 * 0.1**6 rounds just above 5e-8; no extra stage may follow at 5e-8
        inst = mq.generate_random(20, 50, 0.5, seed=21, kind="linear_barrier", sigma=5e-8)
        _, trace = logbar_run(inst, LogBarConfig(eps=1e-6, hessian_mode="exact", max_iters=600))
        assert trace.status == "Converged"
        stages = trace.extras["continuation"]
        assert len(stages) == 6
        assert stages[-1]["sigma"] == 5e-8
        assert all(stage["newton_steps"] >= 1 for stage in stages)

    def test_stages_count_their_rejected_trials(self, monkeypatch):
        real, polishes = ipm.newton_polish, []

        def recording(*args, **kwargs):
            p, polish = real(*args, **kwargs)
            polishes.append(polish)
            return p, polish

        monkeypatch.setattr(ipm, "newton_polish", recording)
        inst = mq.generate_random(20, 50, 0.5, seed=1, kind="linear_barrier", sigma=1e-6 / 20)
        _, trace = logbar_run(inst, LogBarConfig(eps=1e-6, hessian_mode="exact", max_iters=600))
        assert trace.status == "Converged"
        counts = [stage["backtracks"] for stage in trace.extras["continuation"]]
        assert counts == [polish.extras["backtracks"] for polish in polishes]
        # the barrier phase has no line search; only the stages' polishes backtrack
        assert trace.extras["backtracks"] == sum(counts) > 0


    def test_run_counters_sum_the_phase_and_the_stages(self):
        # the first stage's polish clips a step at the fraction to the boundary
        inst = mq.generate_random(20, 50, 0.5, seed=2, kind="linear_barrier", sigma=5e-8)
        _, trace = logbar_run(inst, LogBarConfig(eps=1e-6, hessian_mode="exact", max_iters=600))
        assert trace.status == "Converged"
        phase, stages = trace.extras["barrier_phase"], trace.extras["continuation"]
        for key in ("price_queries", "safeguards", "dr1_fallbacks", "backtracks",
                    "con_newton_steps"):
            assert trace.extras[key] == phase[key] + sum(stage[key] for stage in stages), key
        assert trace.extras["safeguards"] >= 1
        assert trace.extras["con_newton_steps"] == 0  # a linear market has no constrained player

    def test_benchmark_cells_hand_off_to_the_ladder_at_1e_2(self):
        # the near-linear workload at seed 1, solved as bench/run.py solves it: the barrier
        # phase is a LogBar run (mu shrink 0.5) that stops at grad_inf 1e-2, and the phase
        # and the stages split the run's rows and queries between them
        workloads = load_bench("workloads")
        queries = 0
        for cell in workloads.BUILDERS["near-linear"](1):
            (solve,) = workloads.solves_of([cell])
            p, trace = solve.runner()()
            assert trace.status == "Converged", cell.label
            assert equilibrium_certificate(cell.instance, p, eps=cell.eps)["clearing_within_bound"]
            phase, stages = trace.extras["barrier_phase"], trace.extras["continuation"]
            assert phase["sigma"] == ipm.SIGMA_SMOOTH and phase["status"] == "Converged"
            assert phase["rows"] >= 1 and phase["grad_inf"] <= 1e-2
            assert trace.extras["sigma"] == 0.5
            assert phase["rows"] + len(stages) == trace.iterations()
            assert phase["price_queries"] + sum(s["price_queries"] for s in stages) == \
                trace.extras["price_queries"]
            queries += trace.extras["price_queries"]
        assert queries <= 260  # 478 with the phase run down to 1e-5 at mu shrink 0.8

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_budgets_at_money_scale_converge(self, seed):
        # the ladder's polish starts from a phase ended far from the stage's solution
        n, m, eps = 20, 50, 1e-6
        inst = mq.generate_random(n, m, 0.5, seed=seed, kind="linear_barrier", sigma=eps / n)
        inst = MarketInstance(n, m, 100.0 * (1.0 - np.random.default_rng(1000 + seed).random(m)),
                              inst.utilities)
        p, trace = logbar_run(inst, LogBarConfig(eps=eps, hessian_mode="exact", max_iters=600))
        assert trace.status == "Converged"
        assert equilibrium_certificate(inst, p, eps=eps)["clearing_within_bound"]

    def test_a_failed_barrier_phase_is_reported(self, monkeypatch):
        # the third price query fails inside the phase: no stage runs
        real, calls = oracle._linear_batch, []

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise OracleError("forced oracle failure")
            return real(*args)

        monkeypatch.setattr(oracle, "_linear_batch", failing)
        inst = mq.generate_random(20, 50, 0.5, seed=1, kind="linear_barrier", sigma=1e-6 / 20)
        _, trace = logbar_run(inst, LogBarConfig(eps=1e-6, hessian_mode="exact", max_iters=600))
        assert trace.status == "NumericalFailure" and trace.extras["continuation"] == []
        phase = trace.extras["barrier_phase"]
        assert phase["status"] == "NumericalFailure" and phase["price_queries"] == 3
        assert phase["rows"] == trace.iterations() == 2


class TestPriceQueries:
    # the initial center's queries and every sigma stage count too
    solves = pytest.mark.parametrize("solve", [
        lambda: logbar_run(mq.generate_random(20, 50, 0.5, seed=1, kind="linear_barrier",
                                              sigma=1e-6 / 20),
                           LogBarConfig(eps=1e-6, hessian_mode="exact", max_iters=600)),
        lambda: logbar_run(mq.generate_random(30, 90, 0.5, rho=0.5, seed=1),
                           LogBarConfig(eps=1e-7, sigma_override=0.6)),
        lambda: pathfol_run(mq.generate_random(30, 90, 0.5, rho=0.5, seed=1),
                            PathFolConfig(eps=1e-7), np.full(30, 1.0 / 30)),
        lambda: pathfol_run(mixed_flow_instance(), PathFolConfig(eps=1e-7), np.full(4, 0.25)),
    ], ids=["near-linear-logbar", "ces-logbar", "ces-pathfol", "flow-pathfol"])

    @solves
    def test_extras_count_every_market_state_call(self, monkeypatch, solve):
        real, calls = ipm.market_state, []

        def counting(instance, p, prev=None):
            calls.append(1)
            return real(instance, p)

        monkeypatch.setattr(ipm, "market_state", counting)
        _, trace = solve()
        assert trace.status == "Converged"
        assert trace.extras["price_queries"] == len(calls)

    @pytest.mark.parametrize("method, rejected", [
        ("logbar", None), ("pathfol", "retreats"), ("polish", "backtracks")])
    def test_each_query_is_warm_started_from_the_one_before(self, monkeypatch, method, rejected):
        # rejected points included: PathFol's row 3 is made to leave the neighbourhood,
        # and the polish rejects one line-search trial
        real, calls = ipm.market_state, []

        def recording(instance, p, prev=None):
            calls.append((prev, real(instance, p, prev)))
            return calls[-1][1]

        monkeypatch.setattr(ipm, "market_state", recording)
        inst, p0 = mixed_flow_instance(), np.full(4, 0.5)
        if method == "logbar":
            _, trace = logbar_run(inst, LogBarConfig(eps=1e-7))
        elif method == "pathfol":
            _inflate_nbhd_resid(monkeypatch, {3})
            _, trace = pathfol_run(inst, PathFolConfig(eps=1e-7), p0)
        else:
            _, trace = newton_polish(inst, p0, eps=1e-9, hessian_mode="exact")
        assert trace.status == "Converged"
        assert rejected is None or trace.extras[rejected] >= 1
        assert calls[0][0] is None
        assert all(prev is last for (prev, _), (_, last) in zip(calls[1:], calls))
        assert trace.extras["con_newton_steps"] == sum(st.con_newton_steps for _, st in calls)

    @solves
    def test_no_query_repeats_the_last_one(self, monkeypatch, solve):
        # LogBar's row 0 reads its center's query and PathFol's anchor is its row 0 query;
        # a sigma stage queries its start again, but on a different market
        real, calls = ipm.market_state, []

        def recording(instance, p, prev=None):
            calls.append((instance, np.array(p)))
            return real(instance, p)

        monkeypatch.setattr(ipm, "market_state", recording)
        _, trace = solve()
        assert trace.status == "Converged"
        assert not any(a is c and np.array_equal(p, q)
                       for (a, p), (c, q) in zip(calls, calls[1:]))


def _ces_market():
    return mq.generate_random(20, 50, 0.5, rho=0.5, seed=1)


# every driver that queries prices: the oracle kernel its queries run, and a converging solve
DRIVERS = {
    "ces-logbar": ("bid_shares", lambda: logbar_run(
        _ces_market(), LogBarConfig(eps=1e-7, sigma_override=0.6))),
    "near-linear-logbar": ("_linear_batch", lambda: logbar_run(
        mq.generate_random(20, 50, 0.5, seed=1, kind="linear_barrier", sigma=1e-6 / 20),
        LogBarConfig(eps=1e-6, hessian_mode="exact", max_iters=600))),
    "pathfol": ("bid_shares", lambda: pathfol_run(
        _ces_market(), PathFolConfig(eps=1e-7), np.full(20, 1.0 / 20))),
    "polish": ("bid_shares", lambda: newton_polish(_ces_market(), np.full(20, 1.0 / 20))),
    "tat": ("bid_shares", lambda: mq.tat_run(
        _ces_market(), mq.BaselineConfig(eps=1e-9), np.full(20, 1.0 / 20))),
}


def _continuation_assemblies(trace):
    # the smooth LogBar's rows but the last, then each stage's Newton steps (its rows but the last)
    stages = trace.extras["continuation"]
    assert all(stage["status"] == "Converged" for stage in stages)
    return trace.iterations() - len(stages) - 1 + sum(s["newton_steps"] for s in stages)


class TestEveryDriver:
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_an_oracle_error_ends_the_run_as_numerical_failure(self, monkeypatch, driver):
        # the kernel raises on its third call; on the polish's and PathFol's first, since
        # there an oracle error at a later query halves the step instead (the polish's
        # line search, PathFol's retreat)
        kernel, solve = DRIVERS[driver]
        fail_at = 1 if driver in ("polish", "pathfol") else 3
        real, calls = getattr(oracle, kernel), []

        def failing(*args):
            calls.append(1)
            if len(calls) == fail_at:
                raise OracleError("forced oracle failure")
            return real(*args)

        monkeypatch.setattr(oracle, kernel, failing)
        _, trace = solve()
        assert trace.status == "NumericalFailure"
        assert trace.extras["error"] == "forced oracle failure"

    @pytest.mark.parametrize("driver, assembled", [
        ("tat", lambda trace: 0),
        ("ces-logbar", lambda trace: trace.iterations() - 1),
        ("pathfol", lambda trace: trace.iterations()),
        ("polish", lambda trace: trace.iterations() - 1),
        ("near-linear-logbar", _continuation_assemblies),
    ], ids=["tat", "ces-logbar", "pathfol", "polish", "near-linear-logbar"])
    def test_only_rows_that_solve_assemble_the_hessian(self, monkeypatch, driver, assembled):
        # PathFol solves on every row, LogBar and the polish on every row but the last, tat never
        real, calls = hes.assemble_from_state, []

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(hes, "assemble_from_state", counting)
        _, trace = DRIVERS[driver][1]()
        assert trace.status == "Converged"
        assert len(calls) == assembled(trace)


class TestNewtonDecrement:
    def test_zero_at_equilibrium(self):
        inst = symmetric_instance(4, 6)
        p = np.full(4, 0.25)
        state = market_state(inst, p)
        op = hes.assemble_from_state(state, inst)
        lam = ipm._StepSolver(op, "exact", 1e-10).newton_step(ipm.MU_FLOOR, p * state.grad)[1]
        assert lam <= 1e-9

    def test_two_by_two_eigensolve(self, rng):
        # g aligned with the smallest-eigenvalue eigenvector of H~ gives
        # lambda~ = ||g|| / sqrt(lambda_min)
        inst = mq.generate_random(2, 5, 1.0, rho=0.6, seed=3)
        p = rng.uniform(0.5, 2.0, 2)
        op = hes.assemble(inst, p)
        H = op.dense()
        evals, evecs = np.linalg.eigh(H)
        g = evecs[:, 0] * 0.37
        lam = ipm._StepSolver(op, "exact", 1e-10).newton_step(ipm.MU_FLOOR, g)[1]
        assert abs(lam - 0.37 / math.sqrt(evals[0])) < 1e-10

    def test_solver_route_consistency(self, rng):
        inst = mq.generate_random(10, 30, 0.8, rho=0.4, seed=4)
        p = rng.uniform(0.5, 2.0, 10)
        state = market_state(inst, p)
        op = hes.assemble_from_state(state, inst)
        g = p * state.grad
        lam_dense, lam_dr1, lam_pcg = (
            ipm._StepSolver(op, mode, 1e-10).newton_step(ipm.MU_FLOOR, g)[1]
            for mode in ("exact", "dr1", "pcg"))
        assert abs(lam_dense - lam_pcg) <= 1e-10 * max(1.0, lam_dense)
        # dr1 uses the surrogate metric; only check it is finite and positive
        assert lam_dr1 > 0


class TestExactSolve:
    @pytest.mark.parametrize("market", ["mixed-sign ces", "linear sigma=1e-3", "flow"])
    def test_matches_a_dense_reference_solve(self, rng, market):
        if market == "mixed-sign ces":
            inst = mixed_sign_ces_instance(rng)
        elif market == "flow":
            inst = mixed_flow_instance()
        else:
            inst = mq.generate_random(15, 40, 0.5, seed=5, kind="linear_barrier", sigma=1e-3)
        op = hes.assemble(inst, rng.uniform(0.5, 2.0, inst.n))
        H = op.dense()
        for mu in (ipm.MU_FLOOR, 0.3):
            rhs = rng.standard_normal(inst.n)
            d = ipm._StepSolver(op, "exact", 1e-10).solve(mu, rhs)
            ref = np.linalg.solve(H + mu * np.eye(inst.n), rhs)
            assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_reused_buffer_is_not_aliased(self):
        # every iteration factors in the run's one buffer; a decrement the
        # callback computes at each iterate must not disturb the run
        inst = mq.generate_random(12, 30, 0.8, rho=-0.9, seed=6)
        cfg = LogBarConfig(eps=1e-7, sigma_override=0.6, hessian_mode="exact", max_iters=200)
        decrements = []

        def callback(k, p):
            g = p * market_state(inst, p).grad
            solver = ipm._StepSolver(hes.assemble(inst, p), "exact", 1e-10)
            decrements.append(solver.newton_step(ipm.MU_FLOOR, g)[1])

        p_plain, plain = logbar_run(inst, cfg)
        p_watched, watched = logbar_run(inst, cfg, callback=callback)
        assert plain.status == watched.status == "Converged"
        assert len(decrements) == watched.iterations() - 1  # not on the converged row
        assert np.array_equal(p_plain, p_watched)
        timeless = lambda trace: [dataclasses.replace(r, wall_ms=0.0) for r in trace.rows]
        assert timeless(plain) == timeless(watched)


class TestCertificate:
    def test_symmetric_equilibrium_residuals(self):
        inst = symmetric_instance(4, 6)
        rep = equilibrium_certificate(inst, np.full(4, 0.25), eps=1e-6)
        assert rep["grad_inf"] <= 1e-9
        assert rep["clearing_inf"] <= 1e-9
        assert rep["budget_residual_max"] <= 1e-10
        assert rep["converged"]

    def test_doubled_prices(self):
        inst = symmetric_instance(4, 6)
        rep = equilibrium_certificate(inst, np.full(4, 0.5))
        assert abs(rep["grad_inf"] - 0.5) < 1e-12

    def test_linear_remark_bound_fields(self):
        inst = mq.generate_random(6, 10, 0.8, seed=2, kind="linear_barrier", sigma=1e-4)
        p, trace = logbar_run(inst, LogBarConfig(eps=1e-5, hessian_mode="exact", max_iters=400))
        rep = equilibrium_certificate(inst, p, eps=1e-5)
        assert trace.status == "Converged"
        assert rep["remark1_bound"] == (1e-5 + 1e-4 * 6) / (1 + 1e-4 * 6)
        assert rep["clearing_within_bound"]

    @pytest.mark.parametrize("name", ["ces", "linear", "flow"])
    def test_key_set_is_pinned(self, name):
        # the fields of certificate.json: dropping or adding one is a deliberate edit
        inst = {"ces": lambda: symmetric_instance(4, 6),
                "linear": lambda: mq.generate_random(6, 10, 0.8, seed=2, kind="linear_barrier",
                                                     sigma=1e-2),
                "flow": mixed_flow_instance}[name]()
        keys = {"n", "m", "grad_inf", "grad_l2", "clearing_inf", "budget_residual_max",
                "kkt_residual_max", "eps", "converged"}
        if name == "linear":
            keys |= {"sigma", "remark1_bound", "clearing_within_bound"}
        assert set(equilibrium_certificate(inst, np.ones(inst.n), eps=1e-6)) == keys
        assert set(equilibrium_certificate(inst, np.ones(inst.n))) == keys - {
            "eps", "converged", "remark1_bound", "clearing_within_bound"}

    def test_certificate_and_assembly_query_cold(self, monkeypatch):
        # the oracle stays a function of its arguments outside the solve loop
        inst = mixed_flow_instance()
        prevs = []

        def recording(instance, p, prev=None):
            prevs.append(prev)
            return market_state(instance, p, prev)

        monkeypatch.setattr(ipm, "market_state", recording)
        monkeypatch.setattr(hes, "market_state", recording)
        p = np.full(inst.n, 0.5)
        cert = equilibrium_certificate(inst, p)
        hes.assemble(inst, p)
        assert prevs == [None, None]
        assert cert == equilibrium_certificate(inst, p)

    def test_linear_kkt_residual_is_the_one_row_maximum(self, rng):
        inst = mq.generate_random(8, 14, 0.6, seed=4, kind="linear_barrier", sigma=1e-3)
        p = rng.uniform(0.5, 2.0, inst.n)
        X = market_state(inst, p).linear_x
        rows = [linear_barrier_kkt_residual(p, u.dense(inst.n), u.sigma, w, x)
                for u, w, x in zip(inst.utilities, inst.budgets, X)]
        assert equilibrium_certificate(inst, p)["kkt_residual_max"] == max(rows)

    def test_budget_residual_counts_iterative_players_only(self, rng):
        # closed-form CES demand spends its budget by construction, at any prices
        inst = mq.generate_random(10, 20, 0.5, rho=0.6, seed=3)
        rep = equilibrium_certificate(inst, rng.uniform(0.01, 100.0, inst.n))
        assert rep["grad_inf"] > 1e-3
        assert rep["budget_residual_max"] == 0.0


class TestTrace:
    def test_csv_round_trip(self, tmp_path):
        trace = SolveTrace(rows=[
            TraceRow(k=0, homotopy=2.0, grad_inf=1.0, grad_l2=2.0, nbhd_resid=0.1,
                     decrement=0.5, step_norm=0.3, pcg_iters=4, wall_ms=1.25),
            TraceRow(k=1, homotopy=1.0, grad_inf=0.5, grad_l2=1.0, nbhd_resid=math.nan,
                     decrement=0.2, step_norm=math.nan, pcg_iters=None, wall_ms=math.nan),
        ], status="Converged")
        path = os.path.join(tmp_path, "trace.csv")
        trace.to_csv(path)
        with open(path) as fh:
            header = fh.readline().strip()
        assert header == "k,homotopy,grad_inf,grad_l2,nbhd_resid,decrement,step_norm,pcg_iters,wall_ms"
        back = SolveTrace.from_csv(path)
        assert back.status == "Converged"
        assert len(back.rows) == 2
        assert back.rows[0].pcg_iters == 4
        assert back.rows[1].pcg_iters is None
        assert math.isnan(back.rows[1].step_norm)
        assert back.rows[0].homotopy == 2.0

    def test_rows_strictly_increasing_k(self):
        inst = mq.generate_random(8, 20, 0.9, rho=0.5, seed=2)
        _, trace = logbar_run(inst, LogBarConfig(eps=1e-6, sigma_override=0.6, max_iters=100))
        ks = [r.k for r in trace.rows]
        assert ks == sorted(set(ks))
