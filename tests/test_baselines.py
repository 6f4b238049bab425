import numpy as np
import pytest

import marketeq as mq
from marketeq.baselines import BaselineConfig, default_bids, propres_run, tat_run
from marketeq.ipm import LogBarConfig, logbar_run

from conftest import mixed_flow_instance, symmetric_instance


class TestTat:
    def test_fixed_point_at_equilibrium(self):
        inst = symmetric_instance(4, 6)
        p_star = np.full(4, 0.25)
        cfg = BaselineConfig(method="tat", step=0.1, max_iters=5, eps=1e-30)
        p, _ = tat_run(inst, cfg, p_star)
        assert np.max(np.abs(p - p_star)) <= 1e-15

    def test_zero_step_never_moves(self):
        inst = mq.generate_random(5, 8, 1.0, rho=0.5, seed=1)
        p0 = np.full(5, 0.7)
        cfg = BaselineConfig(method="tat", step=1e-300, max_iters=20, eps=1e-30)
        p, _ = tat_run(inst, cfg, p0)
        assert np.max(np.abs(p - p0)) < 1e-290

    def test_converges_to_logbar_limit(self):
        inst = mq.generate_random(50, 150, 0.5, rho=0.9, seed=42)
        p_star, tr = logbar_run(inst, LogBarConfig(eps=1e-10, sigma_override=0.6,
                                                   hessian_mode="exact", max_iters=400))
        assert tr.status == "Converged"
        p0 = np.full(50, inst.total_budget() / 50)
        cfg = BaselineConfig(method="tat", step=0.1, max_iters=100_000, eps=1e-9)
        p, trace = tat_run(inst, cfg, p0)
        assert trace.status == "Converged"
        assert np.linalg.norm(p - p_star) / np.linalg.norm(p_star) < 1e-5

    def test_prices_scale_with_money(self):
        # budgets and p0 times 2^43, past 1e12 of money, give the same run at 2^43 times the
        # prices: no absolute price bound stops tat on a large money scale
        from marketeq.market import MarketInstance
        scale = 2.0 ** 43
        markets = [mq.generate_random(10, 30, 0.5, rho=rho, seed=3) for rho in (0.9, -0.9, 0.5)]
        markets.append(mq.generate_random(10, 30, 0.5, seed=3, kind="linear_barrier", sigma=1e-2))
        cfg = BaselineConfig(method="tat", eps=1e-9, max_iters=5000)
        for inst in markets:
            p0 = np.full(inst.n, inst.total_budget() / inst.n)
            p, trace = tat_run(inst, cfg, p0)
            rich = MarketInstance(inst.n, inst.m, inst.budgets * scale, inst.utilities)
            p_rich, trace_rich = tat_run(rich, cfg, p0 * scale)
            assert trace.status == trace_rich.status == "Converged"
            assert trace.iterations() == trace_rich.iterations()
            assert np.max(np.abs(p_rich - scale * p) / (scale * p)) <= 1e-12

    @pytest.mark.parametrize("step", [0.0, -0.1, 1.0, 1.5, np.nan])
    def test_step_must_lie_in_the_unit_interval(self, step):
        # at step 1.5 a price reached zero and the next query raised out of tat_run
        inst = mq.generate_random(20, 60, 0.3, rho=0.5, seed=1)
        cfg = BaselineConfig(method="tat", step=step)
        with pytest.raises(ValueError, match="step must lie in"):
            cfg.validate()
        with pytest.raises(ValueError, match="step must lie in"):
            tat_run(inst, cfg, np.full(20, 5.0))

    def test_fixed_point_set_is_equilibrium_set(self):
        # if tat does not move, the point must clear the market
        inst = symmetric_instance(3, 5)
        p = np.full(3, 1.0 / 3.0)
        cfg = BaselineConfig(method="tat", step=0.2, max_iters=1, eps=1e-30)
        p1, _ = tat_run(inst, cfg, p)
        z = mq.market_state(inst, p).demand - 1.0
        assert (np.max(np.abs(p1 - p)) < 1e-14) == (np.max(np.abs(z)) < 1e-13)

    def test_linear_market_stops_on_the_certificate(self):
        # stopping on raw clearing reported Converged here after 76 iterations at grad_inf 0.1
        inst = mq.generate_random(10, 30, 0.5, seed=3, kind="linear_barrier", sigma=1e-2)
        p, trace = tat_run(inst, BaselineConfig(method="tat", eps=1e-7), np.full(10, 0.1))
        cert = mq.equilibrium_certificate(inst, p, 1e-7)
        assert trace.status == "Converged" and cert["converged"]
        assert trace.rows[-1].grad_inf == cert["grad_inf"]

    @pytest.mark.parametrize("p0", [[0.5, 0.0, 0.5], [0.5, np.nan, 0.5], [0.5, np.inf, 0.5],
                                    [0.5, 0.5]], ids=["zero", "nan", "inf", "wrong-length"])
    def test_p0_validation(self, p0):
        inst = symmetric_instance(3, 5)
        with pytest.raises(ValueError, match="p0"):
            tat_run(inst, BaselineConfig(method="tat", max_iters=5), np.array(p0))


class TestPropRes:
    def test_conservation_laws(self):
        inst = mq.generate_random(6, 10, 0.7, rho=0.6, seed=5)
        cfg = BaselineConfig(method="propres", max_iters=25, eps=1e-30)
        p, trace = propres_run(inst, cfg)
        bids = trace.extras["bids"]
        row_sums = np.asarray(bids.sum(axis=1)).ravel()
        assert np.max(np.abs(row_sums - inst.budgets) / inst.budgets) < 1e-12
        # market clearance: column sums of x = b / p are exactly one
        col = np.asarray(bids.sum(axis=0)).ravel()
        x_col = np.zeros(inst.n)
        B = bids.tocoo()
        for i, j, v in zip(B.row, B.col, B.data):
            x_col[j] += v / col[j]
        assert np.max(np.abs(x_col - 1.0)) < 1e-12

    def test_equilibrium_bids_are_fixed(self):
        inst = mq.generate_random(10, 20, 0.9, rho=0.5, seed=7)
        cfg = BaselineConfig(method="propres", max_iters=300_000, eps=1e-14)
        p, trace = propres_run(inst, cfg)
        assert trace.status == "Converged"
        bids = trace.extras["bids"]
        p2, trace2 = propres_run(inst, BaselineConfig(method="propres", max_iters=1, eps=1e-30), b0=bids)
        assert np.max(np.abs(p2 - p)) <= 1e-12

    @pytest.mark.parametrize("rho", [0.9, -0.9])
    def test_converges_to_logbar_limit(self, rho):
        inst = mq.generate_random(50, 150, 0.5, rho=rho, seed=42)
        p_star, tr = logbar_run(inst, LogBarConfig(eps=1e-10, sigma_override=0.6,
                                                   hessian_mode="exact", max_iters=400))
        cfg = BaselineConfig(method="propres", max_iters=300_000, eps=1e-13)
        p, trace = propres_run(inst, cfg)
        assert trace.status == "Converged"
        assert np.linalg.norm(p - p_star) / np.linalg.norm(p_star) < 1e-4

    def test_b0_must_match_support(self):
        inst = mq.generate_random(4, 3, 1.0, rho=0.5, seed=2)
        import scipy.sparse as sp
        bad = sp.csr_matrix(np.ones((3, 4)) * 0.1)
        bad[0, 0] = 0.0
        bad.eliminate_zeros()
        with pytest.raises(ValueError):
            propres_run(inst, BaselineConfig(method="propres"), b0=bad)

    def test_b0_row_sums_checked(self):
        inst = mq.generate_random(4, 3, 1.0, rho=0.5, seed=2)
        b0 = default_bids(inst)
        b0 = b0.multiply(2.0).tocsr()
        with pytest.raises(ValueError):
            propres_run(inst, BaselineConfig(method="propres"), b0=b0)

    def test_linear_market_rejected(self):
        # linear-barrier players have no rho column; the update must not run on NaN
        inst = mq.generate_random(4, 3, 1.0, seed=2, kind="linear_barrier", sigma=0.01)
        with pytest.raises(ValueError, match="CES or additive"):
            propres_run(inst, BaselineConfig(method="propres"))

    def test_constrained_market_rejected(self):
        # the update ignores A: a flow market "converged" at grad_inf 1.1
        with pytest.raises(ValueError, match="without constraints"):
            propres_run(mixed_flow_instance(), BaselineConfig(method="propres"))

    def test_default_bids_proportional_to_coefficients(self):
        inst = mq.generate_random(4, 3, 1.0, rho=0.5, seed=2)
        b0 = default_bids(inst)
        C = inst.coeff_csr()
        for i in range(3):
            row_c = C[i].toarray().ravel()
            row_b = b0[i].toarray().ravel()
            expect = inst.budgets[i] * row_c / row_c.sum()
            assert np.allclose(row_b, expect)


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        BaselineConfig(method="newton").validate()
