"""Acceptance suite: one test per criterion, one printed verdict line each.

Criterion 8's iteration-ratio sub-claim is implemented faithfully and is
expected to fail at this scale; the failure message carries the measured
table (see notes in the decisions ledger outside the package).
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp

import marketeq as mq
from marketeq import hessian as hes
from marketeq.baselines import BaselineConfig, propres_run, tat_run
from marketeq.ipm import (
    LogBarConfig,
    PathFolConfig,
    SolveTrace,
    _initial_center,
    equilibrium_certificate,
    logbar_run,
    pathfol_run,
    theory_strict_Q,
)
from marketeq.market import MarketInstance, build_flow_instance
from marketeq.oracle import (
    ShareRows,
    constrained_best_response,
    constrained_dual_hessian,
    market_state,
)

from conftest import central_diff, central_diff_vec, random_player, run_with_iterates


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- 1 ----------------------------------------------------------------------


def test_criterion_01_oracle_properties():
    t0 = time.time()
    worst = {"budget": 0.0, "simplex": 0.0, "homog": 0.0, "loghom": 0.0}
    for trial in range(200):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(1, 21))
        spec = random_player(rng, n, kind="ces" if trial % 2 == 0 else "additive")
        w = float(rng.uniform(0.1, 5.0))
        p = rng.uniform(0.05, 10.0, n)
        c = spec.dense(n)
        # the player alone in a market, queried as every solve queries
        inst = MarketInstance(n, 1, [w], [spec])
        state = market_state(inst, p)
        x, gamma = state.demand, state.shares.csr().toarray()[0]
        x2 = market_state(inst, 2.0 * p).demand
        k, r = inst.k[0], inst.r[0]
        d = k * r
        worst["budget"] = max(worst["budget"], abs(float(p @ x) - w) / w)
        worst["simplex"] = max(worst["simplex"], abs(gamma.sum() - 1.0), float(-gamma.min()))
        worst["homog"] = max(worst["homog"],
                             np.max(np.abs(x2 - x / 2.0)) / max(1.0, np.max(np.abs(x))))
        supp = c > 0
        S = float(np.sum(c[supp] * x[supp] ** r))
        gv = -k * r * c[supp] * x[supp] ** (r - 1.0) / S
        worst["loghom"] = max(worst["loghom"],
                              abs(float(gv @ x[supp]) + d) / max(1.0, abs(d)))
    ok = (worst["budget"] <= 1e-10 and worst["simplex"] <= 1e-12
          and worst["homog"] <= 1e-12 and worst["loghom"] <= 1e-10)
    verdict("1 oracle-properties", ok,
            f"200 players, worst residuals {worst}, {time.time()-t0:.1f}s")
    assert worst["budget"] <= 1e-10
    assert worst["simplex"] <= 1e-12
    assert worst["homog"] <= 1e-12
    assert worst["loghom"] <= 1e-10
    assert time.time() - t0 < 10


# -- 2 ----------------------------------------------------------------------


def test_criterion_02_calculus_vs_finite_differences():
    t0 = time.time()
    worst_g = worst_j = worst_h = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed + 100)
        n = int(rng.integers(3, 11))
        m = int(rng.integers(2, 8))
        inst = mq.generate_random(n, m, 1.0, rho=float(rng.uniform(-1.5, 0.95)) or 0.5,
                                  seed=seed)
        p = rng.uniform(0.4, 2.5, n)
        g = market_state(inst, p).grad
        fd = central_diff(lambda q: market_state(inst, q).value, p)
        worst_g = max(worst_g, float(np.max(np.abs(g - fd) / (1.0 + np.abs(fd)))))
        # player i's demand Jacobian is -P^-1 H P^-1, H the scaled Hessian of
        # its one-player market (grad phi = 1 - demand)
        i = int(rng.integers(m))
        one = MarketInstance(n, 1, [inst.budgets[i]], [inst.utilities[i]])
        J = -hes.assemble(one, p).dense() / p[:, None] / p[None, :]
        Jfd = central_diff_vec(lambda q: market_state(one, q).demand, p)
        worst_j = max(worst_j, float(np.max(np.abs(J - Jfd)) / np.max(np.abs(Jfd))))
        op = hes.assemble(inst, p)
        v = rng.standard_normal(n)
        h = 1e-6
        fdh = p * (market_state(inst, p + h * p * v).grad
                   - market_state(inst, p - h * p * v).grad) / (2 * h)
        worst_h = max(worst_h, float(np.linalg.norm(op.matvec(v) - fdh) / np.linalg.norm(fdh)))
    ok = worst_g <= 1e-5 and worst_j <= 1e-4 and worst_h <= 1e-4
    verdict("2 calculus-vs-fd", ok,
            f"grad {worst_g:.2e} (<=1e-5), jac {worst_j:.2e} (<=1e-4), "
            f"hess-matvec {worst_h:.2e} (<=1e-4), {time.time()-t0:.1f}s")
    assert worst_g <= 1e-5 and worst_j <= 1e-4 and worst_h <= 1e-4
    assert time.time() - t0 < 30


# -- 3 ----------------------------------------------------------------------


def test_criterion_03_dr1_exactness_and_inverse():
    t0 = time.time()
    rng = np.random.default_rng(0)
    # single player: surrogate equals the exact operator
    inst = mq.generate_random(10, 1, 1.0, rho=0.8, seed=1)
    p = rng.uniform(0.5, 2.0, 10)
    op = hes.assemble(inst, p)
    H1 = np.diag(op.diag) - op.dr1_omega * np.outer(op.dr1_xi, op.dr1_xi)
    eq_err = 0.0
    for _ in range(20):
        v = rng.standard_normal(10)
        eq_err = max(eq_err, float(np.max(np.abs(op.matvec(v) - H1 @ v))))
    # 100 random systems: Sherman-Morrison residual
    resid = 0.0
    for seed in range(100):
        inst = mq.generate_random(12, 20, 0.8, rho=float(np.random.default_rng(seed).uniform(0.1, 0.9)),
                                  seed=seed)
        opk = hes.assemble(inst, np.random.default_rng(seed).uniform(0.5, 2.0, 12))
        rhs = np.random.default_rng(seed + 1).standard_normal(12)
        d = hes.dr1_solve(opk, 1e-2, rhs)
        Hk = np.diag(opk.diag) - opk.dr1_omega * np.outer(opk.dr1_xi, opk.dr1_xi)
        r = np.linalg.norm(Hk @ d + 1e-2 * d - rhs) / np.linalg.norm(rhs)
        resid = max(resid, float(r))
    # dense agreement at n = 50
    inst = mq.generate_random(50, 80, 0.5, rho=0.4, seed=7)
    op50 = hes.assemble(inst, np.random.default_rng(3).uniform(0.5, 2.0, 50))
    Ht = np.diag(op50.diag) - op50.dr1_omega * np.outer(op50.dr1_xi, op50.dr1_xi)
    dense_err = 0.0
    for seed in range(10):
        rhs = np.random.default_rng(seed).standard_normal(50)
        d = hes.dr1_solve(op50, 1e-3, rhs)
        dref = np.linalg.solve(Ht + 1e-3 * np.eye(50), rhs)
        dense_err = max(dense_err, float(np.max(np.abs(d - dref)) / max(1.0, np.max(np.abs(dref)))))
    ok = eq_err <= 1e-14 and resid <= 1e-12 and dense_err <= 1e-10
    verdict("3 dr1-exactness", ok,
            f"m=1 gap {eq_err:.2e} (<=1e-14), solve residual {resid:.2e} (<=1e-12), "
            f"dense agreement {dense_err:.2e} (<=1e-10), {time.time()-t0:.1f}s")
    assert eq_err <= 1e-14 and resid <= 1e-12 and dense_err <= 1e-10
    assert time.time() - t0 < 5


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_preconditioner_bound():
    t0 = time.time()
    results = {}
    for r in (-1.9, -0.9, 0.5, 0.9):
        inst = mq.generate_random(200, 400, 0.3, rho=r, seed=5)
        p = np.random.default_rng(1).uniform(0.5, 2.0, 200)
        op = hes.assemble(inst, p)
        H = op.dense()
        kc = op.row_sums()
        Hc = H / np.sqrt(kc)[:, None] / np.sqrt(kc)[None, :]
        ev = np.linalg.eigvalsh(Hc)
        kappa = float(ev[-1] / ev[0])
        bound = 1.0 / (1.0 - r) if r >= 0 else 1.0 - r
        results[r] = (kappa, bound)
    ok = all(k <= b + 1e-8 for k, b in results.values())
    verdict("4 preconditioner-bound", ok,
            "; ".join(f"r={r}: {k:.6f}<={b:.2f}" for r, (k, b) in results.items())
            + f", {time.time()-t0:.1f}s")
    for r, (k, b) in results.items():
        assert k <= b + 1e-8, f"r={r}"
    assert time.time() - t0 < 30


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_figure1_reproduction():
    t0 = time.time()
    # (a) DR1 error decreases in m under iid uniform-simplex bidding
    rng = np.random.default_rng(0)
    n, r = 200, 0.5
    errs = []
    for m in (50, 200, 800, 3200):
        gam = rng.dirichlet(np.ones(n), size=m)
        op = hes.share_operator(n, ShareRows(sp.csr_matrix(gam), np.ones(n), np.ones(m)),
                                np.full(m, 1.0 / m), r)
        errs.append(hes.diff_norm_estimate(op, iters=50, seed=1))
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    # (b) preconditioned PCG iteration counts on 50 seeds
    wins = 0
    for seed in range(50):
        inst = mq.generate_random(200, 300, 0.3, rho=0.9, seed=seed)
        op = hes.assemble(inst, np.random.default_rng(seed).uniform(0.5, 2.0, 200))
        rhs = np.random.default_rng(seed + 1000).standard_normal(200)
        _, it_pre = hes.pcg_solve(op, 1e-3, rhs, 1e-8, op.preconditioner())
        _, it_raw = hes.pcg_solve(op, 1e-3, rhs, 1e-8, None)
        wins += it_pre <= it_raw
    ok = monotone and wins >= 45
    verdict("5 figure1", ok,
            f"(a) errors {['%.2e' % e for e in errs]} monotone={monotone}; "
            f"(b) preconditioned wins {wins}/50 (>=45), {time.time()-t0:.1f}s")
    assert monotone
    assert wins >= 45
    assert time.time() - t0 < 120


# -- 6 ----------------------------------------------------------------------


@pytest.mark.parametrize("rho", [0.9, -0.9])
def test_criterion_06_logbar_end_to_end(rho):
    t0 = time.time()
    inst = mq.generate_random(50, 150, 0.5, rho=rho, seed=42)
    Q = 0.25
    mu0, center = _initial_center(inst, Q, SolveTrace())
    p0 = center.p
    g0 = market_state(inst, p0).grad
    init_resid = float(np.linalg.norm(p0 * g0 - mu0) / mu0)
    cfg = LogBarConfig(Q=Q, eps=1e-7, sigma_override=0.6, hessian_mode="exact", max_iters=400)
    p, trace = logbar_run(inst, cfg)
    grad_inf = float(np.max(np.abs(market_state(inst, p).grad)))
    mus = np.array([r.homotopy for r in trace.rows])
    ks = np.arange(len(mus))
    slope = float(np.polyfit(ks, np.log(mus), 1)[0])
    slope_err = abs(slope - math.log(0.6))
    ok = (trace.status == "Converged" and grad_inf <= 1e-7 and init_resid <= Q
          and trace.iterations() <= 200 and slope_err <= 1e-12)
    verdict(f"6 logbar-e2e rho={rho}", ok,
            f"{trace.status} in {trace.iterations()} iters (<=200), grad {grad_inf:.2e} (<=1e-7), "
            f"init-AC resid {init_resid:.3f} (<= {Q}), mu-slope err {slope_err:.1e} (<=1e-12), "
            f"{time.time()-t0:.1f}s")
    assert trace.status == "Converged"
    assert grad_inf <= 1e-7
    assert init_resid <= Q
    assert trace.iterations() <= 200
    assert slope_err <= 1e-12
    assert time.time() - t0 < 120


# -- 7 ----------------------------------------------------------------------


@pytest.mark.parametrize("rho", [0.9, -0.9])
def test_criterion_07_pathfol_behavior(rho):
    t0 = time.time()
    inst = mq.generate_random(50, 150, 0.5, rho=rho, seed=42)
    c_phi = 10.0
    cfg = PathFolConfig(beta=0.01, gamma_step=0.04, eps=1e-7, hessian_mode="exact",
                        c_phi=c_phi, max_iters=3000)
    p0 = np.full(50, inst.total_budget() / 50)
    p, trace = pathfol_run(inst, cfg, p0)
    grad_inf = float(np.max(np.abs(market_state(inst, p).grad)))
    ts = np.array([r.homotopy for r in trace.rows])
    lams = np.array([r.decrement for r in trace.rows])
    nonincreasing = bool(np.all(np.diff(ts) <= 1e-15))
    reaches_zero = bool(ts[-1] == 0.0)
    # quadratic envelope between consecutive t = 0 states (the algorithm
    # enters the quadratic region at the first such iterate)
    zero_idx = np.flatnonzero(ts == 0.0)
    transitions = [(lams[k], lams[k + 1]) for k in zero_idx[:-1] if k + 1 in set(zero_idx)]
    env = 1.2 * (1.0 / 0.49 + 1.0 / 0.7) * c_phi
    tail = transitions[-3:]
    envelope_ok = len(tail) >= 1 and all(l1 <= env * l0 * l0 for l0, l1 in tail)
    # geometric-or-better decay of the positive-t tail
    pos = ts[ts > 0]
    tail_t = pos[len(pos) // 2:]
    qs = np.exp(np.polyfit(np.arange(len(tail_t)), np.log(tail_t), 1)[0]) if len(tail_t) > 2 else 0.0
    ok = (trace.status == "Converged" and grad_inf <= 1e-7 and nonincreasing
          and reaches_zero and envelope_ok and qs < 1.0)
    verdict(f"7 pathfol rho={rho}", ok,
            f"{trace.status} in {trace.iterations()} iters, grad {grad_inf:.2e}, t nonincreasing "
            f"{nonincreasing}, reaches 0 {reaches_zero}, envelope {envelope_ok} "
            f"({len(tail)} transitions, coeff {env:.0f}), fitted q {qs:.3f} (<1), "
            f"{time.time()-t0:.1f}s")
    assert trace.status == "Converged" and grad_inf <= 1e-7
    assert nonincreasing and reaches_zero
    assert envelope_ok
    assert qs < 1.0
    assert time.time() - t0 < 120


# -- 8 ----------------------------------------------------------------------


AGREEMENT_CELLS = [(20, 60, 1), (50, 150, 2), (100, 300, 3)]


def _run_all_methods(inst):
    p0 = np.full(inst.n, inst.total_budget() / inst.n)
    out = {}
    p, tr = logbar_run(inst, LogBarConfig(eps=1e-7, sigma_override=0.6,
                                          hessian_mode="exact", max_iters=400))
    out["logbar"] = (p, tr)
    p, tr = logbar_run(inst, LogBarConfig(eps=1e-7, sigma_override=0.6,
                                          hessian_mode="pcg", max_iters=400))
    out["logbar-pcg"] = (p, tr)
    p, tr = pathfol_run(inst, PathFolConfig(eps=1e-7, hessian_mode="exact",
                                            c_phi=10.0, max_iters=3000), p0)
    out["pathfol"] = (p, tr)
    p, tr = tat_run(inst, BaselineConfig(step=0.1, max_iters=300_000, eps=3e-9), p0)
    out["tat"] = (p, tr)
    p, tr = propres_run(inst, BaselineConfig(max_iters=300_000, eps=1e-13))
    out["propres"] = (p, tr)
    return out


def test_criterion_08_cross_method_agreement():
    t0 = time.time()
    worst = 0.0
    for (n, m, seed) in AGREEMENT_CELLS:
        for rho in (0.9, -0.9):
            inst = mq.generate_random(n, m, 0.5, rho=rho, seed=seed)
            results = _run_all_methods(inst)
            assert all(tr.status == "Converged" for _, tr in results.values())
            for a, b in combinations(results, 2):
                pa, pb = results[a][0], results[b][0]
                d = np.linalg.norm(pa - pb) / max(np.linalg.norm(pa), np.linalg.norm(pb))
                worst = max(worst, float(d))
    ok = worst <= 1e-4
    verdict("8 cross-method agreement", ok,
            f"6 instances x 5 methods, worst pairwise rel-l2 {worst:.2e} (<=1e-4), "
            f"{time.time()-t0:.1f}s")
    assert worst <= 1e-4
    assert time.time() - t0 < 300


def _iterations_to_distance(inst, p_star, method, tol=1e-5):
    hit = []

    def watch(k, p):
        if np.linalg.norm(p - p_star) <= tol:
            hit.append(k)
            return "Converged"
        return None

    p0 = np.full(inst.n, inst.total_budget() / inst.n)
    if method == "logbar":
        logbar_run(inst, LogBarConfig(eps=1e-14, sigma_override=0.6,
                                      hessian_mode="exact", max_iters=200_000), callback=watch)
    elif method == "pathfol":
        pathfol_run(inst, PathFolConfig(eps=1e-14, hessian_mode="exact", c_phi=10.0,
                                        max_iters=200_000), p0, callback=watch)
    elif method == "tat":
        tat_run(inst, BaselineConfig(step=0.1, max_iters=300_000, eps=1e-16), p0,
                callback=watch)
    else:
        propres_run(inst, BaselineConfig(max_iters=300_000, eps=1e-16), callback=watch)
    return hit[0] if hit else math.inf


def test_criterion_08_iteration_ratio():
    """Faithful implementation of the 10x iteration-ratio sub-claim.

    The claim does not hold at the pinned desk scale: the optimal-diagonal
    conditioning bound caps multiplicative tatonnement near equilibrium,
    and proportional response starts essentially at equilibrium from its
    coefficient-proportional bids, while LogBar's mandated mu-descent needs
    ~25 iterations of its own.  Expected to fail; kept red by design.
    """
    t0 = time.time()
    rows = []
    ratios_ok = True
    for (n, m, seed) in AGREEMENT_CELLS:
        for rho in (0.9, -0.9):
            inst = mq.generate_random(n, m, 0.5, rho=rho, seed=seed)
            p_star, tr = logbar_run(inst, LogBarConfig(eps=1e-12, sigma_override=0.6,
                                                       hessian_mode="exact", max_iters=600))
            assert tr.status == "Converged"
            iters = {meth: _iterations_to_distance(inst, p_star, meth)
                     for meth in ("logbar", "pathfol", "tat", "propres")}
            rows.append((n, m, rho, iters))
            for ipm_m in ("logbar", "pathfol"):
                for fom in ("tat", "propres"):
                    if iters[ipm_m] > iters[fom] / 10.0:
                        ratios_ok = False
    table = "; ".join(f"n={n},m={m},rho={r}: {it}" for n, m, r, it in rows)
    verdict("8 iteration-ratio (10x)", ratios_ok, table + f", {time.time()-t0:.1f}s")
    assert ratios_ok, (
        "IPM iterations are not <= FOM/10 at desk scale; measured " + table)


# -- 9 ----------------------------------------------------------------------


def test_criterion_09_linear_barrier_market():
    t0 = time.time()
    eps = 1e-6
    n, m = 20, 50
    sigma = eps / n
    inst = mq.generate_random(n, m, 0.5, seed=21, kind="linear_barrier", sigma=sigma)
    cfg = LogBarConfig(eps=eps, hessian_mode="exact", max_iters=600)
    p, trace = logbar_run(inst, cfg)
    cert = equilibrium_certificate(inst, p, eps=eps)
    ok = (trace.status == "Converged" and cert["clearing_within_bound"]
          and cert["kkt_residual_max"] <= 1e-10)
    verdict("9 linear-barrier", ok,
            f"{trace.status}, clearing {cert['clearing_inf']:.3e} <= bound "
            f"{cert['remark1_bound']:.3e}: {cert['clearing_within_bound']}, "
            f"kkt {cert['kkt_residual_max']:.2e} (<=1e-10), {time.time()-t0:.1f}s")
    assert trace.status == "Converged"
    assert cert["clearing_within_bound"]
    assert cert["kkt_residual_max"] <= 1e-10
    assert time.time() - t0 < 60


def test_criterion_09_linear_barrier_sweep():
    """Criterion 9's settings across sizes and seeds.  No KKT bound: at
    sigma = eps/60 the oracle's own residual reaches ~1e-8."""
    t0 = time.time()
    eps = 1e-6
    failures = []
    for n, m in ((20, 50), (40, 100), (60, 150)):
        for seed in (21, 1, 2):
            inst = mq.generate_random(n, m, 0.5, seed=seed, kind="linear_barrier", sigma=eps / n)
            p, trace = logbar_run(inst, LogBarConfig(eps=eps, hessian_mode="exact", max_iters=600))
            cert = equilibrium_certificate(inst, p, eps=eps)
            if not (trace.status == "Converged" and cert["converged"]
                    and cert["clearing_within_bound"]):
                failures.append(f"n={n} seed={seed}: {trace.status}, "
                                f"grad_inf {cert['grad_inf']:.2e}")
    verdict("9 linear-barrier sweep", not failures,
            f"{9 - len(failures)}/9 cells converged within the clearing bound "
            f"{failures}, {time.time()-t0:.1f}s")
    assert not failures, failures


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_constrained_allocation():
    t0 = time.time()
    details = []
    worst_ax = worst_budget = worst_annihilate = worst_fd = 0.0
    for edges, terminals in (
        ([("s", "t")], [("s", "t")]),
        ([("s", "t"), ("s", "v"), ("v", "t")], [("s", "t")]),
    ):
        inst = build_flow_instance(edges, terminals, rho=0.5)
        A = inst.constraints[0]
        rng = np.random.default_rng(len(edges))
        p = rng.uniform(0.5, 1.5, inst.n)
        u = inst.utilities[0]
        w = float(inst.budgets[0])
        resp, y, lam = constrained_best_response(
            p, u.dense(inst.n), inst.k[0], inst.r[0], w, A)
        worst_ax = max(worst_ax, float(np.max(np.abs(A @ resp.x))))
        worst_budget = max(worst_budget, abs(resp.spend - w) / w)
        M = constrained_dual_hessian(inst, 0, resp.x)
        worst_annihilate = max(worst_annihilate,
                               float(np.max(np.abs(A @ M)) / np.max(np.abs(M))))
        d = inst.k[0] * inst.r[0]
        J = -(w / d) * M
        Jfd = central_diff_vec(lambda q: market_state(inst, q).demand, p, rel_step=1e-5)
        worst_fd = max(worst_fd, float(np.max(np.abs(J - Jfd)) / np.max(np.abs(Jfd))))
        details.append(f"{len(edges)} edges")
    ok = (worst_ax <= 1e-10 and worst_budget <= 1e-10
          and worst_annihilate <= 1e-10 and worst_fd <= 1e-4)
    verdict("10 constrained-allocation", ok,
            f"Ax {worst_ax:.2e} (<=1e-10), budget {worst_budget:.2e} (<=1e-10), "
            f"A.M {worst_annihilate:.2e} (<=1e-10), jac-fd {worst_fd:.2e} (<=1e-4), "
            f"{time.time()-t0:.1f}s")
    assert worst_ax <= 1e-10
    assert worst_budget <= 1e-10
    assert worst_annihilate <= 1e-10
    assert worst_fd <= 1e-4
    assert time.time() - t0 < 60


# -- 11 ---------------------------------------------------------------------


def test_criterion_11_neighborhood_invariance():
    t0 = time.time()
    inst = mq.generate_random(5, 8, 1.0, rho=-0.5, seed=3)
    eps = 0.1
    Q = theory_strict_Q(inst, eps)
    cfg = LogBarConfig(Q=Q, eps=eps, hessian_mode="exact", max_iters=50_000, mu_stop=True)
    p, trace, iterates = run_with_iterates(logbar_run, inst, cfg)
    sig = trace.extras["sigma"]
    mus = [r.homotopy for r in trace.rows]
    mu_thr = eps / (1.0 + math.sqrt(inst.n))
    checked = violations = 0
    for k in range(len(mus) - 1):
        mu_next = mus[k] * sig
        if mu_next < mu_thr:
            break
        gk = market_state(inst, iterates[k]).grad
        r1 = np.linalg.norm(iterates[k] * gk - mus[k]) / mus[k]
        r2 = np.linalg.norm(iterates[k] * gk - mu_next) / mu_next
        gk1 = market_state(inst, iterates[k + 1]).grad
        r3 = np.linalg.norm(iterates[k + 1] * gk1 - mu_next) / mu_next
        checked += 1
        if not (r1 <= Q * (1 + 1e-9) and r2 <= 2 * Q * (1 + 1e-9) and r3 <= Q * (1 + 1e-9)):
            violations += 1
    ok = (trace.status == "Converged" and violations == 0 and checked > 1000
          and trace.extras["safeguards"] == 0)
    verdict("11 neighborhood-invariance", ok,
            f"theory-strict Q={Q:.3e}, checked {checked} iterations, "
            f"{violations} violations, safeguards {trace.extras['safeguards']}, "
            f"{time.time()-t0:.1f}s")
    assert trace.status == "Converged"
    assert violations == 0
    assert checked > 1000
    assert trace.extras["safeguards"] == 0
    assert time.time() - t0 < 60
