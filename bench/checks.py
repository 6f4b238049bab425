"""Correctness checks made apart from the program.

Demand is recomputed here from the instance data: CES players from the
closed form gamma_ij ~ c_ij^{1/(1-rho)} p_j^{-rho/(1-rho)}, linear-barrier
players from their own brentq root.  Flow players' allocations come from the
program and are checked for feasibility, budget and stationarity against a
least-squares fit of their multipliers, which by concavity makes them best
responses.  Every check returns a list of failure messages (empty = pass).

The certificate tolerances get a relative slack of SLACK for rounding, since
the program and these checks sum in a different order.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

SLACK = 1.0 + 1e-6
AGREE_RTOL = 1e-4  # LogBar vs PathFol prices on one CES market (unique equilibrium)
FLOW_FEAS_RTOL = 1e-8  # |A x|, |p.x - w| relative to max x and w
FLOW_STAT_RTOL = 1e-7  # stationarity residual relative to |grad log u|
PERTURB = 1.01


def ces_demand(instance, p, players) -> np.ndarray:
    """Aggregate closed-form CES demand of the given players at p."""
    demand = np.zeros(instance.n)
    for i in players:
        u = instance.utilities[i]
        a = 1.0 / (1.0 - u.rho)
        logits = a * np.log(u.val) - u.rho * a * np.log(p[u.idx])
        gamma = np.exp(logits - logits.max())
        gamma /= gamma.sum()
        demand[u.idx] += instance.budgets[i] * gamma / p[u.idx]
    return demand


def linear_barrier_demand(instance, p) -> np.ndarray:
    """Aggregate demand of linear-barrier players, each from its own root.

    Player i's KKT system c/<c,x> + sigma/x = lam p (lam = (1+sigma n)/w)
    gives x_j = sigma / (lam p_j - c_j/u).  With k the good of largest
    c_k/p_k and s = lam p_k - c_k/u the root is found in s, where
    x_j = sigma / (gap_j + (c_j/c_k) s) and gap_j = lam (p_j - c_j p_k/c_k)
    >= 0 carries no cancellation even at sigma = 5e-8.
    """
    n = instance.n
    demand = np.zeros(n)
    for i, u in enumerate(instance.utilities):
        c = np.zeros(n)
        c[u.idx] = u.val
        sigma = u.sigma
        lam = (1.0 + sigma * n) / instance.budgets[i]
        k = int(np.argmax(c / p))
        ratio = c / c[k]
        gap = np.maximum(lam * (p - ratio * p[k]), 0.0)
        top = lam * p[k]

        def excess(s):  # <c, x(s)> - u(s), decreasing in s on (0, top)
            return float(np.sum(c * sigma / (gap + ratio * s))) - c[k] / (top - s)

        s = brentq(excess, top * 1e-200, top * (1.0 - 1e-12), xtol=1e-300, rtol=8.9e-16,
                   maxiter=500)
        demand += sigma / (gap + ratio * s)
    return demand


def check_clearing(instance, p, eps, flow_x=None) -> list[str]:
    """CES and flow markets: ||1 - demand||_inf <= eps and Walras' law sum p = sum w."""
    uncon = [i for i in range(instance.m) if i not in instance.constraints]
    demand = ces_demand(instance, p, uncon)
    for x in (flow_x or {}).values():
        demand += x
    errors = []
    clear = float(np.max(np.abs(1.0 - demand)))
    if not clear <= eps * SLACK:
        errors.append(f"clearing {clear:.3e} > eps {eps:.1e}")
    walras = abs(float(p.sum()) - instance.total_budget())
    if not walras <= eps * float(p.sum()) * SLACK:
        errors.append(f"Walras |sum p - sum w| {walras:.3e} > eps * sum p")
    return errors


def check_linear(instance, p, eps) -> list[str]:
    """Linear-barrier markets: clearing within (eps + sigma n)/(1 + sigma n) and
    the certificate ||1 - (1 + sigma n) demand||_inf <= eps."""
    sig_n = instance.utilities[0].sigma * instance.n
    demand = linear_barrier_demand(instance, p)
    errors = []
    clear = float(np.max(np.abs(1.0 - demand)))
    bound = (eps + sig_n) / (1.0 + sig_n)
    if not clear <= bound * SLACK:
        errors.append(f"clearing {clear:.3e} > bound {bound:.3e}")
    grad = float(np.max(np.abs(1.0 - (1.0 + sig_n) * demand)))
    if not grad <= eps * SLACK:
        errors.append(f"gradient {grad:.3e} > eps {eps:.1e}")
    return errors


def check_flow(instance, p, flow_x) -> list[str]:
    """Each flow player: A x = 0, p.x = w, and grad log u(x) = lam p + A^T y with
    least-squares multipliers and lam = 1/w (log u is homogeneous of degree 1)."""
    errors = []
    for i, x in flow_x.items():
        u = instance.utilities[i]
        A = instance.constraints[i]
        w = float(instance.budgets[i])
        c = np.zeros(instance.n)
        c[u.idx] = u.val
        scale = float(np.max(x))
        feas = float(np.max(np.abs(A @ x)))
        if not feas <= FLOW_FEAS_RTOL * scale:
            errors.append(f"player {i}: |A x| {feas:.3e}")
        spend = float(p @ x)
        if not abs(spend - w) <= FLOW_FEAS_RTOL * w:
            errors.append(f"player {i}: spend {spend:.6e} != budget {w:.6e}")
        grad = c * x ** (u.rho - 1.0) / float(np.sum(c * x**u.rho))
        B = np.vstack([A, p])
        nu = np.linalg.lstsq(B.T, grad, rcond=None)[0]
        stat = float(np.max(np.abs(grad - B.T @ nu))) / float(np.max(np.abs(grad)))
        if not stat <= FLOW_STAT_RTOL:
            errors.append(f"player {i}: stationarity residual {stat:.3e}")
        if not abs(nu[-1] * w - 1.0) <= FLOW_STAT_RTOL:
            errors.append(f"player {i}: budget multiplier {nu[-1]:.6e} != 1/w")
    return errors


def check_agreement(p_ref, p) -> list[str]:
    rel = float(np.max(np.abs(p - p_ref) / p_ref))
    return [] if rel <= AGREE_RTOL else [f"prices differ by {rel:.3e} (relative)"]


def checkers(cell, flow_x, p_ref=None) -> dict:
    """The checks that apply to a converged solve on this cell, by name; each takes prices."""
    inst, eps = cell.instance, cell.eps
    if cell.kind == "linear":
        return {"linear": lambda p: check_linear(inst, p, eps)}
    out = {"clearing": lambda p: check_clearing(inst, p, eps, flow_x)}
    if cell.kind == "flow":
        out["flow"] = lambda p: check_flow(inst, p, flow_x)
    if p_ref is not None:
        out["agreement"] = lambda p: check_agreement(p_ref, p)
    return out


def check_solution(cell, p, flow_x, p_ref=None) -> list[str]:
    """Every applicable check at p, and the self-test: each must reject PERTURB * p."""
    errors = []
    for name, check in checkers(cell, flow_x, p_ref).items():
        errors += check(p)
        if not check(PERTURB * p):
            errors.append(f"{name} check accepted prices scaled by {PERTURB}")
    return errors
