"""Best-response oracles and the calculus built from them.

Everything the solvers consume is rebuilt from best responses stacked per
group of players: demand aggregates into the potential gradient, and the
bidding vectors (money shares) gamma_i = P x_i / w_i assemble the scaled Hessian.
CES and power-form additive utilities share one closed form, the share
theta_ij = c_ij^a_i p_j^b_i.  When the players share one exponent the share
matrix stays factored, G = diag(1/S) C^a diag(q) with the cached,
row-normalized C^a, q = p^b and S = C^a q (``bid_shares``, ``ShareRows``),
so a price query is two sparse products: S, and the spend per good
G^T w = q * (C^a)^T (w/S), which gives demand and, read by
``hessian.share_operator``, the Hessian's diagonal, its DR1 vector and its
row sums k_c = H 1 = sum_i w_i gamma_i, all in O(n).  Mixed exponents, or a
price spread that could underflow the factored product, take a log-domain
softmax instead.  Linear-barrier players reduce to a one-dimensional
root-find.  Homogeneously constrained players run a damped feasible Newton,
all of them at once per price query, stacked per group of equal
constraint-row count, and their demand stays stacked per group
(``MarketState.con_x``) for the Hessian and the certificate.  A query given
the state of an earlier one (``market_state``'s ``prev``) starts each
group's Newton from that demand scaled onto the new budget plane, which
A x = 0 keeps feasible; the line search also accepts a step that leaves v
flat to its accuracy where the slope is itself below it.  hess v is
diagonal-plus-rank-one with the closed-form inverse
W^-1 = (diag(x^2/gamma) - r x x^T) / (d (1-r)), so each Newton step is a
small Schur-complement solve B W^-1 B^T nu = -B W^-1 g per player (B = [A; p]),
and their dual-Hessian blocks are a diagonal plus 1 + rows weighted rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType, SimpleNamespace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .market import ConGroup, MarketInstance, ShareFactors


class OracleError(RuntimeError):
    """Numerical breakdown inside a best-response computation."""


class FeasibleStartError(OracleError):
    """No strictly feasible interior start for a constrained player."""


class NewtonStagnationError(OracleError):
    """Constrained Newton failed to reach the target residual."""


class ConditioningError(OracleError):
    """A W^{-1} A^T is numerically singular."""


# ---------------------------------------------------------------------------
# linear utilities with a log barrier


PSI_ROUND_CAP = 100  # safeguarded Newton rounds before the psi root-finder gives up
_PSI_RTOL = 4.0 * np.finfo(float).eps  # a step or bracket this small (relative) ends a row


def _psi_roots(C: sp.csr_matrix, cols: np.ndarray, p: np.ndarray, sig: np.ndarray,
               w: np.ndarray):
    """Every linear-barrier player's demand at p, one CSR row of C per player.

    ``cols`` is ``C.indices`` as intp, the index of every gather of p.

    The KKT system c/<c,x> + sigma/x = lam p, lam = (1+sigma n)/w, gives
    x_j = sigma / (lam p_j - c_j/u) with u = <c, x> the root of
        psi(u) = S(u) - u,   S(u) = sum_j sigma c_j / (lam p_j - c_j/u),
    strictly decreasing on (u_lo, inf), u_lo = max_j c_j/(lam p_j) its
    largest pole.  The budget bounds u <= w max_j c_j/p_j = (1 + sigma n) u_lo,
    so [u_lo, (1 + sigma n) u_lo] brackets every row's root.  From
    u_lo (1 + 1e-8), or the bracket's midpoint if nearer, a safeguarded
    Newton iterates on the pole-free F(u) = 1/S(u) - 1/u (opposite sign to
    psi, near-linear by the pole, where Newton on psi only doubles its
    distance from it per round), bisecting wherever a step leaves the
    bracket.  A row stops once its step or bracket is within a few ulps;
    rows still moving after PSI_ROUND_CAP rounds raise OracleError.  Six
    extended-precision Newton steps on psi then polish u (``_psi_polish``,
    which skips the rounds left once every row repeats): u is ill-conditioned
    when sigma is tiny (denominators cancel at eps/sigma), but demand built
    from an accurate u is not, so KKT residuals reach ~1e-12 at
    sigma = eps/n.  Goods with c_j = 0 get x_j = sigma / (lam p_j).  Every
    step is row-local, so a player's demand does not depend on who else is
    solved in the call.

    Returns (X, rows, rounds): the dense (m, n) demand, the row (player)
    index of every stored coefficient, aligned with ``C.data``, and the
    Newton rounds taken.
    """
    m, n = C.shape
    starts = C.indptr[:-1]
    counts = np.diff(C.indptr)
    if np.any(counts == 0):
        raise OracleError("player has no positive coefficient")
    rows = np.repeat(np.arange(m), counts)
    c = C.data
    lam = (1.0 + sig * n) / w
    lamp = lam[rows] * p[cols]
    sc = sig[rows] * c
    u_lo = np.maximum.reduceat(c / lamp, starts)
    if np.any(u_lo <= 0.0):
        raise OracleError("player has no positive coefficient")

    lo, hi = u_lo, (1.0 + sig * n) * u_lo
    u = np.minimum(u_lo * (1.0 + 1e-8), 0.5 * (lo + hi))
    active = np.ones(m, dtype=bool)
    for rounds in range(1, PSI_ROUND_CAP + 1):
        denom = lamp - c / u[rows]
        t = sc / denom
        S = np.add.reduceat(t, starts)
        dS = np.add.reduceat(t * c / denom, starts) / u**2  # -S'(u)
        F = 1.0 / S - 1.0 / u
        lo = np.where(F < 0.0, u, lo)
        hi = np.where(F > 0.0, u, hi)
        u_new = u - F / (dS / S**2 + 1.0 / u**2)
        u_new = np.where((u_new >= lo) & (u_new <= hi), u_new, 0.5 * (lo + hi))
        done = (np.abs(u_new - u) <= _PSI_RTOL * u) | (hi - lo <= _PSI_RTOL * hi)
        u = np.where(active, u_new, u)
        active &= ~done
        if not active.any():
            break
    else:
        raise OracleError(f"psi root unconverged for {int(active.sum())} players "
                          f"after {PSI_ROUND_CAP} Newton rounds")

    ld = np.longdouble
    c_l, sig_l = c.astype(ld), sig.astype(ld)[rows]
    lamp_l = lam.astype(ld)[rows] * p.astype(ld)[cols]
    u = _psi_polish(u.astype(ld), u_lo.astype(ld), c_l, sig_l, lamp_l, rows, starts)

    X = sig[:, None] / (lam[:, None] * p[None, :])
    X[rows, cols] = (sig_l / (lamp_l - c_l / u[rows])).astype(float)
    if np.any(X <= 0) or not np.all(np.isfinite(X)):
        raise OracleError("linear-barrier demand left the positive orthant")
    return X, rows, rounds


PSI_POLISH_ROUNDS = 6


def _psi_polish(u, u_lo, c, sig, lamp, rows, starts):
    """PSI_POLISH_ROUNDS extended-precision Newton steps on psi from u.

    All arguments are longdouble, the last four aligned with the CSR
    nonzeros; a step that would cross the pole u_lo is not taken.  Each
    row's map u -> u+ is a fixed function of that row's u, so once every
    row repeats an earlier iterate (u_k == u_{k-1}: a fixed point, or
    u_k == u_{k-2}: a two-cycle) the remaining rounds are known, and the
    round-PSI_POLISH_ROUNDS iterate is returned bit for bit without them.
    """
    c2 = c**2
    prev = older = None
    for k in range(1, PSI_POLISH_ROUNDS + 1):
        ur = u[rows]
        denom = lamp - c / ur
        pu = np.add.reduceat(sig * (c / denom), starts) - u
        dpsi = -np.add.reduceat(sig * (c2 / (ur * denom) ** 2), starts) - 1.0
        u_new = u - pu / dpsi
        older, prev, u = prev, u, np.where(u_new > u_lo, u_new, u)
        repeats = u == prev
        if older is not None:
            repeats |= u == older
        if repeats.all():
            return prev if (PSI_POLISH_ROUNDS - k) % 2 else u
    return u


def linear_barrier_kkt_residual(p, c, sigma, w, x) -> float:
    """Max-norm residual of the stationarity condition c/<c,x> + sigma/x = lam*p,
    lam = (1 + sigma n)/w, over one player's row or a stack of rows: c and x
    of shape (n,) or (m, n), sigma and w scalars or of shape (m,)."""
    c, x = np.atleast_2d(c, x)
    sigma, w = np.reshape(sigma, (-1, 1)), np.reshape(w, (-1, 1))
    res = c / np.sum(c * x, axis=1, keepdims=True) + sigma / x - (1.0 + sigma * len(p)) / w * p
    return float(np.max(np.abs(res)))


# ---------------------------------------------------------------------------
# homogeneously constrained players


def _positive_median(X: np.ndarray) -> np.ndarray:
    """Per row of X, the median of its positive entries (1.0 for a row with none)."""
    npos = np.count_nonzero(X > 0, axis=1)
    srt = np.sort(np.where(X > 0, X, np.inf), axis=1)
    rows = np.arange(len(X))
    lo = srt[rows, np.maximum(npos - 1, 0) // 2]
    hi = srt[rows, np.minimum(npos // 2, X.shape[1] - 1)]
    return np.where(npos > 0, 0.5 * (lo + hi), 1.0)


def _feasible_start(B, b, X, tol=1e-9, iters=200):
    """Project positive guesses onto {B_g x = b_g}, clipping back inside.

    Row g of X is projected onto its own plane; a row whose projection stays
    above 1e-8 times the median of its positive guess entries is done, the
    others are clipped to that floor and projected again, for at most
    ``iters`` rounds.  Returns the starts and a mask of the rows that ended
    strictly positive and on their plane.
    """
    BBt = B @ B.transpose(0, 2, 1)
    floor = 1e-8 * _positive_median(X)
    X = X.copy()
    active = np.arange(len(X))
    for _ in range(iters):
        Bg = B[active]
        resid = np.einsum("gij,gj->gi", Bg, X[active]) - b[active]
        shift = np.linalg.solve(BBt[active], resid[..., None])[..., 0]
        x = X[active] - np.einsum("gij,gi->gj", Bg, shift)
        done = x.min(axis=1) >= floor[active]
        X[active] = np.where(done[:, None], x, np.maximum(x, floor[active, None]))
        active = active[~done]
        if not active.size:
            break
    resid = np.linalg.norm(np.einsum("gij,gj->gi", B, X) - b, axis=1)
    return X, (X.min(axis=1) > 0) & (resid <= tol * (1.0 + np.abs(b[:, -1])))


def _constrained_newton(p, C, k, r, w, A, tol_stat: float = 1e-10, max_newton: int = 100,
                        start=None):
    """The LUMPs of G players that share a constraint-row count, solved at once.

    Player g maximizes log u_g(x) = k_g log <C_g, x^r_g> subject to
    A_g x = 0, <p, x> = w_g, x > 0 by damped feasible Newton on
    v = -log u.  With gamma the shares C x^r / <C, x^r> and d = k r,
        hess v = d (1-r) diag(gamma/x^2) + d r (gamma/x)(gamma/x)^T,
    and sum(gamma) = 1 gives its inverse in closed form,
        W^-1 = (diag(x^2/gamma) - r x x^T) / (d (1-r)).
    So with B = [A; p] the (n + rows + 1) KKT system of a Newton step
    reduces to the (rows + 1)-square Schur system
        B W^-1 B^T nu = -B W^-1 g,   dx = -W^-1 (g + B^T nu),
    one per player, solved as one stack (the scalar d (1-r) cancels from
    nu).  Each player keeps its own iterate, 0.99 fraction-to-boundary cap,
    Armijo backtracking on v and stop rule (stationarity and squared
    decrement within ``tol_stat``), and a player that has stopped is not
    stepped again; a player's answer matches its one-player solve to
    rounding (numpy may round x^r differently for a one-row stack).  v is
    accurate to tol = tol_stat max(1, |v|), so where a player's slope is
    within tol of 0 a trial is also accepted when v rises by at most tol
    (the flat rule of ``ipm._backtrack``): there Armijo's decrease is
    decided by rounding, and without the rule the step fraction halves
    to nothing on large budgets.

    ``start``, when given, is a (G, n) positive demand whose rows satisfy
    A_g x = 0, typically the group's demand at earlier prices: its rows
    scaled onto the budget plane, x w / <p, x>, stay feasible (A x = 0 is
    homogeneous) and are the Newton start.  Otherwise the start is the
    unconstrained demand projected onto the feasible set
    (``_feasible_start``).

    Returns (X, Y, lam, steps): the (G, n) demand, the constraint and budget
    multipliers of the last Newton system, and the steps taken in total.
    """
    G, n = C.shape
    if np.any(C <= 0):
        raise OracleError("constrained oracle needs strictly positive coefficients")
    B = np.concatenate([A, np.broadcast_to(p, (G, 1, n))], axis=1)
    if start is not None:
        X = start * (w / (start @ p))[:, None]
    else:
        b = np.zeros(B.shape[:2])
        b[:, -1] = w
        a = 1.0 / (1.0 - r)
        logits = a[:, None] * np.log(C) - (r * a)[:, None] * np.log(p)
        E = np.exp(logits - logits.max(axis=1, keepdims=True))
        X, ok = _feasible_start(B, b, w[:, None] * (E / E.sum(axis=1, keepdims=True)) / p)
        if not ok.all():
            bad = np.flatnonzero(~ok)
            uniform = np.repeat((w[bad] / p.sum())[:, None], n, axis=1)
            X[bad], ok[bad] = _feasible_start(B[bad], b[bad], uniform)
            if not ok.all():
                raise FeasibleStartError("no strictly feasible interior start found")

    d = k * r

    def v_of(Xs, g):
        return -k[g] * np.log(np.sum(C[g] * Xs ** r[g, None], axis=1))

    nu = np.zeros(B.shape[:2])
    steps = 0
    active = np.arange(G)
    for _ in range(max_newton):
        x, Bg, ra, da = X[active], B[active], r[active], d[active]
        t = C[active] * x ** ra[:, None]
        gam = t / t.sum(axis=1, keepdims=True)
        grad = -da[:, None] * gam / x
        q = x * x / gam  # d (1-r) W^-1 = diag(q) - r x x^T
        Bx = np.einsum("gij,gj->gi", Bg, x)
        S = ((Bg * q[:, None, :]) @ Bg.transpose(0, 2, 1)
             - ra[:, None, None] * Bx[:, :, None] * Bx[:, None, :])
        BWg = np.einsum("gij,gj->gi", Bg, q * grad) - (ra * np.sum(x * grad, axis=1))[:, None] * Bx
        nu_a = np.linalg.solve(S, -BWg[..., None])[..., 0]
        h = grad + np.einsum("gij,gi->gj", Bg, nu_a)
        dx = -(q * h - (ra * np.sum(x * h, axis=1))[:, None] * x) / (da * (1.0 - ra))[:, None]
        u = gam * dx / x
        decr2 = da * ((1.0 - ra) * np.sum(u * dx / x, axis=1) + ra * np.sum(u, axis=1) ** 2)
        stat = np.abs(h).max(axis=1)
        nu[active] = nu_a
        keep = ~((stat <= tol_stat * (1.0 + np.abs(grad).max(axis=1))) & (decr2 <= tol_stat))
        active, x, dx, grad, stat = active[keep], x[keep], dx[keep], grad[keep], stat[keep]
        if not active.size:
            break
        steps += active.size
        with np.errstate(divide="ignore"):
            alpha = np.minimum(1.0, 0.99 * np.where(dx < 0, -x / dx, np.inf).min(axis=1))
        v0 = v_of(x, active)
        slope = np.sum(grad * dx, axis=1)
        tol = tol_stat * np.maximum(1.0, np.abs(v0))  # v's accuracy, per player
        flat = np.abs(slope) <= tol  # a slope of rounding size, never an ascent direction
        pending = np.arange(active.size)
        while pending.size:
            if np.any(alpha[pending] <= 1e-14):
                worst = float(stat[pending][alpha[pending] <= 1e-14].max())
                raise NewtonStagnationError(f"line search failed at stationarity {worst:.3e}")
            x_try = x[pending] + alpha[pending, None] * dx[pending]
            accept = x_try.min(axis=1) > 0
            pos = pending[accept]
            v_try = v_of(x_try[accept], active[pos])
            accept[accept] = ((v_try <= v0[pos] + 1e-4 * alpha[pos] * slope[pos])
                              | (flat[pos] & (v_try - v0[pos] <= tol[pos])))
            X[active[pending[accept]]] = x_try[accept]
            pending = pending[~accept]
            alpha[pending] *= 0.5
    else:
        raise NewtonStagnationError(f"no convergence in {max_newton} Newton steps; "
                                    f"stationarity {float(stat.max()):.3e}")
    return X, nu[:, :-1], nu[:, -1], steps


@dataclass
class BestResponse:
    """One constrained player's demand at prices p, as ``constrained_best_response``
    returns it; kept only for ``bench/tracer.py`` / ``bench/run.py`` (ROADMAP item 21).

    ``gamma`` is the bidding vector and ``log_utility`` the attained log u(x).
    """

    x: np.ndarray
    gamma: np.ndarray
    log_utility: float
    spend: float


def constrained_best_response(p, c, k: float, r: float, w: float, A: np.ndarray,
                              tol_stat: float = 1e-10, max_newton: int = 100):
    """Equality-constrained LUMP via damped feasible Newton.

    Solves max log u(x) s.t. A x = 0, <p, x> = w, x > 0 for the power-form
    additive family: the one-player case of ``_constrained_newton``, the
    batch that ``market_state`` runs per constraint-row count, so it returns
    the same demand row.  Returns (response, y, lam): constraint multipliers
    y and budget multiplier lam (equal to d/w at the solution).  No solve
    calls it; kept only for ``bench/tracer.py`` / ``bench/run.py`` (ROADMAP item 21).
    """
    p = np.asarray(p, dtype=float)
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float).reshape(-1, len(p))
    k, r = np.array([float(k)]), np.array([float(r)])
    X, Y, lam, _ = _constrained_newton(p, c[None, :], k, r, np.array([float(w)]), A[None],
                                       tol_stat, max_newton)
    t = c * X[0] ** r
    S = t.sum()
    return BestResponse(X[0], t / S, float(k[0] * np.log(S)), float(X[0] @ p)), Y[0], float(lam[0])


def constrained_hessian_rows(X, C, k, r, w, A):
    """Dual Hessians of f for a constrained group with best responses X, as rows.

    Player g's block (d^2/w^2) (W^-1 - W^-1 A^T (A W^-1 A^T)^-1 A W^-1),
    W = hess v(x), is diag(D_g) - R_g^T diag(s_g) R_g.  With the closed form
    W' = d (1-r) W^-1 = diag(q) - r x x^T, q = x^2/gamma (see
    ``_constrained_newton``), c = d / (w^2 (1-r)) and S = A W' A^T = L L^T,
    the block is c (W' - W' A^T S^-1 A W'): D = c q, row 0 of R is x with
    weight c r, and rows 1..rows are L^-1 A W' with weight c.  Returns
    (D, R, s) of shapes (G, n), (G, 1 + rows, n) and (G, 1 + rows).  Raises
    ConditioningError when some S has a condition number above 1e13,
    lambda_max / lambda_min, or an eigenvalue that is not positive.
    """
    t = C * X ** r[:, None]
    q = X * X / (t / t.sum(axis=1, keepdims=True))
    c = k * r / (w * w * (1.0 - r))
    R, s = X[:, None, :], (c * r)[:, None]
    if A.shape[1]:
        AW = A * q[:, None, :] - r[:, None, None] * (A @ X[..., None]) * X[:, None, :]
        S = AW @ A.transpose(0, 2, 1)
        eig = np.linalg.eigvalsh(S)  # ascending; S is symmetric
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(eig[:, 0] > 0, eig[:, -1] / eig[:, 0], np.inf)
        if not np.all(np.isfinite(cond)) or np.any(cond > 1e13):
            raise ConditioningError(f"A W^-1 A^T condition number {float(np.nanmax(cond)):.3e}")
        R = np.concatenate([R, np.linalg.solve(np.linalg.cholesky(S), AW)], axis=1)
        s = np.concatenate([s, np.repeat(c[:, None], A.shape[1], axis=1)], axis=1)
    return c[:, None] * q, R, s


def constrained_dual_hessian(instance: MarketInstance, i: int, x) -> np.ndarray:
    """Dual Hessian of f_i for a constrained player with best response x = x_i(p):
    (d^2/w^2) (W^{-1} - W^{-1} A^T (A W^{-1} A^T)^{-1} A W^{-1}), W = hess v(x).

    The dense (n, n) view diag(D) - R^T diag(s) R of the one-player case of
    ``constrained_hessian_rows``, whose rows ``hessian.assemble_from_state``
    appends to the operator per constraint-row count.  No solve calls it;
    kept only for ``bench/tracer.py`` / ``bench/run.py`` (ROADMAP item 21).
    """
    A = instance.constraints.get(i, np.zeros((0, instance.n))).reshape(1, -1, instance.n)
    D, R, s = constrained_hessian_rows(np.asarray(x, float)[None, :], instance.C[[i]].toarray(),
                                       instance.k[[i]], instance.r[[i]], instance.budgets[[i]], A)
    return np.diag(D[0]) - R[0].T @ (s[0][:, None] * R[0])


# ---------------------------------------------------------------------------
# batched evaluation across players


def _row_softmax(logits: np.ndarray, indptr: np.ndarray):
    """Row-wise softmax over CSR-packed data; returns (shares, logsumexp per row)."""
    starts = indptr[:-1]
    counts = np.diff(indptr)
    mx = np.maximum.reduceat(logits, starts)
    e = np.exp(logits - np.repeat(mx, counts))
    sums = np.add.reduceat(e, starts)
    return e / np.repeat(sums, counts), mx + np.log(sums)


SPREAD_LIMIT = 600.0  # largest |b| (max log p - min log p) the factored shares take


def share_csr(C: sp.csr_matrix, data: np.ndarray) -> sp.csr_matrix:
    """An explicit share matrix: ``data`` on C's index arrays (not copies).

    The one place a share matrix G is built; the price-query path
    (``market_state``, ``hessian.assemble_from_state``, PCG) never calls it
    on the factored path.
    """
    return sp.csr_matrix((data, C.indices, C.indptr), shape=C.shape)


class ShareRows(NamedTuple):
    """The unconstrained players' share matrix G = diag(1/S) Ca diag(q), as factors.

    Row i of G is player ``instance.uncon[i]``'s bidding vector gamma_i.  On
    the factored path ``Ca`` is the cached ``ShareFactors.Ca``, ``q`` the
    per-query p^b scaled to a largest entry of 1 and ``S = Ca q`` the row
    sums; the softmax path stores its explicit shares as ``Ca`` with ``q``
    and ``S`` ones.  Products apply 1/S once, never squared (see
    ``bid_shares``); ``csr`` builds G itself.
    """

    Ca: sp.csr_matrix
    q: np.ndarray
    S: np.ndarray

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """G v."""
        return (self.Ca @ (self.q * v)) / self.S

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """G^T y."""
        return self.q * (self.Ca.T @ (y / self.S))

    def csr(self) -> sp.csr_matrix:
        """G as an explicit CSR (``share_csr``); no solve builds it, tests read its entries."""
        Ca = self.Ca
        data = np.take(self.q, Ca.indices) * Ca.data / np.repeat(self.S, np.diff(Ca.indptr))
        return share_csr(Ca, data)


def bid_shares(instance: MarketInstance, p):
    """The unconstrained players' bidding shares at p: (ShareRows G, log_S).

    Row i of G belongs to player ``instance.uncon[i]``; log_S[i] is
    logsumexp of the dual theta row, from which the attained log-utility is
    d_i log w_i + k_i (1-r_i) log_S_i.

    theta_ij = exp(a_i log c_ij + b_i log p_j) factors as c_ij^a_i * p_j^b_i.
    When the rows share one exponent, the first factor, row-normalized, is
    the cached CSR ``Ca`` (``instance.share_factors()``); a query computes
    q = exp(b log p - bmax) over the goods and S = Ca q, one sparse product,
    and keeps G = diag(1/S) Ca diag(q) as those factors: no per-nonzero
    ``exp``, gather or division runs and no share matrix is built.

    Ranges.  Each row of Ca has largest entry 1 and q lies in [e^-L, 1],
    L = |b| (max log p - min log p) <= SPREAD_LIMIT = 600, so every S_i lies
    in [e^-600, nnz_i].  1/S_i, at most e^600, is representable; its square
    is not, so every product applies 1/S once per side of G (``ShareRows``,
    ``hessian.ScaledHessianOp``), never as s/S^2.  A product Ca_ij q_j (in
    S or G v) that leaves the normal range is below e^-708 < e^-108 S_i, a
    share below e^-108 that the explicit product loses too.  In
    G^T y = q * (Ca^T (y/S)) the terms Ca_ij y_i/S_i are at most
    |y_i| e^600, so their sum stays finite for |y| up to e^100 / nnz, and
    each is at least the explicit term G_ij y_i in size, so it underflows
    only where G^T y does; q_j then scales it back.  Beyond that spread, or when the rows' exponents differ,
    the log-domain ``_row_softmax`` computes the explicit shares, kept as
    ``Ca`` with q and S ones.
    """
    C, cols = instance.uncon_C, instance.uncon_cols
    f = instance.share_factors()
    logp = np.log(np.asarray(p, dtype=float))
    factored = isinstance(f, ShareFactors)
    if not factored or abs(f.b) * (logp.max() - logp.min()) > SPREAD_LIMIT:
        logc = np.log(C.data) if factored else f
        counts = np.diff(C.indptr)
        r = instance.r[instance.uncon]
        a = 1.0 / (1.0 - r)
        # mode="clip" skips take's bounds check: cols indexes p by construction
        logits = (np.repeat(a, counts) * logc
                  + np.repeat(-r * a, counts) * np.take(logp, cols, mode="clip"))
        gdata, logS = _row_softmax(logits, C.indptr)
        return ShareRows(share_csr(C, gdata), np.ones(C.shape[1]), np.ones(C.shape[0])), logS
    q = f.b * logp
    bmax = q.max()
    q -= bmax
    np.exp(q, out=q)
    S = f.Ca @ q
    return ShareRows(f.Ca, q, S), f.rmax + bmax + np.log(S)


def _linear_batch(instance: MarketInstance, p: np.ndarray):
    """All linear-barrier responses at once, from the CSR coefficients.

    One call of the psi root-finder ``_psi_roots`` covers every player.
    Returns (X, value, rounds): the dense (m, n) demand (the barrier keeps
    every x_j > 0, so it has no sparsity to exploit), the potential's value
    and the root-finder's Newton rounds.
    """
    w = instance.budgets
    sig = instance.sigma
    C, cols = instance.C, instance.cols
    X, rows, rounds = _psi_roots(C, cols, p, sig, w)
    uval = np.add.reduceat(C.data * X[rows, cols], C.indptr[:-1])
    value = float(p.sum() + np.sum(w * (np.log(uval) + sig * np.log(X).sum(axis=1))))
    return X, value, rounds


@dataclass
class MarketState:
    """What a Newton step reads at one price vector.  ``shares`` holds the
    CES/additive players' bidding rows as the factored ``ShareRows`` of
    ``bid_shares`` and ``spend`` their spend per good, G^T w; a linear
    market keeps its dense demand rows in ``linear_x`` instead, from which
    ``hessian.assemble_from_state`` forms the shifted bidding vectors.
    ``con_x`` pairs each of ``instance.con_groups()`` with its players'
    demand, stacked per group as one (G, n) array."""

    p: np.ndarray
    grad: np.ndarray
    demand: np.ndarray
    value: float
    shares: ShareRows | None = None
    spend: np.ndarray | None = None
    con_x: list[tuple[ConGroup, np.ndarray]] = field(default_factory=list)
    linear_x: np.ndarray | None = None
    psi_rounds: int = 0  # Newton rounds of the psi root-finder (linear markets)
    con_newton_steps: int = 0  # Newton steps of the constrained players, summed

    @property
    def con_responses(self) -> MappingProxyType:
        """Read-only view {player: namespace with demand row ``x``} of ``con_x``, built
        on access for ``bench/run.py``'s check, which reads ``con_responses[i].x``;
        kept only for ``bench/tracer.py`` / ``bench/run.py`` (ROADMAP item 21)."""
        return MappingProxyType({i: SimpleNamespace(x=x) for grp, X in self.con_x
                                 for i, x in zip(grp.players.tolist(), X)})


def market_state(instance: MarketInstance, p, prev: MarketState | None = None) -> MarketState:
    """Every player's best response at p, aggregated into what a Newton step reads.

    ``prev``, a state of the same instance at other prices, warm-starts the
    constrained players: each group's Newton starts from ``prev``'s demand
    rows scaled onto the new budget plane (``_constrained_newton``'s
    ``start``) instead of a projected cold start.  It is read only when its
    ``con_x`` groups are this instance's own ``con_groups()``; otherwise,
    and for every other player, the query is cold, so the answer depends on
    ``prev`` only within the constrained Newton's tolerance.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0) or not np.all(np.isfinite(p)):
        raise OracleError("prices must stay strictly positive and finite")
    w = instance.budgets
    if instance.is_linear:
        X, value, rounds = _linear_batch(instance, p)
        demand = X.sum(axis=0)
        grad = 1.0 - instance.degree[0] * demand
        return MarketState(p, grad, demand, value, linear_x=X, psi_rounds=rounds)

    uncon = instance.uncon
    demand = np.zeros(instance.n)
    value = float(p.sum())
    shares = spend = None
    if uncon.size:
        shares, logS = bid_shares(instance, p)
        wu = w[uncon]
        ru, ku, du = instance.r[uncon], instance.k[uncon], instance.degree[uncon]
        # x_ij = w_i gamma_ij / p_j, summed over players: the spend G^T w over p
        spend = shares.rmatvec(wu)
        demand += spend / p
        value += float(np.sum(wu * np.log(wu))) + float(np.sum((wu / du) * ku * (1.0 - ru) * logS))
    con_x = []
    steps = 0
    groups = instance.con_groups()
    starts = [None] * len(groups)
    if prev is not None and len(prev.con_x) == len(groups) and all(
            g is grp for (g, _), grp in zip(prev.con_x, groups)):
        starts = [X for _, X in prev.con_x]
    for grp, start in zip(groups, starts):
        X, _, _, taken = _constrained_newton(p, grp.C, grp.k, grp.r, grp.w, grp.A, start=start)
        steps += taken
        con_x.append((grp, X))
        log_u = grp.k * np.log(np.sum(grp.C * X ** grp.r[:, None], axis=1))
        for x, term in zip(X, grp.w / instance.degree[grp.players] * log_u):
            demand += x  # player by player, in the order of con_groups
            value += term
    if not np.all(np.isfinite(demand)):
        raise OracleError("demand overflow (a price collapsed to zero)")
    grad = 1.0 - demand
    return MarketState(p, grad, demand, value, shares=shares, spend=spend, con_x=con_x,
                       con_newton_steps=steps)

