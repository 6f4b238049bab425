"""Best-response oracles and the calculus built from them.

Everything the solvers consume is reconstructed from players' best
responses: demand aggregates into the potential gradient, and the bidding
vectors (money shares) gamma_i = P x_i / w_i assemble the scaled Hessian.
CES and power-form additive utilities share one closed form, evaluated in
the log domain so extreme exponents cannot overflow.  Linear-barrier
players reduce to a one-dimensional root-find.  Homogeneously constrained
players run a damped feasible Newton, all of them at once per price query,
stacked in groups of equal constraint-row count: hess v is
diagonal-plus-rank-one with the closed-form inverse
W^-1 = (diag(x^2/gamma) - r x x^T) / (d (1-r)), so each Newton step is a
small Schur-complement solve B W^-1 B^T nu = -B W^-1 g per player
(B = [A; p]) and their dual-Hessian blocks need no matrix inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .market import ADDITIVE, CES, MarketInstance


class OracleError(RuntimeError):
    """Numerical breakdown inside a best-response computation."""


class RootBracketError(OracleError):
    """The psi root could not be bracketed."""


class FeasibleStartError(OracleError):
    """No strictly feasible interior start for a constrained player."""


class NewtonStagnationError(OracleError):
    """Constrained Newton failed to reach the target residual."""


class ConditioningError(OracleError):
    """A W^{-1} A^T is numerically singular."""


@dataclass
class BestResponse:
    """One player's demand at prices p.

    ``gamma`` is the bidding vector (distribution of spent money; for the
    linear-barrier kind it is the shifted vector X c / <c, x>).
    ``log_utility`` is the attained log-objective of the player's LUMP,
    which for CES/additive players equals log u(x).
    """

    x: np.ndarray
    gamma: np.ndarray
    log_utility: float
    spend: float


@dataclass
class PotentialConstants:
    """Smoothness data for the potential: exact T, heuristic kappa-based C."""

    T_phi: float
    C_phi: float
    kappa: np.ndarray


# ---------------------------------------------------------------------------
# closed-form responses for the power family


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def ces_best_response(p, c, rho: float, w: float) -> BestResponse:
    """Walrasian demand for u(x) = <c, x^rho>^(1/rho), rho in (-inf,0)u(0,1).

    theta_j = c_j^{1/(1-rho)} p_j^{-rho/(1-rho)} gives the bidding shares;
    demand is x_j = w * gamma_j / p_j.  Evaluated with a max-subtracted
    softmax of the log theta so powers never overflow.
    """
    p = np.asarray(p, dtype=float)
    c = np.asarray(c, dtype=float)
    n = len(p)
    supp = np.flatnonzero(c > 0)
    if supp.size == 0:
        raise OracleError("player has no positive coefficient")
    a = 1.0 / (1.0 - rho)
    logits = a * np.log(c[supp]) - rho * a * np.log(p[supp])
    if not np.all(np.isfinite(logits)):
        raise OracleError("overflow in log-domain power evaluation")
    gamma = np.zeros(n)
    gamma[supp] = _softmax(logits)
    x = w * gamma / p
    # log u via log(sum c x^rho) / rho restricted to the support
    with np.errstate(divide="ignore"):
        terms = np.log(c[supp]) + rho * np.log(x[supp])
    log_u = float(_logsumexp(terms) / rho)
    return BestResponse(x, gamma, log_u, float(p @ x))


def additive_best_response(p, c, k: float, r: float, w: float) -> BestResponse:
    """Demand for the power-form additive family u(x) = <c, x^r>^k.

    The outer power does not move the argmax, so this is the CES closed form
    with rho := r; only the attained utility differs.
    """
    br = ces_best_response(p, c, r, w)
    supp = np.flatnonzero(np.asarray(c, dtype=float) > 0)
    terms = np.log(np.asarray(c, dtype=float)[supp]) + r * np.log(br.x[supp])
    log_u = float(k * _logsumexp(terms))
    return BestResponse(br.x, br.gamma, log_u, br.spend)


def _logsumexp(v: np.ndarray) -> float:
    mx = v.max()
    return float(mx + np.log(np.exp(v - mx).sum()))


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
    largest pole.  After bracketing the root, a safeguarded Newton iterates
    on the pole-free F(u) = 1/S(u) - 1/u (opposite sign to psi, near-linear
    by the pole, where Newton on psi only doubles its distance from it per
    round), bisecting wherever a step leaves the bracket.  A row stops once
    its step or bracket is within a few ulps; rows still moving after
    PSI_ROUND_CAP rounds raise OracleError.  Six extended-precision Newton
    steps on psi then polish u (``_psi_polish``, which skips the rounds
    left once every row repeats): u is ill-conditioned when sigma is tiny
    (denominators cancel at eps/sigma), but demand built from an accurate u
    is not, so KKT residuals reach ~1e-12 at sigma = eps/n.  Goods with
    c_j = 0 get x_j = sigma / (lam p_j).  Every step is row-local, so a
    player's demand does not depend on who else is solved in the call.

    Returns (X, u, lam, rounds): the dense (m, n) demand, the polished roots
    in longdouble, the budget multipliers and the Newton rounds taken.
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

    def psi(u):
        return np.add.reduceat(sc / (lamp - c / u[rows]), starts) - u

    lo = u_lo * (1.0 + 1e-8)
    for _ in range(200):
        bad = psi(lo) < 0.0
        if not bad.any():
            break
        lo[bad] = u_lo[bad] + (lo[bad] - u_lo[bad]) * 0.5
    hi = np.maximum(lo * 2.0, u_lo + w)
    for _ in range(200):
        grow = psi(hi) > 0.0
        if not grow.any():
            break
        hi[grow] *= 2.0
    if (psi(lo) < 0.0).any() or (psi(hi) > 0.0).any():
        raise RootBracketError("vectorized psi bracket failed")

    u = lo.copy()
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
    return X, u, lam, rounds


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


def linear_barrier_best_response(p, c, sigma: float, w: float):
    """Demand for log<c,x> + sigma*<log x, 1> under the budget constraint.

    The one-player case of the batch root-finder ``_psi_roots``, so it
    returns bit for bit the demand row that ``market_state`` computes for
    the same player.  Returns (response, lam, u) with lam = (1 + sigma*n)/w
    the budget multiplier and u = <c, x> the root of psi.
    """
    p = np.asarray(p, dtype=float)
    c = np.asarray(c, dtype=float)
    n = len(p)
    C = sp.csr_matrix(c[None, :])
    X, u, lam, _ = _psi_roots(C, C.indices.astype(np.intp), p, np.array([float(sigma)]),
                              np.array([float(w)]))
    x = X[0]
    gamma = (1.0 + sigma * n) * x * p / w - sigma
    log_obj = float(np.log(c @ x) + sigma * np.sum(np.log(x)))
    return BestResponse(x, gamma, log_obj, float(p @ x)), float(lam[0]), float(u[0])


def linear_barrier_kkt_residual(p, c, sigma: float, w: float, x: np.ndarray) -> float:
    """Max-norm residual of the stationarity condition c/<c,x> + sigma/x = lam*p."""
    lam = (1.0 + sigma * len(p)) / w
    res = c / float(c @ x) + sigma / x - lam * np.asarray(p, dtype=float)
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


def _constrained_newton(p, C, k, r, w, A, tol_stat: float = 1e-10, max_newton: int = 100):
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
    rounding (numpy may round x^r differently for a one-row stack).

    Returns (X, Y, lam, steps): the (G, n) demand, the constraint and budget
    multipliers of the last Newton system, and the steps taken in total.
    """
    G, n = C.shape
    if np.any(C <= 0):
        raise OracleError("constrained oracle needs strictly positive coefficients")
    B = np.concatenate([A, np.broadcast_to(p, (G, 1, n))], axis=1)
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
        pending = np.arange(active.size)
        while pending.size:
            if np.any(alpha[pending] <= 1e-14):
                worst = float(stat[pending][alpha[pending] <= 1e-14].max())
                raise NewtonStagnationError(f"line search failed at stationarity {worst:.3e}")
            x_try = x[pending] + alpha[pending, None] * dx[pending]
            accept = x_try.min(axis=1) > 0
            pos = pending[accept]
            accept[accept] = (v_of(x_try[accept], active[pos])
                              <= v0[pos] + 1e-4 * alpha[pos] * slope[pos])
            X[active[pending[accept]]] = x_try[accept]
            pending = pending[~accept]
            alpha[pending] *= 0.5
    else:
        raise NewtonStagnationError(f"no convergence in {max_newton} Newton steps; "
                                    f"stationarity {float(stat.max()):.3e}")
    return X, nu[:, :-1], nu[:, -1], steps


def _responses(p, X, C, k, r) -> list[BestResponse]:
    """The BestResponse of every row of a constrained group's demand X."""
    t = C * X ** r[:, None]
    S = t.sum(axis=1)
    gamma = t / S[:, None]
    log_u = k * np.log(S)
    spend = X @ p
    return [BestResponse(X[g], gamma[g], float(log_u[g]), float(spend[g])) for g in range(len(X))]


def constrained_best_response(p, c, k: float, r: float, w: float, A: np.ndarray,
                              tol_stat: float = 1e-10, max_newton: int = 100):
    """Equality-constrained LUMP via damped feasible Newton.

    Solves max log u(x) s.t. A x = 0, <p, x> = w, x > 0 for the power-form
    additive family.  The one-player case of ``_constrained_newton``, the
    batch that ``market_state`` runs per constraint-row count, so it returns
    the same demand row: the unconstrained closed form projected onto the
    constraint plane with a clip-and-reproject loop as the start, then
    Newton steps from the Schur system B W^-1 B^T nu = -B W^-1 g on the
    closed-form inverse W^-1 of hess v, with a 0.99 fraction-to-boundary
    cap and Armijo backtracking on v = -log u.  Returns (response, y, lam):
    constraint multipliers y and budget multiplier lam (equal to d/w at the
    solution).
    """
    p = np.asarray(p, dtype=float)
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float).reshape(-1, len(p))
    k, r = np.array([float(k)]), np.array([float(r)])
    X, Y, lam, _ = _constrained_newton(p, c[None, :], k, r, np.array([float(w)]), A[None],
                                       tol_stat, max_newton)
    return _responses(p, X, c[None, :], k, r)[0], Y[0], float(lam[0])


def constrained_dual_hessians(X, C, k, r, w, A) -> np.ndarray:
    """Dual Hessians of f for a constrained group with best responses X, stacked:
    (d^2/w^2) (W^-1 - W^-1 A^T (A W^-1 A^T)^-1 A W^-1), W = hess v(x), with
    the closed-form W^-1 = (diag(x^2/gamma) - r x x^T) / (d (1-r)) (see
    ``_constrained_newton``).  Raises ConditioningError when some
    A W^-1 A^T has a condition number above 1e13.
    """
    t = C * X ** r[:, None]
    gamma = t / t.sum(axis=1, keepdims=True)
    d = k * r
    Winv = -r[:, None, None] * X[:, :, None] * X[:, None, :]
    Winv[:, np.arange(X.shape[1]), np.arange(X.shape[1])] += X * X / gamma
    Winv /= (d * (1.0 - r))[:, None, None]
    scale = (d * d / (w * w))[:, None, None]
    if A.shape[1] == 0:
        return scale * Winv
    AW = A @ Winv
    AWA = AW @ A.transpose(0, 2, 1)
    cond = np.linalg.cond(AWA)
    if not np.all(np.isfinite(cond)) or np.any(cond > 1e13):
        raise ConditioningError(f"A W^-1 A^T condition number {float(np.nanmax(cond)):.3e}")
    corr = AW.transpose(0, 2, 1) @ np.linalg.solve(AWA, AW)
    return scale * (Winv - corr)


def _constrained_player(instance: MarketInstance, i: int):
    """(c, k, r, w, A) of constrained player i, the arguments after p of
    constrained_best_response; c is the dense coefficient row."""
    return (instance.utilities[i].dense(instance.n), instance.k[i], instance.r[i],
            float(instance.budgets[i]), instance.constraints.get(i, np.zeros((0, instance.n))))


def constrained_dual_hessian(instance: MarketInstance, i: int, x) -> np.ndarray:
    """Dual Hessian of f_i for a constrained player with best response x = x_i(p):
    (d^2/w^2) (W^{-1} - W^{-1} A^T (A W^{-1} A^T)^{-1} A W^{-1}), W = hess v(x).

    The one-player case of ``constrained_dual_hessians``, which
    ``hessian.assemble_from_state`` runs per constraint-row count.
    """
    c, k, r, w, A = _constrained_player(instance, i)
    one = lambda v: np.array([float(v)])
    return constrained_dual_hessians(np.asarray(x, float)[None, :], c[None, :], one(k), one(r),
                                     one(w), A.reshape(-1, instance.n)[None])[0]


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


def bid_shares(instance: MarketInstance, p):
    """Bidding-share matrix G (csr, rows of gamma) of the unconstrained players.

    Row i of G belongs to player ``instance.uncon[i]``.  G's index arrays are
    those of ``instance.uncon_rows()``, not copies, so they stay read-only.
    Returns (G, log_S) where log_S[i] is logsumexp of the dual theta row,
    from which the attained log-utility is d_i log w_i + k_i (1-r_i) log_S_i.
    """
    C, logc, cols = instance.uncon_rows()
    counts = np.diff(C.indptr)
    r = instance.r[instance.uncon]
    a = 1.0 / (1.0 - r)
    b = -r * a
    logp = np.log(np.asarray(p, dtype=float))
    # mode="clip" skips take's bounds check: cols indexes p by construction
    logits = np.repeat(a, counts) * logc + np.repeat(b, counts) * np.take(logp, cols, mode="clip")
    gdata, logS = _row_softmax(logits, C.indptr)
    return sp.csr_matrix((gdata, C.indices, C.indptr), shape=C.shape), logS


def _linear_batch(instance: MarketInstance, p: np.ndarray):
    """All linear-barrier responses at once, from the CSR coefficients.

    One call of the psi root-finder ``_psi_roots`` covers every player.
    Returns (X, gammas, value, kkt_resid, rounds): the dense (m, n) demand
    (the barrier keeps every x_j > 0, so it has no sparsity to exploit), the
    shifted bidding vectors, the potential's value, the largest KKT residual
    and the root-finder's Newton rounds.
    """
    n = instance.n
    w = instance.budgets
    sig = instance.sigma
    C = instance.coeff_csr()
    rows = instance.nnz_row_index()
    cols = instance.nnz_col_index()
    X, _, lam, rounds = _psi_roots(C, cols, p, sig, w)
    gammas = (1.0 + sig[:, None] * n) * X * p[None, :] / w[:, None] - sig[:, None]
    uval = np.add.reduceat(C.data * X[rows, cols], C.indptr[:-1])
    value = float(p.sum() + np.sum(w * (np.log(uval) + sig * np.log(X).sum(axis=1))))
    resid = sig[:, None] / X
    resid[rows, cols] += C.data / uval[rows]
    resid -= lam[:, None] * p[None, :]
    return X, gammas, value, float(np.abs(resid).max()), rounds


@dataclass
class MarketState:
    """Everything the solvers need at one price vector.  ``G`` holds the
    unconstrained players' bidding rows: the CSR shares of ``bid_shares``
    (CES/additive), or the dense (m, n) shifted bidding vectors (linear)."""

    p: np.ndarray
    grad: np.ndarray
    demand: np.ndarray
    value: float
    G: sp.csr_matrix | np.ndarray | None = None
    con_responses: dict = field(default_factory=dict)
    linear_x: np.ndarray | None = None
    kkt_resid: float = 0.0
    psi_rounds: int = 0  # Newton rounds of the psi root-finder (linear markets)
    con_newton_steps: int = 0  # Newton steps of the constrained players, summed


def market_state(instance: MarketInstance, p) -> MarketState:
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0) or not np.all(np.isfinite(p)):
        raise OracleError("prices must stay strictly positive and finite")
    w = instance.budgets
    if instance.is_linear:
        X, gammas, value, worst, rounds = _linear_batch(instance, p)
        demand = X.sum(axis=0)
        grad = 1.0 - instance.degree[0] * demand
        return MarketState(p, grad, demand, value,
                           G=gammas, linear_x=X, kkt_resid=worst, psi_rounds=rounds)

    uncon = instance.uncon
    demand = np.zeros(instance.n)
    value = float(p.sum())
    G = None
    if uncon.size:
        G, logS = bid_shares(instance, p)
        wu = w[uncon]
        ru, ku, du = instance.r[uncon], instance.k[uncon], instance.degree[uncon]
        # x_ij = w_i gamma_ij / p_j, summed over players as one sparse product
        demand += (G.T @ wu) / p
        value += float(np.sum(wu * np.log(wu))) + float(np.sum((wu / du) * ku * (1.0 - ru) * logS))
    con_responses = {}
    steps = 0
    for grp in instance.con_groups():
        X, _, _, taken = _constrained_newton(p, grp.C, grp.k, grp.r, grp.w, grp.A)
        steps += taken
        for i, resp in zip(grp.players.tolist(), _responses(p, X, grp.C, grp.k, grp.r)):
            con_responses[i] = resp
            demand += resp.x
            value += (float(w[i]) / instance.degree[i]) * resp.log_utility
    if not np.all(np.isfinite(demand)):
        raise OracleError("demand overflow (a price collapsed to zero)")
    grad = 1.0 - demand
    return MarketState(p, grad, demand, value, G=G, con_responses=con_responses,
                       con_newton_steps=steps)


def potential_value(instance: MarketInstance, p) -> float:
    """phi(p) = <p,1> + sum_i (w_i/d_i) log u_i(x_i(p)) (linear: w_i f_i)."""
    return market_state(instance, p).value


def potential_gradient(instance: MarketInstance, p) -> np.ndarray:
    """grad phi = 1 - sum_i x_i(p); linear markets scale demand by (1+sigma*n)."""
    return market_state(instance, p).grad


def best_response(instance: MarketInstance, i: int, p) -> BestResponse:
    """Single-player dispatcher (serial path; the batch uses bid_shares)."""
    u = instance.utilities[i]
    w = float(instance.budgets[i])
    p = np.asarray(p, dtype=float)
    if i in instance.constraints:
        return constrained_best_response(p, *_constrained_player(instance, i))[0]
    if u.kind == CES:
        return ces_best_response(p, u.dense(instance.n), u.rho, w)
    if u.kind == ADDITIVE:
        return additive_best_response(p, u.dense(instance.n), u.k, u.r, w)
    resp, _, _ = linear_barrier_best_response(p, u.dense(instance.n), u.sigma, w)
    return resp


def response_jacobian(p, gamma, r: float, w: float) -> np.ndarray:
    """Jacobian of one player's demand: -(w/(1-r)) P^-1 (Gamma - r g g^T) P^-1."""
    p = np.asarray(p, dtype=float)
    g = np.asarray(gamma, dtype=float)
    M = np.diag(g) - r * np.outer(g, g)
    return -(w / (1.0 - r)) * (M / p[None, :]) / p[:, None]


KAPPA_CAP = 1e4  # clip on the kappa estimates of potential_constants


def kappa_from_shares(G: sp.csr_matrix) -> np.ndarray:
    """Per row of the share matrix G, the inverse of its smallest positive share."""
    data = np.where(G.data > 0, G.data, np.inf)
    return 1.0 / np.minimum.reduceat(data, G.indptr[:-1])


def potential_constants(instance: MarketInstance, gamma_samples) -> PotentialConstants:
    """Exact SLC constant T_phi plus the kappa-estimated self-concordance C_phi.

    kappa_i is estimated as the largest inverse bidding share seen on the
    player's active set across the supplied sample matrices, clipped at
    KAPPA_CAP; C_phi takes the max over players (self-concordance
    composes by max, not sum).
    """
    w = instance.budgets
    if instance.is_linear:
        sig = instance.sigma
        T_f = 2.0 * (1.0 + sig) ** 3 / sig**3
        # the linear-market potential is <p,1> + sum_i w_i f_i, so the SLC
        # weight of player i is w_i itself
        T_phi = float(np.sum(w * T_f))
        C_v = (2.0 + 2.0 * sig) / sig**1.5
        kappa = np.full(instance.m, np.nan)
        C_phi = float(np.max(C_v / np.sqrt(w)))
        return PotentialConstants(T_phi, C_phi, kappa)

    r, d = instance.r, instance.degree
    T_phi = float(np.sum(w * np.maximum(6.0 / (1.0 - r) ** 2, 2.0)))
    kappa = np.zeros(instance.m)
    for G in gamma_samples:  # G has one row per unconstrained player
        kappa[instance.uncon] = np.maximum(kappa[instance.uncon], kappa_from_shares(G))
    kappa = np.minimum(kappa, KAPPA_CAP)
    C_per = kappa**3 / np.sqrt(w) / np.sqrt(d) * np.maximum(2.0, 6.0 * r**2 - 6.0 * r + 2.0)
    return PotentialConstants(T_phi, float(np.max(C_per)), kappa)
