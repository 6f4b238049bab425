"""Scaled Hessian operator, DR1 surrogate, preconditioner, and linear solvers.

The exact operator H(p) = P grad^2 phi(p) P is kept matrix-free as
    H v = diag * v - G^T (s * (G v)) - R^T (t * (R v)),
a diagonal minus two weighted Gram pieces.  G holds the CES/additive
players' share rows in the oracle's factored form
G = diag(1/S) C^a diag(q) (``oracle.ShareRows``), so a product with it is
two sparse products and G is never built; s_i = w_i r_i/(1-r_i) and
diag = G^T a, a_i = w_i/(1-r_i).  R holds dense rows: 1 + rows P-scaled
rows per constrained player, built from the demand stacked per group
(``oracle.constrained_hessian_rows`` on ``MarketState.con_x``), or the
linear-barrier players' rows v_i = (gamma_i+sigma) gamma_i.

The optimal diagonal preconditioner is the row sum
k_c = H 1 = G^T (a - s) = G^T w = sum_i w_i gamma_i, the spend per good
that the oracle already computed (rows of G sum to 1).  With one shared
exponent r, diag = spend/(1-r) and the DR1 vector
xi = G^T s / omega = r spend / ((1-r) omega) come from it too, so assembling
a CES/additive operator is O(n).  The DR1 surrogate collapses the rank-one
sum to the single outer product omega xi xi^T, whose inverse is an O(n)
Sherman-Morrison solve (``dr1_inverse``, factored once per shift).  That
inverse serves twice: as LogBar's direct ``dr1`` solve, and as the CG
preconditioner wherever the operator carries the DR1 data, where it keeps
the rank-one term that the Jacobi row sums leave out.  Jacobi preconditions
the linear-barrier and constrained operators, and any whose DR1
factorization is singular or indefinite.

Exact mode materializes only H's upper triangle, by symmetric rank-k
updates (dsyrk) on row blocks scaled by sqrt|weight|, into a buffer the
dense Newton solve reuses across a run and factors in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dsyrk

from .market import MarketInstance
from .oracle import MarketState, ShareRows, constrained_hessian_rows, market_state
from .oracle import constrained_dual_hessian  # noqa: F401  (bench/tracer.py patches this name)

DENSE_LIMIT = 512  # largest n whose H exact mode builds dense; solves run it up to here
GRAM_BLOCK = 256  # share rows per BLAS product in ScaledHessianOp.dense
OMEGA_DROP_REL = 1e-14
KC_FLOOR = 1e-300


class SingularUpdateError(RuntimeError):
    """The Sherman-Morrison denominator vanished (mu too small for DR1)."""


def _syrk(H: np.ndarray, R: np.ndarray, alpha: float) -> np.ndarray:
    """H + alpha R^T R on the upper triangle of the Fortran-ordered H, in place.

    scipy's BLAS, the one ipm factors H with: alternating it with numpy's own
    OpenBLAS slowed both the product and the factorization several-fold.
    """
    return dsyrk(alpha, R.T, beta=1.0, c=H, overwrite_c=1)


def _sub_gram(H: np.ndarray, B: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """H - B^T diag(sign(weights)) B on H's upper triangle, B's rows already
    scaled by sqrt|weights|: one dsyrk per weight sign, zero weights skipped."""
    for alpha, rows in ((-1.0, weights > 0), (1.0, weights < 0)):
        if rows.all():
            H = _syrk(H, B, alpha)
        elif rows.any():
            H = _syrk(H, B[rows], alpha)
    return H


def _sub_share_gram(H: np.ndarray, G: ShareRows, weights: np.ndarray) -> np.ndarray:
    """H - G^T diag(weights) G on the upper triangle of the Fortran-ordered H.

    GRAM_BLOCK rows at a time, scipy expands G's factor Ca into one reused
    dense block, which is scaled by q along its columns and sqrt|weight|/S
    along its rows, so it holds rows of G times sqrt|weight| (1/S is never
    squared, see ``oracle.bid_shares``), and added by ``_sub_gram``.
    """
    m = G.Ca.shape[0]
    root = np.sqrt(np.abs(weights)) / G.S
    block = np.empty((min(GRAM_BLOCK, m), G.Ca.shape[1]))
    for start in range(0, m, GRAM_BLOCK):
        rows = slice(start, min(start + GRAM_BLOCK, m))
        B = G.Ca[rows].toarray(out=block[:rows.stop - start])
        B *= G.q
        B *= root[rows, None]
        H = _sub_gram(H, B, weights[rows])
    return H


@dataclass
class ScaledHessianOp:
    """H(p) = P grad^2 phi(p) P, one diagonal-plus-low-rank block per player.

    All players' blocks are one piece, diag(diag) - G^T diag(s) G -
    R^T diag(t) R.  ``G`` is the CES/additive players' factored share rows
    (``share_operator``); ``R`` the dense rows, 1 + rows per constrained
    player (``assemble_from_state``) or, for linear-barrier players, whose
    blocks are
    (w_i/sigma_i) [diag((gamma_i+sigma_i)^2) - v_i v_i^T / (sigma_i + |gamma_i|^2)],
    the rows v_i = (gamma_i+sigma_i) gamma_i.  Only operators of CES/additive
    players alone carry the DR1 surrogate diag(diag) - dr1_omega xi xi^T
    (``dr1_omega`` is None without one, ``dr1_xi`` None when its rank-one
    term cancels) and the row sums ``k_c`` in closed form (None: summed by
    a product with ones).
    """

    n: int
    diag: np.ndarray | None = None
    G: ShareRows | None = None
    s: np.ndarray | None = None
    R: np.ndarray | None = None
    t: np.ndarray | None = None
    dr1_omega: float | None = None
    dr1_xi: np.ndarray | None = None
    k_c: np.ndarray | None = None

    # -- products ----------------------------------------------------------

    def _gram(self, v: np.ndarray) -> np.ndarray:
        """(G^T diag(s) G + R^T diag(t) R) v, the part of diag - H that is not diagonal."""
        out = np.zeros(self.n) if self.G is None else self.G.rmatvec(self.s * self.G.matvec(v))
        if self.R is not None:
            out += self.R.T @ (self.t * (self.R @ v))
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """The exact product H v."""
        out = -self._gram(v)
        if self.diag is not None:
            out += self.diag * v
        return out

    def dr1_matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        if self.dr1_xi is not None:
            out -= self.dr1_omega * (self.dr1_xi @ v) * self.dr1_xi
        return out

    def diff_matvec(self, v: np.ndarray) -> np.ndarray:
        """(H_dr1 - H_exact) v; diagonals cancel, only rank-one terms remain."""
        out = self._gram(v)
        if self.dr1_xi is not None:
            out -= self.dr1_omega * (self.dr1_xi @ v) * self.dr1_xi
        return out

    def row_sums(self) -> np.ndarray:
        """H 1: ``k_c`` when the operator carries it, else a product with ones."""
        return self.matvec(np.ones(self.n)) if self.k_c is None else self.k_c

    def dense(self, out: np.ndarray | None = None) -> np.ndarray:
        """H as a Fortran-ordered (n, n) array, built on the upper triangle.

        The share rows go through ``_sub_share_gram``, the dense rows through
        one dsyrk per weight sign.  Given ``out`` (Fortran (n, n)), only that
        triangle is written into it, for a Cholesky that reads no other;
        without it, the triangle is mirrored.
        """
        if self.n > DENSE_LIMIT:
            raise ValueError(f"dense materialization capped at n={DENSE_LIMIT}")
        if out is None:
            H = np.zeros((self.n, self.n), order="F")
        else:
            H = out
            H.fill(0.0)
        if self.G is not None and self.s.any():
            H = _sub_share_gram(H, self.G, self.s)
        if self.R is not None:
            H = _sub_gram(H, self.R * np.sqrt(np.abs(self.t))[:, None], self.t)
        if self.diag is not None:
            H[np.diag_indices(self.n)] += self.diag
        if out is None:
            H += np.triu(H, 1).T
        return H

    def preconditioner(self) -> np.ndarray:
        """The Jacobi preconditioner k_c = H 1, floored at KC_FLOOR.

        The drivers' CG uses it on operators without the DR1 data
        (linear-barrier, constrained) and where ``dr1_inverse`` refuses the
        shift; elsewhere the DR1 inverse preconditions.
        """
        return np.maximum(self.row_sums(), KC_FLOOR)


def share_operator(n: int, G: ShareRows | sp.csr_matrix, w, r,
                   spend: np.ndarray | None = None) -> ScaledHessianOp:
    """The CES/additive piece of the share rows G, budgets w and exponents r.

    G is factored (``oracle.ShareRows``) or an explicit CSR whose rows sum
    to 1; ``spend`` is G^T w, computed here when not given.  a = w/(1-r),
    s = w r/(1-r), k_c = spend, and diag = G^T a and omega xi = G^T s,
    read off spend in O(n) when the rows share one r.  The DR1 data is
    omega = sum s and xi; the rank-one term is dropped (xi None) when omega
    cancels to below OMEGA_DROP_REL of sum |s|, and when it is exactly zero.
    """
    if sp.issparse(G):
        G = ShareRows(G, np.ones(n), np.ones(G.shape[0]))
    w = np.asarray(w, dtype=float)
    r = np.broadcast_to(np.asarray(r, dtype=float), w.shape)
    if spend is None:
        spend = G.rmatvec(w)
    s = w * r / (1.0 - r)
    omega = float(s.sum())
    if np.all(r == r[0]):
        diag, s_xi = spend / (1.0 - r[0]), spend * (r[0] / (1.0 - r[0]))
    else:
        diag, s_xi = G.rmatvec(w / (1.0 - r)), G.rmatvec(s)
    op = ScaledHessianOp(n=n, diag=diag, G=G, s=s, dr1_omega=omega, k_c=spend)
    if omega != 0.0 and abs(omega) >= OMEGA_DROP_REL * float(np.abs(s).sum()):
        op.dr1_xi = s_xi / omega
    return op


def assemble_from_state(state: MarketState, instance: MarketInstance) -> ScaledHessianOp:
    w = instance.budgets
    if instance.is_linear:
        # the shifted bidding vectors gamma_i = (1 + sigma_i n) P x_i / w_i - sigma_i
        sig = instance.sigma
        g = ((1.0 + sig[:, None] * instance.n) * state.linear_x * state.p[None, :] / w[:, None]
             - sig[:, None])
        shifted = g + sig[:, None]
        return ScaledHessianOp(n=instance.n, diag=((w / sig)[:, None] * shifted**2).sum(axis=0),
                               R=shifted * g,
                               t=w / (sig * (sig + np.einsum("ij,ij->i", g, g))))

    n, uncon = instance.n, instance.uncon
    if uncon.size:
        op = share_operator(n, state.shares, w[uncon], instance.r[uncon], state.spend)
    else:
        op = ScaledHessianOp(n=n, diag=np.zeros(n))
    if not instance.con.size:
        return op
    # each constrained player's 1 + rows dense rows
    rows, weights = [], []
    for grp, X in state.con_x:
        D, R, s = constrained_hessian_rows(X, grp.C, grp.k, grp.r, grp.w, grp.A)
        scale = grp.w / instance.degree[grp.players]
        op.diag += (scale @ D) * state.p**2
        rows.append((R * state.p).reshape(-1, n))
        weights.append((scale[:, None] * s).reshape(-1))
    op.R, op.t = np.concatenate(rows), np.concatenate(weights)
    op.dr1_omega = op.dr1_xi = op.k_c = None
    return op


def assemble(instance: MarketInstance, p) -> ScaledHessianOp:
    """Build the scaled Hessian operator at p (with its DR1 surrogate data)."""
    return assemble_from_state(market_state(instance, p), instance)


def dr1_inverse(op: ScaledHessianOp, mu: float):
    """(diag(D) + mu I - Omega xi xi^T)^-1 as an O(n) map, factored once.

    The factorization is M = D + mu, M^-1 xi and the Sherman-Morrison
    denominator 1/Omega - xi^T M^-1 xi; each application of the returned
    function then costs three vector passes.  Only an operator of
    CES/additive players alone carries the surrogate (``dr1_omega`` set);
    any other is refused (ValueError) rather than inverted without its
    linear-barrier or constrained pieces.  SingularUpdateError when M is
    not positive, or when the denominator vanishes or has the sign opposite
    to Omega's, where the surrogate is not positive definite (possible only
    with exponents of both signs: with one sign it is positive definite at
    any mu > 0).
    """
    if op.dr1_omega is None:
        raise ValueError("DR1 surrogate is defined for unconstrained CES/additive players only")
    M = op.diag + mu
    if np.any(M <= 0):
        raise SingularUpdateError("diagonal term not positive; increase mu")
    if op.dr1_xi is None:
        return lambda rhs: rhs / M
    xi = op.dr1_xi
    Minv_xi = xi / M
    denom = 1.0 / op.dr1_omega - float(xi @ Minv_xi)
    scale = max(abs(1.0 / op.dr1_omega), abs(float(xi @ Minv_xi)))
    if (denom if op.dr1_omega > 0 else -denom) <= 1e-12 * scale:
        raise SingularUpdateError("rank-one update singular or indefinite; fall back to PCG")

    def apply(rhs: np.ndarray) -> np.ndarray:
        d = rhs / M
        return d + Minv_xi * (float(xi @ d) / denom)

    return apply


def dr1_solve(op: ScaledHessianOp, mu: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (diag(D) + mu I - Omega xi xi^T) d = rhs in O(n) via Sherman-Morrison
    (``dr1_inverse``, whose errors it raises)."""
    return dr1_inverse(op, mu)(rhs)


def pcg_solve(op, g_diag, rhs: np.ndarray, eps_k: float, k_c: np.ndarray | None = None,
              precond=None):
    """Conjugate gradient on (H + diag(g_diag)) d = rhs.

    ``precond`` applies M^-1 to a residual (``dr1_inverse`` at the shift, in
    the drivers); without it, given the row sums k_c = H 1
    (ScaledHessianOp.preconditioner), CG is Jacobi-preconditioned with
    k_c + g_diag, the row sums of the full system matrix, and with neither
    it runs unpreconditioned.  Terminates when the unpreconditioned
    residual satisfies ||(H+G)d - rhs|| <= eps_k * max(||d||, 1e-30), or
    after n iterations (CG is exact in exact arithmetic).  Raises
    FloatingPointError on an operator or a preconditioner that is not
    positive on the iterates (d^T A d or r^T M^-1 r <= 0 or non-finite).
    Returns (d, iterations).
    """
    n = len(rhs)
    g_diag = np.broadcast_to(np.asarray(g_diag, dtype=float), (n,))
    matvec = lambda v: op.matvec(v) + g_diag * v
    if precond is None:
        m_diag = k_c + g_diag if k_c is not None else None
        precond = (lambda r: r / m_diag) if m_diag is not None else (lambda r: r)

    def inner(res):
        z = precond(res)
        rz = float(res @ z)
        if not np.isfinite(rz) or rz <= 0:
            raise FloatingPointError("preconditioner not positive on the CG residual")
        return z, rz

    d = np.zeros(n)
    res = rhs.copy()
    if np.linalg.norm(res) == 0.0:
        return d, 0
    z, rz = inner(res)
    direction = z.copy()
    iters = 0
    for _ in range(n):
        Ad = matvec(direction)
        dAd = float(direction @ Ad)
        if not np.isfinite(dAd) or dAd <= 0:
            raise FloatingPointError("indefinite or non-finite operator in CG")
        alpha = rz / dAd
        d += alpha * direction
        res -= alpha * Ad
        iters += 1
        if np.linalg.norm(res) <= eps_k * max(np.linalg.norm(d), 1e-30):
            break
        z, rz_new = inner(res)
        direction = z + (rz_new / rz) * direction
        rz = rz_new
        if not np.all(np.isfinite(direction)):
            raise FloatingPointError("non-finite CG direction")
    return d, iters


def diff_norm_estimate(op: ScaledHessianOp, iters: int = 30, seed: int = 0) -> float:
    """Power-iteration estimate of ||H_dr1 - H_exact|| (symmetric operator)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(op.n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        Av = op.diff_matvec(v)
        nrm = np.linalg.norm(Av)
        if nrm == 0.0:
            return 0.0
        lam = nrm
        v = Av / nrm
    return float(abs(v @ op.diff_matvec(v)))
