"""Scaled Hessian operator, DR1 surrogate, preconditioner, and linear solvers.

The exact operator H(p) = P grad^2 phi(p) P is kept matrix-free as
    H v = diag * v - R^T (s * (R v)),
one diagonal-plus-low-rank piece over every player's rows of R: the share
matrix G for CES/additive players, with diag = G^T a, a_i = w_i/(1-r_i) and
s_i = w_i r_i/(1-r_i), then 1 + rows P-scaled rows per constrained player
(``oracle.constrained_hessian_rows``); linear-barrier markets carry the same
shape with dense rows v_i = (gamma_i+sigma) gamma_i in place of G.
The DR1 surrogate collapses the CES rank-one sum to a single outer product
of xi = sum_i omega_i gamma_i, whose inverse is an O(n) Sherman-Morrison
solve.  The optimal diagonal preconditioner is the row sum
k_c = H 1 = sum_i w_i gamma_i.

Exact mode materializes only H's upper triangle, by symmetric rank-k
updates (dsyrk) on row blocks scaled by sqrt|s_i|, into a buffer the dense
Newton solve reuses across a run and factors in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dsyrk

from .market import MarketInstance
from .oracle import MarketState, constrained_hessian_rows, market_state
from .oracle import constrained_dual_hessian  # noqa: F401  (bench/tracer.py patches this name)

DENSE_LIMIT = 512  # dense materialization is a test path, never the big-n path
GRAM_BLOCK = 256  # player rows per BLAS product in ScaledHessianOp.dense
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


def _sub_share_gram(H: np.ndarray, G: sp.csr_matrix, weights: np.ndarray) -> np.ndarray:
    """H - G^T diag(weights) G on the upper triangle of the Fortran-ordered H.

    Rows of one weight sign, GRAM_BLOCK at a time and scaled by
    sqrt|weight|, are scattered from G's CSR arrays into one dense block,
    added by one dsyrk (alpha -1 for positive weights, +1 for negative
    ones) and zeroed again; zero-weight rows are skipped.
    """
    indptr, indices = G.indptr, G.indices
    root = np.sqrt(np.abs(weights))
    block = np.zeros((min(GRAM_BLOCK, G.shape[0]), G.shape[1]))
    flat = block.reshape(-1)
    for alpha, rows in ((-1.0, np.flatnonzero(weights > 0)), (1.0, np.flatnonzero(weights < 0))):
        for start in range(0, rows.size, GRAM_BLOCK):
            rr = rows[start:start + GRAM_BLOCK]
            first, counts = indptr[rr], indptr[rr + 1] - indptr[rr]
            local = np.repeat(np.arange(rr.size), counts)
            nz = np.arange(local.size) + np.repeat(first - (np.cumsum(counts) - counts), counts)
            pos = local * G.shape[1] + indices[nz]
            flat[pos] = G.data[nz] * root[rr][local]
            H = _syrk(H, block[:rr.size], alpha)
            flat[pos] = 0.0
    return H


@dataclass
class ScaledHessianOp:
    """H(p) = P grad^2 phi(p) P, one diagonal-plus-low-rank block per player.

    All players' blocks are one piece, diag(diag) - R^T diag(s) R.  R is a
    CSR of one share row per CES/additive player (``share_operator``), then
    1 + rows full rows per constrained player (``assemble_from_state``); for
    linear-barrier players, whose blocks are
    (w_i/sigma_i) [diag((gamma_i+sigma_i)^2) - v_i v_i^T / (sigma_i + |gamma_i|^2)],
    R is the dense array of rows v_i = (gamma_i+sigma_i) gamma_i.  Only
    operators of CES/additive players alone carry the DR1 surrogate
    diag(diag) - dr1_omega xi xi^T: ``dr1_omega`` is None without one,
    ``dr1_xi`` None when its rank-one term cancels.
    """

    n: int
    diag: np.ndarray | None = None
    R: sp.csr_matrix | np.ndarray | None = None
    s: np.ndarray | None = None
    dr1_omega: float | None = None
    dr1_xi: np.ndarray | None = None

    # -- products ----------------------------------------------------------

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """The exact product H v."""
        out = np.zeros(self.n) if self.diag is None else self.diag * v
        if self.R is not None:
            out -= self.R.T @ (self.s * (self.R @ v))
        return out

    def dr1_matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        if self.dr1_xi is not None:
            out -= self.dr1_omega * (self.dr1_xi @ v) * self.dr1_xi
        return out

    def diff_matvec(self, v: np.ndarray) -> np.ndarray:
        """(H_dr1 - H_exact) v; diagonals cancel, only rank-one terms remain."""
        out = np.zeros(self.n) if self.R is None else self.R.T @ (self.s * (self.R @ v))
        if self.dr1_xi is not None:
            out -= self.dr1_omega * (self.dr1_xi @ v) * self.dr1_xi
        return out

    def row_sums(self) -> np.ndarray:
        return self.matvec(np.ones(self.n))

    def dense(self, out: np.ndarray | None = None) -> np.ndarray:
        """H as a Fortran-ordered (n, n) array, built on the upper triangle.

        A CSR R (weights of either sign) goes through ``_sub_share_gram``, a
        dense one (positive weights) through one dsyrk.  Given ``out``
        (Fortran (n, n)), only that triangle is written into it, for a
        Cholesky that reads no other; without it, the triangle is mirrored.
        """
        if self.n > DENSE_LIMIT:
            raise ValueError(f"dense materialization capped at n={DENSE_LIMIT}")
        if out is None:
            H = np.zeros((self.n, self.n), order="F")
        else:
            H = out
            H.fill(0.0)
        if sp.issparse(self.R):
            H = _sub_share_gram(H, self.R, self.s)
        elif self.R is not None:
            H = _syrk(H, self.R * np.sqrt(self.s)[:, None], -1.0)
        if self.diag is not None:
            H[np.diag_indices(self.n)] += self.diag
        if out is None:
            H += np.triu(H, 1).T
        return H

    def preconditioner(self) -> np.ndarray:
        """The Jacobi preconditioner k_c = H 1, floored at KC_FLOOR."""
        return np.maximum(self.row_sums(), KC_FLOOR)


def share_operator(n: int, G: sp.csr_matrix, w, r) -> ScaledHessianOp:
    """The CES/additive piece of the share rows G (CSR), budgets w and r.

    a = w/(1-r), s = w r/(1-r), diag = G^T a, and the DR1 data
    omega = sum s, xi = G^T s / omega; the rank-one term is dropped
    (xi None) when omega cancels to below OMEGA_DROP_REL of sum |s|,
    and when it is exactly zero.
    """
    a = w / (1.0 - r)
    s = w * r / (1.0 - r)
    omega = float(s.sum())
    op = ScaledHessianOp(n=n, diag=G.T @ a, R=G, s=s, dr1_omega=omega)
    if omega != 0.0 and abs(omega) >= OMEGA_DROP_REL * float(np.abs(s).sum()):
        op.dr1_xi = (G.T @ s) / omega
    return op


def assemble_from_state(state: MarketState, instance: MarketInstance) -> ScaledHessianOp:
    w = instance.budgets
    if instance.is_linear:
        g = state.G
        sig = instance.sigma
        shifted = g + sig[:, None]
        return ScaledHessianOp(n=instance.n, diag=((w / sig)[:, None] * shifted**2).sum(axis=0),
                               R=shifted * g,
                               s=w / (sig * (sig + np.einsum("ij,ij->i", g, g))))

    n, uncon = instance.n, instance.uncon
    G = state.G if uncon.size else sp.csr_matrix((0, n))
    op = share_operator(n, G, w[uncon], instance.r[uncon])
    if not instance.con.size:
        return op
    # each constrained player's 1 + rows dense rows join G's CSR arrays as full rows
    data, weights = [G.data], [op.s]
    for grp in instance.con_groups():
        X = np.stack([state.con_responses[i].x for i in grp.players.tolist()])
        D, R, s = constrained_hessian_rows(X, grp.C, grp.k, grp.r, grp.w, grp.A)
        scale = grp.w / instance.degree[grp.players]
        op.diag += (scale @ D) * state.p**2
        data.append((R * state.p).reshape(-1))
        weights.append((scale[:, None] * s).reshape(-1))
    op.s = np.concatenate(weights)
    k = op.s.size - G.shape[0]
    indptr = np.concatenate([G.indptr, G.indptr[-1] + n * np.arange(1, k + 1)])
    indices = np.concatenate([G.indices, np.tile(np.arange(n, dtype=G.indices.dtype), k)])
    op.R = sp.csr_matrix((np.concatenate(data), indices, indptr), shape=(op.s.size, n))
    op.dr1_omega = op.dr1_xi = None
    return op


def assemble(instance: MarketInstance, p) -> ScaledHessianOp:
    """Build the scaled Hessian operator at p (with its DR1 surrogate data)."""
    return assemble_from_state(market_state(instance, p), instance)


def dr1_solve(op: ScaledHessianOp, mu: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (diag(D) + mu I - Omega xi xi^T) d = rhs in O(n) via Sherman-Morrison.

    Only an operator of CES/additive players alone carries the surrogate
    (``dr1_omega`` set); any other is refused rather than solved without its
    linear-barrier or constrained pieces.
    """
    if op.dr1_omega is None:
        raise ValueError("DR1 surrogate is defined for unconstrained CES/additive players only")
    M = op.diag + mu
    if np.any(M <= 0):
        raise SingularUpdateError("diagonal term not positive; increase mu")
    d = rhs / M
    if op.dr1_xi is not None:
        Minv_xi = op.dr1_xi / M
        denom = 1.0 / op.dr1_omega - float(op.dr1_xi @ Minv_xi)
        scale = max(abs(1.0 / op.dr1_omega), abs(float(op.dr1_xi @ Minv_xi)))
        if abs(denom) <= 1e-12 * scale:
            raise SingularUpdateError("rank-one update singular; fall back to PCG")
        d = d + Minv_xi * (float(op.dr1_xi @ d) / denom)
    return d


def pcg_solve(op, g_diag, rhs: np.ndarray, eps_k: float, k_c: np.ndarray | None = None):
    """Conjugate gradient on (H + diag(g_diag)) d = rhs.

    Given the row sums k_c = H 1 (ScaledHessianOp.preconditioner), it
    preconditions with k_c + g_diag, the row sums of the full system matrix.
    Terminates when the unpreconditioned residual satisfies ||(H+G)d - rhs||
    <= eps_k * max(||d||, 1e-30), or after n iterations (CG is exact in exact
    arithmetic).  Returns (d, iterations).
    """
    n = len(rhs)
    g_diag = np.broadcast_to(np.asarray(g_diag, dtype=float), (n,))
    matvec = lambda v: op.matvec(v) + g_diag * v
    m_diag = k_c + g_diag if k_c is not None else None
    d = np.zeros(n)
    res = rhs.copy()
    if np.linalg.norm(res) == 0.0:
        return d, 0
    z = res / m_diag if m_diag is not None else res
    direction = z.copy()
    rz = float(res @ z)
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
        z = res / m_diag if m_diag is not None else res
        rz_new = float(res @ z)
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
