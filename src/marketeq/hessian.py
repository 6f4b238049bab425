"""Scaled Hessian operator, DR1 surrogate, preconditioner, and linear solvers.

The exact operator H(p) = P grad^2 phi(p) P is kept matrix-free as
    H v = D * v - G^T (s * (G v)) + linear/constrained extras,
with G the bidding-share matrix, D = G^T a, a_i = w_i/(1-r_i) and
s_i = w_i r_i/(1-r_i); linear-barrier markets carry the same shape with
dense rows V in place of G.  The DR1 surrogate collapses the rank-one sum to a
single outer product of xi = sum_i omega_i gamma_i, whose inverse is an
O(n) Sherman-Morrison solve.  The optimal diagonal preconditioner is the
row sum k_c = H 1 = sum_i w_i gamma_i.

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
from .oracle import MarketState, constrained_dual_hessians, market_state
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
    """H(p) = P grad^2 phi(p) P, one diagonal-plus-rank-one block per player.

    Each family's blocks are stored as arrays over all its players:
    - CES/additive: diag(G^T a) - G^T diag(s) G over the sparse share rows
      G; ``dr1_diag`` holds G^T a.
    - linear-barrier: player i adds (w_i/sigma_i) [diag((gamma_i+sigma_i)^2)
      - v_i v_i^T / (sigma_i + |gamma_i|^2)], v_i = (gamma_i+sigma_i) gamma_i,
      summed as diag(lin_diag) - lin_V^T diag(lin_coef) lin_V with the rows
      v_i in ``lin_V`` (m, n).
    - constrained players: the sum of their dense dual-Hessian blocks, one
      (n, n) array ``con_block``.
    """

    n: int
    # additive-family batch: share rows, diag weights a, rank-one weights s
    G: sp.csr_matrix | None = None
    a: np.ndarray | None = None
    s: np.ndarray | None = None
    # linear-barrier players: summed diagonal, rank-one weights and rows
    lin_diag: np.ndarray | None = None
    lin_coef: np.ndarray | None = None
    lin_V: np.ndarray | None = None
    # constrained players' blocks, summed
    con_block: np.ndarray | None = None
    # DR1 surrogate of the additive-family batch (a solver choice, see dr1_solve)
    dr1_diag: np.ndarray | None = None
    dr1_omega: float = 0.0
    dr1_xi: np.ndarray | None = None
    dr1_active: bool = False

    # -- products ----------------------------------------------------------

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """The exact product H v."""
        out = np.zeros(self.n)
        if self.G is not None:
            # dr1_diag doubles as the exact diagonal: both equal G^T a
            out += self.dr1_diag * v - self.G.T @ (self.s * (self.G @ v))
        if self.lin_V is not None:
            out += self.lin_diag * v - self.lin_V.T @ (self.lin_coef * (self.lin_V @ v))
        if self.con_block is not None:
            out += self.con_block @ v
        return out

    def dr1_matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.dr1_diag * v
        if self.dr1_active:
            out -= self.dr1_omega * (self.dr1_xi @ v) * self.dr1_xi
        return out

    def diff_matvec(self, v: np.ndarray) -> np.ndarray:
        """(H_dr1 - H_exact) v; diagonals cancel, only rank-one terms remain."""
        out = np.zeros(self.n)
        if self.G is not None:
            out += self.G.T @ (self.s * (self.G @ v))
        if self.lin_V is not None:
            out += self.lin_V.T @ (self.lin_coef * (self.lin_V @ v))
        if self.dr1_active:
            out -= self.dr1_omega * (self.dr1_xi @ v) * self.dr1_xi
        return out

    def row_sums(self) -> np.ndarray:
        return self.matvec(np.ones(self.n))

    def dense(self, out: np.ndarray | None = None) -> np.ndarray:
        """H as a Fortran-ordered (n, n) array, built on the upper triangle.

        Given ``out`` (Fortran (n, n)), only that triangle is written into
        it, for a Cholesky that reads no other; without it, the triangle
        is mirrored into a new symmetric H.
        """
        if self.n > DENSE_LIMIT:
            raise ValueError(f"dense materialization capped at n={DENSE_LIMIT}")
        if out is None:
            H = np.zeros((self.n, self.n), order="F")
        else:
            H = out
            H.fill(0.0)
        diag = np.diag_indices(self.n)
        if self.G is not None:
            H = _sub_share_gram(H, self.G, self.s)
            H[diag] += self.dr1_diag
        if self.lin_V is not None:
            H = _syrk(H, self.lin_V * np.sqrt(self.lin_coef)[:, None], -1.0)
            H[diag] += self.lin_diag
        if out is None:
            H += np.triu(H, 1).T
        if self.con_block is not None:
            H += self.con_block
        return H

    def preconditioner(self) -> np.ndarray:
        """The Jacobi preconditioner k_c = H 1, floored at KC_FLOOR."""
        return np.maximum(self.row_sums(), KC_FLOOR)


def assemble_from_state(state: MarketState, instance: MarketInstance) -> ScaledHessianOp:
    op = ScaledHessianOp(n=instance.n)
    w = instance.budgets
    if instance.is_linear:
        g = state.linear_gammas
        sig = instance.sigma
        shifted = g + sig[:, None]
        op.lin_diag = ((w / sig)[:, None] * shifted**2).sum(axis=0)
        op.lin_V = shifted * g
        op.lin_coef = w / (sig * (sig + np.einsum("ij,ij->i", g, g)))
        return op

    uncon = instance.uncon
    if uncon.size:
        r = instance.r[uncon]
        wu = w[uncon]
        op.G = state.G
        op.a = wu / (1.0 - r)
        op.s = wu * r / (1.0 - r)
        op.dr1_diag = op.G.T @ op.a
        omega = float(op.s.sum())
        op.dr1_omega = omega
        if abs(omega) >= OMEGA_DROP_REL * float(np.abs(op.s).sum()):
            op.dr1_xi = (op.G.T @ op.s) / omega
            op.dr1_active = True
    p = state.p
    for grp in instance.con_groups():
        X = np.stack([state.con_responses[i].x for i in grp.players.tolist()])
        M = constrained_dual_hessians(X, grp.C, grp.k, grp.r, grp.w, grp.A)
        weight = grp.w / instance.degree[grp.players]
        block = np.einsum("g,gij->ij", weight, M) * p[:, None] * p[None, :]
        op.con_block = block if op.con_block is None else op.con_block + block
    return op


def assemble(instance: MarketInstance, p) -> ScaledHessianOp:
    """Build the scaled Hessian operator at p (with its DR1 surrogate data)."""
    return assemble_from_state(market_state(instance, p), instance)


def dr1_solve(op: ScaledHessianOp, mu: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (diag(D) + mu I - Omega xi xi^T) d = rhs in O(n) via Sherman-Morrison.

    The surrogate has no linear-barrier or constrained pieces, so an operator
    that carries them is refused rather than solved without them.
    """
    if op.dr1_diag is None:
        raise ValueError("operator carries no DR1 data")
    if op.lin_V is not None or op.con_block is not None:
        raise ValueError("DR1 surrogate is defined for unconstrained CES/additive players only")
    M = op.dr1_diag + mu
    if np.any(M <= 0):
        raise SingularUpdateError("diagonal term not positive; increase mu")
    d = rhs / M
    if op.dr1_active:
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
