"""First-order reference dynamics: tatonnement and proportional response.

Both serve as correctness oracles and speed comparators for the
second-order drivers.  Tat is the classical multiplicative price update
driven by clipped excess demand; PropRes is bid-driven and clears the
market at every iteration by construction.  Rate guarantees are out of
scope; correctness is established by cross-method agreement.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .ipm import (
    STATUS_CONVERGED,
    STATUS_MAXITERS,
    STATUS_NUMFAIL,
    SolveTrace,
    TraceRow,
    _start_prices,
)
from .market import MarketInstance
from .oracle import _row_softmax, market_state

DIVERGENCE_CAP = 1e12


@dataclass
class BaselineConfig:
    method: str = "tat"  # tat | propres
    step: float = 0.1  # tat only
    max_iters: int = 200_000
    eps: float = 1e-8

    def validate(self) -> None:
        if self.method not in ("tat", "propres"):
            raise ValueError(f"unknown baseline {self.method!r}")
        if not (self.step > 0):
            raise ValueError("step must be positive")


def tat_run(instance: MarketInstance, config: BaselineConfig, p0, callback=None):
    """Multiplicative tatonnement p_j <- p_j (1 + step * min(z_j, 1)).

    z = -grad phi(p) is the excess demand sum_i x_i(p) - 1, or
    (1 + sigma n) sum_i x_i(p) - 1 on linear-barrier markets; clipping keeps
    a single update bounded and step < 1 keeps prices positive.  Stops at
    ||z||_inf <= eps, the equilibrium certificate's test.  A p0 that is not
    n positive, finite prices raises ConfigError.
    """
    config.validate()
    p = _start_prices(instance, p0, "p0")
    trace = SolveTrace(extras={"step": config.step})
    status = STATUS_MAXITERS
    for k in range(config.max_iters):
        tic = time.perf_counter()
        state = market_state(instance, p)
        z = -state.grad
        zinf = float(np.max(np.abs(z)))
        row = TraceRow(k=k, homotopy=math.nan, grad_inf=zinf,
                       grad_l2=float(np.linalg.norm(z)), nbhd_resid=math.nan,
                       decrement=math.nan)
        trace.rows.append(row)
        if zinf <= config.eps:
            status = STATUS_CONVERGED
            break
        if callback is not None:
            stop = callback(k, p)
            if stop:
                status = stop if isinstance(stop, str) else STATUS_CONVERGED
                break
        update = 1.0 + config.step * np.minimum(z, 1.0)
        p = p * update
        if float(np.max(p)) > DIVERGENCE_CAP or not np.all(np.isfinite(p)):
            status = STATUS_NUMFAIL
            break
        row.step_norm = float(np.linalg.norm(update - 1.0))
        row.wall_ms = (time.perf_counter() - tic) * 1e3
    trace.status = status
    return p, trace


def default_bids(instance: MarketInstance) -> sp.csr_matrix:
    """b0 proportional to coefficients: b_ij = w_i c_ij / sum_k c_ik."""
    C = instance.C
    sums = np.add.reduceat(C.data, C.indptr[:-1])
    counts = np.diff(C.indptr)
    data = C.data / np.repeat(sums, counts) * np.repeat(instance.budgets, counts)
    return sp.csr_matrix((data, C.indices.copy(), C.indptr.copy()), shape=C.shape)


def propres_run(instance: MarketInstance, config: BaselineConfig, b0=None, callback=None):
    """Proportional response on bids, supported on supp(c).

    Prices aggregate bids (p_j = sum_i b_ij), allocations x_ij = b_ij / p_j,
    and new bids follow utility contributions c_ij x_ij^rho.  Budgets are
    conserved exactly every iteration and the market clears every iteration.
    For rho < 0 the update is damped geometrically with exponent 1/(1-rho).
    Stops when the relative price change drops below eps.  Linear-barrier
    markets and players under constraints raise ValueError: the update
    knows neither.
    """
    config.validate()
    if instance.is_linear:
        raise ValueError("proportional response needs CES or additive players")
    if instance.constraints:
        raise ValueError("proportional response needs players without constraints")
    rhos = instance.r
    B = default_bids(instance) if b0 is None else b0.tocsr(copy=True)
    C = instance.C
    if B.nnz != C.nnz or np.any(B.indices != C.indices):
        raise ValueError("b0 must be supported on supp(c)")
    row_sums = np.add.reduceat(B.data, B.indptr[:-1])
    if np.max(np.abs(row_sums - instance.budgets) / instance.budgets) > 1e-9:
        raise ValueError("b0 row sums must equal the budgets")

    m, n = C.shape
    counts = np.diff(C.indptr)
    rows_of = np.repeat(np.arange(m), counts)
    logc = np.log(C.data)
    cols = instance.cols
    w_rep = np.repeat(instance.budgets, counts)
    # damping exponent: 1 for substitutes, 1/(1-rho) for complements
    alpha = np.where(rhos > 0, 1.0, 1.0 / (1.0 - rhos))
    alpha_rep = alpha[rows_of]
    rho_rep = rhos[rows_of]

    bdata = B.data.copy()
    p = np.bincount(cols, weights=bdata, minlength=n)
    trace = SolveTrace(extras={})
    status = STATUS_MAXITERS
    for k in range(config.max_iters):
        tic = time.perf_counter()
        logb = np.log(np.maximum(bdata, 1e-290))
        logp = np.log(np.maximum(p[cols], 1e-290))
        logw = np.log(w_rep)
        # log target share: log c + rho log x, x = b/p
        log_t = logc + rho_rep * (logb - logp)
        logits = (1.0 - alpha_rep) * (logb - logw) + alpha_rep * log_t
        new_b = _row_softmax(logits, C.indptr)[0] * w_rep
        new_p = np.bincount(cols, weights=new_b, minlength=n)
        if np.any(new_p <= 0):
            status = STATUS_NUMFAIL
            break
        rel_change = float(np.max(np.abs(new_p - p)) / np.max(np.abs(p)))
        row = TraceRow(k=k, homotopy=math.nan, grad_inf=math.nan,
                       grad_l2=math.nan, nbhd_resid=rel_change, decrement=math.nan)
        trace.rows.append(row)
        bdata, p = new_b, new_p
        if rel_change <= config.eps:
            status = STATUS_CONVERGED
            break
        if callback is not None:
            stop = callback(k, p)
            if stop:
                status = stop if isinstance(stop, str) else STATUS_CONVERGED
                break
        row.wall_ms = (time.perf_counter() - tic) * 1e3
    trace.status = status
    trace.extras["bids"] = sp.csr_matrix((bdata, C.indices.copy(), C.indptr.copy()), shape=C.shape)
    return p, trace
