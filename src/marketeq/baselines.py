"""First-order reference dynamics: tatonnement and proportional response.

Both serve as correctness oracles and speed comparators for the
second-order drivers.  Tat is the classical multiplicative price update
driven by clipped excess demand, run on the Newton drivers' loop
(ipm._newton_loop) with a step that solves nothing; PropRes is bid-driven
and clears the market at every iteration by construction.  Rate guarantees
are out of scope; correctness is established by cross-method agreement.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .ipm import (STATUS_CONVERGED, STATUS_MAXITERS, STATUS_NUMFAIL, ConfigError, SolveTrace,
                  TraceRow, _newton_loop, _start_prices, _validate_eps, _validate_market)
from .market import MarketInstance
from .oracle import _row_softmax
# kept only for bench/tracer.py / bench/run.py (ROADMAP item 21): the tracer patches this name
from .oracle import market_state  # noqa: F401


@dataclass
class BaselineConfig:
    step: float = 0.1  # tat only
    max_iters: int = 200_000
    eps: float = 1e-8

    def validate(self) -> None:
        if not (0.0 < self.step < 1.0):
            raise ConfigError("step must lie in (0, 1)")
        _validate_eps(self.eps)


def tat_run(instance: MarketInstance, config: BaselineConfig, p0, callback=None):
    """Multiplicative tatonnement p_j <- p_j (1 + step * min(z_j, 1)).

    z = -grad phi(p) is the excess demand sum_i x_i(p) - 1, or
    (1 + sigma n) sum_i x_i(p) - 1 on linear-barrier markets; clipping keeps
    a single update bounded and step < 1 keeps prices positive (above 0.99
    the loop's fraction-to-boundary safeguard may shorten a step).  It runs
    on ipm._newton_loop with a step that solves nothing, so no row assembles
    H~.  Stops at ||z||_inf <= eps, the equilibrium certificate's test; an
    oracle error ends the run as NumericalFailure, the reason in
    extras["error"].  A p0 that is not n positive, finite prices, or a
    budget that is not positive and finite, raises ConfigError before any
    price query.
    """
    config.validate()
    _validate_market(instance)
    trace = SolveTrace(extras={"step": config.step})
    # nothing is solved: "pcg" only keeps the loop from allocating exact mode's (n, n) matrix
    p = _newton_loop(instance, _start_prices(instance, p0, "p0"), trace,
                     measure=lambda k, state, solver: (math.nan,) * 3,
                     step=lambda k, state, solver: (config.step * np.minimum(-state.grad, 1.0),
                                                    math.nan),
                     callback=callback, eps=config.eps, max_iters=config.max_iters,
                     hessian_mode="pcg", eps_k=0.0)
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
    Stops when the relative price change drops below eps.  A budget that is
    not positive and finite raises ConfigError; linear-barrier markets and
    players under constraints raise ValueError: the update knows neither.
    """
    config.validate()
    _validate_market(instance)
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
