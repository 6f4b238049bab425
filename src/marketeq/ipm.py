"""Second-order tatonnement drivers, LogBar and PathFol, and the method table.

LogBar follows the log-barrier central path from p0 = mu0 * 1
(_initial_center): shrink mu geometrically and re-center with one inexact
Newton step per mu,
    (H~ + mu I) d = -(P grad phi - mu 1),    p+ = p (1 + d);
near-linear markets run a sigma continuation (_linear_continuation_run).
PathFol follows a barrier-free homotopy phi_t = phi - t<grad phi(p0), p>,
driving t from 1 to 0 with gamma following the neighbourhood each row
measures (pathfol_run),
    t+ = max(t - gamma / (C ||P grad phi(p0)||*_{H~}), 0),
    H~ d = -P(grad phi - t+ grad phi(p0)),
and its CG stops at a forcing term, unit-free since grad phi = 1 - demand
(PCG_FORCING_CAP; Dembo, Eisenstat & Steihaug 1982).
LogBar and newton_polish keep a fixed eps_k: LogBar's short step bounds the
step error against the decrement, and with the forcing term it lost the
central path until mu underflowed (CES n=200, m=600, rho=0.9, 6 of seeds
1-8); the polish's price-query counts moved with it.

Both take the same step -- query best responses, solve (H~ + shift I) d =
rhs, set p <- p (1 + d) -- in one loop (_newton_loop), which records a
SolveTrace and stops on the equilibrium certificate ||grad phi||_inf <= eps;
each driver supplies only its homotopy rule and its solves.  newton_polish
(damped Newton on phi) and baselines.tat_run (a step that solves nothing)
run the same loop.  A _StepSolver solves in the run's Hessian mode: dense
``exact``, the ``dr1`` surrogate (LogBar's; PathFol runs it as PCG), or
``pcg``, preconditioned by the DR1 inverse where the operator carries its
data, else by Jacobi.

What a method name runs is one row of METHODS, decided nowhere else: the
driver, its config class at `marketeq solve`'s defaults, its start and the
mode the name fixes (default_hessian_mode where none is fixed or given).
solve(instance, method, **settings) runs a row; the command line calls it.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import astuple, dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg

from . import hessian as hes
from .market import MarketInstance, atomic_write_text, with_barrier_sigma
from .oracle import OracleError, linear_barrier_kkt_residual, market_state

STATUS_CONVERGED = "Converged"
STATUS_MAXITERS = "MaxIters"
STATUS_NUMFAIL = "NumericalFailure"

TRACE_HEADER = "k,homotopy,grad_inf,grad_l2,nbhd_resid,decrement,step_norm,pcg_iters,wall_ms"

MU_FLOOR = 1e-12
PRACTICAL_C_PHI = 10.0  # PathFol's default C; a run-time setting, not a certified bound
STEP_SAFEGUARD_ETA = 0.01  # fraction-to-boundary: every price keeps >= 1% of its value
ARMIJO = 1e-4  # sufficient-decrease fraction of the polish's backtracking
# an interpolated backtracking trial keeps this much of the rejected one at least / at most
BACKTRACK_MIN = 0.1
BACKTRACK_MAX = 0.5
MIN_ALPHA = 1e-10  # the polish gives up below this step fraction
PHI_ACCURACY = 1e-10  # relative accuracy of MarketState.value
# PathFol's CG tolerance is max(eps_k, min(cap, ||grad phi||_inf^2)): loose
# far from the solution, eps_k by the last rows (below a tenth of gamma's
# target while t > 0)
PCG_FORCING_CAP = 1e-2
MAX_RETREATS = 10  # PathFol's rejected t-steps in a row before the run gives up


class ConfigError(ValueError):
    """Invalid solver configuration."""


def _validate_hessian_mode(mode: str, instance: MarketInstance) -> None:
    if mode not in ("exact", "dr1", "pcg"):
        raise ConfigError(f"unknown hessian mode {mode!r}")
    if mode == "exact" and instance.n > hes.DENSE_LIMIT:
        raise ConfigError(f"exact hessian mode capped at n={hes.DENSE_LIMIT}; use dr1/pcg")
    if mode == "dr1" and (instance.constraints or instance.is_linear):
        raise ConfigError("dr1 mode needs an unconstrained CES/additive market")


def _validate_eps(eps: float) -> None:
    if not (0.0 < eps < math.inf):  # NaN included
        raise ConfigError("eps must be positive and finite")


def _validate_market(instance: MarketInstance) -> None:
    """The O(nnz) checks a driver makes on entry; the full market.validate is
    left to callers, outside the solve."""
    if not np.all((instance.budgets > 0.0) & (instance.budgets < math.inf)):
        raise ConfigError("budgets must be positive and finite")
    C = instance.C  # each player's any(c > 0) in one pass; the False closes an empty last row
    positive = np.logical_or.reduceat(np.append(C.data > 0.0, False), C.indptr[:-1])
    bad = np.flatnonzero(~positive | (C.indptr[1:] == C.indptr[:-1]))
    if bad.size:
        raise ConfigError(f"player {bad[0]} has no positive coefficient")
    if instance.is_linear and not np.all((instance.sigma > 0.0) & (instance.sigma < math.inf)):
        raise ConfigError("linear-barrier sigma must be positive and finite")


def _start_prices(instance: MarketInstance, p, name: str) -> np.ndarray:
    """A float copy of the start p; ConfigError unless it is n positive, finite prices."""
    p = np.array(p, dtype=float)
    if p.shape != (instance.n,) or not np.all((p > 0) & (p < math.inf)):
        raise ConfigError(f"{name} must be {instance.n} strictly positive, finite prices")
    return p


@dataclass
class TraceRow:
    k: int
    homotopy: float
    grad_inf: float
    grad_l2: float
    nbhd_resid: float = math.nan
    decrement: float = math.nan
    step_norm: float = math.nan
    pcg_iters: int | None = None
    wall_ms: float = math.nan


@dataclass
class SolveTrace:
    rows: list[TraceRow] = field(default_factory=list)
    status: str = STATUS_MAXITERS
    extras: dict = field(default_factory=dict)

    def iterations(self) -> int:
        return len(self.rows)

    def to_csv(self, path: str) -> None:
        def fmt(v):
            if v is None or (isinstance(v, float) and math.isnan(v)):
                return ""
            return f"{v:.17g}" if isinstance(v, float) else str(v)

        lines = [TRACE_HEADER] + [",".join(map(fmt, astuple(r))) for r in self.rows]
        lines.append(f"# status={self.status}")
        atomic_write_text(path, "\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path: str) -> "SolveTrace":
        rows = []
        status = STATUS_MAXITERS
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != TRACE_HEADER:
                raise ValueError(f"unexpected trace header: {header!r}")
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if "status=" in line:
                        status = line.split("status=", 1)[1].strip()
                    continue
                k, *floats, pcg, wall = [math.nan if v == "" else float(v)
                                         for v in line.split(",")]
                rows.append(TraceRow(int(k), *floats, None if math.isnan(pcg) else int(pcg), wall))
        return cls(rows=rows, status=status)


@dataclass
class LogBarConfig:
    Q: float = 0.25
    eps: float = 1e-7
    sigma_override: float | None = None
    hessian_mode: str = "exact"  # exact | dr1 | pcg
    eps_k: float = 1e-8
    max_iters: int = 500
    mu_stop: bool = False  # stop once mu <= eps/(1+sqrt(n)) (secondary guarantee)

    def validate(self, instance: MarketInstance) -> None:
        if not (0.0 < self.Q < 0.5):
            raise ConfigError("Q must lie in (0, 1/2)")
        _validate_eps(self.eps)
        if self.sigma_override is not None and not (0.0 < self.sigma_override < 1.0):
            raise ConfigError("sigma_override must lie in (0, 1)")
        _validate_hessian_mode(self.hessian_mode, instance)
        _validate_market(instance)


@dataclass
class PathFolConfig:
    beta: float = 0.01
    gamma_step: float = 0.04  # the first t-step; later ones follow the measured nbhd_resid
    hessian_mode: str = "exact"
    eps: float = 1e-7
    eps_k: float = 1e-10
    max_iters: int = 2000
    c_phi: float = PRACTICAL_C_PHI

    def validate(self, instance: MarketInstance) -> None:
        if not (0.0 < self.beta < 0.3):
            raise ConfigError("beta must lie in (0, 0.3)")
        if not (self.beta + self.gamma_step < 1.0 and 0.0 < self.gamma_step < 1.0):
            raise ConfigError("need beta + gamma < 1 and gamma in (0, 1)")
        if not (self.gamma_step > 2.0 * self.beta):
            raise ConfigError("need gamma > 2*beta")
        if not (0.0 < self.c_phi < math.inf):
            raise ConfigError("c_phi must be positive and finite")
        _validate_eps(self.eps)
        _validate_hessian_mode(self.hessian_mode, instance)
        _validate_market(instance)


# ---------------------------------------------------------------------------
# linear-solver facade: one assembled operator, several regularized solves


class _StepSolver:
    """(H~ + mu I) d = rhs on one operator, which every driver solves with one
    shift: one factorization is kept.  pcg_iters sums PCG iterations (or None).
    ``op`` is the operator or a function of no arguments that assembles it,
    called on the first solve, so a solver that solves nothing assembles
    nothing.  Exact mode builds and factors H in ``buf``, a Fortran (n, n)
    array that _newton_loop hands to every iteration of a run (allocated here
    if None).  PCG is preconditioned by the DR1 inverse at the shift on an
    operator that carries the DR1 data, else (and when that factorization
    fails, counted in ``fallbacks``) by Jacobi, 1/(k_c + mu)."""

    def __init__(self, op, mode: str, eps_k: float, buf: np.ndarray | None = None):
        self._op = op
        self.mode = mode
        self.eps_k = eps_k
        self._buf = buf
        self._chol = None  # (mu, cho_factor, Jacobi scale)
        self._precond = None  # (mu, DR1 inverse or None for Jacobi)
        self._k_c = None
        self.fallbacks = 0
        self.pcg_iters = None

    @property
    def op(self) -> hes.ScaledHessianOp:
        if callable(self._op):
            self._op = self._op()
        return self._op

    def _dense_solve(self, mu: float, rhs: np.ndarray) -> np.ndarray:
        # Jacobi-scale before factoring: near-linear markets make H span
        # ~1/sigma^2 in magnitude and a raw Cholesky loses the small block.
        # H + mu I is built, scaled and factored in place, upper triangle only.
        if self._chol is None or self._chol[0] != mu:
            if self._buf is None:
                self._buf = np.empty((self.op.n, self.op.n), order="F")
            A = self.op.dense(out=self._buf)
            diag = np.diag_indices(self.op.n)
            A[diag] += mu
            s = 1.0 / np.sqrt(np.maximum(A[diag], 1e-300))
            A *= s[:, None]
            A *= s[None, :]
            self._chol = (mu, scipy.linalg.cho_factor(A, overwrite_a=True, check_finite=False), s)
        _, cf, s = self._chol
        d = s * scipy.linalg.cho_solve(cf, s * rhs, check_finite=False)
        for _ in range(2):  # iterative refinement with the exact matvec
            r = rhs - (self.op.matvec(d) + mu * d)
            d = d + s * scipy.linalg.cho_solve(cf, s * r, check_finite=False)
        return d

    def _dr1_preconditioner(self, mu: float):
        """The DR1 inverse at shift mu, factored once per shift; None for Jacobi."""
        if self._precond is None or self._precond[0] != mu:
            inverse = None
            if self.op.dr1_omega is not None:
                try:
                    inverse = hes.dr1_inverse(self.op, mu)
                except hes.SingularUpdateError:
                    if self.mode != "dr1":  # dr1 mode counted this failure in solve
                        self.fallbacks += 1
            self._precond = (mu, inverse)
        return self._precond[1]

    def solve(self, mu: float, rhs: np.ndarray, eps_k: float | None = None) -> np.ndarray:
        """Solve (H~ + mu I) d = rhs; PCG stops at eps_k (default: the solver's)."""
        if self.mode == "exact":
            return self._dense_solve(mu, rhs)
        if self.mode == "dr1":
            try:
                return hes.dr1_solve(self.op, mu, rhs)
            except hes.SingularUpdateError:
                self.fallbacks += 1
        inverse = self._dr1_preconditioner(mu)
        if inverse is None and self._k_c is None:
            self._k_c = self.op.preconditioner()
        d, iters = hes.pcg_solve(self.op, mu, rhs, self.eps_k if eps_k is None else eps_k,
                                 self._k_c, precond=inverse)
        self.pcg_iters = (self.pcg_iters or 0) + iters
        return d

    def newton_step(self, mu: float, rhs: np.ndarray, eps_k: float | None = None):
        """(d, sqrt(rhs . d)) with (H~ + mu I) d = rhs: the step and its decrement."""
        d = self.solve(mu, rhs, eps_k)
        return d, math.sqrt(max(float(rhs @ d), 0.0))


# ---------------------------------------------------------------------------
# the Newton loop shared by LogBar, PathFol and the polish

_NUMERICAL_ERRORS = (OracleError, FloatingPointError, scipy.linalg.LinAlgError)


def _counters(extras: dict) -> dict:
    """The counters _newton_loop keeps in a trace's extras, 0 where one is unset."""
    return {key: extras.get(key, 0)
            for key in ("price_queries", "safeguards", "dr1_fallbacks", "backtracks", "retreats",
                        "con_newton_steps")}


def _query(instance: MarketInstance, p, trace: SolveTrace, prev=None):
    """market_state at p, warm-started from ``prev``, counted in trace.extras.

    The callers pass the most recent state their run queried, whether its
    point was kept or not (a rejected line-search trial, a point PathFol
    retreated from), so constrained players start their Newton from the
    demand at the nearest earlier prices.  extras["price_queries"] counts
    the queries and extras["con_newton_steps"] their constrained Newton
    steps.
    """
    trace.extras["price_queries"] = trace.extras.get("price_queries", 0) + 1
    state = market_state(instance, p, prev)
    trace.extras["con_newton_steps"] = trace.extras.get("con_newton_steps", 0) \
        + state.con_newton_steps
    return state


def _backtrack(instance: MarketInstance, state, d: np.ndarray, trace: SolveTrace,
               alpha: float):
    """Armijo backtracking on phi along p (1 + alpha d) from the trial ``alpha``.

    Accepts phi falling by ARMIJO times the predicted decrease, or, when the
    slope is within phi's accuracy tol of 0, rising by at most tol.
    After a rejected trial at alpha, phi risen by D with slope g < 0 at 0,
    the next trial minimises the quadratic through (0, 0) with slope g and
    (alpha, D), -g alpha^2 / (2 (D - g alpha)), clamped to [BACKTRACK_MIN,
    BACKTRACK_MAX] alpha (Nocedal & Wright, Numerical Optimization, 3.5); a
    trial outside the oracle's domain, or a slope that is not negative,
    halves alpha.  Each rejected trial adds one to extras["backtracks"];
    each trial's query is warm-started from the last one's.
    Returns (alpha, state there); (None, None) when no alpha >= MIN_ALPHA is
    acceptable.  A slope above tol (d is an ascent direction) raises
    FloatingPointError before any price query."""
    slope = float((state.p * state.grad) @ d)
    tol = PHI_ACCURACY * max(1.0, abs(state.value))
    if not slope <= tol:  # NaN included
        raise FloatingPointError(f"the step is not a descent direction: slope {slope:.3e} of phi")
    prev = state
    while alpha >= MIN_ALPHA:
        shorter = 0.5 * alpha
        try:
            trial = prev = _query(instance, state.p * (1.0 + alpha * d), trace, prev)
            rise = trial.value - state.value
            if rise <= ARMIJO * alpha * slope or (-slope <= tol and rise <= tol):
                return alpha, trial
            if slope < 0.0 and not math.isnan(rise):  # rejected, so D > alpha g: a convex fit
                shorter = min(max(-slope * alpha**2 / (2.0 * (rise - slope * alpha)),
                                  BACKTRACK_MIN * alpha), BACKTRACK_MAX * alpha)
        except OracleError:
            pass  # outside the oracle's domain: halve the step
        trace.extras["backtracks"] += 1
        alpha = shorter
    return None, None


def _safeguarded(d: np.ndarray, trace: SolveTrace) -> np.ndarray:
    """d shortened so that every price keeps STEP_SAFEGUARD_ETA of its value
    (fraction to the boundary), each clip counted in extras["safeguards"]."""
    dmin = float(d.min())
    if 1.0 + dmin < STEP_SAFEGUARD_ETA:
        trace.extras["safeguards"] += 1
        return d * ((1.0 - STEP_SAFEGUARD_ETA) / (-dmin))
    return d


def _newton_loop(instance: MarketInstance, p, trace: SolveTrace, measure, step, stop=None,
                 callback=None, damped=False, state=None, retreat=None, *, eps: float,
                 max_iters: int, hessian_mode: str, eps_k: float) -> np.ndarray:
    """Steps p <- p (1 + d) until ||grad phi||_inf <= eps, at most max_iters rows.

    Each iteration queries the players at p (the first one reads ``state``,
    the driver's own query at p, when given), warm-started from the run's
    most recent query (_query); the driver's rule does the
    rest, solving on the iteration's _StepSolver in ``hessian_mode`` with CG
    tolerance ``eps_k``, which assembles H~ from the query on its first
    solve: measure(k, state, solver) gives the row's (homotopy, nbhd_resid,
    decrement), stop(k) may end the run before the step, and
    step(k, state, solver) gives (d, decrement), the decrement filling a NaN
    one from measure.  The row's pcg_iters total all its PCG solves.  An
    oracle, floating-point or factorization error ends the run as
    NumericalFailure, with the reason in extras["error"].
    retreat(k, nbhd_resid, error), when given, is called after each measure
    with the row's nbhd_resid and error None, or with NaN and the OracleError
    that the query or measure raised: it returns None to keep the row, or
    rejects the point with a step d from the last kept row's point to try in
    its place (it raises to end the run).  A rejected trial adds no row; its
    price query counts, its PCG iterations go to the row kept next, and it
    adds one to extras["retreats"].
    With damped=True the safeguarded step is shortened by _backtrack, whose
    accepted state is the next iteration's; each step after the first starts
    its backtracking at min(1, 2 alpha), alpha the last accepted fraction.
    When no step fraction is acceptable the run ends as MaxIters, along an
    ascent direction as NumericalFailure, with the reason in extras["error"].
    """
    # exact mode's Newton matrix, rebuilt and factored in place every iteration
    buf = np.empty((instance.n,) * 2, order="F") if hessian_mode == "exact" else None
    trace.extras.update(_counters(trace.extras))
    status = STATUS_MAXITERS
    alpha = 1.0  # the damped step's first trial fraction
    last = state  # the most recent query, rejected or kept: the next one's warm start
    for k in range(max_iters):
        tic = time.perf_counter()
        solvers = []  # the row's: its rejected trials' first
        try:
            while True:
                try:
                    if state is None:
                        state = last = _query(instance, p, trace, last)
                    # assemble_from_state is looked up per row, where bench/tracer.py patches it
                    solvers.append(_StepSolver(partial(hes.assemble_from_state, state, instance),
                                               hessian_mode, eps_k, buf))
                    homotopy, nbhd, decrement = measure(k, state, solvers[-1])
                    error = None
                except OracleError as exc:
                    if retreat is None:
                        raise
                    nbhd, error = math.nan, exc
                d = retreat(k, nbhd, error) if retreat else None
                if d is None:
                    break
                trace.extras["retreats"] += 1
                d = _safeguarded(d, trace)
                p, state = p_row * (1.0 + d), None
                trace.rows[-1].step_norm = float(np.linalg.norm(d))
            solver = solvers[-1]
            row = TraceRow(k=k, homotopy=homotopy, grad_inf=float(np.max(np.abs(state.grad))),
                           grad_l2=float(np.linalg.norm(state.grad)), nbhd_resid=nbhd,
                           decrement=decrement)
            trace.rows.append(row)
            halt = (row.grad_inf <= eps or (stop(k) if stop else None)
                    or (callback(k, p) if callback else None))
            if not halt:
                d, decrement = step(k, state, solver)
                if not np.all(np.isfinite(d)):
                    raise FloatingPointError("non-finite Newton step")
            iters = [s.pcg_iters for s in solvers if s.pcg_iters is not None]
            row.pcg_iters = sum(iters) if iters else None
            trace.extras["dr1_fallbacks"] += sum(s.fallbacks for s in solvers)
        except _NUMERICAL_ERRORS as exc:
            trace.extras["error"] = str(exc)
            status = STATUS_NUMFAIL
            break
        if halt:
            status = halt if isinstance(halt, str) else STATUS_CONVERGED
            break
        if math.isnan(row.decrement):
            row.decrement = decrement
        d = _safeguarded(d, trace)
        p_row = p
        if damped:
            try:
                alpha, state = _backtrack(instance, state, d, trace, alpha)
            except FloatingPointError as exc:  # an ascent direction
                trace.extras["error"] = str(exc)
                status = STATUS_NUMFAIL
                break
            if state is None:
                trace.extras["error"] = f"no step fraction >= {MIN_ALPHA:g} decreases phi"
                break
            d = alpha * d
            p = state.p
            alpha = min(1.0, 2.0 * alpha)
        else:
            state = None
            p = p * (1.0 + d)
        row.step_norm = float(np.linalg.norm(d))
        row.wall_ms = (time.perf_counter() - tic) * 1e3
    trace.status = status
    return p


def newton_polish(instance: MarketInstance, p, eps: float = 1e-12, max_iters: int = 60,
                  eps_k: float = 1e-12, hessian_mode: str = "pcg"):
    """Damped Newton on phi from p until ||grad phi||_inf <= eps.

    PathFol's t = 0 rule, (H~ + MU_FLOOR I) d = -P grad phi, with Armijo
    backtracking on phi (Boyd & Vandenberghe, Convex Optimization, 9.5) by
    safeguarded quadratic interpolation (_backtrack; Dennis & Schnabel 1983,
    6.3.2).  The first step tries alpha = 1, each later one min(1, 2 alpha)
    after an accepted alpha, so a run of short steps does not pay the
    rejected trials above them every time; near the solution every step is
    a full one.  extras["backtracks"] counts the rejected trials.  Returns
    (p, SolveTrace); a start p that is not n positive, finite prices, or a
    Hessian mode the market does not allow, raises ConfigError before any
    price query.
    """
    _validate_hessian_mode(hessian_mode, instance)
    _validate_market(instance)
    trace = SolveTrace()
    p = _newton_loop(instance, _start_prices(instance, p, "p"), trace,
                     measure=lambda k, state, solver: (0.0, math.nan, math.nan),
                     step=lambda k, state, solver: solver.newton_step(MU_FLOOR,
                                                                      -(state.p * state.grad)),
                     damped=True, eps=eps, max_iters=max_iters, hessian_mode=hessian_mode,
                     eps_k=eps_k)
    return p, trace


# ---------------------------------------------------------------------------
# LogBar


def effective_budget(instance: MarketInstance) -> float:
    """sum beta_i w_i with beta_i = 1 (additive) or 1 + sigma*n (linear)."""
    if instance.is_linear:
        return float(np.sum(instance.budgets * instance.degree))
    return instance.total_budget()


def lemma_initial_mu(instance: MarketInstance, Q: float) -> float:
    """The sqrt(W_eff/Q) starting value for the uniform-price center."""
    return math.sqrt(effective_budget(instance) / Q)


def _initial_center(instance: MarketInstance, Q: float, trace: SolveTrace):
    """LogBar's initial center: (mu0, market state at p0 = mu0 * 1), on the ray
    of uniform prices, its queries counted in trace.

    Start from mu0 = sqrt(W_eff / Q) and verify membership in C(mu0, Q)
    directly; if the residual ||sum x_i(mu0 1)|| (which is bounded by
    W_eff / mu0) still exceeds Q, double mu0 until it does not.  The sqrt
    choice alone does not imply membership -- the demand bound only gives
    residual <= W_eff/mu0, so certainty requires mu0 >= W_eff/Q -- but it
    passes at practical Q through l2 slack and keeps mu0 small.  W_eff
    is sum beta_i w_i with beta_i = 1 for the additive family and
    1 + sigma*n for linear-barrier players (whose gradient scales demand
    by that factor).  Raises OracleError when mu0 = W_eff/Q still fails.
    """
    w_eff = effective_budget(instance)
    mu0 = lemma_initial_mu(instance, Q)
    state = None
    for _ in range(128):
        state = _query(instance, np.full(instance.n, mu0), trace, state)
        resid = np.linalg.norm(state.p * state.grad - mu0) / mu0
        if resid <= Q * (1.0 + 1e-12):
            return mu0, state
        if mu0 >= w_eff / Q:
            break
        mu0 = min(2.0 * mu0, w_eff / Q)
    raise OracleError(f"initial center residual {resid} exceeds Q={Q}")


def theory_strict_Q(instance: MarketInstance, eps: float) -> float:
    """Worst-case neighborhood radius Q <= eps / (14 eps + 4 T_phi (sqrt(n)+1)).

    T_phi is the potential's exact SLC constant, sum_i w_i T_i with
    T_i = max(6/(1-r_i)^2, 2) for CES/additive players and
    T_i = 2 (1+sigma_i)^3 / sigma_i^3 for linear-barrier players (the
    linear-market potential is <p,1> + sum_i w_i f_i).
    """
    w = instance.budgets
    if instance.is_linear:
        sig = instance.sigma
        T_phi = float(np.sum(w * (2.0 * (1.0 + sig) ** 3 / sig**3)))
    else:
        T_phi = float(np.sum(w * np.maximum(6.0 / (1.0 - instance.r) ** 2, 2.0)))
    return eps / (14.0 * eps + 4.0 * T_phi * (math.sqrt(instance.n) + 1.0))


SIGMA_SMOOTH = 0.05  # barrier-utility level the plain loop tracks comfortably


def _linear_continuation_run(instance: MarketInstance, config: LogBarConfig, callback=None):
    """LogBar for near-linear markets: barrier phase at a smooth utility
    regularization, then a geometric sigma ladder (x0.1 per stage) down to
    the target, each stage polished by newton_polish in the config's Hessian
    mode.  The last stage is the market itself; its polish sets the status.

    The plain one-step loop cannot track the central path once sigma is at
    the eps/n scale the clearing bound wants -- the potential's scaled
    Lipschitz constant grows like 1/sigma^3 -- so the homotopy runs in
    (mu, sigma) jointly instead.  The barrier phase is LogBar on the
    SIGMA_SMOOTH market, shrinking mu by the config's sigma_override or
    0.5, and it stops at ||grad phi||_inf <= max(eps, 1e-2).  Each stage's
    polish is damped Newton on a convex potential, which converges from any
    positive start (Boyd & Vandenberghe, Convex Optimization, 9.5), so a
    tighter stop only buys price queries that the first stage throws away.
    extras["barrier_phase"] records the phase's sigma, rows, final grad_inf,
    last mu, status and loop counters (_counters).  Each stage adds one
    trace row (homotopy = its sigma, the gradient norms of its polish's last
    row) and one entry to extras["continuation"] with the polish's sigma,
    final grad_inf, status, Newton steps and the same counters; the run's
    counters sum the phase's and every stage's.
    """
    target = float(instance.sigma[0])
    smooth = with_barrier_sigma(instance, SIGMA_SMOOTH)
    inner_cfg = LogBarConfig(
        Q=config.Q, eps=max(config.eps, 1e-2),
        sigma_override=config.sigma_override or 0.5,
        hessian_mode=config.hessian_mode, eps_k=config.eps_k, max_iters=config.max_iters)
    p, trace = logbar_run(smooth, inner_cfg, callback=callback)
    last = trace.rows[-1] if trace.rows else TraceRow(0, math.nan, math.nan, math.nan)
    trace.extras["barrier_phase"] = {
        "sigma": SIGMA_SMOOTH, "rows": len(trace.rows), "grad_inf": last.grad_inf,
        "mu": last.homotopy, "status": trace.status, **_counters(trace.extras)}
    trace.extras["continuation"] = []
    if trace.status == STATUS_NUMFAIL:
        return p, trace

    sigma = SIGMA_SMOOTH
    k = trace.rows[-1].k if trace.rows else 0
    while sigma > target:
        # a stage within rounding of the target is the target (0.05 * 0.1**6 > 5e-8)
        sigma = target if sigma * 0.1 < target * (1.0 + 1e-9) else sigma * 0.1
        tic = time.perf_counter()
        p, polish = newton_polish(with_barrier_sigma(instance, sigma), p, eps=config.eps,
                                  max_iters=config.max_iters, eps_k=config.eps_k,
                                  hessian_mode=config.hessian_mode)
        last = polish.rows[-1] if polish.rows else TraceRow(k, sigma, math.nan, math.nan)
        k += 1
        trace.rows.append(TraceRow(k=k, homotopy=sigma, grad_inf=last.grad_inf,
                                   grad_l2=last.grad_l2, wall_ms=(time.perf_counter() - tic) * 1e3))
        counters = _counters(polish.extras)
        trace.extras["continuation"].append({
            "sigma": sigma, "grad_inf": last.grad_inf, "status": polish.status,
            "newton_steps": sum(not math.isnan(r.step_norm) for r in polish.rows), **counters})
        for key, count in counters.items():
            trace.extras[key] += count
    trace.status = polish.status
    if "error" in polish.extras:
        trace.extras["error"] = polish.extras["error"]
    return p, trace


def logbar_run(instance: MarketInstance, config: LogBarConfig, callback=None):
    """Run the log-barrier driver; returns (p, SolveTrace).

    The scheme is the one-inexact-Newton-step-per-mu short-step loop, whose
    recorded mu column is exactly mu0 * sigma^k.  Near-linear markets
    (sigma below SIGMA_SMOOTH) detour through the sigma continuation
    (_linear_continuation_run): this loop at a smooth sigma, then one
    damped-Newton polish per stage of a x0.1 sigma ladder.
    """
    config.validate(instance)
    if instance.is_linear and instance.sigma[0] < SIGMA_SMOOTH:
        return _linear_continuation_run(instance, config, callback=callback)
    Q = config.Q
    trace = SolveTrace(extras={"Q": Q})
    try:
        mu, state = _initial_center(instance, Q, trace)
    except OracleError as exc:
        trace.status = STATUS_NUMFAIL
        trace.extras["error"] = str(exc)
        return np.ones(instance.n), trace
    n = instance.n
    sigma = config.sigma_override if config.sigma_override is not None else \
        (Q + math.sqrt(n)) / (2.0 * Q + math.sqrt(n))
    mu_threshold = config.eps / (1.0 + math.sqrt(n))
    trace.extras.update(sigma=sigma, mu0=mu, mu_threshold_k=None)

    def measure(k, state, solver):
        # the decrement comes from the step: ||P grad phi - mu+ 1||* (NaN on the last row)
        return mu, float(np.linalg.norm(state.p * state.grad - mu) / mu), math.nan

    def stop(k):
        if trace.extras["mu_threshold_k"] is None and mu <= mu_threshold:
            trace.extras["mu_threshold_k"] = k
            return STATUS_CONVERGED if config.mu_stop else None
        return None

    def step(k, state, solver):
        nonlocal mu
        mu = sigma * mu
        if mu < np.finfo(float).tiny:  # a subnormal or zero shift; measure divides by mu
            raise FloatingPointError(f"mu underflow: mu = {mu:g} after row {k}")
        return solver.newton_step(mu, -(state.p * state.grad - mu))

    p = _newton_loop(instance, state.p, trace, measure, step, stop, callback=callback,
                     state=state, eps=config.eps, max_iters=config.max_iters,
                     hessian_mode=config.hessian_mode, eps_k=config.eps_k)
    return p, trace


# ---------------------------------------------------------------------------
# PathFol


def pathfol_run(instance: MarketInstance, config: PathFolConfig, p0, callback=None):
    """Run the path-following driver from p0 > 0; returns (p, SolveTrace).

    The anchor gradient grad phi(p0) is frozen at k = 0; only the metric
    H~(p_k) of its dual norm changes.  Each row solves H~ a = P grad phi and,
    while t > 0, H~ b = P grad phi(p0) (H~ shifted by MU_FLOOR): decrement
    sqrt(P grad phi . a), nbhd_resid sqrt(P(grad phi - t grad phi(p0)) .
    (a - t b)), step d = -(a - t+ b) with t+ = max(t - gamma / (C
    sqrt(P grad phi(p0) . b)), 0); pcg_iters totals both solves, which stop
    CG at the forcing term max(eps_k, min(PCG_FORCING_CAP, ||grad phi||_inf^2)),
    and while t > 0 at no more than a tenth of the target below, so that CG
    noise does not steer gamma.

    gamma starts at gamma_step and follows the neighbourhood it measures
    (long-step path following: Nesterov & Nemirovski 1994, ch. 3; Renegar
    2001, 2.4): after each row past the anchor with t > 0, gamma <- gamma
    clamp(sqrt(target / nbhd_resid), 1/2, 2), target = beta / (2C).  A
    step whose point has nbhd_resid above beta/C, or whose query raises
    OracleError, is rejected without a row: the run retreats to the last
    kept row's point and steps again with half its t-step
    (extras["retreats"] counts them), so no row stepped to by a t-step
    leaves the neighbourhood (extras["centering_warnings"] counts the rows
    that do, at t = 0 alone).  After MAX_RETREATS retreats in a row the run
    ends as NumericalFailure.  The dr1 mode runs as pcg, whose CG the DR1
    inverse preconditions: the surrogate's error never met the certified
    delta that its rate needs as the Newton matrix itself.
    """
    config.validate(instance)
    if config.hessian_mode == "dr1":
        config = replace(config, hessian_mode="pcg")
    p = _start_prices(instance, p0, "p0")
    C = config.c_phi
    limit = config.beta / C * (1.0 + 1e-9)  # the neighbourhood a t-step must keep
    target = 0.5 * config.beta / C  # the nbhd_resid that gamma steers to
    trace = SolveTrace(extras={"C_phi": C, "beta": config.beta, "gamma": config.gamma_step,
                               "centering_warnings": 0, "t_zero_k": None})
    t, gamma = 1.0, config.gamma_step
    g0u = None  # grad phi(p0), the frozen anchor
    # (t, H~^-1 P grad phi, H~^-1 P grad phi(p0), sqrt(P grad phi(p0) . b)) at the last
    # kept row and at the measured point
    kept = trial = None
    retreats = 0  # in a row

    def measure(k, state, solver):
        nonlocal g0u, trial
        if k == 0:
            g0u = state.grad
        tol = max(config.eps_k, min(PCG_FORCING_CAP, float(np.max(np.abs(state.grad))) ** 2))
        if t > 0.0:
            tol = max(config.eps_k, min(tol, 0.1 * target))
        a, lam = solver.newton_step(MU_FLOOR, state.p * state.grad, tol)
        b = g0_norm = None
        nbhd = lam
        if t > 0.0:
            b, g0_norm = solver.newton_step(MU_FLOOR, state.p * g0u, tol)
            nbhd = math.sqrt(max(float((state.p * (state.grad - t * g0u)) @ (a - t * b)), 0.0))
        trial = (t, a, b, g0_norm)
        return t, nbhd, lam

    def retreat(k, nbhd, error):
        nonlocal kept, gamma, retreats
        if kept is not None and kept[0] > 0.0 and (error is not None or nbhd > limit):
            if retreats == MAX_RETREATS:
                raise error or FloatingPointError(
                    f"{MAX_RETREATS + 1} t-steps in a row left the neighbourhood: nbhd_resid "
                    f"{nbhd:.3e} > beta/C = {config.beta / C:.3e}")
            retreats += 1
            gamma = 0.5 * (kept[0] - t) * C * kept[3]  # half the rejected t-step
            return take_step(k - 1)
        if error is not None:
            raise error
        retreats = 0
        if kept is not None and trial[0] > 0.0:
            gamma *= min(max(math.sqrt(target / nbhd), 0.5), 2.0) if nbhd > 0.0 else 2.0
        kept = trial
        if nbhd > limit:
            trace.extras["centering_warnings"] += 1
        return None

    def take_step(k):
        """The step from the kept row k: -(a - t+ b), or -a once t = 0."""
        nonlocal t
        t_row, a, b, g0_norm = kept
        if t_row == 0.0:
            return -a
        t = max(t_row - gamma / (C * g0_norm), 0.0)
        trace.extras["t_zero_k"] = k if t == 0.0 else None
        return -(a - t * b)

    def step(k, state, solver):
        return take_step(k), math.nan

    p = _newton_loop(instance, p, trace, measure, step, callback=callback, retreat=retreat,
                     eps=config.eps, max_iters=config.max_iters,
                     hessian_mode=config.hessian_mode, eps_k=config.eps_k)
    return p, trace


# ---------------------------------------------------------------------------
# the method table: what a method name runs


def default_hessian_mode(instance: MarketInstance) -> str:
    """The Hessian mode of a method given none: dense exact up to hes.DENSE_LIMIT
    goods for constrained or linear-barrier players, which DR1 cannot represent,
    else PCG; PCG up to it for CES and additive markets, else DR1."""
    if instance.constraints or instance.is_linear:
        return "exact" if instance.n <= hes.DENSE_LIMIT else "pcg"
    return "pcg" if instance.n <= hes.DENSE_LIMIT else "dr1"


def _uniform_prices(instance: MarketInstance) -> np.ndarray:
    return np.full(instance.n, instance.total_budget() / instance.n)


class _Method(NamedTuple):
    module: str  # the driver's, looked up per solve: baselines imports this module
    driver: str
    config: str  # the driver's config class, in the same module
    settings: dict  # every setting the driver reads, at `marketeq solve`'s defaults
    # its start from the market; None: the driver's own (LogBar's mu0 * 1, default bids)
    start: Callable | None = None
    fixed_mode: str | None = None  # the Hessian mode the name implies


_COMMON = dict(eps=1e-7, max_iters=2000)
_LOGBAR = dict(_COMMON, eps_k=1e-8, Q=0.25, sigma_override=0.5, mu_stop=False)
METHODS = {
    "logbar": _Method("ipm", "logbar_run", "LogBarConfig", dict(_LOGBAR, hessian_mode=None)),
    "logbar-pcg": _Method("ipm", "logbar_run", "LogBarConfig", _LOGBAR, fixed_mode="pcg"),
    "pathfol": _Method("ipm", "pathfol_run", "PathFolConfig",
                       dict(_COMMON, eps_k=1e-8, hessian_mode=None, beta=0.01, gamma_step=0.04,
                            c_phi=PRACTICAL_C_PHI), _uniform_prices),
    "tat": _Method("baselines", "tat_run", "BaselineConfig", dict(_COMMON, step=0.1),
                   _uniform_prices),
    "propres": _Method("baselines", "propres_run", "BaselineConfig", _COMMON),
}


def solve(instance: MarketInstance, method: str, *, hessian_mode: str | None = None,
          callback=None, **overrides):
    """Run METHODS[method]'s driver on instance from its start, its config at
    the row's settings under hessian_mode (default_hessian_mode if None) and
    overrides; returns (p, SolveTrace).  An unknown method, or a setting it
    does not read (any hessian_mode for logbar-pcg, tat and propres), raises
    ConfigError before any price query, as do the driver's own refusals."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    row = METHODS[method]
    if hessian_mode is not None:
        overrides["hessian_mode"] = hessian_mode
    unread = sorted(set(overrides) - set(row.settings))
    if unread:
        raise ConfigError(f"{method} does not read {', '.join(unread)}")
    settings = {**row.settings, **overrides}
    if row.fixed_mode or "hessian_mode" in settings:
        settings["hessian_mode"] = (row.fixed_mode or settings["hessian_mode"]
                                    or default_hessian_mode(instance))
    start = () if row.start is None else (row.start(instance),)
    module = importlib.import_module(f"{__package__}.{row.module}")
    return getattr(module, row.driver)(instance, getattr(module, row.config)(**settings), *start,
                                       callback=callback)


# ---------------------------------------------------------------------------
# equilibrium certificate


def equilibrium_certificate(instance: MarketInstance, p, eps: float | None = None) -> dict:
    """Residual report at p: gradient norms, clearing error, budgets, KKT.

    ``grad_inf`` and ``clearing_inf`` are the equilibrium evidence.  The
    budget and KKT residuals check the oracle's accuracy on the players whose
    demand an iterative solve produces (linear-barrier psi roots, constrained
    Newton).  Closed-form CES/additive demand spends its budget by
    construction (each share row is divided by its own sum): 0.0 for them.
    """
    p = np.asarray(p, dtype=float)
    state = market_state(instance, p)
    report = {
        "n": instance.n,
        "m": instance.m,
        "grad_inf": float(np.max(np.abs(state.grad))),
        "grad_l2": float(np.linalg.norm(state.grad)),
        "clearing_inf": float(np.max(np.abs(state.demand - 1.0))),
    }
    w = instance.budgets
    if instance.is_linear:
        X = state.linear_x
        report["budget_residual_max"] = float(np.max(np.abs(X @ p - w) / w))
        report["kkt_residual_max"] = linear_barrier_kkt_residual(p, instance.C.toarray(),
                                                                 instance.sigma, w, X)
        sigma = float(instance.sigma[0])
        report["sigma"] = sigma
        if eps is not None:
            bound = (eps + sigma * instance.n) / (1.0 + sigma * instance.n)
            report["remark1_bound"] = bound
            report["clearing_within_bound"] = bool(report["clearing_inf"] <= bound)
    else:
        resid = kkt = 0.0
        for grp, X in state.con_x:  # one product per group of stacked demand rows
            resid = max(resid, float(np.max(np.abs(X @ p - grp.w) / grp.w)))
            kkt = max(kkt, float(np.max(np.abs(grp.A @ X[..., None]), initial=0.0)))
        report.update(budget_residual_max=resid, kkt_residual_max=kkt)
    if eps is not None:
        report["eps"] = eps
        report["converged"] = bool(report["grad_inf"] <= eps)
    return report
