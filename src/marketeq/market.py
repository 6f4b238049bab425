"""Market instances: domain types, validation, generation, and ingestion.

A market has ``n`` divisible goods in unit supply and ``m`` players with
fixed budgets.  Each player carries a utility specification over the goods;
three families are supported:

* ``ces``            -- u(x) = (sum_j c_j x_j^rho)^(1/rho), rho in (-inf,0)u(0,1)
* ``additive``       -- u(x) = (sum_j c_j x_j^r)^k with (k, r) restricted so
                        that u is concave and the degree d = k*r is positive
* ``linear_barrier`` -- log-utility log<c,x> regularized by sigma*sum_j log x_j
                        (the smoothed stand-in for a linear utility)

Instances serialize to a JSON document::

    {"n": ..., "m": ..., "budgets": [...],
     "utilities": [{"kind": "ces", "param": 0.5, "entries": [[j, c], ...]},
                   {"kind": "additive", "param": {"k": 2.0, "r": 0.4}, ...},
                   {"kind": "linear_barrier", "param": 1e-4, ...}],
     "constraints": {"3": [[...], ...]}}          # optional, player -> rows

Ratings files are CSV with a header row and columns (user_id, item_id,
rating); extra columns are ignored.  Flow-network files list directed edges
as ``u v`` lines, then a line ``terminals:`` followed by ``s t`` pairs, one
per player.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

CES = "ces"
ADDITIVE = "additive"
LINEAR_BARRIER = "linear_barrier"

_KINDS = (CES, ADDITIVE, LINEAR_BARRIER)


class IngestError(ValueError):
    """Raised when a ratings file cannot be ingested; carries line numbers."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class DisconnectedTerminalsError(ValueError):
    """Raised when a flow player's terminal pair has no directed path."""


@dataclass
class UtilitySpec:
    """Per-player utility parameters with a sparse coefficient vector."""

    kind: str
    idx: np.ndarray  # good indices with nonzero coefficient, sorted
    val: np.ndarray  # matching coefficient values
    rho: float | None = None  # ces
    k: float | None = None  # additive
    r: float | None = None  # additive
    sigma: float | None = None  # linear_barrier

    def __post_init__(self):
        self.idx = np.asarray(self.idx, dtype=np.int64)
        self.val = np.asarray(self.val, dtype=float)
        order = np.argsort(self.idx)
        self.idx = self.idx[order]
        self.val = self.val[order]

    def dense(self, n: int) -> np.ndarray:
        c = np.zeros(n)
        c[self.idx] = self.val
        return c

    def param_json(self):
        if self.kind == CES:
            return self.rho
        if self.kind == ADDITIVE:
            return {"k": self.k, "r": self.r}
        return self.sigma


def ces_spec(c, rho: float) -> UtilitySpec:
    c = np.asarray(c, dtype=float)
    idx = np.flatnonzero(c)
    return UtilitySpec(CES, idx, c[idx], rho=float(rho))


def _exponents(u: UtilitySpec) -> tuple[float, float, float]:
    """(r, k, sigma) of one player; NaN where its kind has none or it is invalid."""
    nan = float("nan")
    finite = lambda *vals: None not in vals and all(map(math.isfinite, vals))
    if u.kind == CES and u.rho and finite(u.rho):
        return u.rho, 1.0 / u.rho, nan
    if u.kind == ADDITIVE and finite(u.k, u.r):
        return u.r, u.k, nan
    if u.kind == LINEAR_BARRIER and finite(u.sigma):
        return nan, nan, u.sigma
    return nan, nan, nan


def _coefficients(specs, n: int) -> tuple[sp.csr_matrix, np.ndarray]:
    """(C, cols): the specs' coefficients as CSR rows, and C's column index as intp.

    Nothing is checked here; a negative n gives C no columns.
    """
    indptr = np.zeros(len(specs) + 1, dtype=np.int64)
    np.cumsum([len(u.idx) for u in specs], out=indptr[1:])
    cols = np.concatenate([np.zeros(0, np.intp)] + [u.idx for u in specs], dtype=np.intp)
    data = np.concatenate([np.zeros(0)] + [u.val for u in specs])
    return sp.csr_matrix((data, cols, indptr), shape=(len(specs), max(n, 0))), cols


class ConGroup(NamedTuple):
    """Constrained players sharing one constraint-row count, as stacked arrays.

    Row g of every array belongs to player ``players[g]``: ``C`` (G, n) the
    dense coefficient rows, ``k``, ``r``, ``w`` (G,) the exponents and
    budgets, ``A`` (G, rows, n) the constraint matrices.
    """

    players: np.ndarray
    C: np.ndarray
    k: np.ndarray
    r: np.ndarray
    w: np.ndarray
    A: np.ndarray


class ShareFactors(NamedTuple):
    """The price-independent factor of the unconstrained players' CES shares.

    A CES or additive player's dual share theta_ij = exp(a_i log c_ij +
    b_i log p_j), a = 1/(1-r), b = -r a, factors as c_ij^a_i * p_j^b_i.
    Built when every unconstrained row has the same exponent r, so one ``b``
    serves them all.  ``Ca`` is the CSR of exp(a log c_ij - rmax_i), the
    row-normalized c^a, on ``MarketInstance.uncon_C``'s index arrays (not
    copies), and ``rmax`` the row maximum of a log c_ij.
    """

    Ca: sp.csr_matrix
    rmax: np.ndarray
    b: float


class MarketInstance:
    """A Fisher market: n goods (unit supply), m budgeted players.

    The constructor builds, from the ``utilities`` specs (the input record
    that JSON writes), the arrays the solvers read: the CSR coefficients
    ``C``, its column index ``cols`` as intp (gathers such as ``p[cols]``
    skip the cast of C's int32 indices), the same for the unconstrained
    players' rows, ``uncon_C`` and ``uncon_cols`` (``C`` and ``cols``
    themselves without constraints), and the per-player columns ``r`` and
    ``k`` (rho and 1/rho for CES, r and k for additive players), ``sigma``
    (linear-barrier players) and ``degree`` (k*r, or 1 + sigma*n for
    linear-barrier players), NaN where a player's kind has no such value.
    ``con``/``uncon`` index the players with and without a constraint
    matrix; ``kinds`` and ``is_linear`` summarize the players' kinds.  It
    rejects nothing: ``validate`` reports bad input.
    """

    def __init__(self, n, m, budgets, utilities, constraints=None):
        self.n = int(n)
        self.m = int(m)
        self.budgets = np.asarray(budgets, dtype=float)
        self.utilities = list(utilities)
        # player index -> homogeneous constraint matrix A_i (rows x n)
        self.constraints: dict[int, np.ndarray] = {
            int(i): np.asarray(A, dtype=float) for i, A in (constraints or {}).items()
        }
        self.kinds = {u.kind for u in self.utilities}
        self.is_linear = self.kinds == {LINEAR_BARRIER}
        exponents = np.array([_exponents(u) for u in self.utilities], dtype=float).reshape(-1, 3)
        self.r, self.k, self.sigma = exponents.T.copy()
        self.degree = np.where(np.isnan(self.sigma), self.k * self.r, 1.0 + self.sigma * self.n)
        self.con = np.array(sorted(self.constraints), dtype=np.int64)
        self.uncon = np.setdiff1d(np.arange(len(self.utilities)), self.con)
        self.C, self.cols = _coefficients(self.utilities, self.n)
        self.uncon_C, self.uncon_cols = self.C, self.cols
        if self.constraints:
            self.uncon_C = self.C[self.uncon]
            self.uncon_cols = self.uncon_C.indices.astype(np.intp)
        self._share_factors = None
        self._con_groups = None

    # -- derived views -----------------------------------------------------

    def coeff_csr(self) -> sp.csr_matrix:
        return self.C

    def log_coeff_data(self) -> np.ndarray:
        """log c of every stored coefficient, aligned with ``C.data``."""
        return np.log(self.C.data)

    def nnz_row_index(self) -> np.ndarray:
        """Row (player) index of every stored coefficient, aligned with ``C.data``."""
        return np.repeat(np.arange(self.C.shape[0], dtype=np.int64), np.diff(self.C.indptr))

    def share_factors(self) -> ShareFactors | np.ndarray:
        """The price-independent half of the unconstrained rows' shares, built on first use.

        Their ShareFactors when those rows share one exponent r; otherwise
        log c, aligned with ``uncon_C.data``.  Meaningful for CES and
        additive players only; ``oracle.bid_shares`` is its one reader.
        """
        if self._share_factors is None:
            C = self.uncon_C
            logc = np.log(C.data)
            r = self.r[self.uncon]
            self._share_factors = logc  # rows with different exponents
            if np.all(r == r[0]):
                a = 1.0 / (1.0 - r[0])
                logc *= a
                rmax = np.maximum.reduceat(logc, C.indptr[:-1])
                logc -= np.repeat(rmax, np.diff(C.indptr))
                Ca = sp.csr_matrix((np.exp(logc, out=logc), C.indices, C.indptr), shape=C.shape)
                self._share_factors = ShareFactors(Ca, rmax, float(-r[0] * a))
        return self._share_factors

    def con_groups(self) -> list[ConGroup]:
        """The constrained players grouped by constraint-row count, built once.

        Groups come in increasing row count, players in increasing index.
        """
        if self._con_groups is None:
            counts = np.array([self.constraints[i].shape[0] for i in self.con.tolist()], dtype=int)
            self._con_groups = []
            for count in np.unique(counts).tolist():
                idx = self.con[counts == count]
                A = np.stack([self.constraints[i].reshape(count, self.n) for i in idx.tolist()])
                self._con_groups.append(ConGroup(idx, self.C[idx].toarray(), self.k[idx],
                                                 self.r[idx], self.budgets[idx], A))
        return self._con_groups

    def total_budget(self) -> float:
        return float(self.budgets.sum())

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        doc = {
            "n": self.n,
            "m": self.m,
            "budgets": self.budgets.tolist(),
            "utilities": [
                {
                    "kind": u.kind,
                    "param": u.param_json(),
                    "entries": [[int(j), float(v)] for j, v in zip(u.idx, u.val)],
                }
                for u in self.utilities
            ],
        }
        if self.constraints:
            doc["constraints"] = {str(i): A.tolist() for i, A in self.constraints.items()}
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MarketInstance":
        utilities = []
        for rec in doc["utilities"]:
            kind = rec["kind"]
            entries = rec["entries"]
            idx = [e[0] for e in entries]
            if not all(type(j) is int for j in idx):  # 1.9, true and "1" are not good 1
                raise ValueError(f"coefficient indices must be integers, got {idx!r}")
            val = [e[1] for e in entries]
            param = rec["param"]
            if kind == CES:
                utilities.append(UtilitySpec(CES, idx, val, rho=float(param)))
            elif kind == ADDITIVE:
                utilities.append(UtilitySpec(ADDITIVE, idx, val, k=float(param["k"]), r=float(param["r"])))
            elif kind == LINEAR_BARRIER:
                utilities.append(UtilitySpec(LINEAR_BARRIER, idx, val, sigma=float(param)))
            else:
                raise ValueError(f"unknown utility kind {kind!r}")
        if not all(type(doc[key]) is int for key in ("n", "m")):  # no truncation, no coercion
            raise ValueError(f"n and m must be integers, got {doc['n']!r} and {doc['m']!r}")
        constraints = doc.get("constraints")
        return cls(doc["n"], doc["m"], doc["budgets"], utilities, constraints)


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_instance(instance: MarketInstance, path: str) -> None:
    atomic_write_text(path, json.dumps(instance.to_json_dict(), sort_keys=True))


def load_instance(path: str) -> MarketInstance:
    with open(path, encoding="utf-8") as fh:
        return MarketInstance.from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# validation


def _validate_spec(i: int, u: UtilitySpec, report: list[str]) -> bool:
    """Report player i's kind and exponent problems; False for an unknown kind."""
    if u.kind not in _KINDS:
        report.append(f"player {i}: unknown utility kind {u.kind!r}")
        return False
    if u.kind == CES:
        if u.rho is None or u.rho == 0.0:
            report.append(f"player {i}: rho must be nonzero")
        elif not (np.isfinite(u.rho) and u.rho < 1.0):
            report.append(f"player {i}: rho must lie in (-inf,0) or (0,1)")
    elif u.kind == ADDITIVE:
        k, r = u.k, u.r
        if k is None or r is None:
            report.append(f"player {i}: additive players need both k and r")
        elif not ((0.0 < r < 1.0 and 0.0 < k <= 1.0 / r) or (r < 0.0 and 1.0 / r <= k < 0.0)):
            report.append(
                f"player {i}: additive parameters (k={k}, r={r}) violate the "
                "concavity window r in (0,1), k in (0,1/r] or r<0, k in [1/r,0)"
            )
    else:
        if u.sigma is None or not (0.0 < u.sigma < np.inf):
            report.append(f"player {i}: sigma must be positive and finite")
    return True


def _coefficient_problems(instance: MarketInstance) -> dict[int, list[str]]:
    """Player -> the problems of its row of C, in report order (players without any absent)."""
    C, cols = instance.C, instance.cols
    m = C.shape[0]
    rows = instance.nnz_row_index()
    full = np.diff(C.indptr) > 0
    starts = C.indptr[:-1][full]  # reduceat over the nonempty rows only
    lo, hi = np.zeros(m), np.zeros(m)
    lo[full], hi[full] = np.minimum.reduceat(C.data, starts), np.maximum.reduceat(C.data, starts)
    finite = full & (-np.inf < lo) & (hi < np.inf)  # NaN fails both
    # a row's indices are sorted, so a repeated good sits next to its twin
    twin = (cols[1:] == cols[:-1]) & (rows[1:] == rows[:-1])
    checks = [
        (~full, "needs at least one positive coefficient"),
        (full & ~finite, "coefficients must be finite"),
        (finite & (lo < 0), "coefficients must be nonnegative"),
        (finite & ~(hi > 0), "needs at least one positive coefficient"),
        (np.bincount(rows[(cols < 0) | (cols >= instance.n)], minlength=m) > 0,
         "coefficient index out of range"),
        (np.bincount(rows[1:][twin], minlength=m) > 0, "duplicate coefficient index"),
    ]
    problems: dict[int, list[str]] = {}
    for bad, message in checks:
        for i in np.flatnonzero(bad).tolist():
            problems.setdefault(i, []).append(f"player {i}: {message}")
    return problems


def validate(instance: MarketInstance) -> list[str]:
    """Return a list of invariant violations; empty means the instance is valid."""
    report: list[str] = []
    if instance.n < 1 or instance.m < 1:
        report.append("n and m must be at least 1")
        return report
    if len(instance.budgets) != instance.m:
        report.append("budgets length must equal m")
    elif not np.all((instance.budgets > 0) & (instance.budgets < np.inf)):
        report.append("all budgets must be positive and finite")
    if len(instance.utilities) != instance.m:
        report.append("utilities length must equal m")
        return report
    problems = _coefficient_problems(instance)
    for i, u in enumerate(instance.utilities):
        if _validate_spec(i, u, report):
            report.extend(problems.get(i, ()))

    kinds = instance.kinds
    if LINEAR_BARRIER in kinds and kinds != {LINEAR_BARRIER}:
        report.append("linear_barrier players cannot be mixed with other kinds")
    elif instance.is_linear and np.any(instance.sigma != instance.sigma[0]):
        # the gradient, the sigma continuation and the certificate take one sigma
        report.append("linear_barrier players must share one sigma")

    C, cols = instance.C, instance.cols
    valued = np.zeros(instance.n, dtype=bool)
    # a negative index is reported above and must not wrap
    valued[cols[(C.data > 0) & (cols >= 0) & (cols < instance.n)]] = True
    unvalued = np.flatnonzero(~valued)
    if unvalued.size:
        report.append(f"goods valued by no player: {unvalued.tolist()}")

    for i, A in instance.constraints.items():
        if i < 0 or i >= instance.m:
            report.append(f"constraint for unknown player {i}")
            continue
        if instance.utilities[i].kind not in (CES, ADDITIVE):  # market_state would ignore A
            report.append(f"player {i}: constraints apply to CES and additive players only")
        if A.ndim != 2 or A.shape[1] != instance.n:
            report.append(f"player {i}: constraint matrix must have n columns")
            continue
        if not np.all(np.isfinite(A)):  # matrix_rank's SVD would not converge
            report.append(f"player {i}: constraint matrix entries must be finite")
        elif A.shape[0] and np.linalg.matrix_rank(A) < A.shape[0]:
            report.append(f"player {i}: constraint matrix is not full row rank")
        row = C.data[C.indptr[i]:C.indptr[i + 1]]
        if row.size != instance.n or not np.all(row > 0):
            report.append(
                f"player {i}: constrained players need strictly positive "
                "coefficients on every good (interior solutions)"
            )
    return report


# ---------------------------------------------------------------------------
# synthetic generation


def generate_random(
    n: int,
    m: int,
    tau: float,
    delta: float = 1.0,
    rho: float = 0.5,
    seed: int = 0,
    kind: str = CES,
    sigma: float | None = None,
) -> MarketInstance:
    """Sparse random instance: c = delta * sprand(m, n, tau), budgets on the simplex.

    Any all-zero player row or unvalued good column is repaired by inserting a
    single uniform entry, so every generated instance passes :func:`validate`.
    ``kind`` extends the protocol to linear-barrier markets (same coefficient
    pattern, sigma attached to every player).
    """
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must lie in (0, 1]")
    if not (delta > 0):
        raise ValueError("delta must be positive")
    if kind not in (CES, LINEAR_BARRIER):
        raise ValueError(f"kind must be {CES!r} or {LINEAR_BARRIER!r}, not {kind!r}")
    if kind == CES and not (rho < 1.0 and rho != 0.0):
        raise ValueError("rho must lie in (-inf,0) or (0,1)")
    if kind == LINEAR_BARRIER and not (sigma and sigma > 0):
        raise ValueError("linear_barrier generation needs sigma > 0")
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")

    rng = np.random.default_rng(seed)
    cols_per_row: list[np.ndarray] = []
    for _ in range(m):
        nz = rng.binomial(n, tau)
        cols_per_row.append(np.sort(rng.choice(n, size=nz, replace=False)))

    # repair empty rows, then unvalued columns, then re-check
    for i in range(m):
        if cols_per_row[i].size == 0:
            cols_per_row[i] = np.array([rng.integers(n)])
    while True:
        valued = np.zeros(n, dtype=bool)
        for cols in cols_per_row:
            valued[cols] = True
        missing = np.flatnonzero(~valued)
        if missing.size == 0:
            break
        for j in missing:
            i = int(rng.integers(m))
            cols_per_row[i] = np.unique(np.append(cols_per_row[i], j))

    utilities = []
    for i in range(m):
        cols = cols_per_row[i]
        vals = (1.0 - rng.random(cols.size)) * delta  # uniform on (0, delta]
        if kind == CES:
            utilities.append(UtilitySpec(CES, cols, vals, rho=float(rho)))
        else:
            utilities.append(UtilitySpec(LINEAR_BARRIER, cols, vals, sigma=float(sigma)))

    w = rng.random(m)
    while np.any(w == 0):
        w[w == 0] = rng.random(int(np.sum(w == 0)))
    w = w / w.sum()
    return MarketInstance(n, m, w, utilities)


# ---------------------------------------------------------------------------
# ratings ingestion


def ingest_ratings(
    path: str,
    max_users: int | None = None,
    max_items: int | None = None,
    rho: float = 0.5,
    scale: str = "raw",
) -> tuple[MarketInstance, dict]:
    """Build a CES instance from a ratings CSV (user_id, item_id, rating).

    Users map to players and items to goods in first-appearance order; users
    or items beyond the limits are dropped, as are players/goods left without
    any rating.  Duplicate (user, item) pairs keep the last occurrence.
    Budgets are uniform and normalized to sum to one.  ``scale`` maps ratings
    to coefficients: "raw" uses the value as-is, "unit" divides by the
    largest rating seen.  Returns the instance and the mapping tables
    ``{"users": [...], "items": [...]}``.
    """
    if scale not in ("raw", "unit"):
        raise ValueError(f"unknown rating scale {scale!r}")
    errors: list[str] = []
    user_order: dict[str, int] = {}
    item_order: dict[str, int] = {}
    ratings: dict[tuple[int, int], float] = {}

    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            next(reader)
        except StopIteration:
            raise IngestError(["file is empty (missing header row)"]) from None
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 3:
                errors.append(f"line {lineno}: expected at least 3 columns, got {len(row)}")
                continue
            user, item, rating_str = row[0].strip(), row[1].strip(), row[2].strip()
            if not user or not item:
                errors.append(f"line {lineno}: empty user or item id")
                continue
            try:
                rating = float(rating_str)
            except ValueError:
                errors.append(f"line {lineno}: rating {rating_str!r} is not a number")
                continue
            if not np.isfinite(rating) or rating < 0:
                errors.append(f"line {lineno}: rating must be finite and nonnegative")
                continue
            if user not in user_order:
                if max_users is not None and len(user_order) >= max_users:
                    continue
                user_order[user] = len(user_order)
            if item not in item_order:
                if max_items is not None and len(item_order) >= max_items:
                    continue
                item_order[item] = len(item_order)
            ratings[(user_order[user], item_order[item])] = rating

    if errors:
        raise IngestError(errors)
    if not ratings:
        raise IngestError(["no usable ratings found"])

    users = sorted(user_order, key=user_order.get)
    items = sorted(item_order, key=item_order.get)

    # drop zero ratings, then goods/players left without support
    per_user: dict[int, dict[int, float]] = {}
    for (ui, ii), val in ratings.items():
        if val > 0:
            per_user.setdefault(ui, {})[ii] = val

    rated_items = sorted({ii for d in per_user.values() for ii in d})
    item_remap = {old: new for new, old in enumerate(rated_items)}
    kept_users = sorted(ui for ui, d in per_user.items() if d)
    if not kept_users or not rated_items:
        raise IngestError(["no usable ratings found"])

    divisor = max(v for d in per_user.values() for v in d.values()) if scale == "unit" else 1.0
    utilities = []
    for ui in kept_users:
        d = per_user[ui]
        cols = np.array([item_remap[ii] for ii in sorted(d)], dtype=np.int64)
        vals = np.array([d[ii] / divisor for ii in sorted(d)])
        utilities.append(UtilitySpec(CES, cols, vals, rho=float(rho)))

    m = len(kept_users)
    n = len(rated_items)
    w = np.full(m, 1.0 / m)
    mappings = {
        "users": [users[ui] for ui in kept_users],
        "items": [items[ii] for ii in rated_items],
    }
    return MarketInstance(n, m, w, utilities), mappings


# ---------------------------------------------------------------------------
# flow-network instances


def flow_constraint_rows(edges, nodes, s, t) -> np.ndarray:
    """Raw balance rows over variables [x_0; x_e, e in edges] for one player.

    Three groups: source balance ``x_0 + inflow(s) - outflow(s) = 0`` (x_0
    enters s like a return edge), sink balance ``-x_0 + inflow(t) -
    outflow(t) = 0``, and conservation ``outflow(v) - inflow(v) = 0`` at
    every other node of ``nodes``, which lists every edge's ends.  The
    incidence structure makes the rows linearly dependent (rank is at most
    #nodes - 1), so callers reduce the system before storing it.
    """
    order = [s, t] + [v for v in nodes if v not in (s, t)]
    at = {v: k for k, v in enumerate(order)}
    sign = np.where(np.arange(len(order)) < 2, 1.0, -1.0)  # inflow sign of each row
    rows = np.zeros((len(order), 1 + len(edges)))
    rows[:2, 0] = 1.0, -1.0
    for e, (u, v) in enumerate(edges, start=1):
        rows[at[u], e] -= sign[at[u]]  # outflow
        rows[at[v], e] += sign[at[v]]  # inflow
    return rows


def _independent_rows(A: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """The rows of A independent of the rows kept before them, in order.

    In a QR of A^T, |R_ii| is row i's distance from the span of the rows
    before it while those are independent: the first row with |R_ii| <= tol
    is dropped and the rest factored again.
    """
    keep = np.arange(A.shape[0])
    while True:
        d = np.abs(np.diagonal(np.linalg.qr(A[keep].T, mode="r")))
        small = np.flatnonzero(d <= tol)
        if not small.size:
            return A[keep[:d.size]]  # past n rows, the first n span the rest
        keep = np.delete(keep, small[0])
        if small[0] == keep.size:  # it was the last row
            return A[keep]


def _has_path(edges, s, t) -> bool:
    adj: dict = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    seen = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        if u == t:
            return True
        for v in adj.get(u, []):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return False


def build_flow_instance(edges, terminals, rho: float = 0.5, coefficients=None) -> MarketInstance:
    """Market over a flow network: goods are [flow value x_0; edge capacities].

    Each player routes an s_i -> t_i flow; the homogeneous balance equations
    become that player's constraint matrix (reduced to full row rank).
    Coefficients default to all ones so the constrained best response stays
    interior.
    """
    edges = [tuple(e) for e in edges]
    nodes = sorted({u for u, _ in edges} | {v for _, v in edges}, key=str)
    n = 1 + len(edges)
    m = len(terminals)
    if m < 1:
        raise ValueError("need at least one terminal pair")
    utilities = []
    constraints = {}
    for i, (s, t) in enumerate(terminals):
        if s == t:
            raise ValueError(f"player {i}: source equals sink")
        if s not in nodes or t not in nodes:
            raise DisconnectedTerminalsError(f"player {i}: terminal not in graph")
        if not _has_path(edges, s, t):
            raise DisconnectedTerminalsError(f"player {i}: no directed {s}->{t} path")
        raw = flow_constraint_rows(edges, nodes, s, t)
        constraints[i] = _independent_rows(raw)
        c = np.ones(n) if coefficients is None else np.asarray(coefficients, dtype=float)
        utilities.append(ces_spec(c, rho))
    w = np.full(m, 1.0 / m)
    return MarketInstance(n, m, w, utilities, constraints)


def with_barrier_sigma(instance: MarketInstance, sigma: float) -> MarketInstance:
    """Clone a linear-barrier instance with every player's sigma replaced.

    The clone shares the parent's coefficient arrays; only the specs' sigma
    and the sigma/degree columns are new.  A sigma that is not positive and
    finite raises ValueError.
    """
    if not (0.0 < sigma < math.inf):
        raise ValueError("sigma must be positive")
    clone = copy.copy(instance)
    clone.utilities = [copy.copy(u) for u in instance.utilities]
    for u in clone.utilities:
        u.sigma = float(sigma)
    clone.sigma = np.full(instance.m, float(sigma))
    clone.degree = 1.0 + clone.sigma * instance.n
    return clone


def parse_flow_file(path: str):
    """Read edge lines ("u v") and terminal pairs after a "terminals:" marker."""
    edges = []
    terminals = []
    section = "edges"
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.lower().startswith("terminals"):
                section = "terminals"
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"malformed line in flow file: {raw!r}")
            if section == "edges":
                edges.append((parts[0], parts[1]))
            else:
                terminals.append((parts[0], parts[1]))
    return edges, terminals
