"""In-memory spans around marketeq's public functions.

Each function is patched where it is looked up: ``ipm``, ``hessian`` and
``baselines`` bind ``market_state`` by name, and ``ipm`` reaches
``scipy.linalg`` and ``scipy.optimize`` through their module attributes.
The patches exist only inside ``Tracer.patched()``, so untraced rounds run
the program unchanged.
"""

from __future__ import annotations

import contextlib
import json
import time

import scipy.linalg
import scipy.optimize

from marketeq import baselines, hessian, ipm, oracle


def _pcg_iters(result):
    return {"iters": int(result[1])}


def _nfev(result):
    return {"nfev": int(result.nfev)}


# (owner, attribute, span name, counts taken from the result)
TARGETS = [
    (oracle, "market_state", "oracle", None),
    (ipm, "market_state", "oracle", None),
    (hessian, "market_state", "oracle", None),
    (baselines, "market_state", "oracle", None),
    (oracle, "constrained_best_response", "oracle.constrained", None),
    (hessian, "constrained_dual_hessian", "oracle.dual_hessian", None),
    (hessian, "assemble_from_state", "hessian.assemble", None),
    (hessian.ScaledHessianOp, "dense", "hessian.dense", None),
    (hessian, "pcg_solve", "hessian.pcg", _pcg_iters),
    (hessian, "dr1_solve", "hessian.dr1", None),
    (hessian, "diff_norm_estimate", "hessian.diff_norm", None),
    (scipy.linalg, "cho_factor", "ipm.factor", None),
    (scipy.linalg, "cho_solve", "ipm.cho_solve", None),
    (scipy.optimize, "root", "ipm.polish", _nfev),
]


class Tracer:
    """Spans as tuples (id, name, start, end, parent id, solve id, counts)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.solve_id: int | None = None

    def call(self, name, fn, *args, extract=None, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        extra = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if extract is not None:
                extra = extract(result)
            return result
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.solve_id, extra))

    def _wrap(self, name, fn, extract):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, extract=extract, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
        try:
            for (owner, attr, name, extract), (_, _, fn) in zip(TARGETS, saved):
                setattr(owner, attr, self._wrap(name, fn, extract))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)


def write_spans(spans, path) -> None:
    """One JSON object per span and line."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid, name, t0, t1, parent, solve, extra in spans:
            fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                 "parent": parent, "solve": solve, **(extra or {})}) + "\n")


def layer_totals(spans) -> dict:
    """Per span name: call count, inclusive seconds and summed counts."""
    out: dict = {}
    for _, name, t0, t1, _, _, extra in spans:
        rec = out.setdefault(name, {"calls": 0, "s": 0.0})
        rec["calls"] += 1
        rec["s"] += t1 - t0
        for key, val in (extra or {}).items():
            rec[key] = rec.get(key, 0) + val
    return out


def solve_self_time(spans) -> float:
    """Time inside "solve" spans that none of their direct children cover."""
    by_id = {s[0]: s for s in spans}
    total = sum(s[3] - s[2] for s in spans if s[1] == "solve")
    covered = sum(s[3] - s[2] for s in spans
                  if s[4] is not None and by_id[s[4]][1] == "solve")
    return total - covered
