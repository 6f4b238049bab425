#!/usr/bin/env python3
"""marketeq solver benchmark: time to the equilibrium certificate and price queries.

    python3 bench/run.py --workload ces-large --seed 1 --seconds 20 --trace 0

Run from a checkout's root; the program is imported from its ``src``
directory, and the run fails without it.  A run sets up the workload's
markets several times, then solves them in whole rounds until ``--seconds``
have passed.  The first round is traced (it counts price queries); with
``--trace 0`` the rest are untraced and give the end-to-end metrics, with
``--trace 1`` traced and untraced rounds alternate and give the per-layer
metrics.  Every solve is checked apart from the program, outside the timed
region.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the spans of the last traced round go to
.bench_out/.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# one process, at most two BLAS threads; set before numpy is imported
_THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _THREADS

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402  (after the thread settings)

import checks  # noqa: E402
import marketeq as mq  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_totals, solve_self_time, write_spans  # noqa: E402

SETUP_REPS = 5  # at least; cheap set-ups repeat until SETUP_MIN_S has passed
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 200
OUT_DIR = Path(".bench_out")


@dataclass
class Outcome:
    status: str
    p: object
    iterations: int
    seconds: float
    extras: dict


@dataclass
class Round:
    traced: bool
    outcomes: list
    spans: list


def median_solve_s(rounds) -> float:
    """Sum over the solves of each solve's median time across the rounds."""
    per_solve = zip(*(r.outcomes for r in rounds))
    return sum(statistics.median(o.seconds for o in outs) for outs in per_solve)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup(builder, seed):
    """Build, validate and cache the workload's markets several times.

    Returns the last cells and per-rep (total, generate, validate) seconds.
    """
    times = []
    while len(times) < SETUP_REPS or (sum(t[0] for t in times) < SETUP_MIN_S
                                      and len(times) < SETUP_MAX_REPS):
        t0 = time.perf_counter()
        cells = builder(seed)
        t1 = time.perf_counter()
        problems = [f"{cell.label}: {msg}" for cell in cells for msg in mq.validate(cell.instance)]
        t2 = time.perf_counter()
        for cell in cells:
            workloads.fill_caches(cell.instance)
        t3 = time.perf_counter()
        if problems:
            raise SystemExit("invalid instance: " + "; ".join(problems))
        times.append((t3 - t0, t1 - t0, t2 - t1))
    return cells, times


def run_round(runners, tracer):
    outcomes = []
    with tracer.patched() if tracer is not None else contextlib.nullcontext():
        for sid, run in enumerate(runners):
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    tracer.solve_id = sid
                    p, trace = tracer.call("solve", run)
                else:
                    p, trace = run()
            except Exception as exc:  # a solve that raises counts as failed
                traceback.print_exc(file=sys.stderr)
                outcomes.append(Outcome(f"{type(exc).__name__}: {exc}", None, 0,
                                        time.perf_counter() - t0, {}))
                continue
            outcomes.append(Outcome(trace.status, p, trace.iterations(),
                                    time.perf_counter() - t0, trace.extras))
    return Round(tracer is not None, outcomes, tracer.spans if tracer else [])


def measure(runners, seconds, alternate):
    """Whole rounds until `seconds` pass; the first round is traced, and later
    ones alternate when `alternate` is set.  At least one untraced round."""
    rounds = []
    t_start = time.perf_counter()
    while True:
        n_traced = sum(r.traced for r in rounds)
        n_plain = len(rounds) - n_traced
        if n_plain and time.perf_counter() - t_start >= seconds:
            return rounds
        traced = n_traced == 0 or (alternate and n_traced <= n_plain)
        rounds.append(run_round(runners, Tracer() if traced else None))


def same_results(a, b) -> bool:
    return all(x.status == y.status and x.iterations == y.iterations
               and (x.p is None) == (y.p is None)
               and (x.p is None or np.array_equal(x.p, y.p))
               for x, y in zip(a.outcomes, b.outcomes))


def verify(solves, outcomes):
    """Certificate and independent checks per solve; returns (failed, errors)."""
    failed, errors = 0, []
    refs: dict = {}
    for solve, out in zip(solves, outcomes):
        cell = solve.cell
        cert = None
        if out.p is not None and out.status == "Converged":
            cert = mq.equilibrium_certificate(cell.instance, out.p, eps=cell.eps)
        ok = cert is not None and cert["converged"] and cert.get("clearing_within_bound", True)
        print(f"  {solve.label}: {out.status}, {out.iterations} iterations, "
              f"{out.seconds:.3f} s" + (f", grad_inf {cert['grad_inf']:.2e}" if cert else ""),
              file=sys.stderr)
        if not ok:
            failed += 1
            continue
        flow_x = None
        if cell.kind == "flow":
            flow_x = mq.market_state(cell.instance, out.p).con_responses
            flow_x = {i: resp.x for i, resp in flow_x.items()}
        p_ref = refs.get(id(cell)) if cell.kind == "ces" else None
        errors += [f"{solve.label}: {msg}"
                   for msg in checks.check_solution(cell, np.asarray(out.p), flow_x, p_ref)]
        refs.setdefault(id(cell), np.asarray(out.p))
    return failed, errors


def layer_metrics(traced_rounds, plain_rounds, setup_times):
    """Per-layer metrics: medians over the traced rounds."""
    names = ["oracle.constrained", "oracle.dual_hessian", "hessian.assemble", "hessian.dense",
             "hessian.pcg", "hessian.dr1", "hessian.diff_norm", "ipm.factor", "ipm.cho_solve",
             "ipm.polish"]
    per_round = []
    for rnd in traced_rounds:
        tot = layer_totals(rnd.spans)
        get = lambda name, key: tot.get(name, {}).get(key, 0)
        iters = sum(o.iterations for o in rnd.outcomes)
        queries = get("oracle", "calls")
        m = {"oracle.s": (get("oracle", "s"), "s"),
             "oracle.ms_per_query": (1e3 * get("oracle", "s") / max(queries, 1), "ms"),
             "oracle.queries_per_iter": (queries / max(iters, 1), "queries/iter")}
        for name in names:
            m[f"{name}.calls"] = (get(name, "calls"), "count")
            m[f"{name}.s"] = (get(name, "s"), "s")
        m["hessian.pcg.iters"] = (get("hessian.pcg", "iters"), "count")
        m["ipm.polish.nfev"] = (get("ipm.polish", "nfev"), "count")
        m["ipm.self_s"] = (solve_self_time(rnd.spans), "s")
        per_round.append(m)
    out = {key: {"value": statistics.median(m[key][0] for m in per_round),
                 "unit": per_round[0][key][1]} for key in per_round[0]}
    out["market.generate.s"] = {"value": statistics.median(t[1] for t in setup_times), "unit": "s"}
    out["market.validate.s"] = {"value": statistics.median(t[2] for t in setup_times), "unit": "s"}
    out["trace.overhead_s"] = {
        "value": median_solve_s(traced_rounds) - median_solve_s(plain_rounds), "unit": "s"}
    return out


def print_solve_layers(solves, rnd):
    """Per-solve layer totals of one traced round, for the README's reference figures."""
    for sid, solve in enumerate(solves):
        tot = layer_totals([s for s in rnd.spans if s[5] == sid and s[1] != "solve"])
        parts = ", ".join(f"{name} {rec['calls']}x {rec['s']:.3f}s"
                          + "".join(f" {k}={v}" for k, v in rec.items() if k not in ("calls", "s"))
                          for name, rec in sorted(tot.items()))
        switch = rnd.outcomes[sid].extras.get("mode_switch_k")
        print(f"  {solve.label}: {parts}" + (f"; mode_switch_k={switch}" if switch is not None
                                              else ""), file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(mq.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: marketeq was imported from {mq.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    cells, setup_times = setup(workloads.BUILDERS[args.workload], args.seed)
    solves = workloads.solves_of(cells)
    runners = [s.runner() for s in solves]
    rounds = measure(runners, args.seconds, args.trace == 1)
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]

    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds "
          f"({len(traced)} traced) of {len(solves)} solves", file=sys.stderr)
    for rnd in rounds:
        print(f"  {'traced' if rnd.traced else 'plain '} round, seconds per solve: "
              + " ".join(f"{o.seconds:.3f}" for o in rnd.outcomes), file=sys.stderr)
    failed, errors = verify(solves, plain[0].outcomes)
    errors += [f"round {k} differs from the first untraced round"
               for k, rnd in enumerate(rounds) if not same_results(rnd, plain[0])]
    for msg in errors:
        print("CHECK FAILED: " + msg, file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    write_spans(traced[-1].spans,
                OUT_DIR / f"spans-{args.workload}-seed{args.seed}-trace{args.trace}.jsonl")

    if args.trace == 1:
        print_solve_layers(solves, traced[-1])
        metrics = layer_metrics(traced, plain, setup_times)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(t[0] for t in setup_times), "unit": "s"},
            "solve_s": {"value": median_solve_s(plain), "unit": "s"},
            "iterations": {"value": sum(o.iterations for o in plain[0].outcomes), "unit": "count"},
            "price_queries": {"value": layer_totals(traced[0].spans)
                              .get("oracle", {}).get("calls", 0), "unit": "count"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": not errors, "attempted": len(rounds) * len(solves),
                      "failed": len(rounds) * failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
