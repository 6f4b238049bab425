"""Command-line front door: gen, ingest, flow-gen, solve, bench.

Exit codes for solve: 0 converged, 1 iteration budget exhausted,
2 numerical failure, 3 configuration or input error.  All outputs are
written to a temp file first and renamed into place.  A --method name and
its solver defaults are a row of ipm.METHODS, run by ipm.solve; a solver
flag that the method does not read is dropped.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import ipm, market, oracle
from .ipm import STATUS_CONVERGED, STATUS_MAXITERS


def _write_json(path: str, doc: dict) -> None:
    # strict JSON (RFC 8259): a non-finite float raises ValueError instead of writing Infinity
    market.atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False))


def _flag_values(doc: dict) -> dict:
    """Command-line values for _write_json: strict JSON has no NaN or
    infinity, so a non-finite float flag (say --time-limit-s inf) is null."""
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in doc.items()}


def _write_prices(path: str, p: np.ndarray) -> None:
    market.atomic_write_text(path, "\n".join(f"{v:.17g}" for v in p) + "\n")


def read_prices(path: str) -> np.ndarray:
    return np.loadtxt(path, ndmin=1)


def _settings(method: str, args, **fixed) -> dict:
    """ipm.solve's settings for method: its row's, under the solver flags given
    that it reads (--hessian is dropped for tat), under ``fixed``."""
    table = ipm.METHODS[method].settings if method in ipm.METHODS else {}
    given = {k: v for k, v in vars(args).items() if k in table and v is not None}
    return {**table, **given, **fixed}


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    kind = market.LINEAR_BARRIER if args.kind == "linear" else market.CES
    try:
        inst = market.generate_random(
            args.n, args.m, args.tau, delta=args.delta, rho=args.rho,
            seed=args.seed, kind=kind, sigma=args.sigma_barrier,
        )
    except ValueError as exc:
        print(f"gen error: {exc}", file=sys.stderr)
        return 3
    violations = market.validate(inst)
    if violations:
        print("generated instance failed validation:", violations, file=sys.stderr)
        return 3
    market.save_instance(inst, args.out)
    _write_json(args.out + ".provenance.json", _flag_values({
        "seed": args.seed, "n": args.n, "m": args.m, "tau": args.tau,
        "delta": args.delta, "rho": args.rho, "kind": args.kind,
        "sigma_barrier": args.sigma_barrier,
    }))
    print(f"wrote {args.out} (n={inst.n}, m={inst.m})")
    return 0


def cmd_ingest(args) -> int:
    try:
        inst, mappings = market.ingest_ratings(
            args.ratings, max_users=args.max_users, max_items=args.max_items,
            rho=args.rho, scale=args.rating_scale)
    except market.IngestError as exc:
        for msg in exc.messages:
            print(f"ingest error: {msg}", file=sys.stderr)
        return 3
    market.save_instance(inst, args.out)
    _write_json(args.out + ".mappings.json", mappings)
    print(f"wrote {args.out} (n={inst.n}, m={inst.m})")
    return 0


def cmd_flow_gen(args) -> int:
    try:
        edges, terminals = market.parse_flow_file(args.graph)
        inst = market.build_flow_instance(edges, terminals, rho=args.rho)
    except (ValueError, market.DisconnectedTerminalsError) as exc:
        print(f"flow-gen error: {exc}", file=sys.stderr)
        return 3
    market.save_instance(inst, args.out)
    print(f"wrote {args.out} (n={inst.n}, m={inst.m}, players={len(terminals)})")
    return 0


def cmd_solve(args) -> int:
    try:
        try:
            instance = market.load_instance(args.instance)
        except (KeyError, TypeError, IndexError, ValueError) as exc:  # JSONDecodeError included
            print(f"malformed instance file: {exc}", file=sys.stderr)
            return 3
        violations = market.validate(instance)
        if not violations and args.sigma_barrier is not None:
            if not instance.is_linear:
                print("--sigma-barrier applies to linear markets only", file=sys.stderr)
                return 3
            # with_barrier_sigma refuses sigma <= 0 and nan with a ValueError
            instance = market.with_barrier_sigma(instance, args.sigma_barrier)
        if violations:
            print("invalid instance:", violations, file=sys.stderr)
            return 3
        settings = _settings(args.method, args)
        p, trace = ipm.solve(instance, args.method, **settings)
    except (ipm.ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    os.makedirs(args.out, exist_ok=True)
    trace.to_csv(os.path.join(args.out, "trace.csv"))
    _write_prices(os.path.join(args.out, "prices.txt"), p)
    try:
        cert = ipm.equilibrium_certificate(instance, p, eps=settings["eps"])
    except oracle.OracleError as exc:
        cert = {"error": str(exc), "grad_inf": None}
    cert.update(method=args.method, status=trace.status, iterations=trace.iterations())
    if "error" in trace.extras:  # the run's own reason; "error" is the certificate query's
        cert["run_error"] = trace.extras["error"]
        print(f"{args.method}: {trace.extras['error']}", file=sys.stderr)
    _write_json(os.path.join(args.out, "certificate.json"), cert)
    grad_inf = "n/a" if cert["grad_inf"] is None else f"{cert['grad_inf']:.3e}"
    print(f"{args.method}: {trace.status} after {trace.iterations()} iterations, "
          f"grad_inf={grad_inf}")
    if trace.status == STATUS_CONVERGED:
        return 2 if "error" in cert else 0
    return 1 if trace.status == STATUS_MAXITERS else 2


# ---------------------------------------------------------------------------
# bench


def ground_truth(instance, eps: float = 1e-12):
    """High-precision reference prices and whether they converged: damped
    Newton on phi (ipm.newton_polish, Newton-PCG steps with interpolating
    Armijo backtracking) from the uniform prices W/n."""
    p, trace = ipm.newton_polish(instance, ipm._uniform_prices(instance), eps=eps)
    return p, trace.status == STATUS_CONVERGED


def _parse_cells(spec: str):
    cells = [part.split(",") for part in spec.split(";") if part.strip()]
    return [(int(n), int(m), float(rho)) for n, m, rho in cells]


def bench_cell(n, m, rho, methods, args, outdir):
    """One (n, m, rho) cell: ground truth, then race every method to the
    distance target.  Returns result rows."""
    inst = market.generate_random(n, m, args.tau, rho=rho, seed=args.seed)

    def result(method, status, note, time_s="", iters="", final_dist=""):
        return {"n": n, "m": m, "rho": rho, "method": method, "status": status,
                "time_s": time_s, "iters": iters, "final_dist": final_dist, "note": note}

    try:
        p_star, ok = ground_truth(inst)
        if not ok:
            raise RuntimeError("ground truth run did not converge")
    except Exception as exc:  # noqa: BLE001 - cell marked unavailable
        return [result(method, "unavailable", str(exc)) for method in methods]
    rows = []
    for method in methods:
        dist_log = []
        t0 = time.perf_counter()

        def watch(k, p):
            dist = float(np.linalg.norm(p - p_star))
            dist_log.append((k, dist))
            if dist <= args.dist_tol:
                return STATUS_CONVERGED
            if time.perf_counter() - t0 > args.time_limit_s:
                return STATUS_MAXITERS
            return None

        try:  # eps 1e-14: the distance callback decides
            p, trace = ipm.solve(inst, method, callback=watch,
                                 **_settings(method, args, eps=1e-14, max_iters=10_000_000))
            elapsed = time.perf_counter() - t0
            final_dist = float(np.linalg.norm(p - p_star))
            timed_out = elapsed > args.time_limit_s and final_dist > args.dist_tol
            # the dagger convention: an above-tolerance final distance is "inaccurate"
            rows.append(result(method, "TimedOut" if timed_out else "ok",
                               "inaccurate" if final_dist > args.dist_tol else "",
                               f"{elapsed:.3f}", trace.iterations(), f"{final_dist:.3e}"))
            market.atomic_write_text(
                os.path.join(outdir, f"cell_{n}_{m}_{rho}_{method}_dist.csv"),
                "k,dist\n" + "\n".join(f"{k},{d:.17g}" for k, d in dist_log) + "\n")
        except Exception as exc:  # noqa: BLE001
            rows.append(result(method, "failed", str(exc)))
    return rows


def cmd_bench(args) -> int:
    try:
        cells = _parse_cells(args.cells)
        methods = [s.strip() for s in args.methods.split(",") if s.strip()]
    except ValueError as exc:
        print(f"bad --cells/--methods: {exc}", file=sys.stderr)
        return 3
    os.makedirs(args.out, exist_ok=True)
    all_rows = []
    for n, m, rho in cells:
        all_rows.extend(bench_cell(n, m, rho, methods, args, args.out))
    header = ["n", "m", "rho", "method", "status", "time_s", "iters", "final_dist", "note"]
    lines = [",".join(header)] + [",".join(str(row[h]) for h in header) for row in all_rows]
    market.atomic_write_text(os.path.join(args.out, "results.csv"), "\n".join(lines) + "\n")
    _write_json(os.path.join(args.out, "bench_meta.json"), _flag_values({
        "cells": args.cells, "methods": methods, "seed": args.seed, "tau": args.tau,
        "dist_tol": args.dist_tol, "time_limit_s": args.time_limit_s,
    }))
    print(f"wrote {os.path.join(args.out, 'results.csv')} ({len(all_rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_solver_flags(sp):
    sp.add_argument("--eps", type=float)
    sp.add_argument("--hessian", dest="hessian_mode", choices=["exact", "dr1", "pcg"])
    sp.add_argument("--Q", type=float)
    sp.add_argument("--mu-shrink", dest="sigma_override", type=float,
                    help="LogBar mu shrink factor per iteration")
    sp.add_argument("--beta", type=float)
    sp.add_argument("--gamma", dest="gamma_step", type=float)
    sp.add_argument("--c-phi", dest="c_phi", type=float)
    sp.add_argument("--eps-k", dest="eps_k", type=float)
    sp.add_argument("--step", type=float, help="tat step size")
    sp.add_argument("--max-iters", dest="max_iters", type=int)
    sp.add_argument("--sigma-barrier", dest="sigma_barrier", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="marketeq",
                                 description="Fisher-market equilibrium solvers")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--tau", type=float, required=True)
    g.add_argument("--delta", type=float, default=1.0)
    g.add_argument("--rho", type=float, default=0.5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--kind", choices=["ces", "linear"], default="ces")
    g.add_argument("--sigma-barrier", dest="sigma_barrier", type=float, default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    i = sub.add_parser("ingest", help="build an instance from a ratings CSV")
    i.add_argument("--ratings", required=True)
    i.add_argument("--max-users", dest="max_users", type=int, default=None)
    i.add_argument("--max-items", dest="max_items", type=int, default=None)
    i.add_argument("--rho", type=float, default=0.5)
    i.add_argument("--rating-scale", dest="rating_scale", choices=["raw", "unit"], default="raw")
    i.add_argument("--out", required=True)
    i.set_defaults(func=cmd_ingest)

    f = sub.add_parser("flow-gen", help="build a flow-network instance")
    f.add_argument("--graph", required=True)
    f.add_argument("--rho", type=float, default=0.5)
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_flow_gen)

    s = sub.add_parser("solve", help="solve an instance")
    s.add_argument("instance")
    s.add_argument("--method", required=True,
                   choices=list(ipm.METHODS))
    s.add_argument("--out", required=True)
    _add_solver_flags(s)
    s.set_defaults(func=cmd_solve)

    b = sub.add_parser("bench", help="benchmark methods against ground truth")
    b.add_argument("--cells", required=True, help='"n,m,rho;n,m,rho;..."')
    b.add_argument("--methods", default="logbar,logbar-pcg,propres,tat")
    b.add_argument("--tau", type=float, default=0.2)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--dist-tol", dest="dist_tol", type=float, default=1e-5)
    b.add_argument("--time-limit-s", dest="time_limit_s", type=float, default=200.0)
    b.add_argument("--out", required=True)
    _add_solver_flags(b)
    b.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
