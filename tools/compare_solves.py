#!/usr/bin/env python3
"""Record every benchmark solve of a source tree bit for bit, and diff two records.

    python3 tools/compare_solves.py run --src SRC --seeds 1 2 --out FILE
    python3 tools/compare_solves.py diff OLD NEW

``run`` imports the program from SRC (a checkout's ``src`` directory) and
the markets from this checkout's ``bench/workloads.py``, which it only
reads.  It solves every workload's markets at each seed, in one process with
one BLAS thread, and writes per solve its status, iterations, the loop's
counters (price queries, safeguard clips, DR1 fallbacks, rejected
line-search trials, PathFol's retreats and the constrained players' Newton
steps, 0 where a tree does not count one) and prices as
``float.hex`` strings, and per market a SHA-256 of its arrays:
``C``'s CSR arrays, the budgets, the ``r``, ``k`` and ``sigma`` columns and
the constraint matrices, so a construction change that alters a market
shows in ``diff``.  ``diff`` prints every key on which two records differ,
with the largest relative price difference of a solve whose prices differ,
then each workload's total price queries per seed in both records, and
exits 1 if a key differs, 0 if they are equal: a refactor that must not
change any answer runs ``run`` on the parent's tree and on its own, then
``diff``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def instance_digest(instance) -> str:
    """SHA-256 of a market's arrays; reads only what every recorded tree has."""
    digest = hashlib.sha256()
    for a in (instance.C.indptr, instance.C.indices, instance.C.data, instance.budgets,
              instance.r, instance.k, instance.sigma):
        digest.update(f"{a.dtype}{a.shape}".encode())
        digest.update(a.tobytes())
    for i in sorted(instance.constraints):
        A = instance.constraints[i]
        digest.update(f"{i}:{A.shape}".encode())
        digest.update(A.tobytes())
    return digest.hexdigest()


def run(src: Path, seeds, out: Path) -> None:
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    sys.path[:0] = [str(src), str(BENCH)]
    import marketeq as mq
    import workloads

    if Path(mq.__file__).resolve().parent.parent != src:
        raise SystemExit(f"marketeq was imported from {mq.__file__}, not from {src}")
    record = {}
    for seed in seeds:
        for name in workloads.BUILDERS:
            cells = workloads.BUILDERS[name](seed)
            for cell in cells:
                record[f"{name} seed={seed} | {cell.label} | instance"] = \
                    instance_digest(cell.instance)
            for solve in workloads.solves_of(cells):
                p, trace = solve.runner()()
                key = f"{name} seed={seed} | {solve.label}"
                record[key] = {"status": trace.status, "iterations": trace.iterations(),
                               **{c: trace.extras.get(c, 0) for c in (
                                   "price_queries", "safeguards", "dr1_fallbacks", "backtracks",
                                   "retreats", "con_newton_steps")},
                               "p": [float(v).hex() for v in p]}
                print(f"{key}: {trace.status}, {trace.iterations()} iterations, "
                      f"{record[key]['price_queries']} queries", file=sys.stderr)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _price_change(was, now) -> str:
    """'prices' with the largest relative change max_j |now_j - was_j| / |was_j|."""
    if was is None or now is None or len(was) != len(now):
        return "prices"
    pairs = [(float.fromhex(u), float.fromhex(v)) for u, v in zip(was, now)]
    rel = max((abs(v - u) / abs(u) if u else (math.inf if v else 0.0) for u, v in pairs),
              default=0.0)
    return f"prices (max relative difference {rel:.3g})"


def _query_totals(record) -> dict:
    """'<workload> seed=<seed>' -> the price queries of its solves, summed."""
    totals = {}
    for key, value in record.items():
        if isinstance(value, dict):
            group = key.split(" | ", 1)[0]
            totals[group] = totals.get(group, 0) + value["price_queries"]
    return totals


def diff(old: Path, new: Path) -> int:
    a = json.loads(old.read_text(encoding="utf-8"))
    b = json.loads(new.read_text(encoding="utf-8"))
    differ = sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))
    for key in differ:
        was, now = a.get(key), b.get(key)
        if isinstance(was, dict) and isinstance(now, dict):  # a solve: name the fields
            fields = sorted(f for f in was.keys() | now.keys() if was.get(f) != now.get(f))
            print(f"differs: {key}: " + ", ".join(
                _price_change(was.get(f), now.get(f)) if f == "p"
                else f"{f} {was.get(f)} -> {now.get(f)}" for f in fields))
        else:
            print(f"differs: {key}: {was} -> {now}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} keys differ")
    was, now = _query_totals(a), _query_totals(b)
    for group in sorted(was.keys() | now.keys()):
        print(f"price_queries: {group}: {was.get(group)} -> {now.get(group)}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="solve every workload at the seeds and write a record")
    r.add_argument("--src", required=True, type=Path, help="the src directory to import from")
    r.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    r.add_argument("--out", required=True, type=Path)
    d = sub.add_parser("diff", help="compare two records; exit 1 on any difference")
    d.add_argument("old", type=Path)
    d.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.command == "diff":
        return diff(args.old, args.new)
    run(args.src.resolve(), args.seeds, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
