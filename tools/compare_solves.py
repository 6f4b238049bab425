#!/usr/bin/env python3
"""Record every benchmark solve of a source tree bit for bit, and diff two records.

    python3 tools/compare_solves.py run --src SRC --seeds 1 2 --out FILE
    python3 tools/compare_solves.py diff OLD NEW

``run`` imports the program from SRC (a checkout's ``src`` directory) and
the markets from this checkout's ``bench/workloads.py``, which it only
reads.  It solves every workload's markets at each seed, in one process with
one BLAS thread, and writes per solve its status, iterations, price queries
and prices as ``float.hex`` strings, and per market a SHA-256 of its
constraint matrices.  ``diff`` prints every key on which two records differ
and exits 1 if there is one, 0 if they are equal: a refactor that must not
change any answer runs ``run`` on the parent's tree and on its own, then
``diff``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _constraint_digest(instance) -> str:
    digest = hashlib.sha256()
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
                record[f"{name} seed={seed} | {cell.label} | constraints"] = \
                    _constraint_digest(cell.instance)
            for solve in workloads.solves_of(cells):
                p, trace = solve.runner()()
                key = f"{name} seed={seed} | {solve.label}"
                queries = trace.extras.get("price_queries", 0)
                record[key] = {"status": trace.status, "iterations": trace.iterations(),
                               "price_queries": queries, "p": [float(v).hex() for v in p]}
                print(f"{key}: {trace.status}, {trace.iterations()} iterations, "
                      f"{queries} queries", file=sys.stderr)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def diff(old: Path, new: Path) -> int:
    a = json.loads(old.read_text(encoding="utf-8"))
    b = json.loads(new.read_text(encoding="utf-8"))
    differ = sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))
    for key in differ:
        was, now = a.get(key), b.get(key)
        if isinstance(was, dict) and isinstance(now, dict):  # a solve: name the fields
            fields = sorted(f for f in was.keys() | now.keys() if was.get(f) != now.get(f))
            print(f"differs: {key}: " + ", ".join(
                "prices" if f == "p" else f"{f} {was.get(f)} -> {now.get(f)}" for f in fields))
        else:
            print(f"differs: {key}: {was} -> {now}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} keys differ")
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
