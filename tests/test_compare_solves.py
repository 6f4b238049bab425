import dataclasses
import importlib.util
import json
import sys
import types
from pathlib import Path

from marketeq.market import MarketInstance, generate_random, with_barrier_sigma

from conftest import load_bench, mixed_flow_instance

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_solves.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_solves", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def solve(queries, p=1.0, safeguards=0):
    return {"status": "Converged", "iterations": 3, "price_queries": queries,
            "safeguards": safeguards, "dr1_fallbacks": 0, "backtracks": 0, "retreats": 0,
            "con_newton_steps": 0, "p": [float(p).hex()]}


def test_diff_prints_each_workloads_query_totals(tmp_path, capsys):
    tool = load_tool()
    old = {"w seed=1 | a": solve(10), "w seed=1 | b": solve(5), "w seed=1 | a | constraints": "x",
           "v seed=2 | c": solve(7)}
    new = dict(old, **{"w seed=1 | b": solve(3, p=1.5), "v seed=2 | c": solve(7, safeguards=2)})
    paths = []
    for name, record in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(record), encoding="utf-8")
    assert tool.diff(*paths) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["differs: v seed=2 | c: safeguards 0 -> 2",
                       "differs: w seed=1 | b: prices (max relative difference 0.5), "
                       "price_queries 5 -> 3"]
    assert out[-2:] == ["price_queries: v seed=2: 7 -> 7", "price_queries: w seed=1: 15 -> 13"]
    assert tool.diff(paths[0], paths[0]) == 0


def test_run_records_the_loops_counters(tmp_path, monkeypatch):
    # one near-linear benchmark market; its first sigma stage clips a step
    tool, workloads = load_tool(), load_bench("workloads")
    cell = workloads.BUILDERS["near-linear"](1)[0]
    monkeypatch.setitem(sys.modules, "workloads", types.SimpleNamespace(
        BUILDERS={"near-linear": lambda seed: [cell]}, solves_of=workloads.solves_of))
    monkeypatch.setattr(sys, "path", list(sys.path))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    tool.run((ROOT / "src").resolve(), [1], tmp_path / "record.json")
    record = json.loads((tmp_path / "record.json").read_text(encoding="utf-8"))
    (solve,) = [value for value in record.values() if isinstance(value, dict)]
    _, trace = workloads.solves_of([cell])[0].runner()()
    counters = ("price_queries", "safeguards", "dr1_fallbacks", "backtracks", "retreats",
                "con_newton_steps")
    assert {key: solve[key] for key in counters} == {key: trace.extras[key] for key in counters}
    assert solve["safeguards"] >= 1


def test_instance_digest_sees_every_array():
    tool = load_tool()
    flow = mixed_flow_instance()
    digest = tool.instance_digest(flow)
    rebuilt = MarketInstance(flow.n, flow.m, flow.budgets, flow.utilities, flow.constraints)
    assert tool.instance_digest(rebuilt) == digest

    def changed(player=3, budgets=1.0, constraint=1.0, **fields):
        specs = list(flow.utilities)
        specs[player] = dataclasses.replace(specs[player], **fields)
        scaled = {i: constraint * A for i, A in flow.constraints.items()}
        return MarketInstance(flow.n, flow.m, budgets * flow.budgets, specs, scaled)

    u = flow.utilities[3]
    variants = [changed(val=2.0 * u.val),  # C.data
                changed(idx=u.idx[:-1], val=u.val[:-1]),  # C.indptr and C.indices
                changed(rho=0.4),  # r and k
                changed(budgets=2.0), changed(constraint=2.0)]
    assert len({digest} | {tool.instance_digest(inst) for inst in variants}) == 6
    linear = generate_random(4, 6, 0.7, seed=5, kind="linear_barrier", sigma=1e-3)
    assert (tool.instance_digest(with_barrier_sigma(linear, 2e-3))
            != tool.instance_digest(linear))
