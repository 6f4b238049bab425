import dataclasses
import importlib.util
import json
from pathlib import Path

from marketeq.market import MarketInstance, generate_random, with_barrier_sigma

from conftest import mixed_flow_instance

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_solves.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_solves", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def solve(queries, p=1.0):
    return {"status": "Converged", "iterations": 3, "price_queries": queries,
            "p": [float(p).hex()]}


def test_diff_prints_each_workloads_query_totals(tmp_path, capsys):
    tool = load_tool()
    old = {"w seed=1 | a": solve(10), "w seed=1 | b": solve(5), "w seed=1 | a | constraints": "x",
           "v seed=2 | c": solve(7)}
    new = dict(old, **{"w seed=1 | b": solve(3, p=1.5)})
    paths = []
    for name, record in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(record), encoding="utf-8")
    assert tool.diff(*paths) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("differs: w seed=1 | b: prices (max relative difference 0.5), "
                      "price_queries 5 -> 3")
    assert out[-2:] == ["price_queries: v seed=2: 7 -> 7", "price_queries: w seed=1: 15 -> 13"]
    assert tool.diff(paths[0], paths[0]) == 0


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
