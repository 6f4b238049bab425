import importlib.util
import json
from pathlib import Path

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
