import hashlib
import json
import os

import numpy as np
import pytest

from marketeq import cli, ipm, market, oracle
from marketeq.ipm import SolveTrace


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture
def instance_file(tmp_path):
    path = os.path.join(tmp_path, "inst.json")
    rc = cli.main(["gen", "--n", "12", "--m", "30", "--tau", "0.8",
                   "--rho", "0.9", "--seed", "3", "--out", path])
    assert rc == 0
    return path


class TestGen:
    def test_writes_instance_and_provenance(self, tmp_path):
        path = os.path.join(tmp_path, "a.json")
        rc = cli.main(["gen", "--n", "4", "--m", "6", "--tau", "1.0", "--seed", "7", "--out", path])
        assert rc == 0
        inst = market.load_instance(path)
        assert inst.n == 4 and inst.m == 6
        with open(path + ".provenance.json") as fh:
            prov = json.load(fh)
        assert prov["seed"] == 7 and prov["tau"] == 1.0

    def test_same_seed_identical_hash(self, tmp_path):
        a = os.path.join(tmp_path, "a.json")
        b = os.path.join(tmp_path, "b.json")
        for path in (a, b):
            assert cli.main(["gen", "--n", "6", "--m", "9", "--tau", "0.5",
                             "--seed", "11", "--out", path]) == 0
        assert sha(a) == sha(b)

    def test_invalid_params_exit_3(self, tmp_path):
        path = os.path.join(tmp_path, "bad.json")
        rc = cli.main(["gen", "--n", "4", "--m", "6", "--tau", "0.5",
                       "--rho", "1.7", "--out", path])
        assert rc == 3
        assert not os.path.exists(path)

    def test_linear_kind(self, tmp_path):
        path = os.path.join(tmp_path, "lin.json")
        rc = cli.main(["gen", "--n", "5", "--m", "8", "--tau", "1.0", "--kind", "linear",
                       "--sigma-barrier", "0.01", "--out", path])
        assert rc == 0
        inst = market.load_instance(path)
        assert inst.is_linear


class TestIngest:
    def test_ingest_and_mappings(self, tmp_path):
        ratings = os.path.join(tmp_path, "r.csv")
        with open(ratings, "w") as fh:
            fh.write("user_id,item_id,rating\nu1,i1,4\nu2,i1,2\nu2,i2,5\n")
        out = os.path.join(tmp_path, "inst.json")
        rc = cli.main(["ingest", "--ratings", ratings, "--out", out])
        assert rc == 0
        inst = market.load_instance(out)
        assert inst.m == 2 and inst.n == 2
        with open(out + ".mappings.json") as fh:
            maps = json.load(fh)
        assert maps["users"] == ["u1", "u2"]

    def test_malformed_exit_3(self, tmp_path, capsys):
        ratings = os.path.join(tmp_path, "r.csv")
        with open(ratings, "w") as fh:
            fh.write("user_id,item_id,rating\na,b,x\n")
        rc = cli.main(["ingest", "--ratings", ratings, "--out", os.path.join(tmp_path, "o.json")])
        assert rc == 3
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exit_3(self, tmp_path):
        rc = cli.main(["ingest", "--ratings", os.path.join(tmp_path, "nope.csv"),
                       "--out", os.path.join(tmp_path, "o.json")])
        assert rc == 3


class TestFlowGen:
    def test_flow_file(self, tmp_path):
        graph = os.path.join(tmp_path, "g.txt")
        with open(graph, "w") as fh:
            fh.write("s t\ns v\nv t\nterminals:\ns t\n")
        out = os.path.join(tmp_path, "flow.json")
        rc = cli.main(["flow-gen", "--graph", graph, "--out", out])
        assert rc == 0
        inst = market.load_instance(out)
        assert inst.n == 4 and 0 in inst.constraints

    def test_disconnected_exit_3(self, tmp_path):
        graph = os.path.join(tmp_path, "g.txt")
        with open(graph, "w") as fh:
            fh.write("a b\nterminals:\nb a\n")
        rc = cli.main(["flow-gen", "--graph", graph, "--out", os.path.join(tmp_path, "f.json")])
        assert rc == 3

    def test_propres_refuses_a_flow_market(self, tmp_path, capsys):
        graph, flow = os.path.join(tmp_path, "g.txt"), os.path.join(tmp_path, "flow.json")
        with open(graph, "w") as fh:
            fh.write("s t\ns v\nv t\nterminals:\ns t\ns t\n")
        assert cli.main(["flow-gen", "--graph", graph, "--out", flow]) == 0
        rc = cli.main(["solve", flow, "--method", "propres", "--out", os.path.join(tmp_path, "x")])
        assert rc == 3
        assert "without constraints" in capsys.readouterr().err


class TestSolve:
    @pytest.mark.parametrize("method", ["logbar", "logbar-pcg", "pathfol", "tat", "propres"])
    def test_methods_converge_and_write_outputs(self, instance_file, tmp_path, method):
        out = os.path.join(tmp_path, "run_" + method)
        args = ["solve", instance_file, "--method", method, "--out", out, "--eps", "1e-7"]
        if method in ("tat", "propres"):
            args += ["--max-iters", "200000", "--eps", "1e-9"]
        rc = cli.main(args)
        assert rc == 0
        trace = SolveTrace.from_csv(os.path.join(out, "trace.csv"))
        assert trace.status == "Converged"
        prices = cli.read_prices(os.path.join(out, "prices.txt"))
        assert len(prices) == 12 and np.all(prices > 0)
        with open(os.path.join(out, "certificate.json")) as fh:
            cert = json.load(fh)
        assert cert["method"] == method
        assert cert["grad_inf"] < 1e-5

    def test_methods_agree(self, instance_file, tmp_path):
        prices = {}
        for method in ("logbar", "logbar-pcg", "tat"):
            out = os.path.join(tmp_path, "agree_" + method)
            args = ["solve", instance_file, "--method", method, "--out", out,
                    "--eps", "1e-9", "--max-iters", "200000"]
            assert cli.main(args) == 0
            prices[method] = cli.read_prices(os.path.join(out, "prices.txt"))
        d = np.linalg.norm(prices["logbar"] - prices["tat"]) / np.linalg.norm(prices["tat"])
        assert d < 1e-5
        d2 = np.linalg.norm(prices["logbar"] - prices["logbar-pcg"]) / np.linalg.norm(prices["logbar"])
        assert d2 < 1e-6
        trace = SolveTrace.from_csv(os.path.join(tmp_path, "agree_logbar-pcg", "trace.csv"))
        assert any(r.pcg_iters and r.pcg_iters > 0 for r in trace.rows)

    def test_maxiters_exit_1(self, instance_file, tmp_path):
        out = os.path.join(tmp_path, "short")
        rc = cli.main(["solve", instance_file, "--method", "logbar", "--out", out,
                       "--eps", "1e-12", "--max-iters", "2"])
        assert rc == 1

    def test_bad_config_exit_3(self, instance_file, tmp_path):
        rc = cli.main(["solve", instance_file, "--method", "logbar",
                       "--out", os.path.join(tmp_path, "x"), "--Q", "0.9"])
        assert rc == 3

    def test_tat_step_outside_the_unit_interval_exit_3(self, instance_file, tmp_path, capsys):
        rc = cli.main(["solve", instance_file, "--method", "tat", "--step", "1.5",
                       "--out", os.path.join(tmp_path, "x")])
        assert rc == 3
        assert "step must lie in (0, 1)" in capsys.readouterr().err

    def test_tat_oracle_failure_exit_2_with_outputs(self, instance_file, tmp_path, monkeypatch):
        # the oracle raises at the third price query; the certificate's query succeeds
        real, calls = oracle.bid_shares, []

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise oracle.OracleError("forced oracle failure")
            return real(*args)

        monkeypatch.setattr(oracle, "bid_shares", failing)
        out = os.path.join(tmp_path, "tat")
        assert cli.main(["solve", instance_file, "--method", "tat", "--out", out]) == 2
        trace = SolveTrace.from_csv(os.path.join(out, "trace.csv"))
        assert trace.status == "NumericalFailure" and trace.iterations() == 2
        assert len(cli.read_prices(os.path.join(out, "prices.txt"))) == 12
        with open(os.path.join(out, "certificate.json")) as fh:
            cert = json.load(fh)
        assert cert["status"] == "NumericalFailure" and cert["iterations"] == 2

    def test_missing_instance_exit_3(self, tmp_path):
        rc = cli.main(["solve", os.path.join(tmp_path, "none.json"),
                       "--method", "logbar", "--out", os.path.join(tmp_path, "x")])
        assert rc == 3

    @pytest.mark.parametrize("doc, message", [
        ({"n": 2, "m": 1, "budgets": [1.0],
          "utilities": [{"kind": "ces", "param": None, "entries": [[0, 1.0], [1, 1.0]]}]},
         "malformed instance file"),
        ({"n": 2, "m": 1, "budgets": [1.0],
          "utilities": [{"kind": "ces", "param": 0.5, "entries": [[0], [1, 1.0]]}]},
         "malformed instance file"),
        ([], "malformed instance file"),
        ({"n": 2, "m": 1, "budgets": [1.0],
          "utilities": [{"kind": "ces", "param": 0.5, "entries": [[0, 1.0], [5, 1.0]]}]},
         "coefficient index out of range"),
        # n must not be truncated to 2 (reported only as an index out of range) or coerced
        ({"n": 2.7, "m": 1, "budgets": [1.0],
          "utilities": [{"kind": "ces", "param": 0.5, "entries": [[0, 1.0], [1, 1.0], [2, 1.0]]}]},
         "malformed instance file"),
        ({"n": "3", "m": 1, "budgets": [1.0],
          "utilities": [{"kind": "ces", "param": 0.5, "entries": [[0, 1.0], [1, 1.0], [2, 1.0]]}]},
         "malformed instance file"),
        ({"n": 3, "m": 1, "budgets": [1.0],
          "utilities": [{"kind": "ces", "param": 0.5, "entries": [[0, 1.0], [1, 1.0], [2, 1.0]]}],
          "constraints": {"0": [[1.0, float("nan"), -1.0]]}},
         "player 0: constraint matrix entries must be finite"),
        ({"n": 2, "m": 2, "budgets": [0.5, 0.5],
          "utilities": [{"kind": "ces", "param": 0.5, "entries": [[0, 1.0], [0, 2.0], [1, 1.0]]},
                        {"kind": "ces", "param": 0.5, "entries": [[0, 1.0], [1, 1.0]]}]},
         "player 0: duplicate coefficient index"),
        # an entry's index must not be coerced to good 1
        ({"n": 2, "m": 1, "budgets": [1.0],
          "utilities": [{"kind": "ces", "param": 0.5, "entries": [[0, 1.0], [1.9, 2.0]]}]},
         "malformed instance file"),
        ({"n": 2, "m": 1, "budgets": [1.0],
          "utilities": [{"kind": "ces", "param": 0.5, "entries": [[0, 1.0], [True, 2.0]]}]},
         "malformed instance file"),
        ({"n": 2, "m": 1, "budgets": [1.0],
          "utilities": [{"kind": "ces", "param": 0.5, "entries": [[0, 1.0], ["1", 2.0]]}]},
         "malformed instance file"),
        # the linear-barrier oracle ignores A: a solve would report A x != 0 as converged
        ({"n": 3, "m": 2, "budgets": [0.5, 0.5],
          "utilities": [{"kind": "linear_barrier", "param": 0.1,
                         "entries": [[0, 1.0], [1, 2.0], [2, 0.5]]},
                        {"kind": "linear_barrier", "param": 0.1,
                         "entries": [[0, 0.5], [1, 1.0], [2, 2.0]]}],
          "constraints": {"0": [[1.0, -1.0, 0.0]]}},
         "player 0: constraints apply to CES and additive players only"),
    ], ids=["null-param", "entry-without-coefficient", "top-level-list", "index-out-of-range",
            "fractional-n", "string-n", "nan-constraint", "duplicate-index", "fractional-index",
            "bool-index", "string-index", "constrained-linear-player"])
    def test_malformed_instance_exit_3(self, tmp_path, capsys, doc, message):
        path = os.path.join(tmp_path, "bad.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        rc = cli.main(["solve", path, "--method", "logbar", "--out", os.path.join(tmp_path, "x")])
        assert rc == 3
        assert message in capsys.readouterr().err

    def test_sigma_barrier_flag_linear_only(self, instance_file, tmp_path):
        rc = cli.main(["solve", instance_file, "--method", "logbar",
                       "--out", os.path.join(tmp_path, "x"), "--sigma-barrier", "0.01"])
        assert rc == 3

    @pytest.mark.parametrize("sigma", ["0", "-0.5", "nan"])
    def test_sigma_barrier_must_be_positive(self, sigma, tmp_path, capsys):
        path = os.path.join(tmp_path, "lin.json")
        assert cli.main(["gen", "--n", "6", "--m", "10", "--tau", "0.6", "--kind", "linear",
                         "--sigma-barrier", "1e-2", "--seed", "2", "--out", path]) == 0
        out = os.path.join(tmp_path, "run")
        rc = cli.main(["solve", path, "--method", "logbar", "--out", out,
                       "--sigma-barrier", sigma])
        assert rc == 3
        assert "sigma must be positive" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_sigma_barrier_clones_the_market(self, tmp_path):
        path = os.path.join(tmp_path, "lin.json")
        assert cli.main(["gen", "--n", "5", "--m", "8", "--tau", "0.8", "--kind", "linear",
                         "--sigma-barrier", "0.1", "--seed", "3", "--out", path]) == 0
        digest = sha(path)
        out = os.path.join(tmp_path, "run")
        rc = cli.main(["solve", path, "--method", "logbar", "--out", out,
                       "--eps", "1e-6", "--sigma-barrier", "0.02"])
        assert rc in (0, 1)
        with open(os.path.join(out, "certificate.json")) as fh:
            assert json.load(fh)["sigma"] == 0.02
        assert sha(path) == digest
        assert market.load_instance(path).sigma[0] == 0.1


def star_flow(paths):
    """s -> v_i -> t for i < paths: a flow market of n = 1 + 2 paths goods."""
    edges = [e for i in range(paths) for e in (("s", f"v{i}"), (f"v{i}", "t"))]
    return market.build_flow_instance(edges, [("s", "t")])


class TestDefaultHessian:
    @pytest.mark.parametrize("build, mode", [
        (lambda: market.generate_random(12, 30, 0.8, seed=3), "pcg"),
        (lambda: market.generate_random(512, 4, 0.01, seed=0), "pcg"),
        (lambda: market.generate_random(513, 4, 0.01, seed=0), "dr1"),
        (lambda: market.generate_random(512, 4, 0.01, seed=0, kind="linear_barrier",
                                        sigma=1e-3), "exact"),
        (lambda: market.generate_random(513, 4, 0.01, seed=0, kind="linear_barrier",
                                        sigma=1e-3), "pcg"),
        (lambda: star_flow(3), "exact"),
        (lambda: star_flow(256), "pcg"),
    ], ids=["ces-small", "ces-at-limit", "ces-above-limit", "linear-at-limit",
            "linear-above-limit", "flow-small", "flow-above-limit"])
    def test_each_branch(self, build, mode):
        assert cli._default_hessian(build()) == mode

    def test_ces_dense_sized_solve_picks_pcg_at_exacts_iterations(self, tmp_path, monkeypatch):
        # the benchmark's ces-dense cell: n=500, m=1500, tau=0.2
        path = os.path.join(tmp_path, "inst.json")
        assert cli.main(["gen", "--n", "500", "--m", "1500", "--tau", "0.2", "--rho", "0.9",
                         "--seed", "1", "--out", path]) == 0
        modes, real_run = [], ipm.logbar_run

        def recording_run(instance, cfg, **kwargs):
            modes.append(cfg.hessian_mode)
            return real_run(instance, cfg, **kwargs)

        monkeypatch.setattr(ipm, "logbar_run", recording_run)
        iterations = {}
        for hessian in ([], ["--hessian", "exact"]):
            out = os.path.join(tmp_path, "run" + "".join(hessian))
            assert cli.main(["solve", path, "--method", "logbar", "--out", out] + hessian) == 0
            with open(os.path.join(out, "certificate.json")) as fh:
                iterations[modes[-1]] = json.load(fh)["iterations"]
        assert modes == ["pcg", "exact"]
        assert iterations["pcg"] == iterations["exact"]


class TestBench:
    def test_single_cell(self, tmp_path):
        out = os.path.join(tmp_path, "bench")
        rc = cli.main(["bench", "--cells", "10,20,0.9", "--methods", "logbar,tat",
                       "--tau", "1.0", "--seed", "2", "--out", out,
                       "--time-limit-s", "60", "--max-iters", "200000"])
        assert rc == 0
        with open(os.path.join(out, "results.csv")) as fh:
            lines = [l.strip() for l in fh if l.strip()]
        assert lines[0].startswith("n,m,rho,method,status")
        assert len(lines) == 3
        assert all(",ok," in l for l in lines[1:])
        # per-method distance logs exist and round-trip
        dist_files = [f for f in os.listdir(out) if f.endswith("_dist.csv")]
        assert len(dist_files) == 2
        with open(os.path.join(out, "bench_meta.json")) as fh:
            meta = json.load(fh)
        assert meta["methods"] == ["logbar", "tat"]

    def test_ground_truth_failure_marks_unavailable(self, tmp_path, monkeypatch):
        def boom(inst, eps=1e-12):
            raise RuntimeError("reference run failed")
        monkeypatch.setattr(cli, "ground_truth", boom)
        out = os.path.join(tmp_path, "bench_u")
        rc = cli.main(["bench", "--cells", "6,10,0.5", "--methods", "logbar,tat",
                       "--tau", "1.0", "--out", out])
        assert rc == 0
        with open(os.path.join(out, "results.csv")) as fh:
            rows = fh.read().strip().splitlines()
        assert len(rows) == 3
        assert all("unavailable" in r for r in rows[1:])

    def test_ground_truth_converges_for_near_perfect_substitutes(self):
        # the cell `bench --cells "50,150,0.99"` builds at its default tau and seed
        inst = market.generate_random(50, 150, 0.2, rho=0.99, seed=0)
        p, ok = cli.ground_truth(inst)
        assert ok
        assert np.max(np.abs(ipm.market_state(inst, p).grad)) <= 1e-12

    @pytest.mark.parametrize("rho", [0.9, -0.9])
    def test_ground_truth_matches_exact_logbar(self, rho):
        inst = market.generate_random(30, 90, 0.2, rho=rho, seed=4)
        p, ok = cli.ground_truth(inst)
        assert ok
        cfg = ipm.LogBarConfig(eps=1e-12, hessian_mode="exact", sigma_override=0.5,
                               max_iters=3000)
        p_ref, trace = ipm.logbar_run(inst, cfg)
        assert trace.status == "Converged"
        assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)

    def test_time_limit_marks_timeout(self, tmp_path):
        out = os.path.join(tmp_path, "bench_t")
        rc = cli.main(["bench", "--cells", "10,20,0.9", "--methods", "tat",
                       "--tau", "1.0", "--seed", "2", "--out", out,
                       "--time-limit-s", "0", "--max-iters", "200000"])
        assert rc == 0
        with open(os.path.join(out, "results.csv")) as fh:
            rows = fh.read().strip().splitlines()
        assert "TimedOut" in rows[1]
