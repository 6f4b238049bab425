"""The benchmark's tracer (bench/tracer.py) patches marketeq functions by the
names the drivers call them through.  A renamed or deleted name crashes the
traced round; a call moved behind a name the tracer does not patch silently
drops out of the per-layer counts, price queries included.  The benchmark's
markets (bench/workloads.py) and its independent checks (bench/checks.py)
read the instance, the certificate and the flow players' responses; a break
there would show only as a failed benchmark run."""

import numpy as np

import marketeq as mq
from marketeq import hessian, ipm, oracle

from conftest import load_bench


def load_tracer():
    return load_bench("tracer")


def test_every_target_resolves_on_its_owner():
    tracer = load_tracer()
    for owner, attr, name, _ in tracer.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({name})"


def test_traced_solve_counts_every_query_and_step():
    tracer = load_tracer()
    inst = mq.generate_random(8, 20, 0.8, rho=0.5, seed=2)
    cfg = mq.PathFolConfig(eps=1e-7, hessian_mode="exact", c_phi=10.0, max_iters=500)
    tr = tracer.Tracer()
    with tr.patched():
        _, trace = mq.pathfol_run(inst, cfg, np.full(8, inst.total_budget() / 8))
    assert trace.status == "Converged"
    totals = tracer.layer_totals(tr.spans)
    iters = trace.iterations()
    assert totals["oracle"]["calls"] == iters  # one per iteration; row 0's is the anchor
    assert totals["hessian.assemble"]["calls"] == iters
    assert totals["ipm.factor"]["calls"] == iters
    # LogBar's last row solves nothing, so it assembles no H~
    tr = tracer.Tracer()
    with tr.patched():
        _, trace = mq.logbar_run(inst, mq.LogBarConfig(eps=1e-7, sigma_override=0.6))
    assert trace.status == "Converged"
    totals = tracer.layer_totals(tr.spans)
    assert totals["hessian.assemble"]["calls"] == trace.iterations() - 1
    assert ipm.market_state is oracle.market_state
    assert hessian.market_state is oracle.market_state


def test_traced_pathfol_pcg_iterations_match_the_trace():
    # a row's pcg_iters totals every PCG solve of that row, the last row's included
    tracer = load_tracer()
    inst = mq.generate_random(8, 20, 0.8, rho=0.5, seed=2)
    cfg = mq.PathFolConfig(eps=1e-7, hessian_mode="pcg", c_phi=10.0, max_iters=500)
    tr = tracer.Tracer()
    with tr.patched():
        _, trace = mq.pathfol_run(inst, cfg, np.full(8, inst.total_budget() / 8))
    assert trace.status == "Converged"
    pcg = tracer.layer_totals(tr.spans)["hessian.pcg"]
    assert sum(r.pcg_iters or 0 for r in trace.rows) == pcg["iters"]


def test_traced_near_linear_solve_counts_every_polish_query(monkeypatch):
    # every linear-barrier price query runs _linear_batch once; the tracer
    # must see each of them, the sigma continuation's polish included
    tracer = load_tracer()
    batches = []
    linear_batch = oracle._linear_batch

    def counting(*args):
        batches.append(1)
        return linear_batch(*args)

    monkeypatch.setattr(oracle, "_linear_batch", counting)
    inst = mq.generate_random(20, 50, 0.5, seed=21, kind="linear_barrier", sigma=1e-6 / 20)
    tr = tracer.Tracer()
    with tr.patched():
        _, trace = mq.logbar_run(inst, mq.LogBarConfig(eps=1e-6, hessian_mode="exact",
                                                       max_iters=600))
    assert trace.status == "Converged"
    assert trace.extras["continuation"]
    assert len(batches) == tracer.layer_totals(tr.spans)["oracle"]["calls"]


def test_workloads_build_and_flow_solve_passes_the_checks():
    workloads, checks = load_bench("workloads"), load_bench("checks")
    for name, build in workloads.BUILDERS.items():
        for cell in build(1):
            assert mq.validate(cell.instance) == [], f"{name}: {cell.label}"
            workloads.fill_caches(cell.instance)
            # the accessors fill_caches calls must stay aligned with the arrays the solvers read
            C = cell.instance.C
            assert cell.instance.coeff_csr() is C
            assert np.array_equal(cell.instance.log_coeff_data(), np.log(C.data))
            assert np.array_equal(cell.instance.nnz_row_index(),
                                  np.repeat(np.arange(C.shape[0]), np.diff(C.indptr)))
    cell = workloads.BUILDERS["flow-mixed"](1)[0]
    p, trace = workloads.solves_of([cell])[0].runner()()
    assert trace.status == "Converged"
    cert = mq.equilibrium_certificate(cell.instance, p, eps=cell.eps)
    assert cert["converged"] and cert.get("clearing_within_bound", True)
    # the flow players' allocations, taken as bench/run.py's verify takes them
    flow_x = {i: resp.x for i, resp in mq.market_state(cell.instance, p).con_responses.items()}
    assert checks.check_solution(cell, np.asarray(p), flow_x) == []
