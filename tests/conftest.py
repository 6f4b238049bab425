import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from marketeq.market import CES, ADDITIVE, MarketInstance, UtilitySpec

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    """A module of the benchmark's directory (workloads, checks, tracer), read only."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def run_with_iterates(driver, *args):
    """driver(*args, callback=...) as (p, trace, iterates): the p that the callback
    receives on every row but the one that halts, then the returned p."""
    iterates = []
    p, trace = driver(*args, callback=lambda k, p: iterates.append(p.copy()))
    return p, trace, iterates + [p]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def central_diff(f, p, rel_step=1e-6):
    """Central-difference gradient of a scalar f at p with relative steps."""
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    for j in range(len(p)):
        h = rel_step * p[j]
        pp, pm = p.copy(), p.copy()
        pp[j] += h
        pm[j] -= h
        out[j] = (f(pp) - f(pm)) / (2 * h)
    return out


def central_diff_vec(f, p, rel_step=1e-6):
    """Central-difference Jacobian (columns df/dp_j) of a vector map."""
    p = np.asarray(p, dtype=float)
    f0 = f(p)
    J = np.zeros((len(f0), len(p)))
    for j in range(len(p)):
        h = rel_step * p[j]
        pp, pm = p.copy(), p.copy()
        pp[j] += h
        pm[j] -= h
        J[:, j] = (f(pp) - f(pm)) / (2 * h)
    return J


def random_player(rng, n, kind="ces", allow_negative_r=True):
    """Random valid utility spec with at least one positive coefficient."""
    c = np.zeros(n)
    nz = rng.integers(1, n + 1)
    idx = rng.choice(n, size=nz, replace=False)
    c[idx] = rng.uniform(0.1, 2.0, size=nz)
    if kind == "ces":
        if allow_negative_r and rng.random() < 0.5:
            rho = -rng.uniform(0.1, 3.0)
        else:
            rho = rng.uniform(0.05, 0.95)
        return UtilitySpec(CES, np.flatnonzero(c), c[np.flatnonzero(c)], rho=rho)
    if allow_negative_r and rng.random() < 0.5:
        r = -rng.uniform(0.1, 3.0)
        k = rng.uniform(1.0 / r, -1e-3)
    else:
        r = rng.uniform(0.05, 0.95)
        k = rng.uniform(1e-3, 1.0 / r)
    return UtilitySpec(ADDITIVE, np.flatnonzero(c), c[np.flatnonzero(c)], k=k, r=r)


def mixed_flow_instance(players=2, ces_players=3, seed=0):
    """s-t flow players on a triangle plus unconstrained CES players over all goods."""
    from marketeq.market import build_flow_instance, ces_spec

    flow = build_flow_instance([("s", "a"), ("a", "t"), ("s", "t")], [("s", "t")] * players)
    rng = np.random.default_rng(seed)
    utilities = list(flow.utilities) + [ces_spec(rng.uniform(0.1, 1.0, flow.n), 0.5)
                                        for _ in range(ces_players)]
    m = len(utilities)
    return MarketInstance(flow.n, m, np.full(m, 1.0 / m), utilities, flow.constraints)


def mixed_sign_ces_instance(rng, n=30, m=549):
    """CES players with rho of both signs, so the rank-one weights s are mixed;
    the default m spans more than two Gram blocks of hessian.GRAM_BLOCK rows."""
    utilities = []
    for _ in range(m):
        idx = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        utilities.append(UtilitySpec(CES, idx, rng.uniform(0.1, 2.0, idx.size),
                                     rho=rng.choice([0.6, -1.5])))
    w = rng.uniform(0.5, 1.5, m)
    return MarketInstance(n, m, w / w.sum(), utilities)


def symmetric_instance(n, m, rho=0.5):
    """Uniform coefficients and budgets: the equilibrium is (sum w / n) * 1."""
    utilities = [UtilitySpec(CES, np.arange(n), np.ones(n), rho=rho) for _ in range(m)]
    return MarketInstance(n, m, np.full(m, 1.0 / m), utilities)
