"""The benchmark's markets and the solves run on them.

Every instance is generated here and handed to the program as a finished
``MarketInstance``.  The run's seed generates the CES markets at rho=-0.9
and the near-linear cell n=50, m=150 at sigma=1e-3.  The other markets are
pinned, because on other seeds they fail or slow down several-fold on known
faults (see README.md), and a cost that comes and goes with the seed cannot
be told apart from a regression: the CES markets at rho=0.9 (seed 1), the
near-linear cells at sigma = eps/n (seeds 21 and 1 of acceptance criterion
9, plus the cell n=40, seed 21 that fails every time) and the flow-mixed
market (seed 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import marketeq as mq
from marketeq.market import LINEAR_BARRIER, MarketInstance, ces_spec

CES_EPS = 1e-7
LINEAR_EPS = 1e-6
PINNED_SEED = 1


@dataclass
class Cell:
    """One generated market and the solves run on it."""

    label: str
    kind: str  # "ces" | "linear" | "flow"
    instance: MarketInstance
    eps: float
    solves: list  # (method, hessian mode)


@dataclass
class Solve:
    cell: Cell
    method: str
    mode: str

    @property
    def label(self) -> str:
        return f"{self.cell.label} {self.method}-{self.mode}"

    def config(self):
        if self.cell.kind == "linear":
            # acceptance criterion 9's settings; the driver picks the sigma continuation
            return mq.LogBarConfig(eps=self.cell.eps, hessian_mode=self.mode, max_iters=600)
        if self.method == "logbar":
            # the defaults of `marketeq solve`
            return mq.LogBarConfig(eps=self.cell.eps, sigma_override=0.5, hessian_mode=self.mode,
                                   eps_k=1e-8, max_iters=2000)
        return mq.PathFolConfig(eps=self.cell.eps, hessian_mode=self.mode, eps_k=1e-8,
                                max_iters=2000)

    def runner(self):
        """A zero-argument call that runs the solve; built outside the timed region."""
        inst, cfg = self.cell.instance, self.config()
        if self.method == "logbar":
            return lambda: mq.logbar_run(inst, cfg)
        p0 = np.full(inst.n, inst.total_budget() / inst.n)
        return lambda: mq.pathfol_run(inst, cfg, p0)


def _ces_cells(n, m, seed, modes, pathfol_mode):
    cells = []
    for rho, cell_seed in ((0.9, PINNED_SEED), (-0.9, seed)):
        inst = mq.generate_random(n, m, 0.2, rho=rho, seed=cell_seed)
        solves = [("logbar", mode) for mode in modes] + [("pathfol", pathfol_mode)]
        cells.append(Cell(f"ces n={n} m={m} rho={rho} seed={cell_seed}", "ces", inst, CES_EPS,
                          solves))
    return cells


def _near_linear_cells(seed):
    cells = []
    for n, m, cell_seed, sigma in ((20, 50, 21, LINEAR_EPS / 20), (20, 50, 1, LINEAR_EPS / 20),
                                   (50, 150, seed, 1e-3), (40, 100, 21, LINEAR_EPS / 40)):
        inst = mq.generate_random(n, m, 0.5, seed=cell_seed, kind=LINEAR_BARRIER, sigma=sigma)
        cells.append(Cell(f"linear n={n} m={m} seed={cell_seed} sigma={sigma:.3g}", "linear",
                          inst, LINEAR_EPS, [("logbar", "exact")]))
    return cells


FLOW_LAYERS = 5  # s -> 5 nodes -> 5 nodes -> t, every edge between layers
FLOW_PLAYERS = 32
FLOW_CES_PLAYERS = 200
FLOW_CES_DENSITY = 0.3


def _flow_cells(seed):
    left = [f"a{i}" for i in range(FLOW_LAYERS)]
    right = [f"b{i}" for i in range(FLOW_LAYERS)]
    edges = ([("s", a) for a in left] + [(a, b) for a in left for b in right]
             + [(b, "t") for b in right])
    flow = mq.build_flow_instance(edges, [("s", "t")] * FLOW_PLAYERS, rho=0.5)
    n = flow.n
    rng = np.random.default_rng(seed)
    utilities = list(flow.utilities)
    for _ in range(FLOW_CES_PLAYERS):
        c = np.where(rng.random(n) < FLOW_CES_DENSITY, 1.0 - rng.random(n), 0.0)
        if not c.any():
            c[rng.integers(n)] = 1.0 - rng.random()
        utilities.append(ces_spec(c, 0.5))
    m = len(utilities)
    inst = MarketInstance(n, m, np.full(m, 1.0 / m), utilities, flow.constraints)
    return [Cell(f"flow n={n} m={m} seed={seed}", "flow", inst, CES_EPS,
                 [("logbar", "exact"), ("pathfol", "exact")])]


BUILDERS = {
    "ces-large": lambda seed: _ces_cells(1000, 3000, seed, ("dr1", "pcg"), "dr1"),
    "ces-dense": lambda seed: _ces_cells(500, 1500, seed, ("exact",), "exact"),
    "near-linear": _near_linear_cells,
    "flow-mixed": lambda seed: _flow_cells(PINNED_SEED),
}


def fill_caches(inst: MarketInstance) -> None:
    """Build the instance's lazy CSR views now rather than inside the first solve."""
    inst.coeff_csr()
    inst.log_coeff_data()
    inst.nnz_row_index()


def solves_of(cells) -> list[Solve]:
    return [Solve(cell, method, mode) for cell in cells for method, mode in cell.solves]

