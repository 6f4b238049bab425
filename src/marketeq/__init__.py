"""Second-order tatonnement solvers for Fisher market equilibrium prices."""

from .baselines import BaselineConfig, propres_run, tat_run
from .hessian import (
    ScaledHessianOp,
    assemble,
    dr1_solve,
    pcg_solve,
    preconditioner,
)
from .ipm import (
    LogBarConfig,
    PathFolConfig,
    SolveTrace,
    equilibrium_certificate,
    logbar_init,
    logbar_run,
    newton_decrement,
    pathfol_run,
    pathfol_select_params,
)
from .market import (
    MarketInstance,
    UtilitySpec,
    build_flow_instance,
    generate_random,
    ingest_ratings,
    load_instance,
    save_instance,
    validate,
)
from .oracle import (
    BestResponse,
    PlayerHessianBlock,
    PotentialConstants,
    additive_best_response,
    best_response,
    ces_best_response,
    constrained_best_response,
    constrained_dual_hessian,
    linear_barrier_best_response,
    market_state,
    player_hessian_blocks,
    potential_constants,
    potential_gradient,
    potential_value,
)

__all__ = [name for name in dir() if not name.startswith("_")]
