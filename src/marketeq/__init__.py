"""Second-order tatonnement solvers for Fisher market equilibrium prices.

Exported: the workflow API (markets, configs, drivers, baselines, the
certificate) and its modules, which hold the building blocks."""

from .baselines import BaselineConfig, propres_run, tat_run
from .ipm import (
    LogBarConfig,
    PathFolConfig,
    SolveTrace,
    equilibrium_certificate,
    logbar_run,
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
from .oracle import market_state

__all__ = [name for name in dir() if not name.startswith("_")]
