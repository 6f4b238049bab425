"""The package's top-level names.  The building blocks are imported from their
modules; a new re-export has to be added here on purpose."""

import marketeq as mq

WORKFLOW_API = {
    # the modules that hold the building blocks
    "baselines", "hessian", "ipm", "market", "oracle",
    # configure and run
    "BaselineConfig", "LogBarConfig", "PathFolConfig", "logbar_run", "pathfol_run",
    "pathfol_select_params", "propres_run", "tat_run", "SolveTrace",
    # check the prices
    "equilibrium_certificate", "market_state",
    # build, load, save and validate markets
    "MarketInstance", "UtilitySpec", "build_flow_instance", "generate_random", "ingest_ratings",
    "load_instance", "save_instance", "validate",
}


def test_top_level_exports_are_the_workflow_api():
    assert set(mq.__all__) == WORKFLOW_API
