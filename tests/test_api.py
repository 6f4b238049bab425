"""The package's top-level names, the solver configs' knobs and the fields of
the Hessian operator and market state.  The building blocks are imported from
their modules; a new re-export or a new field has to be added here on purpose."""

import dataclasses

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

CONFIG_FIELDS = {
    mq.LogBarConfig: ["Q", "eps", "sigma_override", "hessian_mode", "eps_k", "max_iters",
                      "theory_strict", "mu_stop", "keep_iterates"],
    mq.PathFolConfig: ["beta", "gamma_step", "hessian_mode", "eps", "eps_k", "max_iters",
                       "c_phi", "keep_iterates"],
    mq.BaselineConfig: ["method", "step", "max_iters", "eps"],
}

# the Newton system's data: a new piece of the operator or the state is a deliberate edit
STATE_FIELDS = {
    mq.hessian.ScaledHessianOp: ["n", "diag", "G", "s", "R", "t", "dr1_omega", "dr1_xi", "k_c"],
    mq.oracle.MarketState: ["p", "grad", "demand", "value", "shares", "spend", "con_x",
                            "linear_x", "psi_rounds", "con_newton_steps"],
}

# what an instance stores: the input record, the arrays the solvers read, two lazy caches
INSTANCE_ATTRIBUTES = ["C", "_con_groups", "_share_factors", "budgets", "cols", "con",
                       "constraints", "degree", "is_linear", "k", "kinds", "m", "n", "r", "sigma",
                       "uncon", "uncon_C", "uncon_cols", "utilities"]


def test_top_level_exports_are_the_workflow_api():
    assert set(mq.__all__) == WORKFLOW_API


def test_config_fields_are_pinned():
    for cls, names in CONFIG_FIELDS.items():
        assert [f.name for f in dataclasses.fields(cls)] == names, cls.__name__


def test_operator_and_state_fields_are_pinned():
    for cls, names in STATE_FIELDS.items():
        assert [f.name for f in dataclasses.fields(cls)] == names, cls.__name__


def test_instance_attributes_are_pinned():
    assert sorted(vars(mq.generate_random(4, 6, 0.5, seed=1))) == INSTANCE_ATTRIBUTES
