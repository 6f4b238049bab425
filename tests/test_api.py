"""The package's top-level names, the public names of the building-block modules,
the solver configs' knobs and the fields of the Hessian operator and market state.
The building blocks are imported from their modules; a new re-export, a new public
helper or a new field has to be added here on purpose."""

import ast
import dataclasses
import inspect

import marketeq as mq

WORKFLOW_API = {
    # the modules that hold the building blocks
    "baselines", "hessian", "ipm", "market", "oracle",
    # configure and run
    "BaselineConfig", "LogBarConfig", "PathFolConfig", "logbar_run", "pathfol_run",
    "propres_run", "tat_run", "SolveTrace",
    # check the prices
    "equilibrium_certificate", "market_state",
    # build, load, save and validate markets
    "MarketInstance", "UtilitySpec", "build_flow_instance", "generate_random", "ingest_ratings",
    "load_instance", "save_instance", "validate",
}

# what the modules a solve runs define: module-level names and, as ``Class.method``, the
# methods of their classes.  The names a solve does not call say why they stay.
MODULE_NAMES = {
    mq.oracle: {
        "OracleError", "FeasibleStartError", "NewtonStagnationError", "ConditioningError",
        "PSI_ROUND_CAP", "PSI_POLISH_ROUNDS", "SPREAD_LIMIT",
        "linear_barrier_kkt_residual",  # the certificate's linear KKT residual
        "constrained_hessian_rows", "bid_shares", "share_csr", "market_state",
        "ShareRows", "ShareRows.matvec", "ShareRows.rmatvec",
        "ShareRows.csr",  # the explicit share matrix, for tests that read its entries
        "MarketState",
        # kept only for bench/tracer.py / bench/run.py (ROADMAP item 21)
        "BestResponse", "constrained_best_response", "constrained_dual_hessian",
        "MarketState.con_responses",
    },
    mq.ipm: {
        "STATUS_CONVERGED", "STATUS_MAXITERS", "STATUS_NUMFAIL", "TRACE_HEADER", "MU_FLOOR",
        "PRACTICAL_C_PHI", "STEP_SAFEGUARD_ETA", "ARMIJO", "BACKTRACK_MIN", "BACKTRACK_MAX",
        "MIN_ALPHA", "PHI_ACCURACY", "PCG_FORCING_CAP", "MAX_RETREATS", "JUMP_DECREMENT",
        "SIGMA_SMOOTH", "ConfigError", "TraceRow", "SolveTrace", "SolveTrace.iterations", "SolveTrace.to_csv",
        "SolveTrace.from_csv", "LogBarConfig", "LogBarConfig.validate", "PathFolConfig",
        "PathFolConfig.validate", "newton_polish", "effective_budget", "lemma_initial_mu",
        "theory_strict_Q",  # LogBar's worst-case neighbourhood radius, for criterion 11
        "logbar_run", "pathfol_run", "equilibrium_certificate",
        # the method table: what a method name runs
        "METHODS", "solve", "default_hessian_mode",
    },
    mq.hessian: {
        "DENSE_LIMIT", "GRAM_BLOCK", "OMEGA_DROP_REL", "KC_FLOOR", "SingularUpdateError",
        "ScaledHessianOp", "ScaledHessianOp.matvec", "ScaledHessianOp.row_sums",
        "ScaledHessianOp.dense", "ScaledHessianOp.preconditioner", "share_operator",
        "assemble_from_state",
        "assemble",  # H at given prices from a cold query, for the acceptance tests
        "dr1_inverse", "dr1_solve", "pcg_solve",
        # kept only for bench/tracer.py / bench/run.py (ROADMAP item 21)
        "ScaledHessianOp.diff_matvec", "diff_norm_estimate",
    },
}

CONFIG_FIELDS = {
    mq.LogBarConfig: ["Q", "eps", "sigma_override", "hessian_mode", "eps_k", "max_iters",
                      "mu_stop"],
    mq.PathFolConfig: ["beta", "gamma_step", "hessian_mode", "eps", "eps_k", "max_iters",
                       "c_phi"],
    mq.BaselineConfig: ["step", "max_iters", "eps"],
}

# the Newton system's data: a new piece of the operator or the state is a deliberate edit
STATE_FIELDS = {
    mq.hessian.ScaledHessianOp: ["n", "diag", "G", "s", "R", "t", "dr1_omega", "dr1_xi", "k_c"],
    mq.oracle.MarketState: ["p", "grad", "demand", "value", "shares", "spend", "con_x",
                            "linear_x", "psi_rounds", "con_newton_steps"],
}

# what an instance stores: the players' columns, the arrays the solvers read, two lazy
# caches; the ``utilities`` records are a view, built on first access
INSTANCE_ATTRIBUTES = ["C", "_con_groups", "_share_factors", "budgets", "cols", "con",
                       "constraints", "degree", "exponents", "is_linear", "k", "kind", "kinds",
                       "m", "n", "r", "sigma", "uncon", "uncon_C", "uncon_cols"]


def defined_names(module) -> set:
    """The public names a module's source defines at its top level (imports not
    counted), and the public methods of its classes as ``Class.method``."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names |= {f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)}
        elif isinstance(node, ast.Assign):
            names |= {target.id for target in node.targets if isinstance(target, ast.Name)}
    return {name for name in names if not any(part.startswith("_") for part in name.split("."))}


def test_top_level_exports_are_the_workflow_api():
    assert set(mq.__all__) == WORKFLOW_API


def test_module_names_are_pinned():
    for module, names in MODULE_NAMES.items():
        assert defined_names(module) == names, module.__name__


def test_config_fields_are_pinned():
    for cls, names in CONFIG_FIELDS.items():
        assert [f.name for f in dataclasses.fields(cls)] == names, cls.__name__


def test_operator_and_state_fields_are_pinned():
    for cls, names in STATE_FIELDS.items():
        assert [f.name for f in dataclasses.fields(cls)] == names, cls.__name__


def test_instance_attributes_are_pinned():
    assert sorted(vars(mq.generate_random(4, 6, 0.5, seed=1))) == INSTANCE_ATTRIBUTES
