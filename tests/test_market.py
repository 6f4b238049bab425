import json
import os
from fractions import Fraction

import numpy as np
import pytest

from marketeq import market
from marketeq.market import (
    ADDITIVE,
    CES,
    LINEAR_BARRIER,
    DisconnectedTerminalsError,
    IngestError,
    MarketInstance,
    UtilitySpec,
    build_flow_instance,
    ces_spec,
    flow_constraint_rows,
    generate_random,
    ingest_ratings,
    load_instance,
    parse_flow_file,
    save_instance,
    validate,
)

from conftest import mixed_flow_instance


def exact_rank(rows):
    """Row rank over the rationals by fraction-free Gaussian elimination."""
    M = [[Fraction(x).limit_denominator() for x in row] for row in np.asarray(rows).tolist()]
    rank = 0
    rpos = 0
    for col in range(len(M[0])):
        piv = next((r for r in range(rpos, len(M)) if M[r][col] != 0), None)
        if piv is None:
            continue
        M[rpos], M[piv] = M[piv], M[rpos]
        for r in range(len(M)):
            if r != rpos and M[r][col] != 0:
                f = M[r][col] / M[rpos][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[rpos])]
        rpos += 1
        rank += 1
    return rank


def reference_flow_rows(edges, nodes, s, t):
    """The balance rows built node by node, one scan of the edges per node."""
    n = 1 + len(edges)
    rows = []
    for node in [s, t] + [v for v in nodes if v not in (s, t)]:
        row = np.zeros(n)
        inflow_sign = 1.0 if node in (s, t) else -1.0
        if node == s:
            row[0] = 1.0
        elif node == t:
            row[0] = -1.0
        for e, (u, v) in enumerate(edges):
            if u == node:
                row[1 + e] -= inflow_sign  # outflow
            if v == node:
                row[1 + e] += inflow_sign  # inflow
        rows.append(row)
    return np.array(rows)


def reference_independent_rows(A, tol=1e-10):
    """Greedy selection: row i is kept when it raises matrix_rank of the kept rows."""
    keep = []
    for i in range(A.shape[0]):
        if np.linalg.matrix_rank(A[keep + [i]], tol=tol) == len(keep) + 1:
            keep.append(i)
    return A[keep], keep


class TestValidate:
    def test_constraints_on_linear_barrier_players_refused(self):
        # market_state's linear branch never reads A: the solve "converged" with A x = -0.44
        specs = [UtilitySpec(LINEAR_BARRIER, [0, 1, 2], [1.0, 2.0, 0.5], sigma=0.1),
                 UtilitySpec(LINEAR_BARRIER, [0, 1, 2], [0.5, 1.0, 2.0], sigma=0.1)]
        inst = MarketInstance(3, 2, [0.5, 0.5], specs, {0: [[1.0, -1.0, 0.0]]})
        assert validate(inst) == ["player 0: constraints apply to CES and additive players only"]

    def test_ces_rho_zero_rejected(self):
        inst = MarketInstance(2, 1, [1.0], [UtilitySpec(CES, [0, 1], [1.0, 1.0], rho=0.0)])
        report = validate(inst)
        assert any("rho must be nonzero" in v for v in report)

    def test_additive_concavity_window(self):
        # k = 2 > 1/r for r = 0.9 violates the concavity condition
        inst = MarketInstance(2, 1, [1.0], [UtilitySpec(ADDITIVE, [0, 1], [1.0, 1.0], k=2.0, r=0.9)])
        report = validate(inst)
        assert any("concavity window" in v for v in report)
        # boundary k = 1/r is allowed
        inst = MarketInstance(2, 1, [1.0], [UtilitySpec(ADDITIVE, [0, 1], [1.0, 1.0], k=1.0 / 0.9, r=0.9)])
        assert validate(inst) == []

    def test_valid_symmetric_instance(self):
        inst = MarketInstance(
            2, 2, [0.5, 0.5],
            [UtilitySpec(CES, [0, 1], [1.0, 1.0], rho=0.5) for _ in range(2)],
        )
        assert validate(inst) == []

    def test_unvalued_good_flagged(self):
        inst = MarketInstance(3, 1, [1.0], [UtilitySpec(CES, [0, 1], [1.0, 1.0], rho=0.5)])
        assert any("valued by no player" in v for v in validate(inst))

    def test_nonpositive_budget(self):
        inst = MarketInstance(2, 1, [0.0], [UtilitySpec(CES, [0, 1], [1.0, 1.0], rho=0.5)])
        assert any("budgets" in v for v in validate(inst))

    def test_linear_sigma_positive(self):
        inst = MarketInstance(2, 1, [1.0], [UtilitySpec(LINEAR_BARRIER, [0, 1], [1.0, 1.0], sigma=0.0)])
        assert any("sigma" in v for v in validate(inst))

    def test_mixed_linear_rejected(self):
        inst = MarketInstance(2, 2, [0.5, 0.5], [
            UtilitySpec(CES, [0, 1], [1.0, 1.0], rho=0.5),
            UtilitySpec(LINEAR_BARRIER, [0, 1], [1.0, 1.0], sigma=0.1),
        ])
        assert any("mixed" in v for v in validate(inst))

    def test_linear_sigmas_must_agree(self):
        # with sigma alternating 0.05/0.2 the gradient disagreed with the potential
        base = generate_random(5, 8, 0.6, seed=3, kind=LINEAR_BARRIER, sigma=0.05)

        def with_sigmas(sigmas):
            utilities = [UtilitySpec(LINEAR_BARRIER, u.idx, u.val, sigma=s)
                         for u, s in zip(base.utilities, sigmas)]
            return MarketInstance(base.n, base.m, base.budgets, utilities)

        assert "linear_barrier players must share one sigma" in validate(with_sigmas([0.05, 0.2] * 4))
        assert validate(with_sigmas([0.05] * 8)) == []

    def test_invalid_rho_reaches_validate(self):
        for rho in (0.0, None):
            inst = MarketInstance(2, 1, [1.0], [UtilitySpec(CES, [0, 1], [1.0, 1.0], rho=rho)])
            assert np.isnan(inst.r[0]) and np.isnan(inst.k[0])
            assert any("rho must be nonzero" in v for v in validate(inst))

    # a -1 must not wrap onto good 2 and hide that no player values it
    @pytest.mark.parametrize("n, idx, unvalued", [(2, [0, 5], [1]), (3, [-1, 0], [1, 2])])
    def test_out_of_range_index_reported(self, n, idx, unvalued):
        inst = MarketInstance(n, 1, [1.0], [UtilitySpec(CES, idx, [1.0, 1.0], rho=0.5)])
        report = validate(inst)
        assert "player 0: coefficient index out of range" in report
        assert f"goods valued by no player: {unvalued}" in report

    def test_additive_missing_exponent_reported(self):
        inst = MarketInstance(2, 1, [1.0], [UtilitySpec(ADDITIVE, [0, 1], [1.0, 1.0])])
        assert "player 0: additive players need both k and r" in validate(inst)

    # non-finite input is reported rather than solved into a misleading
    # "demand overflow"; neither building the instance nor validating it may warn
    @pytest.mark.parametrize("budgets, spec, message", [
        ([0.5, 0.5], UtilitySpec(CES, [0, 1], [np.nan, 1.0], rho=0.5),
         "player 0: coefficients must be finite"),
        ([0.5, 0.5], UtilitySpec(CES, [0, 1], [np.inf, 1.0], rho=0.5),
         "player 0: coefficients must be finite"),
        ([0.5, 0.5], UtilitySpec(CES, [0, 1], [-np.inf, 1.0], rho=0.5),
         "player 0: coefficients must be finite"),
        ([np.inf, 0.5], UtilitySpec(CES, [0, 1], [1.0, 1.0], rho=0.5),
         "all budgets must be positive and finite"),
        ([0.5, 0.5], UtilitySpec(CES, [0, 1], [1.0, 1.0], rho=-np.inf),
         "player 0: rho must lie in (-inf,0) or (0,1)"),
        ([0.5, 0.5], UtilitySpec(LINEAR_BARRIER, [0, 1], [1.0, 1.0], sigma=np.inf),
         "player 0: sigma must be positive and finite"),
    ], ids=["nan-coefficient", "inf-coefficient", "minus-inf-coefficient", "inf-budget",
            "ces-rho-minus-inf", "linear-sigma-inf"])
    def test_non_finite_input_reported(self, budgets, spec, message):
        # a valid second player of the same kind
        second = (UtilitySpec(LINEAR_BARRIER, [0, 1], [1.0, 1.0], sigma=0.1)
                  if spec.kind == LINEAR_BARRIER else UtilitySpec(CES, [0, 1], [1.0, 1.0], rho=0.5))
        inst = MarketInstance(2, 2, budgets, [spec, second])
        assert message in validate(inst)

    def test_duplicate_index_reported(self):
        # the batch summed both entries of good 0 (shares 0.769/0.231 at p = (0.6, 0.4))
        # while best_response kept the last (0.727/0.273)
        inst = MarketInstance(2, 2, [0.5, 0.5], [
            UtilitySpec(CES, [0, 0, 1], [1.0, 2.0, 1.0], rho=0.5),
            UtilitySpec(CES, [0, 1], [1.0, 1.0], rho=0.5),
        ])
        assert validate(inst) == ["player 0: duplicate coefficient index"]

    def test_reports_come_player_by_player(self):
        inst = MarketInstance(3, 4, [0.25] * 4, [
            UtilitySpec("linear", [0], [1.0]),  # an unknown kind skips the coefficient checks
            UtilitySpec(CES, [0, 5], [-1.0, 0.0], rho=0.0),
            UtilitySpec(CES, [], [], rho=0.5),
            UtilitySpec(CES, [0, 1], [np.nan, 1.0], rho=0.5),
        ])
        assert validate(inst) == [
            "player 0: unknown utility kind 'linear'",
            "player 1: rho must be nonzero",
            "player 1: coefficients must be nonnegative",
            "player 1: needs at least one positive coefficient",
            "player 1: coefficient index out of range",
            "player 2: needs at least one positive coefficient",
            "player 3: coefficients must be finite",
            "goods valued by no player: [2]",
        ]

    # the constructor builds the coefficient arrays but rejects nothing: validate reports
    @pytest.mark.parametrize("n, m, budgets, constraints, message", [
        (2, 3, [1.0, 1.0, 1.0], {2: [[1.0, -1.0]]}, "utilities length must equal m"),
        (-1, 1, [1.0], None, "n and m must be at least 1"),
        (2, 1, [1.0], {-1: [[1.0, -1.0]]}, "constraint for unknown player -1"),
    ], ids=["constrained-player-without-spec", "negative-n", "constraint-of-unknown-player"])
    def test_constructor_leaves_bad_input_to_validate(self, n, m, budgets, constraints, message):
        inst = MarketInstance(n, m, budgets, [UtilitySpec(CES, [0, 1], [1.0, 1.0], rho=0.5)],
                              constraints)
        assert message in validate(inst)

    def test_rank_deficient_constraints_flagged(self):
        A = np.array([[1.0, -1.0], [-1.0, 1.0]])
        inst = MarketInstance(2, 1, [1.0],
                              [UtilitySpec(CES, [0, 1], [1.0, 1.0], rho=0.5)],
                              constraints={0: A})
        assert any("full row rank" in v for v in validate(inst))

    # matrix_rank's SVD does not converge on a NaN; validate must report, not raise
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_constraint_reported(self, bad):
        inst = MarketInstance(3, 1, [1.0], [UtilitySpec(CES, [0, 1, 2], [1.0, 1.0, 1.0], rho=0.5)],
                              constraints={0: np.array([[1.0, bad, -1.0]])})
        assert validate(inst) == ["player 0: constraint matrix entries must be finite"]


class TestGenerate:
    def test_dense_example(self):
        inst = generate_random(4, 6, 1.0, delta=1.0, rho=0.5, seed=7)
        assert inst.n == 4 and inst.m == 6
        assert inst.coeff_csr().nnz == 24
        assert abs(inst.budgets.sum() - 1.0) < 1e-15
        assert validate(inst) == []

    def test_determinism(self):
        a = generate_random(8, 12, 0.4, seed=3)
        b = generate_random(8, 12, 0.4, seed=3)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(b.to_json_dict(), sort_keys=True)

    def test_nonzero_fraction_statistical(self):
        # tau within +-0.05 once n*m >= 1e4
        inst = generate_random(100, 120, 0.3, seed=11)
        frac = inst.coeff_csr().nnz / (100 * 120)
        assert abs(frac - 0.3) <= 0.05
        assert validate(inst) == []

    def test_figure_scale_parameters(self):
        inst = generate_random(1000, 3000, 0.2, rho=0.9, seed=1)
        assert validate(inst) == []
        frac = inst.coeff_csr().nnz / (1000 * 3000)
        assert abs(frac - 0.2) <= 0.05

    def test_sparse_repair_keeps_validity(self):
        # extremely sparse draw exercises both row and column repair
        inst = generate_random(30, 10, 0.01, seed=5)
        assert validate(inst) == []

    def test_bad_params(self):
        with pytest.raises(ValueError):
            generate_random(4, 4, 0.0)
        with pytest.raises(ValueError):
            generate_random(4, 4, 0.5, delta=-1.0)
        with pytest.raises(ValueError):
            generate_random(4, 4, 0.5, rho=1.5)
        with pytest.raises(ValueError):
            generate_random(4, 4, 0.5, kind=LINEAR_BARRIER, sigma=None)
        # only CES and linear-barrier markets are generated; other kinds are refused
        with pytest.raises(ValueError, match="bogus"):
            generate_random(4, 4, 0.5, kind="bogus", sigma=0.1)
        with pytest.raises(ValueError, match="additive"):
            generate_random(4, 4, 0.5, kind="additive")


class TestSerialization:
    def test_round_trip(self, tmp_path):
        inst = generate_random(5, 7, 0.6, rho=-1.2, seed=9)
        inst.constraints[2] = np.array([[1.0, -1.0, 0.0, 0.0, 0.0]])
        path = os.path.join(tmp_path, "inst.json")
        save_instance(inst, path)
        back = load_instance(path)
        assert back.n == inst.n and back.m == inst.m
        assert np.allclose(back.budgets, inst.budgets)
        for u, v in zip(back.utilities, inst.utilities):
            assert u.kind == v.kind
            assert np.array_equal(u.idx, v.idx)
            assert np.allclose(u.val, v.val)
            assert u.rho == v.rho
        assert np.allclose(back.constraints[2], inst.constraints[2])


def columns(inst):
    return {name: getattr(inst, name) for name in ("r", "k", "sigma", "degree", "con", "uncon")}


class TestColumns:
    def test_ces_both_signs(self):
        for rho in (0.7, -1.2):
            inst = generate_random(6, 9, 0.5, rho=rho, seed=4)
            assert np.array_equal(inst.r, np.full(9, rho))
            assert np.array_equal(inst.k, np.full(9, 1.0 / rho))
            assert np.all(np.isnan(inst.sigma))
            assert np.array_equal(inst.degree, inst.k * inst.r)
            assert np.allclose(inst.degree, 1.0, rtol=1e-15)
            assert inst.con.size == 0 and np.array_equal(inst.uncon, np.arange(9))
            assert inst.kinds == {CES} and not inst.is_linear

    def test_additive(self):
        inst = MarketInstance(2, 2, [0.5, 0.5], [
            UtilitySpec(ADDITIVE, [0, 1], [1.0, 2.0], k=2.0, r=0.4),
            UtilitySpec(ADDITIVE, [1], [1.0], k=-1.0, r=-0.5),
        ])
        assert validate(inst) == []
        assert np.array_equal(inst.r, [0.4, -0.5])
        assert np.array_equal(inst.k, [2.0, -1.0])
        assert np.array_equal(inst.degree, [2.0 * 0.4, 0.5])
        assert np.all(np.isnan(inst.sigma))
        assert inst.kinds == {ADDITIVE}

    def test_linear_barrier(self):
        inst = generate_random(7, 5, 0.6, seed=2, kind=LINEAR_BARRIER, sigma=0.01)
        assert np.all(np.isnan(inst.r)) and np.all(np.isnan(inst.k))
        assert np.array_equal(inst.sigma, np.full(5, 0.01))
        assert np.array_equal(inst.degree, np.full(5, 1.0 + 0.01 * 7))
        assert inst.is_linear and np.array_equal(inst.uncon, np.arange(5))

    def test_flow(self):
        inst = mixed_flow_instance(players=2, ces_players=3)
        assert np.array_equal(inst.con, [0, 1])
        assert np.array_equal(inst.uncon, [2, 3, 4])
        assert inst.con.dtype == inst.uncon.dtype == np.int64
        assert np.array_equal(inst.r, np.full(5, 0.5))
        assert np.array_equal(inst.degree, np.ones(5))

    def test_json_round_trip_is_bitwise(self, tmp_path):
        flow = mixed_flow_instance()
        for inst in (generate_random(6, 9, 0.5, rho=-0.37, seed=1), flow,
                     generate_random(4, 6, 0.7, seed=5, kind=LINEAR_BARRIER, sigma=3e-7)):
            path = os.path.join(tmp_path, "inst.json")
            save_instance(inst, path)
            back = load_instance(path)
            for name, col in columns(inst).items():
                assert np.array_equal(getattr(back, name), col, equal_nan=True), name
            assert back.kinds == inst.kinds and back.is_linear == inst.is_linear

    def test_with_barrier_sigma_changes_only_sigma(self):
        inst = generate_random(6, 8, 0.5, seed=3, kind=LINEAR_BARRIER, sigma=0.05)
        before = {name: col.copy() for name, col in columns(inst).items()}
        clone = market.with_barrier_sigma(inst, 0.002)
        assert clone.C is inst.C and clone.cols is inst.cols
        assert clone.uncon_C is inst.uncon_C and clone.uncon_cols is inst.uncon_cols
        assert np.array_equal(clone.sigma, np.full(8, 0.002))
        assert np.array_equal(clone.degree, 1.0 + clone.sigma * 6)
        assert [u.sigma for u in clone.utilities] == [0.002] * 8
        for name in ("r", "k", "con", "uncon"):
            assert np.array_equal(getattr(clone, name), before[name], equal_nan=True)
        # the parent keeps its own sigma
        for name, col in columns(inst).items():
            assert np.array_equal(col, before[name], equal_nan=True)
        assert [u.sigma for u in inst.utilities] == [0.05] * 8
        assert np.array_equal(clone.budgets, inst.budgets)

    @pytest.mark.parametrize("sigma", [0.0, -0.5, float("nan"), float("inf")])
    def test_with_barrier_sigma_refuses_a_bad_sigma(self, sigma):
        # refused at once: a sigma=0 clone used to run 392 LogBar iterations
        # before ending NumericalFailure
        inst = generate_random(6, 10, 0.6, seed=2, kind=LINEAR_BARRIER, sigma=1e-2)
        with pytest.raises(ValueError, match="sigma must be positive"):
            market.with_barrier_sigma(inst, sigma)

    def test_nnz_col_index_is_intp_csr_indices(self):
        inst = generate_random(6, 9, 0.5, rho=-0.37, seed=1)
        assert inst.cols.dtype == np.intp
        assert np.array_equal(inst.cols, inst.C.indices)

    def test_uncon_rows(self):
        plain = generate_random(6, 9, 0.5, rho=-0.37, seed=1)
        assert plain.uncon_C is plain.C and plain.uncon_cols is plain.cols
        flow = mixed_flow_instance(players=2, ces_players=3)
        C, cols = flow.uncon_C, flow.uncon_cols
        assert np.array_equal(C.toarray(), flow.C.toarray()[flow.uncon])
        assert cols.dtype == np.intp and np.array_equal(cols, C.indices)


class TestIngest:
    def write(self, tmp_path, text):
        path = os.path.join(tmp_path, "ratings.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def test_tiny_fixture(self, tmp_path):
        path = self.write(tmp_path, "user_id,item_id,rating\nu1,i1,4.0\nu1,i2,2.0\nu2,i2,5.0\n")
        inst, maps = ingest_ratings(path)
        assert inst.m == 2 and inst.n == 2
        C = np.asarray(inst.coeff_csr().todense())
        assert np.allclose(C, [[4.0, 2.0], [0.0, 5.0]])
        assert maps["users"] == ["u1", "u2"] and maps["items"] == ["i1", "i2"]
        assert np.allclose(inst.budgets, 0.5)
        assert validate(inst) == []

    def test_unrated_item_dropped(self, tmp_path):
        # zero rating leaves i2 with no support, so the good disappears
        path = self.write(tmp_path, "user_id,item_id,rating\nu1,i1,4.0\nu1,i2,0.0\nu2,i1,1.0\n")
        inst, maps = ingest_ratings(path)
        assert inst.n == 1
        assert maps["items"] == ["i1"]

    def test_malformed_row_reports_line(self, tmp_path):
        path = self.write(tmp_path, "user_id,item_id,rating\na,b,x\n")
        with pytest.raises(IngestError) as exc:
            ingest_ratings(path)
        assert "line 2" in str(exc.value)

    def test_duplicate_keeps_last(self, tmp_path):
        path = self.write(tmp_path, "user_id,item_id,rating\nu1,i1,1.0\nu1,i1,3.0\n")
        inst, _ = ingest_ratings(path)
        assert np.allclose(np.asarray(inst.coeff_csr().todense()), [[3.0]])

    def test_limits(self, tmp_path):
        rows = ["user_id,item_id,rating"]
        for ui in range(5):
            for ii in range(4):
                rows.append(f"u{ui},i{ii},{1 + ui + ii}")
        path = self.write(tmp_path, "\n".join(rows) + "\n")
        inst, maps = ingest_ratings(path, max_users=3, max_items=2)
        assert inst.m == 3 and inst.n == 2
        assert maps["users"] == ["u0", "u1", "u2"]

    def test_extra_columns_ignored(self, tmp_path):
        path = self.write(tmp_path, "userId,movieId,rating,timestamp\n1,10,4.5,999\n2,10,3.0,999\n")
        inst, _ = ingest_ratings(path)
        assert inst.m == 2 and inst.n == 1

    def test_empty_result(self, tmp_path):
        path = self.write(tmp_path, "user_id,item_id,rating\n")
        with pytest.raises(IngestError):
            ingest_ratings(path)


class TestFlow:
    def test_single_edge_forces_equal_flow(self):
        inst = build_flow_instance([("s", "t")], [("s", "t")])
        A = inst.constraints[0]
        assert A.shape == (1, 2)
        # A encodes x0 = xe
        assert abs(A[0, 0] + A[0, 1]) < 1e-15 and abs(A[0, 0]) == 1.0
        assert validate(inst) == []

    def test_parallel_edges_rank_by_elimination(self):
        # the raw two-row system over [x0, e1, e2] has exact rank 1: the
        # sink row is the negated source row
        raw = flow_constraint_rows([("s", "t"), ("s", "t")], ["s", "t"], "s", "t")
        assert exact_rank(raw) == 1
        inst = build_flow_instance([("s", "t"), ("s", "t")], [("s", "t")])
        assert inst.constraints[0].shape == (1, 3)

    def test_triangle_internal_node_row(self):
        edges = [("s", "t"), ("s", "v"), ("v", "t")]
        raw = flow_constraint_rows(edges, ["s", "t", "v"], "s", "t")
        # the v row sums outflow - inflow over [x0, e_st, e_sv, e_vt]
        assert np.allclose(raw[2], [0.0, 0.0, -1.0, 1.0])
        assert exact_rank(raw) == 2
        inst = build_flow_instance(edges, [("s", "t")])
        assert inst.constraints[0].shape == (2, 4)

    def test_path_indicator_in_nullspace(self):
        edges = [("s", "t"), ("s", "v"), ("v", "t")]
        raw = flow_constraint_rows(edges, ["s", "t", "v"], "s", "t")
        for path in ([1, 1, 0, 0], [1, 0, 1, 1]):
            assert np.allclose(raw @ np.array(path, dtype=float), 0.0)
        inst = build_flow_instance(edges, [("s", "t")])
        for path in ([1, 1, 0, 0], [1, 0, 1, 1]):
            assert np.allclose(inst.constraints[0] @ np.array(path, dtype=float), 0.0)

    def test_disconnected_terminals(self):
        with pytest.raises(DisconnectedTerminalsError):
            build_flow_instance([("a", "b")], [("b", "a")])
        with pytest.raises(ValueError):
            build_flow_instance([("a", "b")], [("a", "a")])

    def test_flow_instance_validates(self):
        edges = [("s", "v"), ("v", "t"), ("s", "t")]
        inst = build_flow_instance(edges, [("s", "t"), ("s", "v")], rho=0.4)
        assert validate(inst) == []

    def test_rows_match_the_node_by_node_reference_on_the_layered_graph(self):
        # the benchmark's flow-mixed network: s -> 5 nodes -> 5 nodes -> t
        left, right = [f"a{i}" for i in range(5)], [f"b{i}" for i in range(5)]
        edges = ([("s", a) for a in left] + [(a, b) for a in left for b in right]
                 + [(b, "t") for b in right])
        nodes = sorted({u for u, _ in edges} | {v for _, v in edges}, key=str)
        raw = flow_constraint_rows(edges, nodes, "s", "t")
        assert np.array_equal(raw, reference_flow_rows(edges, nodes, "s", "t"))
        reduced, keep = reference_independent_rows(raw)
        assert keep == list(range(11))  # only the last row depends on the others
        assert np.array_equal(market._independent_rows(raw), reduced)
        assert np.array_equal(build_flow_instance(edges, [("s", "t")]).constraints[0], reduced)

    def test_rows_match_the_reference_on_random_digraphs(self):
        rng = np.random.default_rng(2024)
        cases = inner_drops = 0
        while cases < 150:
            # up to three components, so dependent rows also fall before independent ones
            count = int(rng.integers(3, 15))
            part = rng.integers(0, rng.integers(1, 4), count)
            density = rng.choice([0.15, 0.3, 0.6])
            edges = [(u, v) for u in range(count) for v in range(count) if part[u] == part[v]
                     and rng.random() < density and (u != v or rng.random() < 0.3)]
            nodes = sorted({u for u, _ in edges} | {v for _, v in edges}, key=str)
            if len(nodes) < 2:
                continue
            s, t = (int(v) for v in rng.choice(nodes, 2, replace=False))
            raw = flow_constraint_rows(edges, nodes, s, t)
            assert np.array_equal(raw, reference_flow_rows(edges, nodes, s, t))
            reduced, keep = reference_independent_rows(raw)
            assert np.array_equal(market._independent_rows(raw), reduced), (edges, s, t)
            cases += 1
            # a dropped row before a kept one: the case the QR must factor again
            inner_drops += keep != list(range(len(keep)))
        assert inner_drops >= 10

    def test_parse_flow_file(self, tmp_path):
        path = os.path.join(tmp_path, "g.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# triangle\ns t\ns v\nv t\nterminals:\ns t\n")
        edges, terminals = parse_flow_file(path)
        assert edges == [("s", "t"), ("s", "v"), ("v", "t")]
        assert terminals == [("s", "t")]


def test_atomic_write(tmp_path):
    path = os.path.join(tmp_path, "out.txt")
    market.atomic_write_text(path, "hello")
    with open(path) as fh:
        assert fh.read() == "hello"
    # no temp litter
    assert [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")] == []


def test_ces_spec_helper():
    spec = ces_spec(np.array([0.0, 2.0, 1.0]), 0.5)
    assert np.array_equal(spec.idx, [1, 2])
    inst = MarketInstance(3, 1, [1.0], [spec])
    assert inst.degree[0] == 1.0
    assert inst.k[0] == 2.0
