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


class TestValidate:
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

    def test_rank_deficient_constraints_flagged(self):
        A = np.array([[1.0, -1.0], [-1.0, 1.0]])
        inst = MarketInstance(2, 1, [1.0],
                              [UtilitySpec(CES, [0, 1], [1.0, 1.0], rho=0.5)],
                              constraints={0: A})
        assert any("full row rank" in v for v in validate(inst))


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
    assert spec.degree == 1.0
    assert spec.k_exponent == 2.0
