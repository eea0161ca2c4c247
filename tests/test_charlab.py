import pytest

from racgk import charlab
from racgk.charlab import (C2, C4_REAL, D8, CharacterTable, CharLabError,
                           basis_solver, decompose_in_basis,
                           lemma_c4_real_report, lemma_d8_report, mat2_mul,
                           parity_sweep, restriction_image, verify_tau, I2,
                           NEG_I2, TAU_EPSILON, TAU_SIGMA)


def test_tables_load():
    for table in (C2, D8, C4_REAL):
        assert sum(table.class_sizes) == table.order


def test_orthogonality_enforced():
    with pytest.raises(CharLabError, match="orthogonal"):
        CharacterTable("bad", [1, 1], [[1, 1], [1, 0]])


def test_bad_norm_rejected():
    with pytest.raises(CharLabError, match="norm"):
        CharacterTable("bad", [1, 1], [[1, 1], [3, -3]])


def test_decompose_in_basis():
    c2 = basis_solver(C2)
    assert decompose_in_basis(c2, [2, -2]) == {1: 2}
    assert decompose_in_basis(c2, [1, 1]) == {0: 1}
    assert decompose_in_basis(c2, [0, 0]) == {}
    d8 = basis_solver(D8)
    assert decompose_in_basis(d8, [3, -1, 1, 1, 1]) == {0: 1, 4: 1}
    with pytest.raises(CharLabError, match="non-integral"):
        decompose_in_basis(c2, [1, 0])
    with pytest.raises(CharLabError, match="square"):
        basis_solver(C4_REAL)
    # the constructor refuses dependent rows, so they are set afterwards
    # on a table of its own
    dependent = CharacterTable("C2", C2.class_sizes, C2.characters)
    dependent.characters = [[1, 1], [2, 2]]
    with pytest.raises(CharLabError, match="dependent"):
        basis_solver(dependent)


def test_d8_restriction_lattice():
    lat = restriction_image(D8, C2, {0: D8.class_of["e"],
                                     1: D8.class_of["s2"]})
    assert lat.basis == [{0: 1}, {1: 2}]


def test_d8_sign_multiples():
    rep = lemma_d8_report()
    assert rep["parity_ok"]
    ok_odd = dict(rep["parity_sweep"])
    assert ok_odd[1] is False and ok_odd[2] is True and ok_odd[-3] is False


def test_d8_certificate_is_the_two_dimensional_irreducible():
    rep = lemma_d8_report()
    assert rep["certificate_is_tau"]
    assert rep["two_lambda_certificate"] == [0, 0, 0, 0, 1]


def test_restriction_to_trivial_group_is_dimension_lattice():
    trivial = CharacterTable("1", [1], [[1]], class_of={"e": 0})
    lat = restriction_image(D8, trivial, {0: D8.class_of["e"]})
    assert lat.basis == [{0: 1}]


def test_c4_real_lattice():
    rep = lemma_c4_real_report()
    assert rep["lattice_matches_tr_2lambda"]
    assert rep["parity_ok"]


def test_parity_direction_tr_always_in_image():
    lat = restriction_image(D8, C2, {0: 0, 1: 1})
    sweep = parity_sweep(lat, {0: 1})
    assert all(ok for _, ok in sweep)


def test_tau_matrix_identities():
    rep = verify_tau()
    assert rep["ok"]
    assert all(rep["checks"].values())


def test_tau_square_is_minus_identity():
    assert mat2_mul(TAU_SIGMA, TAU_SIGMA) == NEG_I2
    s2 = mat2_mul(TAU_SIGMA, TAU_SIGMA)
    assert mat2_mul(s2, s2) == I2
    assert mat2_mul(TAU_EPSILON, TAU_EPSILON) == I2


def test_lattice_order_independence():
    lat = restriction_image(D8, C2, {0: 0, 1: 1})
    reversed_table = CharacterTable(
        "D8r", D8.class_sizes, list(reversed(D8.characters)), D8.class_of)
    lat2 = restriction_image(reversed_table, C2, {0: 0, 1: 1})
    assert lat.basis == lat2.basis


def test_one_solver_per_target_table(monkeypatch):
    # the D8 and C4 restrictions each eliminate the C2 table once
    built = []
    solver = charlab.basis_solver

    def counted(table):
        built.append(table.name)
        return solver(table)
    monkeypatch.setattr(charlab, "basis_solver", counted)
    assert lemma_d8_report()["ok"] and lemma_c4_real_report()["ok"]
    assert built == ["C2", "C2"]


def test_the_tables_are_checked_once_at_import(monkeypatch):
    # no report builds or checks a table again; each recomputes its
    # lattices, sweeps and matrix identities
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built during a report")
    monkeypatch.setattr(CharacterTable, "__init__", refuse)
    solved = []
    solver = charlab.basis_solver
    monkeypatch.setattr(charlab, "basis_solver",
                        lambda table: solved.append(table) or solver(table))
    for _ in range(2):
        assert lemma_d8_report()["ok"] and lemma_c4_real_report()["ok"]
    assert solved == [C2] * 4
