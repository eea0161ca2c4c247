import pytest

from racgk import charlab
from racgk.charlab import (CharacterTable, CharLabError, basis_solver,
                           cyclic2_table, cyclic4_real_table,
                           decompose_in_basis, dihedral8_table,
                           lemma_c4_real_report, lemma_d8_report, mat2_mul,
                           parity_sweep, restriction_image, verify_tau, I2,
                           NEG_I2, TAU_EPSILON, TAU_SIGMA)


def test_tables_load():
    for table in (cyclic2_table(), dihedral8_table(), cyclic4_real_table()):
        assert sum(table.class_sizes) == table.order


def test_orthogonality_enforced():
    with pytest.raises(CharLabError, match="orthogonal"):
        CharacterTable("bad", [1, 1], [[1, 1], [1, 0]])


def test_bad_norm_rejected():
    with pytest.raises(CharLabError, match="norm"):
        CharacterTable("bad", [1, 1], [[1, 1], [3, -3]])


def test_decompose_in_basis():
    c2 = basis_solver(cyclic2_table())
    assert decompose_in_basis(c2, [2, -2]) == {1: 2}
    assert decompose_in_basis(c2, [1, 1]) == {0: 1}
    assert decompose_in_basis(c2, [0, 0]) == {}
    d8 = basis_solver(dihedral8_table())
    assert decompose_in_basis(d8, [3, -1, 1, 1, 1]) == {0: 1, 4: 1}
    with pytest.raises(CharLabError, match="non-integral"):
        decompose_in_basis(c2, [1, 0])
    with pytest.raises(CharLabError, match="square"):
        basis_solver(cyclic4_real_table())
    dependent = cyclic2_table()
    dependent.characters = [[1, 1], [2, 2]]
    with pytest.raises(CharLabError, match="dependent"):
        basis_solver(dependent)


def test_d8_restriction_lattice():
    d8, c2 = dihedral8_table(), cyclic2_table()
    lat = restriction_image(d8, c2, {0: d8.class_of["e"],
                                     1: d8.class_of["s2"]})
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
    d8 = dihedral8_table()
    trivial = CharacterTable("1", [1], [[1]], class_of={"e": 0})
    lat = restriction_image(d8, trivial, {0: d8.class_of["e"]})
    assert lat.basis == [{0: 1}]


def test_c4_real_lattice():
    rep = lemma_c4_real_report()
    assert rep["lattice_matches_tr_2lambda"]
    assert rep["parity_ok"]


def test_parity_direction_tr_always_in_image():
    d8, c2 = dihedral8_table(), cyclic2_table()
    lat = restriction_image(d8, c2, {0: 0, 1: 1})
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
    d8, c2 = dihedral8_table(), cyclic2_table()
    lat = restriction_image(d8, c2, {0: 0, 1: 1})
    reversed_table = CharacterTable(
        "D8r", d8.class_sizes, list(reversed(d8.characters)), d8.class_of)
    lat2 = restriction_image(reversed_table, c2, {0: 0, 1: 1})
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
