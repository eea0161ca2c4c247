import hashlib
import inspect
import json
import random
import textwrap
from functools import reduce
from itertools import product
from math import comb

import pytest

from racgk import bredon, intlinalg
from racgk.bredon import (KUNNETH_CAP, CochainComplex, bredon_ranks,
                          build_bredon_complex, clique_basis_isomorphism,
                          cohomology, cone_certificate,
                          interval_tensor_kunneth, interval_tensor_powers,
                          inverse_limit, rho_surjectivity)
from racgk.graphs import GraphError
from racgk.intlinalg import accumulate, kernel_basis, mat_mul, row_hnf
from racgk.kring import KRingElement, _normalize_star
from conftest import (ApexLattice, accumulated_tensor_complex, apex_iso,
                      apex_lattice, apex_rho, assert_limit_matches_apex,
                      complete_graph, cube_ranks, cubical_bredon_complex,
                      cycle_graph, dense_bredon_complex, dense_differentials,
                      dp_ranks, edgeless_graph, graph_suite,
                      invariant_factors, is_zero, monomial_family,
                      order_bredon_complex, path_graph,
                      per_degree_cohomology, petersen_graph, random_graph,
                      restriction_family, walk_certificate)


def test_complex_rejects_bad_dimensions():
    with pytest.raises(ValueError, match="expected 1 differentials, got 0"):
        CochainComplex([2, 1], [])
    with pytest.raises(ValueError, match="expected 1 differentials, got 2"):
        CochainComplex([2, 1], [[{0: 1}], [{0: 1}]])


def test_complex_rejects_nonzero_composite():
    with pytest.raises(ValueError, match="d\\^1 o d\\^0"):
        CochainComplex([1, 1, 1], [[{0: 1}], [{0: 1}]])


def test_complex_rejects_bad_dict_rows():
    with pytest.raises(ValueError, match="column outside 0..1"):
        CochainComplex([2, 1], [[{2: 1}]])
    with pytest.raises(ValueError, match="column outside"):
        CochainComplex([2, 1], [[{-1: 1}]])
    with pytest.raises(ValueError, match="rows"):
        CochainComplex([2, 1], [[{0: 1}, {1: 1}]])
    # the composites are (1 1), then 2, then 0
    with pytest.raises(ValueError, match="d\\^1 o d\\^0"):
        CochainComplex([2, 1, 1], [[{0: 1, 1: 1}], [{0: 1}]])
    with pytest.raises(ValueError, match="d\\^1 o d\\^0"):
        CochainComplex([1, 2, 1], [[{0: 1}, {0: 1}], [{0: 1, 1: 1}]])
    c = CochainComplex([1, 2, 1], [[{0: 1}, {0: 1}], [{0: 1, 1: -1}]])
    assert c.diffs == [[{0: 1}, {0: 1}], [{0: 1, 1: -1}]]


def test_sparse_build_matches_dense_oracle():
    # the build is the cubical oracle entry for entry; the order complex
    # oracle is its dense reference, with the chain counts as its ranks
    graphs = [(name, g) for name, g, _ in graph_suite()]
    for name, g in graphs + [("K5", complete_graph(5))]:
        c, cube = build_bredon_complex(g), cubical_bredon_complex(g)
        assert (c.ranks, c.diffs) == (cube.ranks, cube.diffs), name
        assert all(x for d in c.diffs for row in d for x in row.values()), name
        order = order_bredon_complex(g)
        ranks, dense = dense_bredon_complex(g)
        assert order.ranks == ranks == dp_ranks(g), name
        assert dense_differentials(order) == dense, name


def test_k1_complex_shape():
    g = complete_graph(1)
    c = build_bredon_complex(g)
    assert c.ranks == [3, 1]
    coh = cohomology(c)
    assert coh[0] == {"degree": 0, "free_rank": 2, "torsion": []}
    assert coh[1] == {"degree": 1, "free_rank": 0, "torsion": []}


def test_p3_degree_zero_rank():
    # one summand of rank 2^|J| per clique: 1 + 2 + 2 + 2 + 4 + 4
    g = path_graph(3)
    c = build_bredon_complex(g)
    assert c.ranks[0] == 15


def test_differentials_compose_to_zero(suite_entry):
    _, graph, _ = suite_entry
    dense = dense_differentials(build_bredon_complex(graph))
    for k in range(len(dense) - 1):
        assert is_zero(mat_mul(dense[k + 1], dense[k]))


def test_cohomology_concentrated_in_degree_zero(suite_entry):
    _, graph, d = suite_entry
    coh = cohomology(build_bredon_complex(graph))
    assert coh[0]["free_rank"] == d
    assert coh[0]["torsion"] == []
    for entry in coh[1:]:
        assert entry["free_rank"] == 0
        assert entry["torsion"] == []


def test_all_zero_differentials_give_full_rank():
    c = CochainComplex([2, 3], [[{}, {}, {}]])
    coh = cohomology(c)
    assert [e["free_rank"] for e in coh] == [2, 3]


def oracle_graphs():
    """The suite and K3-K6, on which elimination checks the certificate."""
    return ([(name, g) for name, g, _ in graph_suite()]
            + [("K%d" % n, complete_graph(n)) for n in range(3, 7)])


def test_certificate_matches_elimination():
    for name, g in oracle_graphs():
        cert = cone_certificate(g)
        c = build_bredon_complex(g)
        assert cert.ok, (name, cert.witness)
        assert cert.ranks == c.ranks, name
        assert cert.cohomology == cohomology(c), name


def test_apex_lattice_is_the_kernel_lattice():
    for name, g in oracle_graphs():
        c = build_bredon_complex(g)
        limit = apex_lattice(g)
        kernel = kernel_basis(c.diffs[0], c.ranks[0])
        assert row_hnf(limit.basis_columns) == row_hnf(kernel), name


def test_cubical_complex_matches_the_certificate():
    # the cohomology of the Davis complex's cubes, built by the model and
    # by the oracle, and of the order complex, on other cells, is the
    # certificate's; the order complex of K7 has 378,214 cells and takes
    # about 15 s, so it is left out here
    for name, g in ([(name, g) for name, g, _ in graph_suite()]
                    + [("K%d" % n, complete_graph(n)) for n in range(1, 8)]):
        c, cube = build_bredon_complex(g), cubical_bredon_complex(g)
        assert (c.ranks, c.diffs) == (cube.ranks, cube.diffs), name
        assert c.ranks == cube_ranks(g) == bredon_ranks(g.f_vector), name
        expected = cone_certificate(g).cohomology
        assert cohomology(c) == expected, name
        if name != "K7":
            assert cohomology(order_bredon_complex(g)) == expected, name


def test_a_cubical_complex_with_one_sign_flipped_is_refused():
    # with no isolated vertex and an edge, every cell of degree 1 has a
    # face and a coface, so one flipped sign breaks d o d = 0
    rng = random.Random(71)
    for g in (path_graph(4), cycle_graph(5), complete_graph(4)):
        cube = cubical_bredon_complex(g)
        for _ in range(20):
            diffs = [[dict(row) for row in d] for d in cube.diffs]
            row = rng.choice(rng.choice(diffs))
            col = rng.choice(sorted(row))
            row[col] = -row[col]
            with pytest.raises(ValueError, match=r"d\^\d+ o d\^\d+ != 0"):
                CochainComplex(cube.ranks, diffs)


def assert_certificate_matches_walk(name, g):
    cert, walk = cone_certificate(g), walk_certificate(g)
    assert (cert.ok, cert.ranks, cert.witness) == (
        walk.ok, walk.ranks, walk.witness), name


def test_rank_formula_counts_the_cubes():
    graphs = [(name, g) for name, g, _ in graph_suite()]
    graphs += [("K%d" % n, complete_graph(n)) for n in range(1, 9)]
    graphs += [("G(%d, %s)" % (n, p), random_graph(n, p, seed))
               for n, p, seed in ((10, 0.5, 1), (12, 0.6, 2), (14, 0.4, 3),
                                  (16, 0.7, 4))]
    for name, g in graphs:
        ranks = bredon_ranks(g.f_vector)
        assert ranks == cube_ranks(g) == cone_certificate(g).ranks, name
        if name.startswith("K"):
            n = g.n
            assert ranks == [comb(n, k) * 3 ** (n - k)
                             for k in range(n + 1)], name
        # every H^k above degree 0 vanishes: the alternating sum is d
        assert sum((-1) ** k * r for k, r in enumerate(ranks)) == len(
            g.cliques), name


def test_certificate_matches_the_cell_walk():
    for name, g in oracle_graphs() + [("K7", complete_graph(7))]:
        assert_certificate_matches_walk(name, g)


FACES = bredon.faces
# d -> -d is a change of basis, each cell times -1, so the certificate
# accepts it
ACCEPTED = {"flipped face signs"}
MUTATIONS = {
    "wrong restriction sign": ("restrict", lambda mono, clique: (
        mono & clique, -1)),
    "unmasked restriction": ("restrict", lambda mono, clique: (mono, 1)),
    "restriction coefficient 2": ("restrict", lambda mono, clique: (
        mono & clique, 2)),
    "unit moved to t_v0": ("restrict", lambda mono, clique: (
        mono & clique if mono else 1, 1)),
    "dropped face": ("faces", lambda low, top: (
        FACES(low, top)[:-1] if (top ^ low).bit_count() > 1
        else FACES(low, top))),
    "flipped face signs": ("faces", lambda low, top: [
        (face, -sign) for face, sign in FACES(low, top)]),
    "doubled faces": ("faces", lambda low, top: [
        (face, 2 * sign) for face, sign in FACES(low, top)]),
    "a face outside the cube": ("faces", lambda low, top: [
        ((face_low, face_top | 1 << 7), sign)
        for (face_low, face_top), sign in FACES(low, top)]),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutated_certificate_matches_the_cell_walk(monkeypatch, mutation):
    monkeypatch.setattr(bredon, *MUTATIONS[mutation])
    assert cone_certificate(complete_graph(3)).ok == (mutation in ACCEPTED)
    # K6 is left out: a mutated walk there takes about a second
    for name, g in oracle_graphs():
        if name != "K6":
            assert_certificate_matches_walk(name, g)


def test_certificate_fails_where_restrict_is_no_ring_map(monkeypatch):
    # the unit goes to the smaller clique's lowest vertex: wrong on every
    # pair J < J' with J not empty, and no longer a ring map, so the
    # certificate may name a later cell than the walk; only ok is compared.
    # The mutant depends on which vertex is lowest, but not on whether
    # one is: the symbolic pair {0} < {0, 1}, which (a) checks when the
    # graph has an edge, sends the unit to t_0 as a concrete pair sends
    # it to its own lowest vertex, so the shape check fails exactly when
    # a concrete pair does
    monkeypatch.setattr(bredon, "restrict", lambda mono, clique: (
        mono & clique if mono else clique & -clique, 1))
    for name, g in oracle_graphs():
        if name != "K6":
            cert, walk = cone_certificate(g), walk_certificate(g)
            assert cert.ok == walk.ok == (not g.edges), name


def test_apex_coordinates_are_the_pivot_entries():
    g = cycle_graph(5)
    limit = apex_lattice(g)
    for i, (apex, p) in enumerate(zip(g.cliques, limit.pivot_column)):
        assert limit.index[(apex, apex)] == p
        assert limit.basis_columns[i][p] == 1
        assert limit.solve(limit.basis_columns[i]) == {i: 1}
    # a cochain on one clique only is not compatible
    assert limit.solve({limit.index[(g.cliques[1], 0)]: 1}) is None
    with pytest.raises(ValueError, match="pivot row"):
        ApexLattice(limit.cliques, limit.index, [{0: 1, 1: 1}, {1: 1}],
                    [0, 1])
    with pytest.raises(ValueError, match="pivot row"):
        ApexLattice(limit.cliques, limit.index, [{0: 1}, {1: 1}], [0, 0])


def test_certificate_names_a_wrong_restriction_sign(monkeypatch):
    monkeypatch.setattr(bredon, "restrict",
                        lambda mono, clique: (mono & clique, -1))
    cert = cone_certificate(path_graph(3))
    assert not cert.ok and cert.cohomology is None
    assert cert.witness == ("identity (a) restriction is a projection "
                            "fails in block K = {} at cube [{}, {v0}], "
                            "degree 1")


def test_certificate_names_a_dropped_face(monkeypatch):
    monkeypatch.setattr(bredon, *MUTATIONS["dropped face"])
    cert = cone_certificate(path_graph(3))
    assert not cert.ok
    assert cert.witness == ("identity (b) d o d = 0 fails in block K = {} at "
                            "cube [{}, {v0, v1}], degree 2")


def test_certificate_names_a_non_unit_matched_face(monkeypatch):
    # twice every face still gives d o d = 0, but the matched pairs no
    # longer cancel: the cohomology gains Z/2 torsion
    monkeypatch.setattr(bredon, *MUTATIONS["doubled faces"])
    cert = cone_certificate(path_graph(3))
    assert cert.witness == ("identity (m) the matched face is a unit fails "
                            "in block K = {} at cube [{}, {v0}], degree 1")
    assert any(2 in h["torsion"] for h in cohomology(
        build_bredon_complex(path_graph(3))))


def test_limit_rank_equals_clique_count(suite_entry):
    _, graph, d = suite_entry
    assert inverse_limit(graph).rank == d


def test_limit_rank_edgeless_two():
    assert inverse_limit(edgeless_graph(2)).rank == 3


def test_limit_contains_restriction_families():
    # the family of an ambient monomial has one entry per clique J, a 1
    # at the degree-0 cell (J, mask & J); for a clique it must be the
    # restriction family of its star monomial, which lies in the limit
    # by construction
    for name, g, d in graph_suite():
        limit = apex_lattice(g)
        labels = list(limit.index)
        assert len(labels) == build_bredon_complex(g).ranks[0], name
        for mask in range(1 << g.n):
            family = monomial_family(limit, mask)
            assert len(family) == d, (name, mask)
            assert set(family.values()) == {1}, (name, mask)
            assert sorted(labels[i] for i in family) == sorted(
                (clique, mask & clique) for clique in g.cliques), (name, mask)
        for c in g.cliques:
            vec = restriction_family(limit, KRingElement.monomial(g, c))
            assert monomial_family(limit, c) == vec, (name, c)
            assert limit.solve(vec) is not None, (name, c)


def test_rho_surjective(suite_entry):
    _, graph, d = suite_entry
    rep = rho_surjectivity(graph, inverse_limit(graph))
    assert rep["surjective"]
    assert rep["rank"] == d


def ambient_sweep_factors(graph, limit):
    """Oracle: invariant factors of the restriction families of all 2^n
    ambient character monomials in limit coordinates."""
    columns = [limit.solve(monomial_family(limit, mask))
               for mask in range(1 << graph.n)]
    assert None not in columns
    return invariant_factors(columns)


def test_rho_factors_match_ambient_sweep():
    graphs = [(name, g) for name, g, _ in graph_suite()]
    graphs += [("C%d" % n, cycle_graph(n)) for n in range(3, 11)]
    for name, g in graphs:
        factors = rho_surjectivity(g, inverse_limit(g))["invariant_factors"]
        assert factors == ambient_sweep_factors(g, apex_lattice(g)), name


def test_monomial_families_follow_star_relation():
    # every ambient monomial family is the combination of clique families
    # that the star relation rewrites the monomial into
    for name, g, _ in graph_suite():
        limit = apex_lattice(g)
        for mask in range(1 << g.n):
            rewritten = _normalize_star(g, {mask: 1})
            assert all(map(g.is_clique, rewritten)), (name, mask)
            combo = accumulate(
                (i, coeff * x) for clique, coeff in rewritten.items()
                for i, x in monomial_family(limit, clique).items())
            assert monomial_family(limit, mask) == combo, (name, mask)


def test_limit_checks_fail_outside_the_lattice():
    # a lattice of index 2^d in the limit misses the clique families
    g = path_graph(3)
    limit = apex_lattice(g)
    half = ApexLattice(limit.cliques, limit.index,
                       [{j: 2 * x for j, x in col.items()}
                        for col in limit.basis_columns],
                       list(limit.pivot_column))
    rho = apex_rho(half)
    assert half.clique_factors is None
    assert not rho["surjective"] and "invariant_factors" not in rho
    assert "outside the limit lattice" in rho["detail"]
    assert not apex_iso(half)["isomorphism"]


def test_limit_checks_detect_a_larger_lattice():
    # the whole degree-0 cochain module holds the limit with rank to spare
    g = cycle_graph(4)
    limit = apex_lattice(g)
    n = len(limit.index)
    whole = ApexLattice(limit.cliques, limit.index,
                        [{j: 1} for j in range(n)], range(n))
    # rank, image rank and index, on the lattice itself
    factors = whole.clique_factors
    assert (whole.rank, len(factors)) == (n, limit.rank)
    assert all(f == 1 for f in factors)
    rho = apex_rho(whole)
    assert rho["rank"] == n and not rho["surjective"]
    assert rho["invariant_factors"] == ambient_sweep_factors(g, whole)
    assert not apex_iso(whole)["isomorphism"]


def test_limit_shape_matches_elimination():
    for name, g in oracle_graphs() + [("K7", complete_graph(7)),
                                      ("K8", complete_graph(8))]:
        assert_limit_matches_apex(g, name)


BAR = bredon._bar_expansion
BAR_MUTATIONS = {
    "all signs +1": lambda mono: [(m, 1) for m, _sign in BAR(mono)],
    "pivot scaled by 2": lambda mono: [(m, 2 * sign if m == mono else sign)
                                       for m, sign in BAR(mono)],
    # x_L keeps its 1 at t_L and stays inside L, but the x_K inside L
    # no longer sum to t_L
    "constant sign flipped from three vertices": lambda mono: [
        (m, -sign if m == 0 and mono.bit_count() >= 3 else sign)
        for m, sign in BAR(mono)],
}


@pytest.mark.parametrize("mutation", sorted(BAR_MUTATIONS))
def test_mutated_limit_shape_matches_elimination(monkeypatch, mutation):
    monkeypatch.setattr(bredon, "_bar_expansion", BAR_MUTATIONS[mutation])
    assert inverse_limit(complete_graph(4)).clique_factors is None
    for name, g in oracle_graphs():
        assert_limit_matches_apex(g, name)


@pytest.mark.parametrize("extra, holds", [
    # a duplicate that cancels leaves every sum as it was
    ([(0, 1), (0, -1)], True),
    # a mask past L, or a negative one, is outside L whatever its sign
    ([(1 << 5, 1)], False),
    ([(1 << 5, 1), (1 << 5, -1)], False),
    ([(-1, 1)], False),
    # one sum off by one
    ([(3, 1)], False),
])
def test_zeta_check_sums_terms_by_mask(monkeypatch, extra, holds):
    monkeypatch.setattr(bredon, "_bar_expansion",
                        lambda mono: BAR(mono) + extra)
    assert bredon._zeta_identities(5) is holds


def test_zeta_check_expands_each_size_once(monkeypatch):
    # one x_L of 2^s terms per clique size s, 2^15 - 1 terms on K14
    sizes = []

    def counted(mono):
        sizes.append(mono.bit_count())
        return BAR(mono)
    monkeypatch.setattr(bredon, "_bar_expansion", counted)
    assert inverse_limit(complete_graph(14)).clique_factors == [1] * 2 ** 14
    assert sizes == list(range(15))


def test_inverse_limit_is_the_certificates_h0(monkeypatch):
    # H^0 is the limit: one object carries the ranks, the witness and d
    for name, g in oracle_graphs() + [("K7", complete_graph(7))]:
        limit, cert = inverse_limit(g), cone_certificate(g)
        assert (limit.ranks, limit.witness, limit.rank) == (
            cert.ranks, cert.witness, cert.rank), name
        assert limit.rank == sum(g.f_vector) == len(g.cliques), name
        assert limit.cohomology[0]["free_rank"] == limit.rank, name
    # the identities and the zeta check stay independent: a wrong bar
    # expansion leaves the certificate ok, a dropped face the factors
    g = complete_graph(4)
    for mutation in sorted(BAR_MUTATIONS):
        with monkeypatch.context() as m:
            m.setattr(bredon, "_bar_expansion", BAR_MUTATIONS[mutation])
            limit = inverse_limit(g)
            assert limit.ok and limit.clique_factors is None, mutation
    monkeypatch.setattr(bredon, *MUTATIONS["dropped face"])
    limit = inverse_limit(g)
    assert not limit.ok and limit.clique_factors == [1] * 16


def test_limit_past_the_rank_cap_is_refused(monkeypatch):
    # d = 16 on K4: answered at the cap, refused just past it
    monkeypatch.setattr(bredon, "LIMIT_RANK_CAP", 16)
    assert inverse_limit(complete_graph(4)).rank == 16
    monkeypatch.setattr(bredon, "LIMIT_RANK_CAP", 15)
    with pytest.raises(GraphError, match=r"rank d = 16, .*the cap is d = 15$"):
        inverse_limit(complete_graph(4))


def test_rho_bijective_on_complete_graphs():
    for n in (1, 2, 3):
        g = complete_graph(n)
        rep = rho_surjectivity(g, inverse_limit(g))
        assert rep["surjective"]
        assert rep["rank"] == 2 ** n


def test_clique_basis_isomorphism(suite_entry):
    _, graph, d = suite_entry
    rep = clique_basis_isomorphism(inverse_limit(graph))
    assert rep["isomorphism"]
    assert rep["invariant_factors"] == [1] * d


# the two-term interval complex I, the first of the tensor powers
INTERVAL = CochainComplex([2, 1], [[{0: 1, 1: 1}]])


def test_interval_complex_cohomology():
    first, = interval_tensor_powers(1)
    assert (first.ranks, first.diffs) == (INTERVAL.ranks, INTERVAL.diffs)
    coh = cohomology(first)
    assert coh[0] == {"degree": 0, "free_rank": 1, "torsion": []}
    assert coh[1] == {"degree": 1, "free_rank": 0, "torsion": []}


def reduced(monkeypatch, complex_):
    """(cohomology, elimination states built) for one complex; each state
    counts its row operations in `adds`."""
    states = []

    class Recorded(intlinalg._Elimination):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.adds = 0
            states.append(self)

        def _add(self, i, q, r):
            self.adds += 1
            super()._add(i, q, r)

    with monkeypatch.context() as patch:
        patch.setattr(intlinalg, "_Elimination", Recorded)
        return cohomology(complex_), states


def test_one_reduction_matches_the_per_degree_oracle(monkeypatch):
    # every power up to the cap, the cubical complexes of the suite and
    # of K1-K7, and the order complexes of K2-K5, C5 and Petersen: one
    # elimination state each, no cell in two pivots (a unit pivot
    # removes its pair of cells), and no row left to the Hermite forms
    complexes = [("I^%d" % n, power) for n, power
                 in enumerate(interval_tensor_powers(KUNNETH_CAP), 1)]
    complexes += [(name, build_bredon_complex(g))
                  for name, g, _d in graph_suite()]
    complexes += [("K%d" % n, build_bredon_complex(complete_graph(n)))
                  for n in range(1, 8)]
    orders = [("K%d" % n, complete_graph(n)) for n in range(2, 6)]
    orders += [("C5", cycle_graph(5)), ("Petersen", petersen_graph())]
    complexes += [(name + " order", order_bredon_complex(g))
                  for name, g in orders]
    for name, c in complexes:
        coh, states = reduced(monkeypatch, c)
        assert coh == per_degree_cohomology(c), name
        [state] = states
        cells = [cell for pivot in state.pivots for cell in pivot]
        assert len(set(cells)) == len(cells), name
        # every cell is paired but the generators of H^0
        assert 2 * len(state.pivots) == sum(c.ranks) - coh[0]["free_rank"]
        assert not any(state.rows), name
        # the order complexes are not all free faces: the unit steps
        # there take row operations, each one `_add`
        if name.endswith(" order"):
            assert state.adds > 0, name


def two_term(rng, entries):
    """A random complex Z^a -> Z^b, entries drawn from `entries`."""
    a, b = rng.randint(1, 4), rng.randint(1, 4)
    return CochainComplex([a, b], [[
        {j: x for j in range(a) if (x := rng.choice(entries))}
        for _ in range(b)]])


def test_torsion_of_random_tensor_products_matches_the_oracle(monkeypatch):
    # Z --2--> Z has H^1 = Z/2
    assert cohomology(CochainComplex([1, 1], [[{0: 2}]])) == [
        {"degree": 0, "free_rank": 0, "torsion": []},
        {"degree": 1, "free_rank": 0, "torsion": [2]}]
    rng = random.Random(83)
    entries = [0, 0, 1, -1, 2, -2, 3, 4, -6]
    with_torsion = left = 0
    for _ in range(300):
        c = reduce(accumulated_tensor_complex,
                   [two_term(rng, entries) for _ in range(rng.randint(2, 3))])
        coh, states = reduced(monkeypatch, c)
        assert coh == per_degree_cohomology(c), c.diffs
        with_torsion += any(h["torsion"] for h in coh)
        left += len(states) > 1
    assert with_torsion > 200 and left > 200


@pytest.mark.parametrize("ranks", [[], [1], [0, 0]])
def test_edge_ranks_reduce_like_the_oracle(ranks):
    c = CochainComplex(ranks, [[{}] * r for r in ranks[1:]])
    assert cohomology(c) == per_degree_cohomology(c)
    assert [h["free_rank"] for h in cohomology(c)] == ranks


def test_tensor_rank_bookkeeping():
    _, c2, c3 = interval_tensor_powers(3)
    assert c2.ranks == [4, 4, 1]
    assert c3.ranks == [8, 12, 6, 1]
    # the k-faces of the n-cube
    for n, power in enumerate(interval_tensor_powers(KUNNETH_CAP), 1):
        assert power.ranks == [comb(n, k) << n - k for k in range(n + 1)]


def test_a_power_with_one_sign_flipped_is_refused():
    # each entry of I^n, n >= 2, meets a nonzero entry of the next or of
    # the previous differential, so one flipped sign breaks d o d = 0
    powers = list(interval_tensor_powers(KUNNETH_CAP))
    rng = random.Random(67)
    for _ in range(20):
        power = rng.choice(powers[1:])
        diffs = [[dict(row) for row in d] for d in power.diffs]
        k = rng.randrange(len(diffs))
        row = rng.choice(diffs[k])
        col = rng.choice(sorted(row))
        row[col] = -row[col]
        with pytest.raises(ValueError, match=r"d\^\d+ o d\^\d+ != 0"):
            CochainComplex(power.ranks, diffs)


def test_interval_tensor_powers_match_the_accumulate_oracle():
    for n, power in enumerate(interval_tensor_powers(KUNNETH_CAP), 1):
        oracle = reduce(accumulated_tensor_complex, [INTERVAL] * n)
        assert (power.ranks, power.diffs) == (oracle.ranks, oracle.diffs), n


# sha256 of the ranks and the sorted rows of I^1..I^6, as `powers_digest`
# writes them: the `kunneth` report prints only ranks and cohomology, so
# a change to the built powers that keeps d o d = 0 fails here
POWERS_SHA256 = \
    "52dcd5e5439079e024009569c94d0bbed0cb330eeb22f96674cba26d085d7777"


def powers_digest(powers):
    text = json.dumps([[p.ranks, [[sorted(row.items()) for row in d]
                                  for d in p.diffs]] for p in powers])
    return hashlib.sha256(text.encode()).hexdigest()


def mutated(function, old, new):
    """`function` compiled again from its source with the one occurrence
    of `old` replaced by `new`, over a copy of its module's globals."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(vars(inspect.getmodule(function)))
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace[function.__name__]


def test_the_built_powers_are_pinned():
    assert powers_digest(interval_tensor_powers(KUNNETH_CAP)) == POWERS_SHA256
    # -1 for +1 at (a, 1) keeps d o d = 0 and every kunneth report, and
    # the pin tells it apart
    flipped = mutated(interval_tensor_powers, "b + 2 * a + 1: sign}",
                      "b + 2 * a + 1: -sign}")
    powers = list(flipped(KUNNETH_CAP))
    assert ([interval_tensor_kunneth(p) for p in powers]
            == [interval_tensor_kunneth(p)
                for p in interval_tensor_powers(KUNNETH_CAP)])
    assert powers_digest(powers) != POWERS_SHA256


def test_the_tensor_rule_refuses_a_sign_that_does_not_alternate():
    # the builder's own d o d check, one (a, e) row per degree: no
    # complex is built from a cross term that does not cancel
    same = mutated(interval_tensor_powers, "sign = -1 if k % 2 else 1",
                   "sign = 1")
    first, = same(1)
    assert (first.ranks, first.diffs) == (INTERVAL.ranks, INTERVAL.diffs)
    with pytest.raises(ValueError, match=r"^d\^1 o d\^0 != 0$"):
        list(same(2))


def test_a_wrong_cell_position_fails_the_cubical_oracle():
    # d o d = 0 on the cubical complex rests on the certificate, which
    # never reads the cell numbering: the oracle comparison catches a
    # wrong one, here the monomials of each cube taken in reverse
    wrong = mutated(build_bredon_complex,
                    "{m: i for i, m in enumerate(ms)}",
                    "{m: len(ms) - 1 - i for i, m in enumerate(ms)}")
    for g in (path_graph(3), cycle_graph(5), complete_graph(3)):
        assert cone_certificate(g).ok
        c, cube = wrong(g), cubical_bredon_complex(g)
        assert c.ranks == cube.ranks
        assert c.diffs != cube.diffs


def test_each_builder_multiplies_out_only_what_it_must(monkeypatch):
    # the tensor rule multiplies one row per degree of I^2..I^6 into the
    # differential below, the cubical builder none; a complex from
    # anywhere else multiplies every row
    calls = []
    check = bredon._check_composite

    def counted(k, row, inner):
        calls.append(k)
        return check(k, row, inner)
    monkeypatch.setattr(bredon, "_check_composite", counted)
    list(interval_tensor_powers(KUNNETH_CAP))
    assert calls == [k for n in range(2, KUNNETH_CAP + 1)
                     for k in range(n - 1)]
    calls.clear()
    c = build_bredon_complex(complete_graph(4))
    assert not calls
    CochainComplex(c.ranks, c.diffs)
    assert len(calls) == sum(c.ranks[2:])


def built_complexes():
    """I^1..I^6, and the cubical complex of each suite graph and of
    K4-K6 (the suite holds K1-K3), each as a build to run."""
    for n in range(1, KUNNETH_CAP + 1):
        yield pytest.param(lambda n=n: list(interval_tensor_powers(n))[-1],
                           id="I^%d" % n)
    for name, g in ([(name, g) for name, g, _ in graph_suite()]
                    + [("K%d" % n, complete_graph(n)) for n in range(4, 7)]):
        yield pytest.param(lambda g=g: build_bredon_complex(g), id=name)


@pytest.mark.parametrize("build", built_complexes())
def test_each_built_complex_passes_the_public_checks(build):
    # the builders store what they make unchecked (`_made`); the public
    # constructor checks the shape and d o d = 0 and keeps every row
    c = build()
    checked = CochainComplex(c.ranks, c.diffs)
    assert (checked.ranks, checked.diffs) == (c.ranks, c.diffs)


def cube_cochains(n):
    """The cochains of the n-cube written out face by face.  A face is a
    word of n letters, each 0 for the edge or 1, 2 for its two vertices,
    and its degree is the number of edges.  A degree's faces that end in
    an edge come first, then by their first n - 1 letters, in this order,
    and by their last.  The row of a face has, for each edge at position
    p, the two faces with a vertex there, each signed by (-1)^(the number
    of edges before p)."""
    def order(word):
        return (word[-1] != 0, order(word[:-1]), word[-1]) if word else ()

    faces = [[] for _ in range(n + 1)]
    for word in sorted(product(range(3), repeat=n), key=order):
        faces[word.count(0)].append(word)
    index = [{w: i for i, w in enumerate(level)} for level in faces]
    diffs = [[{index[k][w[:p] + (v,) + w[p + 1:]]:
               -1 if w[:p].count(0) % 2 else 1
               for p in range(n) if w[p] == 0 for v in (1, 2)}
              for w in faces[k + 1]] for k in range(n)]
    return CochainComplex([len(level) for level in faces], diffs)


def test_interval_tensor_powers_are_the_cube_cochains():
    for n, power in enumerate(interval_tensor_powers(KUNNETH_CAP), 1):
        cube = cube_cochains(n)
        assert (power.ranks, power.diffs) == (cube.ranks, cube.diffs), n


def test_kunneth_small_cases():
    for n, power in enumerate(interval_tensor_powers(4), 1):
        rep = interval_tensor_kunneth(power)
        assert rep["ok"], rep
        assert rep["n"] == n
        assert rep["ranks"][0] == 2 ** n


def test_kunneth_powers_match_the_per_n_reports():
    # each power is built once, from the last, and is the one built
    # from scratch; its report reads n off the power
    powers = list(interval_tensor_powers(KUNNETH_CAP))
    assert len(powers) == KUNNETH_CAP
    for n, power in enumerate(powers, 1):
        scratch = reduce(accumulated_tensor_complex, [INTERVAL] * n)
        assert (power.ranks, power.diffs) == (scratch.ranks, scratch.diffs)
        rep = interval_tensor_kunneth(power)
        assert (rep["n"], rep["ranks"], rep["ok"]) == (n, scratch.ranks, True)


def test_kunneth_cap():
    with pytest.raises(ValueError, match="cap"):
        list(interval_tensor_powers(KUNNETH_CAP + 1))
    with pytest.raises(ValueError, match="n must be >= 1"):
        list(interval_tensor_powers(0))


def test_three_rank_computations_agree(suite_entry):
    _, graph, d = suite_entry
    from racgk.kring import presentation_report
    assert presentation_report(graph)["rank"] == d
    assert inverse_limit(graph).rank == d
    assert cohomology(build_bredon_complex(graph))[0]["free_rank"] == d


def test_k5_bredon_ladder_target():
    c = build_bredon_complex(complete_graph(5))
    assert c.ranks == [243, 405, 270, 90, 15, 1]
    coh = cohomology(c)
    assert coh[0] == {"degree": 0, "free_rank": 32, "torsion": []}
    assert all(e["free_rank"] == 0 and e["torsion"] == [] for e in coh[1:])


def test_c12_limit_ladder_target():
    g = cycle_graph(12)
    limit = inverse_limit(g)
    assert limit.rank == 25
    assert rho_surjectivity(g, limit)["surjective"]
    assert clique_basis_isomorphism(limit)["isomorphism"]


def test_c64_limit_ladder_target():
    g = cycle_graph(64)
    limit = inverse_limit(g)
    assert limit.rank == 129
    rho = rho_surjectivity(g, limit)
    assert rho["surjective"]
    assert rho["invariant_factors"] == [1] * 129
    assert clique_basis_isomorphism(limit)["isomorphism"]
