import random
from functools import reduce

import pytest

from racgk import bredon
from racgk.bredon import (KUNNETH_CAP, CochainComplex, bredon_ranks,
                          build_bredon_complex, clique_basis_isomorphism,
                          cohomology, cone_certificate, interval_complex,
                          interval_tensor_kunneth, interval_tensor_powers,
                          inverse_limit, rho_surjectivity, tensor_complex)
from racgk.graphs import GraphError, parse_graph
from racgk.intlinalg import (accumulate, invariant_factors, kernel_basis,
                             mat_mul, row_hnf)
from racgk.kring import KRingElement, _normalize_star
from conftest import (ApexLattice, accumulated_tensor_complex, apex_iso,
                      apex_lattice, apex_rho, assert_limit_matches_apex,
                      complete_graph, cycle_graph,
                      dense_bredon_complex, dense_differentials, dp_ranks,
                      edgeless_graph, graph_suite, is_zero, monomial_family,
                      path_graph, random_graph, restriction_family, sparsify,
                      walk_certificate)


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
    graphs = [(name, g) for name, g, _ in graph_suite()]
    for name, g in graphs + [("K5", complete_graph(5))]:
        c = build_bredon_complex(g)
        ranks, dense = dense_bredon_complex(g)
        assert c.ranks == ranks, name
        assert all(x for d in c.diffs for row in d for x in row.values()), name
        assert dense_differentials(c) == dense, name


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
        kernel = kernel_basis(c.differential(0), c.ranks[0])
        assert row_hnf(limit.basis_columns) == row_hnf(kernel), name


def assert_certificate_matches_walk(name, g):
    cert, walk = cone_certificate(g), walk_certificate(g)
    assert (cert.ok, cert.ranks, cert.witness) == (
        walk.ok, walk.ranks, walk.witness), name


def test_rank_formula_matches_the_chain_dp():
    graphs = [(name, g) for name, g, _ in graph_suite()]
    graphs += [("K%d" % n, complete_graph(n)) for n in range(1, 9)]
    graphs += [("G(%d, %s)" % (n, p), random_graph(n, p, seed))
               for n, p, seed in ((10, 0.5, 1), (12, 0.6, 2), (14, 0.4, 3),
                                  (16, 0.7, 4))]
    for name, g in graphs:
        ranks = bredon_ranks(g.f_vector)
        assert ranks == dp_ranks(g) == cone_certificate(g).ranks, name
        # every H^k above degree 0 vanishes: the alternating sum is d
        assert sum((-1) ** k * r for k, r in enumerate(ranks)) == len(
            g.cliques), name


def test_certificate_matches_the_cell_walk():
    for name, g in oracle_graphs() + [("K7", complete_graph(7))]:
        assert_certificate_matches_walk(name, g)


FACES = bredon.faces
MUTATIONS = {
    "wrong restriction sign": ("restrict", lambda mono, clique: (
        mono & clique, -1)),
    "unmasked restriction": ("restrict", lambda mono, clique: (mono, 1)),
    "restriction coefficient 2": ("restrict", lambda mono, clique: (
        mono & clique, 2)),
    "unit moved to t_v0": ("restrict", lambda mono, clique: (
        mono & clique if mono else 1, 1)),
    "dropped face": ("faces", lambda chain: (
        FACES(chain)[:-1] if len(chain) > 2 else FACES(chain))),
    "flipped face signs": ("faces", lambda chain: [
        (face, -sign) for face, sign in FACES(chain)]),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutated_certificate_matches_the_cell_walk(monkeypatch, mutation):
    monkeypatch.setattr(bredon, *MUTATIONS[mutation])
    assert not cone_certificate(complete_graph(3)).ok
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
                            "fails in block K = {} at chain {} < {v0}, "
                            "degree 1")


def test_certificate_names_a_dropped_face(monkeypatch):
    original = bredon.faces
    monkeypatch.setattr(bredon, "faces", lambda chain: (
        original(chain)[:-1] if len(chain) > 2 else original(chain)))
    cert = cone_certificate(path_graph(3))
    assert not cert.ok
    assert cert.witness == ("identity (b) d o d = 0 fails in block K = {} at "
                            "chain {} < {v0} < {v0, v1}, degree 2")


def test_certificate_names_a_wrong_homotopy_sign(monkeypatch):
    # faces with signs (-1)^(i+1) still give d o d = 0, but prepending
    # the apex no longer contracts
    original = bredon.faces
    monkeypatch.setattr(bredon, "faces", lambda chain: [
        (face, -sign) for face, sign in original(chain)])
    cert = cone_certificate(path_graph(3))
    assert cert.witness == ("identity (c) dh + hd = id - e fails in block "
                            "K = {} at chain {} < {v0}, degree 1")


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


def test_interval_complex_cohomology():
    coh = cohomology(interval_complex())
    assert coh[0] == {"degree": 0, "free_rank": 1, "torsion": []}
    assert coh[1] == {"degree": 1, "free_rank": 0, "torsion": []}


def test_tensor_rank_bookkeeping():
    c = interval_complex()
    c2 = tensor_complex(c, c)
    assert c2.ranks == [4, 4, 1]
    c3 = tensor_complex(c2, c)
    assert c3.ranks == [8, 12, 6, 1]


def test_tensor_of_random_free_complexes_is_a_complex():
    rng = random.Random(67)
    for _ in range(20):
        # random two-term complexes always satisfy d o d = 0
        r0, r1 = rng.randint(1, 3), rng.randint(1, 3)
        d = sparsify([[rng.randint(-2, 2) for _ in range(r0)]
                      for _ in range(r1)])
        c = CochainComplex([r0, r1], [d])
        tensor_complex(c, c)  # constructor asserts d o d = 0


def test_tensor_complex_matches_the_accumulate_oracle():
    # each power from the one before, up to the cap
    power = interval_complex()
    for _ in range(KUNNETH_CAP - 1):
        built = tensor_complex(power, interval_complex())
        oracle = accumulated_tensor_complex(power, interval_complex())
        assert (built.ranks, built.diffs) == (oracle.ranks, oracle.diffs)
        power = built
    # random complexes of one, two and three terms, in both orders, with
    # explicit zero entries in their rows
    rng = random.Random(71)
    for _ in range(60):
        terms = []
        for _ in range(2):
            r0, r1 = rng.randint(0, 3), rng.randint(0, 3)
            d = [{j: rng.randint(-2, 2) for j in range(r0)
                  if rng.random() < 0.7} for _ in range(r1)]
            terms.append(CochainComplex([r0, r1], [d]))
        a, b = terms
        for x, y in ((a, b), (b, a), (a, CochainComplex([2], [])),
                     (tensor_complex(a, b), a), (b, tensor_complex(b, a))):
            built = tensor_complex(x, y)
            oracle = accumulated_tensor_complex(x, y)
            assert (built.ranks, built.diffs) == (oracle.ranks, oracle.diffs)


def test_kunneth_small_cases():
    for n in (1, 2, 3, 4):
        rep = interval_tensor_kunneth(n)
        assert rep["ok"], rep
        assert rep["ranks"][0] == 2 ** n


def test_kunneth_powers_match_the_per_n_reports():
    # each power is built once, from the last, and is the one built
    # from scratch
    powers = list(interval_tensor_powers(KUNNETH_CAP))
    assert len(powers) == KUNNETH_CAP
    for n, power in enumerate(powers, 1):
        scratch = reduce(tensor_complex, [interval_complex()] * n)
        assert (power.ranks, power.diffs) == (scratch.ranks, scratch.diffs)
        assert interval_tensor_kunneth(n, power) == interval_tensor_kunneth(n)


def test_kunneth_cap():
    with pytest.raises(ValueError, match="cap"):
        interval_tensor_kunneth(7)
    with pytest.raises(ValueError):
        interval_tensor_kunneth(0)


def test_three_rank_computations_agree(suite_entry):
    _, graph, d = suite_entry
    from racgk.kring import presentation_report
    assert presentation_report(graph)["rank"] == d
    assert inverse_limit(graph).rank == d
    assert cohomology(build_bredon_complex(graph))[0]["free_rank"] == d


def test_k5_bredon_ladder_target():
    c = build_bredon_complex(complete_graph(5))
    assert c.ranks == [243, 781, 1320, 1230, 600, 120]
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
