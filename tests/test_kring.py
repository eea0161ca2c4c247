import json
import random

import pytest

from racgk import kring, writers
from racgk.graphs import Graph, enumerate_spherical, parse_graph
from racgk.kring import (BAR, STAR, CompletedElement, KRingElement,
                         KRingError, augmentation, bar_relations, complete,
                         completed_multiply, convert_basis, ideal_power,
                         element_to_json_dict, group_ring_product,
                         ideal_powers,
                         mayer_vietoris_check, multiply_bar, multiply_star,
                         presentation_report, random_element,
                         restrict_to_clique)
from racgk.repring import RepRingElement, rep_multiply
from conftest import (assert_clique_maps_match_labels,
                      assert_ideal_powers_match_oracles, bgw_indices,
                      complete_graph, cycle_graph, glued_graph, graph_suite,
                      include_from_part, listed_relations,
                      min_first_normalize_star, nonedges,
                      pairwise_bar_product, path_graph, product_ideal_power,
                      project_to_part, random_graph,
                      reference_random_element, relation_graphs, subset_key)

PATH = parse_graph("s t u; s-t t-u")
NONEDGE = parse_graph("s t; ")
EDGE = parse_graph("s t; s-t")


def star(graph, label):
    return KRingElement.generator(graph, label, STAR)


def bar(graph, label):
    return KRingElement.generator(graph, label, BAR)


def test_star_generator_squares_to_one():
    s = star(PATH, "s")
    assert multiply_star(s, s) == KRingElement.one(PATH)


def test_nonedge_star_product_rewrites():
    s, t = star(NONEDGE, "s"), star(NONEDGE, "t")
    expected = s + t - KRingElement.one(NONEDGE)
    assert multiply_star(s, t) == expected


def test_edge_star_product_is_monomial():
    s, t = star(EDGE, "s"), star(EDGE, "t")
    assert multiply_star(s, t) == KRingElement.monomial(EDGE, 0b11)


def test_bar_generator_relation():
    s = bar(NONEDGE, "s")
    assert multiply_bar(s, s) == s.scale(-2)


def test_bar_nonedge_product_vanishes():
    s, t = bar(NONEDGE, "s"), bar(NONEDGE, "t")
    assert multiply_bar(s, t) == KRingElement.zero(NONEDGE, BAR)


def test_bar_edge_monomials_on_path():
    st = KRingElement.monomial(PATH, PATH.mask_of(["s", "t"]), BAR)
    tu = KRingElement.monomial(PATH, PATH.mask_of(["t", "u"]), BAR)
    assert multiply_bar(st, tu) == KRingElement.zero(PATH, BAR)


def test_bar_monomial_squares(suite_entry):
    _, graph, _ = suite_entry
    for c in enumerate_spherical(graph):
        m = KRingElement.monomial(graph, c, BAR)
        size = bin(c).count("1")
        assert multiply_bar(m, m) == m.scale((-2) ** size)


def test_basis_mismatch_rejected():
    with pytest.raises(KRingError, match="basis"):
        multiply_star(star(PATH, "s"), bar(PATH, "s"))


def test_graph_mismatch_rejected():
    with pytest.raises(KRingError, match="graph"):
        multiply_star(star(PATH, "s"), star(NONEDGE, "s"))


def test_elements_on_separately_parsed_copies_combine():
    # the mismatch checks compare graphs by value, not by identity
    text = "s t u; s-t t-u"
    g1, g2 = parse_graph(text), parse_graph(text)
    assert g1 is not g2 and g1 == g2 and not g1 != g2
    for basis, multiply in ((STAR, multiply_star), (BAR, multiply_bar)):
        a = KRingElement(g1, basis, {0b011: 2, 0b100: -1, 0: 3})
        b = KRingElement(g2, basis, {0b011: 2, 0b100: -1, 0: 3})
        assert a == b and hash(a) == hash(b)
        assert multiply(a, b) == multiply(a, a) == multiply(b, b)
        assert a + b == a.scale(2)
        assert a - b == KRingElement.zero(g1, basis)
    ca, cb = (CompletedElement(g, 8, {0: 3, 0b110: 5}) for g in (g1, g2))
    assert ca == cb and ca + cb == ca.scale(2)
    assert completed_multiply(ca, cb) == completed_multiply(ca, ca)


def test_group_ring_product_needs_star_operands():
    s = star(PATH, "s")
    assert group_ring_product(s, s) == KRingElement.one(PATH, BAR)
    with pytest.raises(KRingError, match="star-basis"):
        group_ring_product(*[convert_basis(s, BAR)] * 2)
    with pytest.raises(KRingError, match="graph"):
        group_ring_product(s, star(NONEDGE, "s"))


def test_draw_is_randint_and_randrange():
    # every clique count d = 1..300, each draw against `random`'s own
    # calls from the same state, which are left the same
    for d in range(1, 301):
        ours, ref = random.Random(d), random.Random(d)
        for _ in range(5):
            expected = {}
            for _ in range(ref.randint(1, kring.TERMS)):
                i = ref.randrange(d)
                expected[i] = expected.get(i, 0) + ref.randint(
                    -kring.COEFF_BOUND, kring.COEFF_BOUND)
            assert kring._draw(ours, d, lambda i: i) == {
                i: x for i, x in expected.items() if x}, d
        assert ours.getstate() == ref.getstate(), d


DRAW_GRAPHS = [(name, g) for name, g, _ in graph_suite()] + [
    ("K16", complete_graph(16)), ("glued-64", glued_graph("glued-64"))]


@pytest.mark.parametrize("name, graph", DRAW_GRAPHS,
                         ids=[name for name, _ in DRAW_GRAPHS])
def test_random_element_draws_as_random_does(name, graph):
    # the same cliques and coefficients in the same order, and the
    # generators left in the same state after each element
    for seed in range(200):
        ours, ref = random.Random(seed), random.Random(seed)
        for basis in (STAR, BAR) * 4:
            assert random_element(graph, ours, basis) == (
                reference_random_element(graph, ref, basis))
            assert ours.getstate() == ref.getstate(), (seed, basis)


def test_convert_basis_examples():
    s = star(NONEDGE, "s")
    assert convert_basis(s, BAR) == KRingElement(
        NONEDGE, BAR, {0: 1, NONEDGE.mask_of(["s"]): 1})
    st_bar = KRingElement.monomial(EDGE, 0b11, BAR)
    assert convert_basis(st_bar, STAR) == KRingElement(
        EDGE, STAR, {0b11: 1, 0b01: -1, 0b10: -1, 0b00: 1})
    one = KRingElement.one(PATH, STAR)
    assert convert_basis(one, BAR) == KRingElement.one(PATH, BAR)


def test_convert_basis_round_trip(suite_entry):
    _, graph, _ = suite_entry
    rng = random.Random(21)
    for _ in range(50):
        a = random_element(graph, rng, basis=STAR)
        assert convert_basis(convert_basis(a, BAR), STAR) == a


def test_restrict_to_clique_examples():
    s, t = star(NONEDGE, "s"), star(NONEDGE, "t")
    prod = multiply_star(s, t)
    mask_s = NONEDGE.mask_of(["s"])
    assert restrict_to_clique(prod, mask_s) == RepRingElement.monomial(
        mask_s, mask_s)
    assert restrict_to_clique(KRingElement.one(PATH), 0) == RepRingElement.one(0)


def test_restrict_bar_monomial_is_product_of_decremented_generators():
    st = KRingElement.monomial(EDGE, 0b11, BAR)
    target = 0b11
    res = restrict_to_clique(st, target)
    sbar = RepRingElement(target, {0b01: 1, 0: -1})
    tbar = RepRingElement(target, {0b10: 1, 0: -1})
    assert res == rep_multiply(sbar, tbar)


def test_restrict_requires_clique():
    g = parse_graph("s t u; s-t t-u")
    with pytest.raises(KRingError,
                       match=r"^support \('s', 'u'\) is not a clique$"):
        restrict_to_clique(KRingElement.one(g), g.mask_of(["s", "u"]))


# keys outside 0..2^n - 1 for the path's n = 3: a vertex past the last,
# a mask past any graph's 64 vertices, and a negative one
BAD_KEYS = [1 << 3, 1 << 70, -1]
OFF_THE_GRAPH = [
    ("KRingElement", lambda key: KRingElement(PATH, STAR, {key: 1})),
    ("CompletedElement", lambda key: CompletedElement(PATH, 4, {key: 1})),
    ("restrict_to_clique",
     lambda key: restrict_to_clique(KRingElement.one(PATH), key)),
]


@pytest.mark.parametrize("key", BAD_KEYS,
                         ids=["past-n", "past-64", "negative"])
@pytest.mark.parametrize("name, build", OFF_THE_GRAPH,
                         ids=[name for name, _ in OFF_THE_GRAPH])
def test_a_key_outside_the_vertex_range_is_refused(name, build, key):
    with pytest.raises(KRingError,
                       match=r"^support mask %d is not a clique$" % key):
        build(key)


def test_presentation_report():
    rep = presentation_report(PATH)
    assert rep["rank"] == 6
    assert rep["k1_rank"] == 0
    assert "s*u* - s* - u* + 1" in list(rep["star_relations"])
    assert len(presentation_report(cycle_graph(5))["clique_basis"]) == 11
    k1 = presentation_report(complete_graph(1))
    assert k1["rank"] == 2
    assert list(k1["star_relations"]) == ["v0*^2 - 1"]


@pytest.mark.parametrize("graph", [
    pytest.param(graph, id=name) for name, graph, _ in graph_suite()] + [
    pytest.param(random_graph(n, p), id="G%d-%s" % (n, p))
    for n, p in ((8, 0.5), (20, 0.1), (20, 0.9), (64, 0.05), (64, 0.5),
                 (64, 0.95))] + [
    pytest.param(complete_graph(n), id="K%d" % n) for n in (20, 64)])
def test_relations_list_the_nonedges_in_vertex_order(graph):
    # a group per vertex, a slice per run of its later non-neighbours, on
    # sparse and dense graphs
    star, bar = kring._relation_rows(graph, star=True), bar_relations(graph)
    listed_star, listed_bar = listed_relations(graph)
    assert list(star) == listed_star
    assert list(bar) == listed_bar
    assert len(star) == len(bar) == graph.n + len(nonedges(graph))


@pytest.mark.parametrize("chunk", [1, 3, 256])
@pytest.mark.parametrize("graph", [
    pytest.param(graph, id=name) for name, graph in relation_graphs()])
def test_quoted_relations_are_a_text_per_vertex(monkeypatch, graph, chunk):
    # the vertex rows, then each vertex's non-edge rows, cut at `CHUNK`
    # rows, each text its rows' JSON strings joined by the separator and
    # led by it but for the first
    monkeypatch.setattr(writers, "CHUNK", chunk)
    pairs, n = nonedges(graph), graph.n
    for rows, listed in zip(
            (kring._relation_rows(graph, star=True), bar_relations(graph)),
            listed_relations(graph)):
        groups = [listed[:n]] + [
            [row for row, (s, _t) in zip(listed[n:], pairs) if s == v]
            for v in graph.labels]
        for sep in (", ", ",\n      "):
            texts = [sep.join(map(json.dumps, group[i:i + chunk]))
                     for group in groups for i in range(0, len(group), chunk)]
            assert list(rows.quoted(sep)) == texts[:1] + [
                sep + text for text in texts[1:]]


def test_augmentation():
    s = star(PATH, "s")
    assert augmentation(s) == 1
    assert augmentation(bar(PATH, "s")) == 0
    a = KRingElement.monomial(PATH, PATH.mask_of(["s", "t"]), STAR).scale(3) \
        - KRingElement.one(PATH).scale(2)
    assert augmentation(a) == 1


def test_augmentation_is_ring_homomorphism(suite_entry):
    _, graph, _ = suite_entry
    rng = random.Random(23)
    for _ in range(30):
        a = random_element(graph, rng, basis=STAR)
        b = random_element(graph, rng, basis=STAR)
        assert augmentation(multiply_star(a, b)) == augmentation(a) * augmentation(b)


def test_oracle_triangle(suite_entry):
    _, graph, _ = suite_entry
    rng = random.Random(29)
    cliques = enumerate_spherical(graph)
    maximal = [c for c in cliques
               if not any(c != d and c & d == c for d in cliques)]
    for _ in range(30):
        a = random_element(graph, rng, basis=STAR)
        b = random_element(graph, rng, basis=STAR)
        prod = multiply_star(a, b)
        oracle = multiply_bar(convert_basis(a, BAR), convert_basis(b, BAR))
        assert convert_basis(prod, BAR) == oracle
        for j in maximal:
            lhs = restrict_to_clique(prod, j)
            rhs = rep_multiply(restrict_to_clique(a, j),
                               restrict_to_clique(b, j))
            assert lhs == rhs


def test_multiplication_properties(suite_entry):
    _, graph, _ = suite_entry
    rng = random.Random(31)
    one = KRingElement.one(graph, STAR)
    for _ in range(15):
        a = random_element(graph, rng, basis=STAR)
        b = random_element(graph, rng, basis=STAR)
        c = random_element(graph, rng, basis=STAR)
        assert multiply_star(a, b) == multiply_star(b, a)
        assert multiply_star(multiply_star(a, b), c) == \
            multiply_star(a, multiply_star(b, c))
        assert multiply_star(a, one) == a
        ab, bb, cb = (convert_basis(x, BAR) for x in (a, b, c))
        one_bar = KRingElement.one(graph, BAR)
        assert multiply_bar(ab, bb) == multiply_bar(bb, ab)
        assert multiply_bar(multiply_bar(ab, bb), cb) == \
            multiply_bar(ab, multiply_bar(bb, cb))
        assert multiply_bar(ab, one_bar) == ab


def test_normalize_star_matches_min_first_order(suite_entry):
    # largest mask first reaches the normal form of the min-first loop,
    # on every monomial of the ambient group and on sampled raw products
    name, graph, _ = suite_entry
    for mask in range(1 << graph.n):
        assert kring._normalize_star(graph, {mask: 3}) == (
            min_first_normalize_star(graph, {mask: 3})), (name, mask)
    rng = random.Random(41)
    for _ in range(30):
        a = random_element(graph, rng, basis=STAR)
        b = random_element(graph, rng, basis=STAR)
        raw = {}
        for k, ck in a.coeffs.items():
            for l, cl in b.coeffs.items():
                raw[k ^ l] = raw.get(k ^ l, 0) + ck * cl
        assert kring._normalize_star(graph, raw) == (
            min_first_normalize_star(graph, raw)), name


def test_element_json_orders_terms_by_subset_key(suite_entry):
    name, graph, _ = suite_entry
    rng = random.Random(43)
    elements = [KRingElement(graph, STAR, {c: i + 1 for i, c in
                                           enumerate(reversed(graph.cliques))})]
    elements += [random_element(graph, rng, basis=basis)
                 + random_element(graph, rng, basis=basis)
                 for basis in (STAR, BAR) for _ in range(20)]
    for a in elements:
        expected = [{"monomial": list(graph.subset_labels(k)),
                     "coeff": str(c)}
                    for k, c in sorted(a.coeffs.items(),
                                       key=lambda kv: subset_key(graph, kv[0]))]
        report = element_to_json_dict(a)
        assert report == {"basis": a.basis, "terms": expected}, name


def test_complete_graph_star_ring_equals_rep_ring():
    graph = complete_graph(3)
    rng = random.Random(37)
    full = (1 << graph.n) - 1
    for _ in range(50):
        a = random_element(graph, rng, basis=STAR)
        b = random_element(graph, rng, basis=STAR)
        prod = multiply_star(a, b)
        ra = RepRingElement(full, dict(a.coeffs))
        rb = RepRingElement(full, dict(b.coeffs))
        assert rep_multiply(ra, rb).coeffs == prod.coeffs


def test_ideal_power_k1():
    g = complete_graph(1)
    lat1 = ideal_power(g, 1)
    assert lat1.basis == [{1: 1}]
    lat2 = ideal_power(g, 2)
    assert lat2.basis == [{1: 2}]
    for m in range(1, 6):
        assert ideal_power(g, m).basis == [{1: 2 ** (m - 1)}]


def test_ideal_powers_nested(suite_entry):
    name, graph, _ = suite_entry
    prev = None
    for k in range(1, 4):
        cur = ideal_power(graph, k)
        if prev is not None:
            for row in cur.basis:
                assert row in prev
        prev = cur


def closed_form_indices(graph, count):
    """[I^k : I^(k+1)] = 2^(number of cliques with 1..k vertices)."""
    sizes = [bin(c).count("1") for c in graph.cliques]
    return [2 ** sum(1 for s in sizes if 1 <= s <= k)
            for k in range(1, count + 1)]


def test_ideal_powers_chain_matches_single_powers(suite_entry):
    name, graph, _ = suite_entry
    powers = ideal_powers(graph, 4)
    assert len(powers) == 4
    sizes = [bin(c).count("1") for c in graph.cliques]
    for k, entries in enumerate(powers, 1):
        assert len(entries) == max(sizes) + 1, (name, k)
        rows = [{i: entries[s]} for i, s in enumerate(sizes) if entries[s]]
        assert rows == ideal_power(graph, k).basis, (name, k)
        if k <= 3:
            assert rows == product_ideal_power(graph, k).basis, (name, k)
    with pytest.raises(KRingError):
        ideal_powers(graph, 0)


def test_ideal_power_indices_closed_form(suite_entry):
    name, graph, _ = suite_entry
    powers = [ideal_power(graph, k) for k in range(1, 5)]
    indices = [cur.index_in(prev) for prev, cur in zip(powers, powers[1:])]
    assert indices == closed_form_indices(graph, 3), name
    assert bgw_indices(graph) == indices, name


def c64_squared():
    """C64 plus the edges i~i+2: 64 triangles, d = 257."""
    labels = ["v%d" % i for i in range(64)]
    return parse_graph("%s; %s" % (" ".join(labels), " ".join(
        "%s-%s" % (labels[i], labels[(i + s) % 64])
        for i in range(64) for s in (1, 2))))


def test_ideal_power_indices_closed_form_c64_squared():
    graph = c64_squared()
    assert len(graph.cliques) == 257
    powers = [ideal_power(graph, k) for k in range(1, 5)]
    assert [p.rank for p in powers] == [256] * 4
    indices = [cur.index_in(prev) for prev, cur in zip(powers, powers[1:])]
    assert indices == closed_form_indices(graph, 3)
    assert bgw_indices(graph) == indices


def ideal_power_graphs():
    """The suite, K1-K8 and C64 squared, on which the gcd chain and the
    multiplied-out products check the chain by clique size."""
    return ([(name, g) for name, g, _ in graph_suite()]
            + [("K%d" % n, complete_graph(n)) for n in range(1, 9)]
            + [("C64^2", c64_squared())])


def test_ideal_powers_by_size_match_the_gcd_chain():
    for name, graph in ideal_power_graphs():
        assert_ideal_powers_match_oracles(graph, name)


PRODUCT_MUTATIONS = {
    "constant (-4)^overlap": lambda j, k: (
        j | k, (-4) ** bin(j & k).count("1")),
    "constant 1": lambda j, k: (j | k, 1),
}


@pytest.mark.parametrize("mutation", sorted(PRODUCT_MUTATIONS))
def test_mutated_product_rule_matches_the_gcd_chain(monkeypatch, mutation):
    monkeypatch.setattr(kring, "bar_product", PRODUCT_MUTATIONS[mutation])
    k3 = complete_graph(3)
    assert bgw_indices(k3) != closed_form_indices(k3, 3)
    # K8 is left out: its multiplied-out products take about a second
    for name, graph in ideal_power_graphs():
        if name != "K8":
            assert_ideal_powers_match_oracles(graph, name)


def test_complete_and_completed_multiply():
    g = complete_graph(1)
    sbar = bar(g, "v0")
    ce = complete(sbar, 4)
    assert ce.constant == 0
    assert ce.coeffs == {1: 1}
    ce2 = complete(sbar.scale(-2), 2)
    assert ce2.coeffs == {1: 2}
    const = complete(KRingElement.one(g).scale(5), 8)
    assert const.constant == 5 and const.coeffs == {0: 5}


def test_completed_element_keeps_the_constant_exact():
    s, su = PATH.mask_of(["s"]), PATH.mask_of(["s", "u"])
    ce = CompletedElement(PATH, 2, {0: 7, s: 7})
    assert ce.constant == 7 and ce.coeffs == {0: 7, s: 3}
    assert (ce + ce).coeffs == {0: 14, s: 2}
    with pytest.raises(KRingError, match="not a clique"):
        CompletedElement(PATH, 2, {su: 1})


def test_completed_square_of_one_plus_bar():
    g = complete_graph(1)
    u = complete(KRingElement.one(g, BAR) + bar(g, "v0"), 8)
    sq = completed_multiply(u, u)
    # 2*sbar + sbar^2 = 2*sbar - 2*sbar = 0
    assert sq.constant == 1 and sq.coeffs == {0: 1}


def test_completed_two_clique_square():
    g = complete_graph(2)
    mask = g.mask_of(["v0", "v1"])
    u = complete(KRingElement.monomial(g, mask, BAR), 6)
    sq = completed_multiply(u, u)
    assert sq.coeffs == {mask: 4}


def test_completed_multiply_by_one_is_identity():
    g = path_graph(3)
    rng = random.Random(41)
    one = complete(KRingElement.one(g), 16)
    for _ in range(20):
        a = complete(random_element(g, rng, basis=BAR), 16)
        assert completed_multiply(a, one) == a


def test_completed_multiply_matches_exact_ring():
    g = path_graph(3)
    rng = random.Random(43)
    cliques = enumerate_spherical(g)
    p = 12
    mod = 1 << p
    for _ in range(50):
        a = random_element(g, rng, basis=BAR)
        b = random_element(g, rng, basis=BAR)
        exact = multiply_bar(a, b)
        approx = completed_multiply(complete(a, p), complete(b, p))
        assert approx.constant == exact.coeffs.get(0, 0)
        for k in cliques:
            if k:
                assert approx.coeffs.get(k, 0) == exact.coeffs.get(k, 0) % mod


def test_completed_precision_mismatch():
    g = complete_graph(1)
    a = complete(KRingElement.one(g), 4)
    b = complete(KRingElement.one(g), 8)
    with pytest.raises(KRingError, match="precision"):
        completed_multiply(a, b)
    # another element type is named by its type, not by a field
    with pytest.raises(KRingError, match="^type mismatch: "
                       "KRingElement vs CompletedElement$"):
        KRingElement.one(g) + b


def test_mayer_vietoris_path():
    rng = random.Random(47)
    g = path_graph(3)
    report = mayer_vietoris_check(g, {"v0", "v1"}, {"v1", "v2"}, rng)
    assert report["ok"]
    assert "detail" not in report
    assert report["ranks"] == {"whole": 6, "part1": 4, "part2": 4,
                               "intersection": 2}


def test_mayer_vietoris_disjoint_union():
    rng = random.Random(53)
    g = parse_graph("a b c d; a-b c-d")
    report = mayer_vietoris_check(g, {"a", "b"}, {"c", "d"}, rng)
    assert report["ok"]
    assert report["ranks"]["whole"] == (report["ranks"]["part1"]
                                        + report["ranks"]["part2"] - 1)


def test_mayer_vietoris_trivial_split():
    rng = random.Random(59)
    g = cycle_graph(4)
    report = mayer_vietoris_check(g, set(g.labels), set(), rng)
    assert report["ok"]


def test_projection_section_identities():
    g = path_graph(3)
    g1 = g.induced(g.mask_of(["v0", "v1"]))
    rng = random.Random(61)
    for _ in range(20):
        x = random_element(g1, rng, basis=BAR)
        assert project_to_part(include_from_part(x, g), g1) == x


def test_clique_maps_match_labels(suite_entry):
    name, g, _ = suite_entry
    rng = random.Random(name)
    for x in [0, (1 << g.n) - 1] + [rng.getrandbits(g.n) for _ in range(6)]:
        assert_clique_maps_match_labels(g, g.subset_labels(x), rng)


@pytest.mark.parametrize("which, detail", [
    ("down", {"part": 2, "sample": 0, "identity": "p(ab) = p(a)p(b)"}),
    ("up", {"part": 2, "sample": 0, "identity": "i(xy) = i(x)i(y)"}),
])
def test_wrong_clique_map_names_its_witness(monkeypatch, which, detail):
    real = kring.clique_maps

    def wrong(graph, sub):
        down, up = real(graph, sub)
        if sub.labels == ("v1", "v2"):
            # swap the images of the empty clique and of vertex v2, whose
            # mask is 0b100 in the path and 0b10 in part 2
            m, v2 = (down, 0b100) if which == "down" else (up, 0b10)
            m[0], m[v2] = m[v2], m[0]
        return down, up

    monkeypatch.setattr(kring, "clique_maps", wrong)
    report = mayer_vietoris_check(path_graph(3), ["v0", "v1"], ["v1", "v2"],
                                  random.Random(47))
    assert not report["ok"]
    assert report["detail"] == detail
    assert report["projection_is_ring_map"] == (which == "up")
    assert not report["section_splits"]


def test_a_product_off_the_cliques_is_refused(monkeypatch):
    # every bar product lands on {v0, v2}, not a clique of the path nor
    # of either part: the projection's first product is refused, as a
    # ring element with that support is
    monkeypatch.setattr(kring, "bar_product", lambda j, k: (0b101, 1))
    with pytest.raises(KRingError, match=r"support \('v0', 'v2'\) is not a "
                       "clique"):
        mayer_vietoris_check(path_graph(3), ["v0", "v1"], ["v1", "v2"],
                             random.Random(47))


def test_a_product_off_the_cliques_is_refused_by_each_multiplication(
        monkeypatch):
    # the same rule as above, through the ring elements' products
    graph = path_graph(3)
    a = KRingElement.generator(graph, "v0", BAR)
    monkeypatch.setattr(kring, "bar_product", lambda j, k: (0b101, 1))
    for product in (lambda: multiply_bar(a, a),
                    lambda: completed_multiply(complete(a, 4),
                                               complete(a, 4))):
        with pytest.raises(KRingError, match=r"^support \('v0', 'v2'\) is "
                           "not a clique$"):
            product()


def test_each_graph_multiplies_by_its_own_edges():
    # equal masks on graphs with other edges: the reach of a clique read
    # in one graph is not read in the other
    path = path_graph(3)
    other = Graph(path.labels, [("v0", "v2"), ("v1", "v2")])
    for graph in (path, other, path):
        a, b = (KRingElement.generator(graph, v, BAR) for v in ("v0", "v1"))
        for x, y in ((a, b), (a + b, a + b)):
            assert multiply_bar(x, y).coeffs == pairwise_bar_product(
                graph, x.coeffs, y.coeffs)
    assert multiply_bar(*(KRingElement.generator(path, v, BAR)
                          for v in ("v0", "v1"))).coeffs == {0b11: 1}
    assert not multiply_bar(*(KRingElement.generator(other, v, BAR)
                              for v in ("v0", "v1"))).coeffs
