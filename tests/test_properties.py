"""Property tests of the forward clique pass and the clique poset on
random graphs with at most nine vertices, of the clique counts and
full subgraphs on random graphs with at most twelve, and of the packed
clique counts on dense random graphs with at most 24; of the
sparse-combination core under the ring elements, the star normal form,
the completion map, the Mayer-Vietoris splits, the graph parsers and
the cubical Bredon complex on random graphs with at most eight; and of
the sparse Bredon complex, its cone certificate, the limit's clique
factors and the ideal-power chain on random graphs with at most seven;
and of the JSON writer on random nested values."""

import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from racgk.bredon import (bredon_ranks, build_bredon_complex, cohomology,
                          cone_certificate)
from racgk.graphs import (Graph, clique_counts, cliques_within,
                          enumerate_spherical, parse_graph, poset_chains,
                          submasks)
from racgk.intlinalg import accumulate, kernel_basis, row_hnf
from racgk.kring import (BAR, STAR, CompletedElement, KRingElement,
                         KRingError, _normalize_star, complete,
                         completed_multiply, convert_basis,
                         group_ring_product, ideal_power, ideal_powers,
                         mayer_vietoris_check, multiply_bar, multiply_star)
from racgk.repring import RepRingElement, RepRingError
from racgk.writers import dump_json, render_text
from conftest import (apex_lattice, assert_clique_maps_match_labels,
                      assert_ideal_powers_match_oracles,
                      assert_limit_matches_apex, brute_force_cliques,
                      cube_ranks, cubical_bredon_complex,
                      dense_bredon_complex, dense_differentials,
                      label_order_counts, label_route_induced,
                      min_first_normalize_star, neighbourhood_split,
                      order_bredon_complex, pairwise_bar_product,
                      per_degree_cohomology, per_item_render_text,
                      product_ideal_power, subset_key, supersets,
                      walk_certificate)

LAWS = settings(max_examples=60, deadline=None)


# labels the edge-list format can carry: no whitespace, `;` or `-`
LABELS = st.text(st.characters(blacklist_categories=("Z", "C"),
                               blacklist_characters=";-"),
                 min_size=1, max_size=3)


@st.composite
def graphs(draw, max_vertices=8, label=None):
    """Random graphs with labels v0, v1, ..., or with distinct labels
    drawn from the strategy `label`."""
    if label is None:
        labels = ["v%d" % i for i in range(draw(st.integers(1, max_vertices)))]
    else:
        labels = draw(st.lists(label, min_size=1, max_size=max_vertices,
                               unique=True))
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph(labels, [p for p, k in zip(pairs, keep) if k])


def coefficients(keys):
    return st.dictionaries(st.sampled_from(keys), st.integers(-20, 20),
                           max_size=6)


@st.composite
def kring_elements(draw, count, basis=None):
    """`count` elements of one K-ring, in one basis."""
    graph = draw(graphs())
    basis = basis or draw(st.sampled_from([STAR, BAR]))
    return [KRingElement(graph, basis, draw(coefficients(graph.cliques)))
            for _ in range(count)]


@st.composite
def repring_elements(draw, count):
    """`count` elements of the representation ring of one (C2)^J."""
    ambient = draw(st.integers(0, 255))
    monomials = sorted(submasks(ambient))
    return [RepRingElement(ambient, draw(coefficients(monomials)))
            for _ in range(count)]


@LAWS
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(-3, 3))))
def test_accumulate_sums_and_drops_zeros(pairs):
    out = accumulate(pairs)
    assert all(out.values())
    for k in {k for k, _v in pairs}:
        assert out.get(k, 0) == sum(v for j, v in pairs if j == k)


def check_group_laws(a, b, c, n):
    zero = a.scale(0)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a - a == zero
    assert a - b == a + (-b)
    assert -(-a) == a
    assert a.scale(2) == a + a
    assert (a + b).scale(n) == a.scale(n) + b.scale(n)
    assert hash(a + b) == hash(b + a)
    assert hash(a - a) == hash(zero)
    rebuilt = a._make(dict(reversed(list(a.coeffs.items()))))
    assert rebuilt == a and hash(rebuilt) == hash(a)


@LAWS
@given(kring_elements(3), st.integers(-4, 4))
def test_kring_group_laws(elements, n):
    check_group_laws(*elements, n)


@LAWS
@given(repring_elements(3), st.integers(-4, 4))
def test_repring_group_laws(elements, n):
    check_group_laws(*elements, n)


@LAWS
@given(graphs(), graphs())
def test_kring_mixed_graphs_are_refused(g, h):
    assume(g != h)
    a, b = KRingElement.one(g), KRingElement.one(h)
    assert a != b
    for op in (a.__add__, a.__sub__):
        with pytest.raises(KRingError, match="graph"):
            op(b)


@LAWS
@given(kring_elements(1, basis=STAR))
def test_kring_mixed_bases_are_refused(elements):
    a, = elements
    b = convert_basis(a, BAR)
    assert KRingElement.one(a.graph, STAR) != KRingElement.one(a.graph, BAR)
    for op in (a.__add__, a.__sub__):
        with pytest.raises(KRingError, match="basis"):
            op(b)


@LAWS
@given(st.integers(0, 255), st.integers(0, 255))
def test_repring_mixed_ambients_are_refused(j, k):
    assume(j != k)
    a, b = RepRingElement.one(j), RepRingElement.one(k)
    assert a != b
    for op in (a.__add__, a.__sub__):
        with pytest.raises(RepRingError, match="ambient"):
            op(b)


@LAWS
@given(kring_elements(2, basis=STAR))
def test_star_product_matches_bar_product(elements):
    a, b = elements
    bar = multiply_bar(convert_basis(a, BAR), convert_basis(b, BAR))
    assert convert_basis(multiply_star(a, b), BAR) == bar
    assert multiply_star(a, b) == convert_basis(bar, STAR)


@LAWS
@given(kring_elements(2, basis=STAR))
def test_three_product_routes_agree(elements):
    # rewriting to cliques, the bar structure constants, and the group
    # ring's characters expanded over the cliques inside each mask
    a, b = elements
    star = convert_basis(multiply_star(a, b), BAR)
    bar = multiply_bar(convert_basis(a, BAR), convert_basis(b, BAR))
    assert star == bar == group_ring_product(a, b)


@LAWS
@given(kring_elements(2), st.integers(1, 8))
def test_completion_is_a_ring_map(elements, precision):
    a, b = elements
    ca, cb = complete(a, precision), complete(b, precision)
    assert complete(a + b, precision) == ca + cb
    product = (multiply_star if a.basis == STAR else multiply_bar)(a, b)
    assert complete(product, precision) == completed_multiply(ca, cb)


@LAWS
@given(graphs(max_vertices=9, label=LABELS))
def test_clique_labels_follow_the_cliques(graph):
    assert graph.clique_labels == [list(graph.subset_labels(c))
                                   for c in graph.cliques]


@LAWS
@given(graphs(max_vertices=12))
def test_clique_counts_match_the_brute_force_sizes(graph):
    sizes = [0] * (graph.n + 1)
    for c in brute_force_cliques(graph):
        sizes[c.bit_count()] += 1
    while not sizes[-1]:
        sizes.pop()
    assert clique_counts(graph) == sizes
    assert label_order_counts(graph) == sizes


@LAWS
@given(st.integers(1, 24), st.integers(50, 100), st.randoms())
def test_packed_clique_counts_match_the_label_order_recursion(n, percent,
                                                             rng):
    # past the brute force's reach: dense graphs, whose counts fill most
    # of each field, and many fields
    labels = ["v%d" % i for i in range(n)]
    graph = Graph(labels, [(a, b) for i, a in enumerate(labels)
                           for b in labels[i + 1:]
                           if rng.random() * 100 < percent])
    assert clique_counts(graph) == label_order_counts(graph)


@LAWS
@given(graphs(max_vertices=12, label=LABELS), st.data())
def test_induced_matches_the_label_route(graph, data):
    mask = data.draw(st.integers(0, (1 << graph.n) - 1))
    sub, ref = graph.induced(mask), label_route_induced(graph, mask)
    assert (sub.labels, sub.index, sub.n, sub.adj, sub.edges) == (
        ref.labels, ref.index, ref.n, ref.adj, ref.edges)
    assert sub == ref and ref == sub and hash(sub) == hash(ref)
    assert sub.cliques == ref.cliques and sub.f_vector == ref.f_vector


def chain_rank_dp(cliques):
    """Order complex ranks without chains: rank k sums 2^|c0| over the chains
    c0 < ... < ck, and counts[c] holds the chains of the current length
    that start at c."""
    counts = dict.fromkeys(cliques, 1)
    ranks = []
    while any(counts.values()):
        ranks.append(sum(n << bin(c).count("1") for c, n in counts.items()))
        counts = {c: sum(counts[e] for e in cliques if e != c and e & c == c)
                  for c in cliques}
    return ranks


@LAWS
@given(graphs(max_vertices=7))
def test_sparse_bredon_complex(graph):
    c, cube = build_bredon_complex(graph), cubical_bredon_complex(graph)
    cert, walk = cone_certificate(graph), walk_certificate(graph)
    assert (c.ranks, c.diffs) == (cube.ranks, cube.diffs)
    assert c.ranks == cube_ranks(graph) == cert.ranks
    assert (cert.ok, cert.ranks, cert.witness) == (walk.ok, walk.ranks,
                                                   walk.witness)
    coh = cohomology(c)
    assert coh[0] == {"degree": 0, "free_rank": len(graph.cliques),
                      "torsion": []}
    assert all(e["free_rank"] == 0 and e["torsion"] == [] for e in coh[1:])
    assert cert.cohomology == coh
    # the apex lattice is the kernel of d^0, in the same Hermite form
    kernel = kernel_basis(c.diffs[0], c.ranks[0])
    assert row_hnf(apex_lattice(graph).basis_columns) == row_hnf(kernel)
    # clique number 5 or more makes the dense oracle of the order complex
    # too large to build
    if graph.cliques[-1].bit_count() <= 4:
        order = order_bredon_complex(graph)
        ranks, dense = dense_bredon_complex(graph)
        assert order.ranks == ranks == chain_rank_dp(graph.cliques)
        assert dense_differentials(order) == dense


@LAWS
@given(graphs(max_vertices=8))
def test_cubical_complex_matches_the_certificate(graph):
    c, cube = build_bredon_complex(graph), cubical_bredon_complex(graph)
    assert (c.ranks, c.diffs) == (cube.ranks, cube.diffs)
    assert cube.ranks == bredon_ranks(graph.f_vector)
    expected = cone_certificate(graph).cohomology
    assert cohomology(cube) == expected
    # one reduction of the whole complex against each degree on its own
    assert per_degree_cohomology(c) == expected
    # the order complex of K6 has 37,398 cells, of K7 378,214
    if graph.cliques[-1].bit_count() <= 5:
        assert cohomology(order_bredon_complex(graph)) == expected


@LAWS
@given(graphs(max_vertices=7))
def test_limit_shape_matches_elimination(graph):
    assert_limit_matches_apex(graph)


@LAWS
@given(graphs(max_vertices=7))
def test_ideal_power_rows_have_one_entry(graph):
    sizes = [bin(c).count("1") for c in graph.cliques]
    for k, entries in enumerate(ideal_powers(graph, 3), 1):
        assert entries == [0] + [2 ** max(0, k - s)
                                 for s in range(1, max(sizes) + 1)]
        lattice = ideal_power(graph, k)
        assert lattice.basis == product_ideal_power(graph, k).basis
        assert lattice.rank == len(sizes) - 1
        for row in lattice.basis:
            (i, x), = row.items()
            assert sizes[i] >= 1 and x == 2 ** max(0, k - sizes[i])


@LAWS
@given(graphs(max_vertices=7))
def test_ideal_powers_by_size_match_the_gcd_chain(graph):
    assert_ideal_powers_match_oracles(graph)


@LAWS
@given(graphs(max_vertices=9))
def test_forward_pass_lists_the_clique_poset(graph):
    cliques = enumerate_spherical(graph)
    assert cliques == brute_force_cliques(graph)
    for c in cliques:
        assert cliques_within(graph, c) == sorted(
            submasks(c), key=lambda m: subset_key(graph, m))
    # the first chain level pairs each clique with each clique above it,
    # in the order of the listing
    above = supersets(graph)
    assert poset_chains(graph, 1)[1] == [(c, e) for c in cliques
                                         for e in above[c]]


@LAWS
@given(graphs(max_vertices=9), st.data())
def test_forward_pass_lists_the_cliques_inside_any_vertex_set(graph, data):
    # `poset_chains` passes common neighbourhoods, and
    # `group_ring_product` character masks, neither of them a clique
    mask = data.draw(st.integers(0, (1 << graph.n) - 1))
    assert cliques_within(graph, mask) == sorted(
        (m for m in submasks(mask) if graph.is_clique(m)),
        key=lambda m: subset_key(graph, m))


@LAWS
@given(graphs(max_vertices=9))
def test_poset_chain_levels_are_sorted(graph):
    for level in poset_chains(graph, 2):
        keys = [[subset_key(graph, c) for c in chain] for chain in level]
        assert keys == sorted(keys)


@LAWS
@given(kring_elements(2, basis=BAR), st.integers(1, 8))
def test_bar_products_are_the_pairwise_sum(elements, precision):
    a, b = elements
    g = a.graph
    assert multiply_bar(a, b) == KRingElement(
        g, BAR, pairwise_bar_product(g, a.coeffs, b.coeffs))
    ca, cb = complete(a, precision), complete(b, precision)
    assert completed_multiply(ca, cb) == CompletedElement(
        g, precision, pairwise_bar_product(g, ca.coeffs, cb.coeffs))


@LAWS
@given(graphs(), st.data())
def test_mayer_vietoris_on_neighbourhood_splits(graph, data):
    x = data.draw(st.integers(0, (1 << graph.n) - 1))
    part1, part2 = neighbourhood_split(graph, x)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    report = mayer_vietoris_check(graph, part1, part2, rng, samples=3)
    assert report["ok"]
    ranks = report["ranks"]
    assert ranks["whole"] == (ranks["part1"] + ranks["part2"]
                              - ranks["intersection"])
    for part in (part1, part2):
        assert_clique_maps_match_labels(graph, part, rng, samples=3)


@LAWS
@given(graphs(label=LABELS))
def test_parsers_round_trip(graph):
    edges = graph.canonical_edge_list()
    text = "%s; %s" % (" ".join(graph.labels),
                       " ".join("%s-%s" % e for e in edges))
    assert parse_graph(text) == graph
    doc = json.dumps({"vertices": list(graph.labels),
                      "edges": [list(e) for e in edges]})
    assert parse_graph(doc, fmt="json") == graph


# printable ASCII without `"` or backslash: what the C quoting leaves
# alone, so a list of it is quoted by one join
SAFE_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e,
                                  blacklist_characters='"\\'))
# one character of each kind that the quoting escapes
NEEDS_ESCAPING = ['"', "\\", "\x1f", "\x7f", "\u00e9", "\u2028"]


@st.composite
def escaping_lists(draw):
    """A list of SAFE_TEXT with one item from NEEDS_ESCAPING."""
    items = draw(st.lists(SAFE_TEXT))
    items.insert(draw(st.integers(0, len(items))),
                 draw(st.sampled_from(NEEDS_ESCAPING)))
    return items


# every kind of value json.dumps writes, lists of only str or only int
# among them, nested in lists, tuples and dicts
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text()
    | st.integers() | st.integers(-2 ** 300, 2 ** 300)
    | st.lists(st.text()) | st.lists(st.integers(-2 ** 70, 2 ** 70))
    | st.lists(SAFE_TEXT) | escaping_lists()
    # lists of string lists, as the clique basis, empty ones included
    | st.lists(st.lists(SAFE_TEXT, max_size=3))
    | st.lists(st.lists(SAFE_TEXT, max_size=3).map(tuple)).map(tuple)
    | st.lists(escaping_lists() | st.lists(SAFE_TEXT, max_size=2))
    | st.lists(st.lists(st.text(), max_size=2))
    | st.lists(st.lists(st.lists(SAFE_TEXT, max_size=1), max_size=2)),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40)


@LAWS
@given(JSON_VALUES)
def test_json_writer_matches_the_standard_library(value):
    assert dump_json(value) == json.dumps(value, indent=2, sort_keys=True)


@LAWS
@given(JSON_VALUES)
def test_text_writer_matches_the_per_item_writer(value):
    assert render_text({"v": value}) == per_item_render_text({"v": value})


@LAWS
@given(graphs(), st.data())
def test_star_normal_form_is_the_min_first_one(graph, data):
    raw = data.draw(st.dictionaries(st.integers(0, (1 << graph.n) - 1),
                                    st.integers(-20, 20), max_size=8))
    assert _normalize_star(graph, raw) == min_first_normalize_star(graph, raw)
