"""Property tests of the sparse-combination core under the ring
elements, on random graphs with at most eight vertices, and of the
sparse Bredon complex, its cone certificate and the ideal-power chain on
random graphs with at most seven."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from racgk.bredon import (build_bredon_complex, cohomology, cone_certificate,
                          inverse_limit)
from racgk.graphs import Graph, submasks
from racgk.intlinalg import accumulate, kernel_basis, row_hnf
from racgk.kring import (BAR, STAR, KRingElement, KRingError, convert_basis,
                         ideal_powers, multiply_bar, multiply_star)
from racgk.repring import RepRingElement, RepRingError
from conftest import (dense_bredon_complex, dense_differentials,
                      product_ideal_power)

LAWS = settings(max_examples=60, deadline=None)


@st.composite
def graphs(draw, max_vertices=8):
    n = draw(st.integers(1, max_vertices))
    labels = ["v%d" % i for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
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


def chain_rank_dp(cliques):
    """Bredon ranks without chains: rank k sums 2^|c0| over the chains
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
    # clique number 5 or more makes the dense oracle too large to build
    assume(max(bin(c).count("1") for c in graph.cliques) <= 4)
    c = build_bredon_complex(graph)
    ranks, dense = dense_bredon_complex(graph)
    cert = cone_certificate(graph)
    assert c.ranks == ranks == chain_rank_dp(graph.cliques) == cert.ranks
    assert dense_differentials(c) == dense
    coh = cohomology(c)
    assert coh[0] == {"degree": 0, "free_rank": len(graph.cliques),
                      "torsion": []}
    assert all(e["free_rank"] == 0 and e["torsion"] == [] for e in coh[1:])
    assert cert.cohomology == coh
    # the apex lattice is the kernel of d^0, in the same Hermite form
    kernel = kernel_basis(c.differential(0), c.ranks[0])
    assert row_hnf(inverse_limit(graph).basis_columns) == row_hnf(kernel)


@LAWS
@given(graphs(max_vertices=7))
def test_ideal_power_rows_have_one_entry(graph):
    sizes = [bin(c).count("1") for c in graph.cliques]
    for k, lattice in enumerate(ideal_powers(graph, 3), 1):
        assert lattice.basis == product_ideal_power(graph, k).basis
        assert lattice.rank == len(sizes) - 1
        for row in lattice.basis:
            (i, x), = row.items()
            assert sizes[i] >= 1 and x == 2 ** max(0, k - sizes[i])
