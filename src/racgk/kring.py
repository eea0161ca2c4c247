"""The equivariant K-theory ring of a right-angled Coxeter group and its
augmentation-ideal completion.

Additively the ring is free on the cliques of the defining graph.  Two
bases are carried:

* star basis: monomials in the degree-one generators with each
  generator squaring to 1; products of generators attached to
  non-adjacent vertices reduce via  s*t* = s* + t* - 1.  Products are
  normalized by rewriting until every monomial support is a clique.
* bar basis (each bar generator is the star generator minus 1):
  monomial products follow closed structure constants and need no
  rewriting.  The two multiplications serve as mutual oracles.

The completion at the augmentation ideal keeps the constant term exact
and truncates every other coefficient 2-adically.
"""

from itertools import chain
from math import gcd

from .graphs import submasks, subset_key, validate_decomposition
from .intlinalg import Combination, Lattice, accumulate
from .repring import RepRingElement

STAR = "star"
BAR = "bar"


class KRingError(ValueError):
    pass


class KRingElement(Combination):
    """Sparse integer combination of clique-indexed monomials."""

    __slots__ = ("graph", "basis")

    def __init__(self, graph, basis, coeffs):
        if basis not in (STAR, BAR):
            raise KRingError("unknown basis %r" % basis)
        self.graph = graph
        self.basis = basis
        self.coeffs = {}
        cliques = graph.clique_set
        for k, c in coeffs.items():
            if k not in cliques:
                raise KRingError("support %r is not a clique"
                                 % (graph.subset_labels(k),))
            if c:
                self.coeffs[k] = c

    @classmethod
    def zero(cls, graph, basis=STAR):
        return cls(graph, basis, {})

    @classmethod
    def one(cls, graph, basis=STAR):
        return cls(graph, basis, {0: 1})

    @classmethod
    def generator(cls, graph, label, basis=STAR):
        return cls(graph, basis, {graph.mask_of([label]): 1})

    @classmethod
    def monomial(cls, graph, mask, basis=STAR, coeff=1):
        return cls(graph, basis, {mask: coeff})

    def __repr__(self):
        return "KRingElement(%s, %r)" % (self.basis, self.coeffs)

    def _ring(self):
        return self.graph, self.basis

    def _make(self, coeffs):
        return KRingElement(self.graph, self.basis, coeffs)

    def _check(self, other):
        if self.graph != other.graph:
            raise KRingError("graph mismatch")
        if self.basis != other.basis:
            raise KRingError("basis mismatch: %s vs %s"
                             % (self.basis, other.basis))


def _normalize_star(graph, terms):
    """Rewrite until every monomial support is a clique.

    Non-clique monomial with lexicographically smallest non-adjacent
    pair {s, t} in its support rewrites as
        m_K -> m_{K-t} + m_{K-s} - m_{K-s-t}.
    """
    done = []
    pending = dict(terms)
    while pending:
        mask = min(pending)
        coeff = pending.pop(mask)
        if not coeff:
            continue
        pair = _smallest_nonadjacent_pair(graph, mask)
        if pair is None:
            done.append((mask, coeff))
            continue
        s, t = pair
        for sub, sign in ((mask & ~(1 << t), 1),
                          (mask & ~(1 << s), 1),
                          (mask & ~(1 << s) & ~(1 << t), -1)):
            pending[sub] = pending.get(sub, 0) + sign * coeff
    return accumulate(done)


def _smallest_nonadjacent_pair(graph, mask):
    verts = graph.members(mask)
    for i, s in enumerate(verts):
        for t in verts[i + 1:]:
            if not graph.has_edge(s, t):
                return s, t
    return None


def multiply_star(a, b):
    a._check(b)
    if a.basis != STAR or b.basis != STAR:
        raise KRingError("multiply_star needs star-basis operands")
    raw = accumulate((k ^ l, ck * cl) for k, ck in a.coeffs.items()
                     for l, cl in b.coeffs.items())
    return KRingElement(a.graph, STAR, _normalize_star(a.graph, raw))


def bar_structure_constant(graph, j, k):
    """(mask, coefficient) of the product of two bar monomials, or None
    when the union is not a clique (the product is zero)."""
    union = j | k
    if union not in graph.clique_set:
        return None
    overlap = bin(j & k).count("1")
    return union, (-2) ** overlap


def _bar_terms(graph, a, b):
    """(mask, coefficient) terms of the product of two bar coordinate
    dicts, one per pair of monomials whose product is not zero."""
    for k, ck in a.items():
        for l, cl in b.items():
            sc = bar_structure_constant(graph, k, l)
            if sc is not None:
                m, c = sc
                yield m, c * ck * cl


def multiply_bar(a, b):
    a._check(b)
    if a.basis != BAR or b.basis != BAR:
        raise KRingError("multiply_bar needs bar-basis operands")
    out = accumulate(_bar_terms(a.graph, a.coeffs, b.coeffs))
    return KRingElement(a.graph, BAR, out)


def convert_basis(a, target):
    """Change between the star and bar bases.

    Star monomial on J = sum of bar monomials over subsets of J; bar
    monomial on J = alternating sum of star monomials over subsets.
    Subsets of a clique are cliques, so no renormalization is needed."""
    if target not in (STAR, BAR):
        raise KRingError("unknown basis %r" % target)
    if a.basis == target:
        return a

    def terms():
        for k, c in a.coeffs.items():
            for sub in submasks(k):
                # the star sign is (-1)^|k - sub|, and k - sub is k ^ sub
                odd = target == STAR and bin(k ^ sub).count("1") % 2
                yield sub, -c if odd else c

    return KRingElement(a.graph, target, accumulate(terms()))


def restrict_to_clique(a, target):
    """Component of the restriction family at a clique: star monomials
    intersect their support with the target.  Realizes the comparison
    map into the representation ring of the clique subgroup."""
    if target not in a.graph.clique_set:
        raise KRingError("restriction target %r is not a clique"
                         % (a.graph.subset_labels(target),))
    star = convert_basis(a, STAR)
    out = accumulate((k & target, c) for k, c in star.coeffs.items())
    return RepRingElement(target, out)


def augmentation(a):
    """Dimension homomorphism to Z: sum of star coefficients,
    equivalently the bar constant term."""
    if a.basis == BAR:
        return a.coeffs.get(0, 0)
    return sum(a.coeffs.values())


def presentation_report(graph):
    """Generators, relations, clique basis and rank of the ring."""
    cliques = graph.cliques
    nonedges = [(graph.labels[i], graph.labels[j])
                for i in range(graph.n) for j in range(i + 1, graph.n)
                if not graph.has_edge(i, j)]
    star_relations = (["%s*^2 - 1" % v for v in graph.labels]
                      + ["%s*%s* - %s* - %s* + 1" % (s, t, s, t)
                         for s, t in nonedges])
    bar_relations = (["%s~(%s~ + 2)" % (v, v) for v in graph.labels]
                     + ["%s~%s~" % (s, t) for s, t in nonedges])
    return {
        "generators": list(graph.labels),
        "star_relations": star_relations,
        "bar_relations": bar_relations,
        "clique_basis": [list(graph.subset_labels(c)) for c in cliques],
        "rank": len(cliques),
        "k1_rank": 0,
    }


def ideal_powers(graph, k):
    """HNF lattices of the powers I^1, ..., I^k of the augmentation
    ideal, in bar coordinates on the clique basis.

    I is generated as an ideal by the degree-one bar generators, so
    I^(j+1) is spanned by a Z-basis of I^j times each of them.  The
    chain starts from I^0, the whole ring, spanned by the clique
    monomials.

    Every basis row has one entry.  A bar generator times a bar
    monomial is one monomial with coefficient 1 or -2, or zero
    (`bar_structure_constant`), so a one-entry row times a generator
    is a one-entry product.  The products that land on one monomial
    span the multiples of their gcd there, so the gcds alone, at most
    one per clique and on distinct columns, span I^(j+1), and its HNF
    rows have one entry again.  The unit rows of I^0 start the
    induction."""
    if k < 1:
        raise KRingError("ideal power needs k >= 1")
    cliques = graph.cliques
    index = {c: i for i, c in enumerate(cliques)}
    d = len(cliques)
    # times[i]: (index, coefficient) for each bar generator whose
    # product with bar monomial i is not zero.  Such a product is the
    # clique c = i + v, with v in c, so the pairs are found from the
    # cliques and their vertices: v times c, and v times c - v.
    times = [[] for _ in cliques]
    for c in cliques:
        for v in graph.members(c):
            for mask in (c, c & ~(1 << v)):
                union, const = bar_structure_constant(graph, 1 << v, mask)
                times[index[mask]].append((index[union], const))
    basis = [{i: 1} for i in range(d)]
    powers = []
    for _ in range(k):
        merged = {}
        for row in basis:
            (i, x), = row.items()
            for j, const in times[i]:
                merged[j] = gcd(merged.get(j, 0), const * x)
        lattice = Lattice(d, [{j: g} for j, g in merged.items()])
        powers.append(lattice)
        basis = lattice.basis
    return powers


def ideal_power(graph, k):
    """HNF lattice of the k-th power of the augmentation ideal, in bar
    coordinates on the clique basis."""
    return ideal_powers(graph, k)[-1]


class CompletedElement:
    """Element of the completed ring: exact constant term plus one
    residue mod 2^precision per non-empty clique.  Not a Combination:
    the constant sits outside `coeffs`, which its sums would drop."""

    __slots__ = ("graph", "precision", "constant", "coeffs")

    def __init__(self, graph, precision, constant, coeffs):
        if precision < 1:
            raise KRingError("precision must be >= 1")
        self.graph = graph
        self.precision = precision
        self.constant = constant
        mod = 1 << precision
        self.coeffs = {}
        cliques = graph.clique_set
        for k, c in coeffs.items():
            if k == 0:
                raise KRingError("constant term must go in `constant`")
            if k not in cliques:
                raise KRingError("support %r is not a clique"
                                 % (graph.subset_labels(k),))
            r = c % mod
            if r:
                self.coeffs[k] = r

    def __eq__(self, other):
        return (isinstance(other, CompletedElement)
                and self.graph == other.graph
                and self.precision == other.precision
                and self.constant == other.constant
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return ("CompletedElement(p=%d, const=%d, %r)"
                % (self.precision, self.constant, self.coeffs))


def complete(a, precision):
    """Truncate a ring element into the completed ring."""
    bar = convert_basis(a, BAR)
    coeffs = {k: c for k, c in bar.coeffs.items() if k}
    return CompletedElement(a.graph, precision, bar.coeffs.get(0, 0), coeffs)


def completed_multiply(a, b):
    if a.graph != b.graph:
        raise KRingError("graph mismatch")
    if a.precision != b.precision:
        raise KRingError("precision mismatch: %d vs %d"
                         % (a.precision, b.precision))
    out = accumulate(chain(
        _bar_terms(a.graph, a.coeffs, b.coeffs),
        ((k, b.constant * c) for k, c in a.coeffs.items()),
        ((k, a.constant * c) for k, c in b.coeffs.items())))
    return CompletedElement(a.graph, a.precision, a.constant * b.constant, out)


def project_to_part(a, subgraph):
    """Coordinate projection onto the ring of a full subgraph: bar
    monomials supported outside the subgraph go to zero."""
    bar = convert_basis(a, BAR)
    keep = a.graph.mask_of(subgraph.labels)
    out = {}
    for k, c in bar.coeffs.items():
        if k & ~keep:
            continue
        out[subgraph.mask_of(a.graph.subset_labels(k))] = c
    res = KRingElement(subgraph, BAR, out)
    return convert_basis(res, a.basis)


def include_from_part(a, graph):
    """Monomial-inclusion section: bar monomials of the subgraph ring
    are bar monomials of the big ring (cliques stay cliques)."""
    bar = convert_basis(a, BAR)
    out = {graph.mask_of(a.graph.subset_labels(k)): c
           for k, c in bar.coeffs.items()}
    res = KRingElement(graph, BAR, out)
    return convert_basis(res, a.basis)


def random_element(graph, rng, basis=STAR, terms=3, coeff_bound=5):
    """Seeded random sparse element, for property and oracle checks."""
    # the draw order (term count, then a clique and a coefficient per
    # term) fixes the seeded reports
    draws = [(rng.choice(graph.cliques), rng.randint(-coeff_bound, coeff_bound))
             for _ in range(rng.randint(1, terms))]
    return KRingElement(graph, basis, accumulate(draws))


def mayer_vietoris_check(graph, part1, part2, rng, samples=20):
    """Rank inclusion-exclusion plus a randomized check that the
    coordinate projections are ring maps split by monomial inclusion."""
    g1, g2, g3 = validate_decomposition(graph, part1, part2)
    d, d1, d2, d3 = (len(g.cliques) for g in (graph, g1, g2, g3))
    rank_ok = (d == d1 + d2 - d3)
    proj_ok = True
    split_ok = True
    for sub in (g1, g2):
        for _ in range(samples):
            a = random_element(graph, rng, basis=BAR)
            b = random_element(graph, rng, basis=BAR)
            pa, pb = project_to_part(a, sub), project_to_part(b, sub)
            if project_to_part(multiply_bar(a, b), sub) != multiply_bar(pa, pb):
                proj_ok = False
            x = random_element(sub, rng, basis=BAR)
            y = random_element(sub, rng, basis=BAR)
            ix, iy = include_from_part(x, graph), include_from_part(y, graph)
            if include_from_part(multiply_bar(x, y), graph) != multiply_bar(ix, iy):
                split_ok = False
            if project_to_part(ix, sub) != x:
                split_ok = False
    return {
        "ranks": {"whole": d, "part1": d1, "part2": d2, "intersection": d3},
        "rank_inclusion_exclusion": rank_ok,
        "projection_is_ring_map": proj_ok,
        "section_splits": split_ok,
        "ok": rank_ok and proj_ok and split_ok,
    }


def element_to_json_dict(a):
    g = a.graph
    return {
        "basis": a.basis,
        "ambient": list(g.labels),
        "terms": [{"monomial": list(g.subset_labels(k)), "coeff": str(c)}
                  for k, c in sorted(a.coeffs.items(),
                                     key=lambda kv: subset_key(g, kv[0]))],
    }
