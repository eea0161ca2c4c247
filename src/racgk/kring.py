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
  rewriting.  A star monomial t_m is the sum of the bar monomials on
  the cliques inside m, so the group ring gives the bar form of a star
  product with no rewriting: the oracle for the star product.

The completion at the augmentation ideal keeps the constant term, the
coefficient at the empty clique, exact and truncates every other
coefficient 2-adically.
"""

from heapq import heapify, heappop, heappush
from math import gcd

from .graphs import (GraphError, cliques_within, submasks,
                     validate_decomposition)
from .intlinalg import Combination, Lattice, accumulate
from .repring import RepRingElement

STAR = "star"
BAR = "bar"
# the most cliques `presentation_report` lists: K20 has 2^20, G(64, 0.7)
# 1,150,469, and K24's 2^24 ran out of 3 GiB
CLIQUE_BASIS_CAP = 1 << 21
# the most cliques `mayer_vietoris_check` lists in the graph: glue64(0.88)
# has 5,906,535 and takes 1.2 GB, glue64(0.92)'s 82,338,648 would not fit
MV_CLIQUE_CAP = 1 << 23
# the most terms, and the largest coefficient, of a sampled element
TERMS = 3
COEFF_BOUND = 5


class KRingError(ValueError):
    pass


def _check_support(graph, support):
    """`support`, masks or a dict keyed by them, once `Graph.is_clique`
    accepts each mask; else the error names the first non-clique by its
    labels, or by its mask if that lies outside the vertex range."""
    if not all(map(graph.is_clique, support)):
        bad = next(k for k in support if not graph.is_clique(k))
        raise KRingError("support %s is not a clique" % (
            "mask %d" % bad if bad >> graph.n else
            repr(graph.subset_labels(bad))))
    return support


class KRingElement(Combination):
    """Sparse integer combination of clique-indexed monomials."""

    __slots__ = ("graph", "basis")
    error = KRingError

    def __init__(self, graph, basis, coeffs):
        if basis not in (STAR, BAR):
            raise KRingError("unknown basis %r" % basis)
        _check_support(graph, coeffs)
        self.graph, self.basis = graph, basis
        self.coeffs = {k: c for k, c in coeffs.items() if c}

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


def _normalize_star(graph, terms):
    """Rewrite until every monomial support is a clique.

    Non-clique monomial with lexicographically smallest non-adjacent
    pair {s, t} in its support, `Graph.nonadjacent_pair`, rewrites as
        m_K -> m_{K-t} + m_{K-s} - m_{K-s-t}.

    The pending masks come off a heap, largest first.  A rewrite lands
    only on strict submasks, which are smaller numbers, so every mask
    has received all of its coefficient when it is taken, and each is
    rewritten once.  The cliques are a basis, so the normal form is the
    one any order of rewrites reaches.
    """
    done = {}
    pending = dict(terms)
    heap = [-mask for mask in pending]
    heapify(heap)
    while heap:
        mask = -heappop(heap)
        coeff = pending.pop(mask)
        if not coeff:
            continue
        pair = graph.nonadjacent_pair(mask)
        if pair is None:
            done[mask] = coeff
            continue
        s, t = pair
        for sub, add in ((mask & ~(1 << t), coeff),
                         (mask & ~(1 << s), coeff),
                         (mask & ~(1 << s) & ~(1 << t), -coeff)):
            if sub in pending:
                pending[sub] += add
            else:
                pending[sub] = add
                heappush(heap, -sub)
    return done


def multiply_star(a, b):
    a._check(b)
    if a.basis != STAR or b.basis != STAR:
        raise KRingError("multiply_star needs star-basis operands")
    raw = accumulate((k ^ l, ck * cl) for k, ck in a.coeffs.items()
                     for l, cl in b.coeffs.items())
    return KRingElement(a.graph, STAR, _normalize_star(a.graph, raw))


def bar_product(j, k):
    """(mask, coefficient) of the product of two bar monomials whose
    union is a clique: the union, times -2 per shared vertex, from
    s~^2 = -2 s~."""
    return j | k, (-2) ** bin(j & k).count("1")


def _bar_sum(graph, a, b):
    """The bar coordinate dict of the product of two bar coordinate
    dicts, zero sums dropped.  The clique l joins the clique k when it
    lies in k and the common neighbours of k; every other pair of
    monomials multiplies to zero.  Each term is added straight into the
    output; `bar_product` is looked up on the module at each call, so a
    patched rule reaches it."""
    out = {}
    for k, ck in a.items():
        outside = ~(k | graph.common_neighbours(k))
        for l, cl in b.items():
            if not l & outside:
                m, c = bar_product(k, l)
                out[m] = out.get(m, 0) + c * ck * cl
    return {m: c for m, c in out.items() if c}


def multiply_bar(a, b):
    """The product of two bar-basis elements, summed by `_bar_sum`."""
    a._check(b)
    if a.basis != BAR or b.basis != BAR:
        raise KRingError("multiply_bar needs bar-basis operands")
    return KRingElement(a.graph, BAR, _bar_sum(a.graph, a.coeffs, b.coeffs))


def group_ring_product(a, b):
    """The bar form of the product of two star-basis elements, through
    the group ring: t_k t_l = t_(k ^ l), and t_m, the product of 1 + x_v
    over v in m, is the sum of x_U over the cliques U inside m, since
    x_U = 0 unless U is a clique.  Nothing is rewritten or converted."""
    a._check(b)
    if a.basis != STAR or b.basis != STAR:
        raise KRingError("group_ring_product needs star-basis operands")
    chars = accumulate((k ^ l, ck * cl) for k, ck in a.coeffs.items()
                       for l, cl in b.coeffs.items())
    return KRingElement(a.graph, BAR, accumulate(
        (u, c) for m, c in chars.items() for u in cliques_within(a.graph, m)))


def convert_basis(a, target):
    """Change between the star and bar bases.

    Star monomial on J = sum of bar monomials over subsets of J; bar
    monomial on J = alternating sum of star monomials over subsets.
    Subsets of a clique are cliques, so no renormalization is needed."""
    if target not in (STAR, BAR):
        raise KRingError("unknown basis %r" % target)
    if a.basis == target:
        return a
    # the star sign is (-1)^|k - sub|, and k - sub is k ^ sub
    signed = target == STAR
    return KRingElement(a.graph, target, accumulate(
        (sub, -c if signed and (k ^ sub).bit_count() % 2 else c)
        for k, c in a.coeffs.items() for sub in submasks(k)))


def restrict_to_clique(a, target):
    """Component of the restriction family at a clique: star monomials
    intersect their support with the target.  Realizes the comparison
    map into the representation ring of the clique subgroup."""
    _check_support(a.graph, (target,))
    star = convert_basis(a, STAR)
    out = accumulate((k & target, c) for k, c in star.coeffs.items())
    return RepRingElement(target, out)


def augmentation(a):
    """Dimension homomorphism to Z: sum of star coefficients,
    equivalently the bar constant term."""
    if a.basis == BAR:
        return a.coeffs.get(0, 0)
    return sum(a.coeffs.values())


def _nonedges(graph):
    """Label pairs (s, t), s before t, of the non-adjacent vertices, read
    off the adjacency masks."""
    labels, n = graph.labels, graph.n
    return [(labels[i], labels[j]) for i, adj in enumerate(graph.adj)
            for j in range(i + 1, n) if not adj >> j & 1]


def bar_relations(graph, nonedges=None):
    """The relations of the bar generators: s~(s~ + 2) for each vertex,
    from s*^2 = 1, and s~t~ for each non-edge, listed if not given."""
    return ([f"{v}~({v}~ + 2)" for v in graph.labels]
            + [f"{s}~{t}~" for s, t in nonedges or _nonedges(graph)])


def presentation_report(graph):
    """Generators, relations, clique basis and rank of the ring; more
    than `CLIQUE_BASIS_CAP` cliques, counted, are refused before listing."""
    d = sum(graph.f_vector)
    if d > CLIQUE_BASIS_CAP:
        raise GraphError("the clique basis has d = %d cliques, and a "
                         "ktheory report lists each; the cap is d = %d"
                         % (d, CLIQUE_BASIS_CAP))
    nonedges = _nonedges(graph)
    return {
        "generators": list(graph.labels),
        "star_relations": ([f"{v}*^2 - 1" for v in graph.labels]
                           + [f"{s}*{t}* - {s}* - {t}* + 1"
                              for s, t in nonedges]),
        "bar_relations": bar_relations(graph, nonedges),
        "clique_basis": graph.clique_labels,
        "rank": len(graph.clique_labels),
        "k1_rank": 0,
    }


def ideal_powers(graph, k):
    """The powers I^1, ..., I^k of the augmentation ideal by clique
    size: e_j[s] is the one entry of I^j's row, in bar coordinates, on
    each clique of size s, and 0 where I^j has no row there.

    I^(j+1) is spanned by a Z-basis of I^j times the bar generators x_v,
    from the clique monomials of I^0 (e_0 is 1).  x_v x_K is
    `bar_product`'s x_(K | v) when that is a clique, else 0, so a
    clique L receives x_v x_L and x_v x_(L - v) for each v in L, and
    e_(j+1)[|L|] is the gcd of their coefficients times e_j; nothing
    lands on the empty clique.  The rule uses bit operations only, so
    L = {0, ..., s - 1} stands for every clique of size s: O(k top^2)
    steps for `top` the clique number, read off the f-vector."""
    if k < 1:
        raise KRingError("ideal power needs k >= 1")
    top = len(graph.f_vector) - 1
    entries = [1] * (top + 1)
    powers = []
    for _ in range(k):
        nxt = [0]
        for s in range(1, top + 1):
            clique, g = (1 << s) - 1, 0
            for v in range(s):
                for mask in (clique, clique & ~(1 << v)):
                    const = bar_product(1 << v, mask)[1]
                    g = gcd(g, const * entries[bin(mask).count("1")])
            nxt.append(g)
        powers.append(nxt)
        entries = nxt
    return powers


def ideal_power(graph, k):
    """HNF lattice of the k-th power of the augmentation ideal, in bar
    coordinates on the clique basis, built from `ideal_powers`."""
    entries = ideal_powers(graph, k)[-1]
    cells = ((i, entries[bin(c).count("1")])
             for i, c in enumerate(graph.cliques))
    return Lattice(len(graph.cliques), [{i: x} for i, x in cells if x])


class CompletedElement(Combination):
    """Element of the completed ring: the exact constant term at the
    empty clique and a residue mod 2^precision on each other clique."""

    __slots__ = ("graph", "precision")
    error = KRingError

    def __init__(self, graph, precision, coeffs):
        if precision < 1:
            raise KRingError("precision must be >= 1")
        _check_support(graph, coeffs)
        self.graph, self.precision = graph, precision
        mod = 1 << precision
        self.coeffs = {}
        for k, c in coeffs.items():
            r = c % mod if k else c
            if r:
                self.coeffs[k] = r

    @property
    def constant(self):
        return self.coeffs.get(0, 0)

    def __repr__(self):
        return "CompletedElement(p=%d, %r)" % (self.precision, self.coeffs)


def complete(a, precision):
    """Truncate a ring element into the completed ring."""
    return CompletedElement(a.graph, precision, convert_basis(a, BAR).coeffs)


def completed_multiply(a, b):
    """The product in the completed ring, summed by `_bar_sum`:
    `bar_product(0, k)` is (k, 1), so the bar terms carry the constants
    too, and `_make` reduces the residues."""
    a._check(b)
    return a._make(_bar_sum(a.graph, a.coeffs, b.coeffs))


def clique_maps(graph, sub):
    """The cliques of `graph` inside the vertex set of its full subgraph
    `sub`, paired with `sub`'s own: (down, up), graph clique to sub
    clique and back.  The graph's cliques inside the part keep their
    canonical order, and the vertex map keeps order, so both lists are
    in canonical order and pair off one to one."""
    mask = graph.mask_of(sub.labels)
    ours = [c for c in graph.cliques if not c & ~mask]
    return (dict(zip(ours, sub.cliques, strict=True)),
            dict(zip(sub.cliques, ours, strict=True)))


def _draw(rng, d, clique):
    """The coefficient dict of a seeded random sparse element of a ring
    with d cliques, `clique(i)` the mask of the i-th: what
    `rng.randint(1, TERMS)` terms of `rng.randrange(d)` and
    `rng.randint(-COEFF_BOUND, COEFF_BOUND)` would draw, by the rule of
    CPython's `Random._randbelow` (3.10-3.13): n.bit_length() bits of
    `rng.getrandbits`, drawn again while they read n or more."""
    bits = rng.getrandbits
    width = 2 * COEFF_BOUND + 1
    kt, kd, kw = TERMS.bit_length(), d.bit_length(), width.bit_length()
    terms = bits(kt)
    while terms >= TERMS:
        terms = bits(kt)
    out = {}
    for _ in range(1 + terms):
        i = bits(kd)
        while i >= d:
            i = bits(kd)
        x = bits(kw)
        while x >= width:
            x = bits(kw)
        c = clique(i)
        out[c] = out.get(c, 0) + x - COEFF_BOUND
    return {c: x for c, x in out.items() if x}


def random_element(graph, rng, basis=STAR):
    """A seeded random element, drawn by `_draw` from the printed
    listing, `Graph.clique_labels`."""
    labels = graph.clique_labels
    return KRingElement(graph, basis, _draw(
        rng, len(labels), lambda i: graph.mask_of(labels[i])))


def mayer_vietoris_check(graph, part1, part2, rng, samples=20):
    """Rank inclusion-exclusion plus a randomized check, on bar
    coordinate dicts from `_draw`, that the coordinate projections,
    renamed through `clique_maps`, are ring maps split by monomial
    inclusion; each product's support is tested as a ring element's is.
    A failed identity is named in `detail`: its part, sample and
    identity, the first in the order checked.  A graph of more than
    `MV_CLIQUE_CAP` cliques, counted, is refused before any is listed."""
    g1, g2, g3 = validate_decomposition(graph, part1, part2)
    # a part's cliques are the graph's, so the count bounds all three
    # listings
    counted = sum(graph.f_vector)
    if counted > MV_CLIQUE_CAP:
        raise GraphError("the graph has d = %d cliques, and mv-check lists "
                         "them and each part's; the cap is d = %d"
                         % (counted, MV_CLIQUE_CAP))
    d, d1, d2 = (len(g.cliques) for g in (graph, g1, g2))
    d3 = sum(g3.f_vector)
    rank_ok = (d == d1 + d2 - d3)
    broken, first = set(), None

    def move(coeffs, cliques):
        return {cliques[k]: c for k, c in coeffs.items() if k in cliques}

    def times(ring, a, b):
        return _check_support(ring, _bar_sum(ring, a, b))

    whole = graph.cliques.__getitem__
    for part, (sub, d_sub) in enumerate(((g1, d1), (g2, d2)), 1):
        down, up = clique_maps(graph, sub)
        clique = sub.cliques.__getitem__
        for sample in range(samples):
            a, b = _draw(rng, d, whole), _draw(rng, d, whole)
            x, y = _draw(rng, d_sub, clique), _draw(rng, d_sub, clique)
            ix, iy = move(x, up), move(y, up)
            for key, identity, holds in (
                    ("projection_is_ring_map", "p(ab) = p(a)p(b)",
                     move(times(graph, a, b), down)
                     == times(sub, move(a, down), move(b, down))),
                    ("section_splits", "i(xy) = i(x)i(y)",
                     move(times(sub, x, y), up) == times(graph, ix, iy)),
                    ("section_splits", "p(i(x)) = x", move(ix, down) == x)):
                if not holds:
                    broken.add(key)
                    first = first or {"part": part, "sample": sample,
                                      "identity": identity}
    report = {
        "ranks": {"whole": d, "part1": d1, "part2": d2, "intersection": d3},
        "rank_inclusion_exclusion": rank_ok,
        "projection_is_ring_map": "projection_is_ring_map" not in broken,
        "section_splits": "section_splits" not in broken,
        "ok": rank_ok and first is None,
    }
    if first is not None:
        report["detail"] = first
    return report


def element_to_json_dict(a):
    """The JSON form of an element: its basis and a term per monomial, by
    size, then members (the labels are the report header's).  Each
    term's members are listed once and sort by (size, members); no two
    terms share their members, so no coefficient is compared."""
    g = a.graph
    labels = g.labels
    terms = []
    for k, c in a.coeffs.items():
        members = g.members(k)
        terms.append((len(members), members, c))
    terms.sort()
    return {
        "basis": a.basis,
        "terms": [{"monomial": [labels[i] for i in members], "coeff": str(c)}
                  for _size, members, c in terms],
    }
