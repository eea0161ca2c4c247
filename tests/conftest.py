import os
import random
import sys
from functools import cache, cached_property
from itertools import zip_longest
from math import gcd

import pytest

from racgk import bredon, cli, kring
from racgk.graphs import Graph, cliques_within, poset_chains, submasks
from racgk.intlinalg import Lattice, accumulate, invariant_factors
from racgk.kring import (BAR, STAR, KRingElement, clique_maps, convert_basis,
                         ideal_power, random_element, restrict_to_clique)


def complete_graph(n):
    labels = ["v%d" % i for i in range(n)]
    return Graph(labels, [(labels[i], labels[j])
                          for i in range(n) for j in range(i + 1, n)])


def edgeless_graph(n):
    return Graph(["v%d" % i for i in range(n)], [])


def path_graph(n):
    labels = ["v%d" % i for i in range(n)]
    return Graph(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])


def cycle_graph(n):
    labels = ["v%d" % i for i in range(n)]
    return Graph(labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)])


def petersen_graph():
    outer = ["o%d" % i for i in range(5)]
    inner = ["i%d" % i for i in range(5)]
    edges = [(outer[i], outer[(i + 1) % 5]) for i in range(5)]
    edges += [(inner[i], inner[(i + 2) % 5]) for i in range(5)]
    edges += [(outer[i], inner[i]) for i in range(5)]
    return Graph(outer + inner, edges)


def graph_suite():
    """The ten-graph verification suite with known clique counts."""
    return [
        ("K1", complete_graph(1), 2),
        ("K2", complete_graph(2), 4),
        ("K3", complete_graph(3), 8),
        ("E2", edgeless_graph(2), 3),
        ("E3", edgeless_graph(3), 4),
        ("P3", path_graph(3), 6),
        ("P4", path_graph(4), 8),
        ("C4", cycle_graph(4), 9),
        ("C5", cycle_graph(5), 11),
        ("Petersen", petersen_graph(), 26),
    ]


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def perfbench_workloads():
    """The benchmark's `workloads` module, which holds its decks."""
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return workloads


def glued_graph(family):
    """The ring-lattice deck's graph of this family, such as glued-64."""
    (t,) = [t for t in perfbench_workloads().deck("ring-lattice")
            if t["family"] == family]
    return Graph(t["labels"], [tuple(e) for e in t["edges"]])


def random_graph(n, p, seed=1):
    """G(n, p): random.Random(seed) draws each pair i < j in order and
    keeps it with probability p."""
    rng = random.Random(seed)
    labels = ["v%d" % i for i in range(n)]
    return Graph(labels, [(labels[i], labels[j]) for i in range(n)
                          for j in range(i + 1, n) if rng.random() < p])


def dp_ranks(graph):
    """Reference `bredon.bredon_ranks` from the listing: counts[k][c] is
    the number of chains c < c1 < ... < ck, f_k(c) = the sum of
    f_(k-1)(c') over the cliques c' above c, and each chain carries
    2^|c| cells."""
    counts = [dict.fromkeys(graph.cliques, 1)]
    while counts[-1]:
        level = ((c, sum(counts[-1].get(e, 0) for e in graph.supersets[c]))
                 for c in counts[-1])
        counts.append({c: n for c, n in level if n})
    counts.pop()
    return [sum(n << bin(c).count("1") for c, n in level.items())
            for level in counts]


def label_order_counts(graph):
    """Reference `graphs.clique_counts`: the same recursion
    C(P) = C(P - v) + x C(P & N(v)), memoized on P, with v the lowest
    vertex of P in label order instead of the vertex of least degree."""
    @cache
    def count(p):
        if not p:
            return (1,)
        v = (p & -p).bit_length() - 1
        without, with_v = count(p & ~(1 << v)), (0,) + count(p & graph.adj[v])
        return tuple(map(sum, zip_longest(without, with_v, fillvalue=0)))
    return list(count((1 << graph.n) - 1))


def subset_key(graph, mask):
    """The canonical order of vertex subsets, which the clique listing,
    the chains and the element JSON follow: size, then member list."""
    return (bin(mask).count("1"), graph.members(mask))


def brute_force_cliques(graph):
    """2^n subset filter; independent oracle for enumerate_spherical."""
    assert graph.n <= 20, "brute-force clique oracle limited to 20 vertices"
    return sorted((m for m in range(1 << graph.n) if graph.is_clique(m)),
                  key=lambda m: subset_key(graph, m))


def is_zero(a):
    return all(x == 0 for row in a for x in row)


def sparsify(rows):
    """Dict rows {column: nonzero entry} from dense rows."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def densify(rows, n):
    """Dense rows of n entries from dict rows {column: entry}."""
    out = []
    for row in rows:
        line = [0] * n
        for j, x in row.items():
            line[j] = x
        out.append(line)
    return out


def dense_differentials(complex_):
    """The differentials of a cochain complex as dense matrices."""
    return [densify(d, complex_.ranks[k]) for k, d in enumerate(complex_.diffs)]


def accumulated_tensor_complex(c1, c2):
    """Reference build of `bredon.tensor_complex`: cells as (i, a, b)
    triples found through an index dict, and each row summed by
    `accumulate` from its (cell, entry) pairs."""
    top = len(c1.ranks) + len(c2.ranks) - 2
    bases = [[(i, a, b) for i in range(len(c1.ranks))
              if 0 <= k - i < len(c2.ranks)
              for a in range(c1.ranks[i]) for b in range(c2.ranks[k - i])]
             for k in range(top + 1)]
    index_maps = [{t: i for i, t in enumerate(b)} for b in bases]
    diffs = []
    for k in range(top):
        index = index_maps[k]
        d = []
        for i, a, b in bases[k + 1]:
            j = k + 1 - i
            pairs = []
            if i:
                pairs += [(index[(i - 1, a1, b)], x)
                          for a1, x in c1.diffs[i - 1][a].items()]
            if j:
                sign = -1 if i % 2 else 1
                pairs += [(index[(i, a, b1)], sign * y)
                          for b1, y in c2.diffs[j - 1][b].items()]
            d.append(accumulate(pairs))
        diffs.append(d)
    return bredon.CochainComplex([len(b) for b in bases], diffs)


def dense_bredon_complex(graph):
    """Reference build of the Bredon complex, (ranks, dense differentials).

    Same bases as `build_bredon_complex`, with sort keys recomputed per
    chain; face 0 is found by testing every submask of the chain's
    second clique against its first, each entry added into a dense
    matrix."""
    cliques = graph.cliques
    top = max((bin(c).count("1") for c in cliques), default=0)
    bases = []
    index_maps = []
    for per_degree in poset_chains(graph, top):
        basis = []
        for ch in sorted(per_degree,
                         key=lambda ch: [subset_key(graph, c) for c in ch]):
            for mono in sorted(submasks(ch[0]),
                               key=lambda m: subset_key(graph, m)):
                basis.append((ch, mono))
        bases.append(basis)
        index_maps.append({bm: i for i, bm in enumerate(basis)})
    diffs = []
    for k in range(len(bases) - 1):
        d = [[0] * len(bases[k]) for _ in bases[k + 1]]
        for r, (chain, mono) in enumerate(bases[k + 1]):
            for ell in submasks(chain[1]):
                if ell & chain[0] == mono:
                    d[r][index_maps[k][(chain[1:], ell)]] += 1
            for i in range(1, len(chain)):
                face = chain[:i] + chain[i + 1:]
                d[r][index_maps[k][(face, mono)]] += -1 if i % 2 else 1
        diffs.append(d)
    return [len(b) for b in bases], diffs


def walk_certificate(graph):
    """Reference `cone_certificate`: one depth-first walk over the
    chains, each extended by the cliques above its last, checks every
    identity cell by cell and counts the ranks.  (a) expands every x_L
    of R(J') on every pair J < J', 3^|J'| terms a pair.  `faces` and
    `restrict` are looked up on the module, so a patched one is seen."""
    cliques, supersets = graph.cliques, graph.supersets
    bar = {c: bredon._bar_expansion(c) for c in cliques}
    ranks = []
    first = None
    stack = [(c,) for c in reversed(cliques)]
    while stack:
        chain = stack.pop()
        k = len(chain) - 1
        stack.extend(chain + (e,) for e in reversed(supersets[chain[-1]]))
        fs = bredon.faces(chain) if k else []
        failures = []
        if k == 1:
            ell = walk_projection_failure(bar, *chain)
            if ell is not None:
                failures.append(("a", ell))
            # the row of d e at each cell of the pair: e sends both
            # faces to the apex cell, so their signs must cancel
            if sum(sign for _face, sign in fs):
                failures.append(("c", chain[0]))
        if k == len(ranks):
            ranks.append(0)
        ranks[k] += 1 << bin(chain[0]).count("1")
        # on block K face 0 only drops a clique, by (a), so the row of
        # d o d at (chain, x_K) is the same for every K inside chain[0]
        if k >= 2 and accumulate((g, s * t) for face, s in fs
                                 for g, t in bredon.faces(face)):
            failures.append(("b", chain[0]))
        for apex in submasks(chain[0]):
            # the row of dh + hd - id + e at the cell (chain, x_K)
            row = [(chain, -1)]
            if k == 0:
                row.append(((apex,), 1))
            else:
                row += [((apex,) + face, s) for face, s in fs
                        if face[0] != apex]
            if chain[0] != apex:
                row += bredon.faces((apex,) + chain)
            if accumulate(row):
                failures.append(("c", apex))
        if failures and first is None:
            first = bredon._witness(graph, *failures[0], chain)
    return bredon.ConeCertificate(len(cliques), ranks, first)


def walk_projection_failure(bar, small, big):
    """The first x_L of R(big), L from big down, that `restrict` does
    not send to x_L (L inside small) or to 0 (L not inside small) in
    R(small), each expanded in the monomial basis; None when every one
    is."""
    for ell in submasks(big):
        image = {}
        for m, sign in bar[ell]:
            r, x = bredon.restrict(m, small)
            image[r] = image.get(r, 0) + sign * x
        expected = dict(bar[ell]) if ell & small == ell else {}
        if {r: x for r, x in image.items() if x} != expected:
            return ell
    return None


class ApexLattice:
    """The limit lattice, built, as the reference for the certificate's
    `clique_factors`: compatible families of virtual representations,
    one per clique, with a basis whose columns each own a pivot row, a
    row no other column meets.  A family's coordinates are then its
    entries at the pivot rows, divided by the pivots, and an exact
    residual check tells whether it lies in the lattice.

    A family is a dict vector over the degree-0 cells, which `index`
    numbers by their labels (clique, monomial), in basis order."""

    def __init__(self, cliques, labels, basis_columns, pivots):
        self.cliques = cliques
        self.index = {label: i for i, label in enumerate(labels)}
        self.basis_columns = basis_columns
        pivots = list(pivots)
        self.pivot_column = {p: i for i, p in enumerate(pivots)}
        if len(self.pivot_column) != len(pivots) or len(pivots) != self.rank:
            raise ValueError("expected one distinct pivot row per column")
        for i, (column, p) in enumerate(zip(basis_columns, pivots)):
            if not column.get(p) or any(
                    self.pivot_column.get(j, i) != i for j in column):
                raise ValueError("column %d does not own its pivot row %d"
                                 % (i, p))

    @property
    def rank(self):
        return len(self.basis_columns)

    def solve(self, vec):
        """Integer coordinates of a dict vector in the basis, a dict
        {column: coefficient}, or None when it is outside the lattice."""
        coeffs = {}
        for p, x in vec.items():
            i = self.pivot_column.get(p)
            if i is not None and x:
                q, remainder = divmod(x, self.basis_columns[i][p])
                if remainder:
                    return None
                coeffs[i] = q
        rest = dict(vec)
        for i, q in coeffs.items():
            for j, y in self.basis_columns[i].items():
                rest[j] = rest.get(j, 0) - q * y
        return None if any(rest.values()) else coeffs

    @cached_property
    def clique_factors(self):
        """Invariant factors of the solved clique monomial families, by
        elimination, or None when one falls outside the lattice."""
        columns = [self.solve(monomial_family(self, clique))
                   for clique in self.cliques]
        if None in columns:
            return None
        # the matrix and its transpose share their invariant factors
        return invariant_factors(columns)


def apex_lattice(graph):
    """Reference `inverse_limit`, built: column K is x_K on every clique
    J containing K, by `bredon._bar_expansion` (looked up on the module,
    so a patched one is seen), and its pivot row is the cell (K, K)."""
    cliques = graph.cliques
    index = {label: i for i, label in enumerate(
        (c, m) for c in cliques for m in cliques_within(graph, c))}
    columns = [{index[(clique, m)]: sign
                for clique in (apex, *graph.supersets[apex])
                for m, sign in bredon._bar_expansion(apex)}
               for apex in cliques]
    pivots = [index[(apex, apex)] for apex in cliques]
    return ApexLattice(cliques, index, columns, pivots)


def family_vector(limit, element_by_clique):
    """Coordinates in the degree-0 basis, a dict vector, of a family of
    rep-ring elements indexed by clique."""
    return {limit.index[(clique, mono)]: x
            for clique, element in element_by_clique.items()
            for mono, x in element.coeffs.items()}


def restriction_family(limit, a):
    """The compatible family obtained by restricting a K-ring element to
    every clique; lands in the limit lattice."""
    return family_vector(limit, {clique: restrict_to_clique(a, clique)
                                 for clique in limit.cliques})


def monomial_family(limit, monomial_mask):
    """Family of restrictions of one character monomial of the ambient
    elementary abelian quotient: on a clique J it is the monomial
    monomial_mask & J.  For a clique this is the restriction family of
    its star monomial.  One entry per clique, a dict vector."""
    return {limit.index[(clique, monomial_mask & clique)]: 1
            for clique in limit.cliques}


def apex_rho(limit):
    """Reference `rho_surjectivity` report, for a lattice of any rank."""
    factors = limit.clique_factors
    if factors is None:
        return {"rank": limit.rank, "surjective": False,
                "detail": "a clique family falls outside the limit lattice"}
    surjective = (len(factors) == limit.rank
                  and all(f == 1 for f in factors))
    return {"rank": limit.rank, "invariant_factors": list(factors),
            "surjective": surjective}


def apex_iso(limit):
    """Reference `clique_basis_isomorphism` report, for a lattice of any
    rank."""
    factors = limit.clique_factors
    if factors is None:
        return {"isomorphism": False,
                "detail": "clique monomial family outside the limit lattice"}
    iso = (len(factors) == limit.rank == len(limit.cliques)
           and all(f == 1 for f in factors))
    return {"invariant_factors": list(factors), "isomorphism": iso}


def assert_limit_matches_apex(graph, name=None):
    """`inverse_limit` read by shape agrees with the built and eliminated
    `apex_lattice`: the clique factors and both reports, key order too,
    which the text output follows."""
    limit, apex = bredon.inverse_limit(graph), apex_lattice(graph)
    assert limit.clique_factors == apex.clique_factors, name
    for report, reference in (
            (bredon.rho_surjectivity(graph, limit), apex_rho(apex)),
            (bredon.clique_basis_isomorphism(limit), apex_iso(apex))):
        assert list(report.items()) == list(reference.items()), name


def bar_structure_constant(graph, j, k):
    """(mask, coefficient) of the product of two bar monomials, or None
    when the union is not a clique (the product is zero).  The rule is
    looked up on `kring` at each call, so a patched `bar_product` reaches
    the oracles too."""
    if j | k not in graph.clique_set:
        return None
    return kring.bar_product(j, k)


def min_first_normalize_star(graph, terms):
    """Reference `kring._normalize_star`: the pending masks taken
    smallest first, by `min`, so a mask can be taken, rewritten and
    receive more coefficient later."""
    done = []
    pending = dict(terms)
    while pending:
        mask = min(pending)
        coeff = pending.pop(mask)
        if not coeff:
            continue
        pair = kring._smallest_nonadjacent_pair(graph, mask)
        if pair is None:
            done.append((mask, coeff))
            continue
        s, t = pair
        for sub, sign in ((mask & ~(1 << t), 1),
                          (mask & ~(1 << s), 1),
                          (mask & ~(1 << s) & ~(1 << t), -1)):
            pending[sub] = pending.get(sub, 0) + sign * coeff
    return accumulate(done)


def reference_random_element(graph, rng, basis=STAR, terms=3,
                             coeff_bound=5):
    """`random_element` drawn by `random`'s own calls: the oracle for
    its draws."""
    draws = [(rng.choice(graph.cliques), rng.randint(-coeff_bound, coeff_bound))
             for _ in range(rng.randint(1, terms))]
    return KRingElement(graph, basis, accumulate(draws))


def pairwise_bar_product(graph, a, b):
    """The product of two bar coordinate dicts as the sum, over every
    pair of monomials, of `bar_structure_constant`."""
    terms = []
    for j, cj in a.items():
        for k, ck in b.items():
            sc = bar_structure_constant(graph, j, k)
            if sc is not None:
                terms.append((sc[0], sc[1] * cj * ck))
    return accumulate(terms)


def product_ideal_power(graph, k):
    """Reference I^k: the products of each bar monomial with k bar
    generators, multiplied out one generator at a time and put in HNF
    only after the last."""
    cliques = graph.cliques
    index = {c: i for i, c in enumerate(cliques)}
    current = [{c: 1} for c in cliques]
    for _ in range(k):
        nxt = []
        for vec in current:
            for v in range(graph.n):
                prod = {}
                for mask, c in vec.items():
                    sc = bar_structure_constant(graph, 1 << v, mask)
                    if sc is not None:
                        prod[sc[0]] = prod.get(sc[0], 0) + sc[1] * c
                if any(prod.values()):
                    nxt.append(prod)
        current = nxt
    rows = [{index[mask]: c for mask, c in vec.items()} for vec in current]
    return Lattice(len(cliques), rows)


def gcd_chain_ideal_powers(graph, k):
    """Reference `ideal_powers`: HNF lattices of the powers I^1, ..., I^k
    of the augmentation ideal, in bar coordinates on the clique basis,
    from a product table and a gcd merge over the basis rows of each
    power.

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


def bgw_indices(graph):
    """The indices [I^k : I^(k+1)], k = 1..3, of a `bgw` report."""
    report = cli.run_bgw(graph, cli.PARSER.parse_args(["bgw"]), None)
    return [row["index"] for row in report["ideal_power_indices"]]


def assert_ideal_powers_match_oracles(graph, name=None):
    """`ideal_power` read off the chain by clique size agrees with the
    gcd chain for I^1..I^4 and with the multiplied-out products for
    I^1..I^3; `bgw`'s indices are the gcd chain's `index_in`."""
    oracle = gcd_chain_ideal_powers(graph, 4)
    for k, lattice in enumerate(oracle, 1):
        basis = ideal_power(graph, k).basis
        assert basis == lattice.basis, (name, k)
        if k <= 3:
            assert basis == product_ideal_power(graph, k).basis, (name, k)
    assert bgw_indices(graph) == [
        cur.index_in(prev) for prev, cur in zip(oracle, oracle[1:])], name


def project_to_part(a, subgraph):
    """Reference projection onto the ring of a full subgraph, through
    labels: bar monomials supported outside the subgraph go to zero."""
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
    """Reference monomial-inclusion section, through labels: bar
    monomials of the subgraph ring are bar monomials of the big ring
    (cliques stay cliques)."""
    bar = convert_basis(a, BAR)
    out = {graph.mask_of(a.graph.subset_labels(k)): c
           for k, c in bar.coeffs.items()}
    res = KRingElement(graph, BAR, out)
    return convert_basis(res, a.basis)


def assert_clique_maps_match_labels(graph, labels, rng, samples=5):
    """`clique_maps` on the full subgraph on `labels` is the label
    translation of its cliques, and renaming the bar monomials through
    it, as `mayer_vietoris_check` does, agrees with `project_to_part`
    and `include_from_part` on random elements."""
    sub = graph.induced(graph.mask_of(labels))
    down, up = clique_maps(graph, sub)
    keep = graph.mask_of(sub.labels)
    assert down == {k: sub.mask_of(graph.subset_labels(k))
                    for k in graph.cliques if not k & ~keep}
    assert up == {j: graph.mask_of(sub.subset_labels(j))
                  for j in sub.cliques}
    for _ in range(samples):
        a = random_element(graph, rng, basis=BAR)
        x = random_element(sub, rng, basis=BAR)
        assert KRingElement(sub, BAR, {
            down[k]: c for k, c in a.coeffs.items() if k in down
        }) == project_to_part(a, sub)
        assert KRingElement(graph, BAR, {
            up[k]: c for k, c in x.coeffs.items()
        }) == include_from_part(x, graph)


def neighbourhood_split(graph, x):
    """A valid Mayer-Vietoris split, as label lists: part1 = N[X] and
    part2 = V - X for the vertex mask x.  An edge leaving X ends in
    N[X], so none crosses from part1 - part2 = X to part2 - part1."""
    closed = x
    for v in graph.members(x):
        closed |= graph.adj[v]
    everything = (1 << graph.n) - 1
    return (graph.subset_labels(closed),
            graph.subset_labels(everything & ~x))


@pytest.fixture(params=graph_suite(), ids=lambda t: t[0])
def suite_entry(request):
    return request.param
