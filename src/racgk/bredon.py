"""Cohomology of the clique poset with representation-ring coefficients.

The order complex of the clique poset carries the coefficient system
that assigns to a chain the representation ring of its smallest clique;
the first face map restricts along the inclusion of the two smallest
cliques, the others just drop a clique.  Cohomology is read off from
Smith normal forms of the differentials.

An independent route to the same vanishing statement goes through the
two-term interval complex and its tensor powers, also built here.
"""

from functools import cached_property

from .graphs import poset_chains, subset_key, submasks
from .intlinalg import (accumulate, invariant_factors, kernel_basis,
                        ColumnSolver)
from .kring import restrict_to_clique

KUNNETH_CAP = 6


class CochainComplex:
    """Finite complex of free Z-modules given by its differentials.

    diffs[k] maps degree k to degree k+1 and holds one dict row
    {column: nonzero entry} per degree-(k+1) cell: the one matrix form
    taken here, as in `invariant_factors` and `kernel_basis`.  Row
    counts, column ranges and d o d = 0 are checked at construction.
    """

    def __init__(self, ranks, diffs):
        self.ranks = list(ranks)
        if len(diffs) != max(len(self.ranks) - 1, 0):
            raise ValueError("expected %d differentials, got %d"
                             % (max(len(self.ranks) - 1, 0), len(diffs)))
        self.diffs = [self._checked_rows(k, d) for k, d in enumerate(diffs)]
        for k in range(len(self.diffs) - 1):
            inner = self.diffs[k]
            for row in self.diffs[k + 1]:
                # this row of d^(k+1) times the rows of d^k
                product = {}
                for j, x in row.items():
                    for c, y in inner[j].items():
                        product[c] = product.get(c, 0) + x * y
                if any(product.values()):
                    raise ValueError("d^%d o d^%d != 0" % (k + 1, k))

    def _checked_rows(self, k, d):
        cols = self.ranks[k]
        for row in d:
            if row and (min(row) < 0 or max(row) >= cols):
                raise ValueError("d^%d has a column outside 0..%d"
                                 % (k, cols - 1))
        if len(d) != self.ranks[k + 1]:
            raise ValueError("d^%d has %d rows, expected %d"
                             % (k, len(d), self.ranks[k + 1]))
        return list(d)

    @property
    def top_degree(self):
        return len(self.ranks) - 1

    def differential(self, k):
        """d^k as dict rows; the top differential is the zero map."""
        if k < len(self.diffs):
            return self.diffs[k]
        return []


def cohomology(complex_):
    """Free rank and torsion coefficients of H^k for every degree.

    H^k = ker d^k / im d^{k-1}; the image sits inside the kernel, which
    is a direct summand, so the torsion of H^k is the set of invariant
    factors of d^{k-1} exceeding 1.
    """
    results = []
    prev_factors = []
    for k, rank in enumerate(complex_.ranks):
        factors = invariant_factors(complex_.differential(k))
        free = rank - len(factors) - len(prev_factors)
        torsion = [f for f in prev_factors if f > 1]
        results.append({"degree": k, "free_rank": free, "torsion": torsion})
        prev_factors = factors
    return results


def _sorted_submasks(graph, mask):
    return sorted(submasks(mask), key=lambda m: subset_key(graph, m))


def build_bredon_complex(graph):
    """Cochain complex of the clique poset with coefficients the
    representation rings of the clique subgroups.

    Degree-k basis: (chain, monomial) with the chain a strictly
    increasing (k+1)-tuple of cliques and the monomial a subset of the
    chain's smallest clique.  The first face restricts the coefficient,
    the remaining faces alternate in sign.
    """
    cliques = graph.cliques
    top = max((bin(c).count("1") for c in cliques), default=0)
    chains = poset_chains(graph, cliques, top)
    keys = {c: subset_key(graph, c) for c in cliques}
    monomials = {c: _sorted_submasks(graph, c) for c in cliques}

    bases = []
    index_maps = []
    for per_degree in chains:
        basis = [(ch, mono)
                 for ch in sorted(per_degree,
                                  key=lambda ch: [keys[c] for c in ch])
                 for mono in monomials[ch[0]]]
        bases.append(basis)
        index_maps.append({cell: i for i, cell in enumerate(basis)})

    diffs = []
    for k in range(len(bases) - 1):
        index = index_maps[k]
        d = []
        for chain, mono in bases[k + 1]:
            # face 0 drops the smallest clique: the coefficient on the
            # remaining chain lives over chain[1] and restricts down; a
            # monomial L of chain[1] hits mono iff L & chain[0] == mono,
            # that is L = mono | s with s a subset of chain[1] - chain[0]
            face0 = chain[1:]
            pairs = [(index[(face0, mono | s)], 1)
                     for s in submasks(chain[1] & ~chain[0])]
            for i in range(1, len(chain)):
                pairs.append((index[(chain[:i] + chain[i + 1:], mono)],
                              -1 if i % 2 else 1))
            d.append(accumulate(pairs))
        diffs.append(d)
    return CochainComplex([len(b) for b in bases], diffs)


class LimitLattice:
    """Compatible families of virtual representations, one per clique,
    as the kernel of the degree-0 differential, with a solver for
    coordinates in its basis.

    A family is a dict vector over the degree-0 cells, which `index`
    numbers by their labels (clique, monomial), in basis order."""

    def __init__(self, cliques, labels, basis_columns):
        self.cliques = cliques
        self.index = {label: i for i, label in enumerate(labels)}
        self.basis_columns = basis_columns
        self.solver = ColumnSolver(basis_columns)

    @property
    def rank(self):
        return len(self.basis_columns)

    @cached_property
    def clique_factors(self):
        """Invariant factors of the clique monomial families in limit
        coordinates, or None when one falls outside the lattice; taken
        once per limit and read by both limit checks."""
        columns = [self.solver.solve(monomial_family(self, clique))
                   for clique in self.cliques]
        if None in columns:
            return None
        # the matrix and its transpose share their invariant factors
        return invariant_factors(columns)


def inverse_limit(graph, complex_=None):
    """Kernel of the degree-0 differential of the Bredon complex."""
    if complex_ is None:
        complex_ = build_bredon_complex(graph)
    cols = kernel_basis(complex_.differential(0), complex_.ranks[0])
    basis = [(c, m) for c in graph.cliques for m in _sorted_submasks(graph, c)]
    return LimitLattice(graph.cliques, basis, cols)


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


def rho_surjectivity(graph, limit):
    """Checks that the restriction families of the ambient character
    monomials span the limit lattice with index 1.  The d clique
    families span the same sublattice as all of them (by the star
    relation s*t* = s* + t* - 1, which holds on every clique), so their
    invariant factors are read instead."""
    factors = limit.clique_factors
    if factors is None:
        return {"rank": limit.rank, "image_rank": None, "index_one": False,
                "surjective": False,
                "detail": "a clique family falls outside the limit lattice"}
    surjective = (len(factors) == limit.rank
                  and all(f == 1 for f in factors))
    return {
        "rank": limit.rank,
        "image_rank": len(factors),
        "invariant_factors": list(factors),
        "index_one": all(f == 1 for f in factors),
        "surjective": surjective,
    }


def clique_basis_isomorphism(graph, limit):
    """SNF of the map sending the clique basis of the K-ring onto the
    limit lattice; an isomorphism shows up as all invariant factors 1."""
    factors = limit.clique_factors
    if factors is None:
        return {"isomorphism": False,
                "detail": "clique monomial family outside the limit lattice"}
    iso = (len(factors) == limit.rank == len(limit.cliques)
           and all(f == 1 for f in factors))
    return {"rank": limit.rank, "invariant_factors": list(factors),
            "isomorphism": iso}


def interval_complex():
    """Relative two-term complex of the reflection action on an
    interval: rank two in degree zero (the representation ring of C2 on
    the fixed vertex), rank one in degree one (the free edge orbit),
    differential the restriction (1 1)."""
    return CochainComplex([2, 1], [[{0: 1, 1: 1}]])


def tensor_complex(c1, c2):
    """Tensor product of cochain complexes of free modules, with the
    usual sign on the second factor's differential."""
    top = c1.top_degree + c2.top_degree
    bases = []
    for k in range(top + 1):
        basis = []
        for i in range(len(c1.ranks)):
            j = k - i
            if 0 <= j < len(c2.ranks):
                for a in range(c1.ranks[i]):
                    for b in range(c2.ranks[j]):
                        basis.append((i, a, b))
        bases.append(basis)
    index_maps = [{t: i for i, t in enumerate(b)} for b in bases]
    diffs = []
    for k in range(top):
        index = index_maps[k]
        d = []
        for i, a, b in bases[k + 1]:
            # the row of cell (i, a, b) collects d1 on the first factor
            # and the signed d2 on the second, of degree j
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
    return CochainComplex([len(b) for b in bases], diffs)


def interval_tensor_kunneth(n):
    """Cohomology of the n-fold tensor power of the interval complex;
    the expected answer is a single Z in degree zero."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > KUNNETH_CAP:
        raise ValueError("n=%d exceeds the cap %d (ranks grow as 3^n)"
                         % (n, KUNNETH_CAP))
    power = interval_complex()
    for _ in range(n - 1):
        power = tensor_complex(power, interval_complex())
    coh = cohomology(power)
    ok = (coh[0]["free_rank"] == 1 and not coh[0]["torsion"]
          and all(c["free_rank"] == 0 and not c["torsion"] for c in coh[1:]))
    return {"n": n, "ranks": power.ranks, "cohomology": coh, "ok": ok}
