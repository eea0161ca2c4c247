"""Cohomology of the clique poset with representation-ring coefficients.

The order complex of the clique poset carries the coefficient system
that assigns to a chain the representation ring of its smallest clique;
the first face map restricts along the inclusion of the two smallest
cliques, the others just drop a clique.  `build_bredon_complex` writes
its differentials out in the monomial basis.

In the bar basis x_L = prod (t_v - 1) restriction is a projection, so
the complex splits into one block per clique K, a cone with apex K.
`cone_certificate` checks this once per pair of clique sizes and once
per chain shape, counts the cells from the number of cliques of each
size, and reads the cohomology off it: H^0 free on the d apex
cochains, nothing above.
H^0 is the inverse limit, so `inverse_limit` returns the certificate
itself.  In apex coordinates the clique monomial families form the
zeta matrix of the clique poset, which `ConeCertificate.clique_factors`
checks once per clique size.

An independent route to the same vanishing statement goes through the
two-term interval complex and its tensor powers, also built here, whose
cohomology comes from invariant factors.
"""

from functools import cached_property
from math import comb

from .graphs import GraphError, cliques_within, poset_chains
from .intlinalg import accumulate, invariant_factors

KUNNETH_CAP = 6
# the largest d for which `inverse_limit` answers: a limit report lists
# d invariant factors twice, and the zeta check expands up to 2d terms
LIMIT_RANK_CAP = 1 << 23


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


def faces(chain):
    """(face, sign) for each face of a chain of two or more cliques:
    face i drops clique i and carries (-1)^i.  On face 0 the coefficient
    also restricts from chain[1] down to chain[0]."""
    return [(chain[:i] + chain[i + 1:], -1 if i % 2 else 1)
            for i in range(len(chain))]


def restrict(mono, clique):
    """Restriction of the character monomial t_mono to the subgroup of
    a smaller clique, as (monomial, coefficient): t_L goes to t_(L & J)."""
    return mono & clique, 1


def build_bredon_complex(graph):
    """Cochain complex of the clique poset with coefficients the
    representation rings of the clique subgroups, in the monomial basis.

    Degree-k basis: (chain, monomial) with the chain a strictly
    increasing (k+1)-tuple of cliques and the monomial a subset of the
    chain's smallest clique.  The differential is made of `faces` and,
    on face 0, `restrict`: the two rules `cone_certificate` checks.
    """
    cliques = graph.cliques
    top = max((bin(c).count("1") for c in cliques), default=0)
    # every subset of a clique is a clique
    monomials = {c: cliques_within(graph, c) for c in cliques}
    levels = poset_chains(graph, top)
    index_maps = [{cell: i for i, cell in enumerate(
        (ch, mono) for ch in level for mono in monomials[ch[0]])}
        for level in levels]

    diffs = []
    for k in range(len(levels) - 1):
        index = index_maps[k]
        d = []
        for chain in levels[k + 1]:
            (face0, sign0), *rest = faces(chain)
            # one row per monomial of chain[0]: face 0 sends each
            # monomial L of chain[1] to the row of its restriction, the
            # other faces keep the row's monomial
            rows = {mono: [] for mono in monomials[chain[0]]}
            for ell in monomials[chain[1]]:
                mono, x = restrict(ell, chain[0])
                rows[mono].append((index[(face0, ell)], sign0 * x))
            for mono, pairs in rows.items():
                pairs += [(index[(face, mono)], sign) for face, sign in rest]
                d.append(accumulate(pairs))
        diffs.append(d)
    return CochainComplex([len(index) for index in index_maps], diffs)


_IDENTITIES = {"a": "restriction is a projection", "b": "d o d = 0",
               "c": "dh + hd = id - e"}


class ConeCertificate:
    """What `cone_certificate` found: the ranks of the Bredon complex,
    a witness naming the failed identity or None, and d = `rank`, the
    rank of H^0 and of the inverse limit, which H^0 is."""

    def __init__(self, rank, ranks, witness):
        self.rank = rank
        self.ranks = ranks
        self.witness = witness

    @property
    def ok(self):
        return self.witness is None

    @property
    def cohomology(self):
        """H^k as `cohomology` gives it: one free Z per cone block in
        degree 0, nothing above; None when an identity failed."""
        if not self.ok:
            return None
        return [{"degree": k, "free_rank": self.rank if k == 0 else 0,
                 "torsion": []} for k in range(len(self.ranks))]

    @cached_property
    def clique_factors(self):
        """Invariant factors of the clique monomial families in apex
        coordinates, or None when `_zeta_identities` fails at a clique
        size; taken once per limit and read by both limit checks.  They
        do not depend on the witness, so a failed identity and a failed
        zeta check are reported apart.

        The family of clique c is t_(c & J) on each clique J.  When the
        apex column of each K owns the cell (K, K) with a 1, the family's
        coordinate at K is its entry there: 1 when K lies in c, else 0.
        When also t_L is the sum of the x_K over K inside L, these
        coordinates leave no residual on any clique J, with L = c & J.
        So the families form the zeta matrix of the clique poset, which
        is unitriangular in the size-first clique order (Rota 1964): d
        factors 1.  The clique sizes run up to the clique number, the
        top degree of the complex."""
        if all(_zeta_identities(k) for k in range(len(self.ranks))):
            return [1] * self.rank
        return None


def _label(graph, mask):
    return "{%s}" % ", ".join(graph.subset_labels(mask))


def _witness(graph, identity, block, chain):
    return ("identity (%s) %s fails in block K = %s at chain %s, degree %d"
            % (identity, _IDENTITIES[identity], _label(graph, block),
               " < ".join(_label(graph, c) for c in chain), len(chain) - 1))


def _bar_expansion(mono):
    """x_L = prod over v in L of (t_v - 1) in the monomial basis,
    multiplied out one vertex at a time: (-1)^|L - M| on each t_M with
    M inside L."""
    masks, signs = [0], [1]
    while mono:
        bit = mono & -mono
        mono ^= bit
        masks += [m | bit for m in masks]
        signs = [-s for s in signs] + signs
    return list(zip(masks, signs))


def _projection_failure(small, big):
    """The first of x_v, for v in big from the last vertex down, and of
    the unit that `restrict` does not send to x_v (v in small), 0 (v not
    in small) or 1; None when there is none."""
    unit = restrict(0, small)
    for v in range(big.bit_length() - 1, -1, -1):
        bit = 1 << v
        if not big & bit:
            continue
        image = restrict(bit, small)
        # x_v = t_v - 1 goes to x_v when t_v and 1 stay, and to 0 when
        # t_v goes where 1 goes
        if ((image, unit) != ((bit, 1), (0, 1)) if bit & small
                else image != unit):
            return bit
    return None if unit == (0, 1) else 0


def _shape_failures(length):
    """The slots of (b) and (c) that fail on a chain of `length` cliques,
    checked once on the chain 1 < ... < length, as `faces` only slices
    it: 1 d e on a pair, 2 d o d, 3 (c) at the apex chain[0] and 4 (c)
    at an apex 0 below it.  A chain's cells take them in this order,
    after (a) at slot 0."""
    chain = tuple(range(1, length + 1))
    fs = faces(chain) if length > 1 else []
    # e sends both faces of a pair to the apex cell
    if length == 2 and sum(sign for _face, sign in fs):
        yield 1
    if length > 2 and accumulate((g, s * t) for face, s in fs
                                 for g, t in faces(face)):
        yield 2
    for slot, apex in ((3, 1), (4, 0)):
        # the row of dh + hd - id + e at the cell (chain, x_apex)
        row = [(chain, -1)] + [((apex,) + face, s) for face, s in fs
                               if face[0] != apex]
        if length == 1:
            row.append(((apex,), 1))
        if apex != chain[0]:
            row += faces((apex,) + chain)
        if accumulate(row):
            yield slot


def bredon_ranks(counts):
    """The ranks of the Bredon complex from the f-vector `counts`.

    A chain c0 < ... < ck of cliques is its top clique ck of size s, the
    m vertices of ck - c0, C(s, m) ways, and an ordered partition of
    them into the k nonempty blocks c1 - c0, ..., ck - c(k-1), Surj(m, k)
    ways (Stanley, EC I, 1.9).  It carries 2^|c0| cells, so

        rank_k = sum_s f_s sum_m C(s, m) 2^(s - m) Surj(m, k),

    with Surj(m, k) = k (Surj(m - 1, k - 1) + Surj(m - 1, k)) from the
    Stirling recurrence."""
    top = len(counts) - 1
    surj = [[1] + [0] * top]
    for m in range(1, top + 1):
        prev = surj[-1]
        surj.append([0] + [k * (prev[k - 1] + prev[k])
                           for k in range(1, top + 1)])
    ranks = [0] * (top + 1)
    for s, f in enumerate(counts):
        for m in range(s + 1):
            weight = f * comb(s, m) << s - m
            for k in range(m + 1):
                ranks[k] += weight * surj[m][k]
    return ranks


def cone_certificate(graph):
    """Certify the Bredon complex block by block and count its ranks,
    building no differential and listing no clique while every
    identity holds.

    In the bar basis x_L = prod (t_v - 1), which the unitriangular
    change t_L = prod (x_v + 1) relates to the monomial basis of
    `build_bredon_complex`, the complex splits into one block per clique
    K: the cells (chain, x_K) with K inside chain[0], the chains of a
    poset with least element K, which is contractible (Quillen 1978).
    At chain level:
      (a) on every pair J < J', `restrict` sends each x_L of R(J') to x_L
          when L lies in J and to 0 otherwise, so on block K face 0 only
          drops a clique.  It sends t_M to t_(M & J), and t_A t_B =
          t_(A ^ B) with (A ^ B) & J = (A & J) ^ (B & J), so it is a
          ring map: checking the unit and the x_v, v in J', covers
          every x_L, a product of x_v.  It uses bit operations only, so
          the pair {0..a-1} < {0..b-1} covers every pair of sizes a < b;
      (b) d o d = 0 at every cell of degree 2 or more;
      (c) dh + hd = id - e at every cell, with h prepending the apex K
          and e sending a degree-0 cell of block K to the apex cell (K),
          and d e = 0 on the pairs, so e is a chain map.
    `faces` only slices the chain, so (b) and (c) depend only on its
    length and on whether K is chain[0]: one check per shape.  The
    ranks and d come from the f-vector, `Graph.f_vector`, by
    `bredon_ranks`.  Only when a check fails are the cliques listed, to
    name the failure at its first cell in a depth-first walk of the
    chains, each extended by the cliques above its last
    (`_first_failure`)."""
    counts = graph.f_vector
    top = len(counts) - 1
    # a chain of `length` cliques exists up to top + 1, from a nonempty
    # first clique up to top
    shapes = [(length, slot) for length in range(1, top + 2)
              for slot in _shape_failures(length)
              if slot != 4 or length <= top]
    pairs = any(_projection_failure((1 << a) - 1, (1 << b) - 1) is not None
                for b in range(1, top + 1) for a in range(b))
    witness = _first_failure(graph, shapes, pairs) if shapes or pairs else None
    return ConeCertificate(sum(counts), bredon_ranks(counts), witness)


def _first_failure(graph, shapes, pairs):
    """The witness of the first cell, in a depth-first walk of the
    chains, at which one of the failing `shapes` (length, slot) or, when
    `pairs`, check (a) on a clique pair fails; None when no pair of the
    graph fails (a).  When `restrict` is a ring map, as it is here, that
    is the walk's first failure.  A `restrict` that is not one still
    fails when it is wrong on the unit or on some t_v, but (a) then names
    that x_v or the unit, which may be a later cell of the pair than the
    first x_L the walk finds wrong."""
    cliques, supersets = graph.cliques, graph.supersets
    # the longest chain from c ends at the largest clique above it,
    # the last in canonical order, and has height[c] + 1 cliques
    height = {c: above[-1].bit_count() - c.bit_count() if above else 0
              for c, above in supersets.items()}

    def first_chain(length, nonempty):
        # depth-first order is that of clique positions, a prefix first
        chain = next((c,) for c in cliques
                     if height[c] >= length - 1 and (c or not nonempty))
        while len(chain) < length:
            chain += (next(e for e in supersets[chain[-1]]
                           if height[e] >= length - len(chain) - 1),)
        return chain

    # (chain, slot, block) for the first failure of each kind
    found = [(chain, slot, chain[0] & (chain[0] - 1) if slot == 4
              else chain[0])
             for length, slot in shapes
             for chain in [first_chain(length, slot == 4)]]
    pair = pairs and next(((c, e) for c in cliques for e in supersets[c]
                           if _projection_failure(c, e) is not None), None)
    if pair:
        found.append((pair, 0, _projection_failure(*pair)))
    if not found:
        return None
    chain, slot, block = min(found, key=lambda f: (
        [cliques.index(c) for c in f[0]], f[1]))
    return _witness(graph, "acbcc"[slot], block, chain)


def _zeta_identities(size):
    """Whether the identities behind `clique_factors` hold on the clique
    L = 1..size: x_L has a 1 at t_L and no monomial outside L, so its
    apex column owns the cell (L, L) with a 1; and t_L is the sum of the
    x_K over K inside L.  Both are read off one check of its 2^size
    terms: x_L = sum over M inside L of (-1)^|L - M| t_M.  That gives
    the first at M = L, and by Moebius inversion on the subsets of L it
    is the second once it holds for every K inside L; conversely the
    second, at L and below, gives it by induction on |L|, since
    x_L = t_L - sum over K < L of x_K.  `clique_factors` checks every
    size up to the largest, so the two are the same test.
    `_bar_expansion` uses bit operations only, so one clique of each size
    covers every clique.  Its terms are summed into one list indexed
    by mask, and a mask outside L fails the check."""
    # the subsets of L = 1..size are the masks below 2^size
    sums = [0] * (1 << size)
    for m, sign in _bar_expansion((1 << size) - 1):
        if not 0 <= m < len(sums):
            return False
        sums[m] += sign
    return all(x == (-1 if (size - m.bit_count()) % 2 else 1)
               for m, x in enumerate(sums))


def inverse_limit(graph):
    """The kernel of the degree-0 differential of the Bredon complex,
    which is H^0: the certificate of `cone_certificate`, whose apex
    cochains are a basis.  The one of clique K is x_K on every clique J
    containing K, that is (-1)^|K - M| at each cell (J, M) with M inside
    K.  None is built; the f-vector gives d and the clique number, and
    `ConeCertificate.clique_factors` checks their shape once per size.
    A graph with more than `LIMIT_RANK_CAP` cliques is refused with a
    GraphError before anything is checked."""
    rank = sum(graph.f_vector)
    if rank > LIMIT_RANK_CAP:
        raise GraphError("the inverse limit has rank d = %d, and a limit "
                         "report lists d invariant factors twice; the cap "
                         "is d = %d" % (rank, LIMIT_RANK_CAP))
    return cone_certificate(graph)


def rho_surjectivity(graph, limit):
    """Checks that the restriction families of the ambient character
    monomials span the limit lattice, given as its certificate `limit`,
    with index 1.  The d clique families span the same sublattice as all
    of them (by the star relation s*t* = s* + t* - 1, which holds on
    every clique), so their d invariant factors are read instead.
    `graph` and `rank` stay for the span counter in `perfbench/spans.py`."""
    factors = limit.clique_factors
    if factors is None:
        return {"rank": limit.rank, "surjective": False,
                "detail": "a clique family falls outside the limit lattice"}
    return {"rank": limit.rank, "invariant_factors": list(factors),
            "surjective": True}


def clique_basis_isomorphism(limit):
    """Invariant factors of the map sending the clique basis of the
    K-ring onto the limit lattice, given as its certificate `limit`; an
    isomorphism shows up as d invariant factors 1."""
    factors = limit.clique_factors
    if factors is None:
        return {"isomorphism": False,
                "detail": "clique monomial family outside the limit lattice"}
    return {"invariant_factors": list(factors), "isomorphism": True}


def interval_complex():
    """Relative two-term complex of the reflection action on an
    interval: rank two in degree zero (the representation ring of C2 on
    the fixed vertex), rank one in degree one (the free edge orbit),
    differential the restriction (1 1)."""
    return CochainComplex([2, 1], [[{0: 1, 1: 1}]])


def tensor_complex(c1, c2):
    """Tensor product of cochain complexes of free modules, with the
    usual sign on the second factor's differential.

    The cells of degree k are the pairs (a, b) of a degree-i cell of c1
    and a degree-(k - i) cell of c2, ordered by i, then a, then b.  The
    row of cell (a, b) holds d1(a) (x) b and the signed a (x) d2(b),
    whose cells differ in the degree of their first factor, so each row
    is written straight into its dict, with nothing to sum."""
    r1, r2 = c1.ranks, c2.ranks
    # starts[k][i]: the index of the first degree-k cell whose first
    # factor has degree i
    starts, ranks = [], []
    for k in range(len(r1) + len(r2) - 1):
        start, at = 0, {}
        for i in range(max(0, k + 1 - len(r2)), min(k, len(r1) - 1) + 1):
            at[i] = start
            start += r1[i] * r2[k - i]
        starts.append(at)
        ranks.append(start)
    diffs = []
    for k, at in enumerate(starts[:-1]):
        d = []
        for i in starts[k + 1]:
            j = k + 1 - i
            d1 = c1.diffs[i - 1] if i else None
            d2 = c2.diffs[j - 1] if j else None
            sign = -1 if i % 2 else 1
            for a in range(r1[i]):
                for b in range(r2[j]):
                    row = {}
                    if i:
                        # (a1, b) of degree (i - 1, j)
                        first = at[i - 1] + b
                        for a1, x in d1[a].items():
                            if x:
                                row[first + a1 * r2[j]] = x
                    if j:
                        # (a, b1) of degree (i, j - 1)
                        first = at[i] + a * r2[j - 1]
                        for b1, y in d2[b].items():
                            if y:
                                row[first + b1] = sign * y
                    d.append(row)
        diffs.append(d)
    return CochainComplex(ranks, diffs)


def interval_tensor_powers(top):
    """The tensor powers I, I (x) I, ... of the interval complex up to the
    `top`-th, each built from the last."""
    if top < 1:
        raise ValueError("n must be >= 1")
    if top > KUNNETH_CAP:
        raise ValueError("n=%d exceeds the cap %d (ranks grow as 3^n)"
                         % (top, KUNNETH_CAP))
    power = interval_complex()
    yield power
    for _ in range(top - 1):
        power = tensor_complex(power, interval_complex())
        yield power


def interval_tensor_kunneth(n, power=None):
    """Cohomology of the n-fold tensor power of the interval complex,
    built here unless given as `power`; the expected answer is a single
    Z in degree zero."""
    if power is None:
        *_, power = interval_tensor_powers(n)
    coh = cohomology(power)
    ok = (coh[0]["free_rank"] == 1 and not coh[0]["torsion"]
          and all(c["free_rank"] == 0 and not c["torsion"] for c in coh[1:]))
    return {"n": n, "ranks": power.ranks, "cohomology": coh, "ok": ok}
