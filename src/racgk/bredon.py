"""Cohomology of the Davis complex with representation-ring coefficients.

The Davis complex of a right-angled Coxeter group is cubical: one cube
[T, T'] for each pair of cliques T <= T', of dimension |T' - T|, with
stabiliser W_T.  Its Bredon cochain complex carries the representation
ring of W_T on the cube; for each vertex v of T' - T, the face
[T | v, T'] restricts from W_(T | v) and the face [T, T' - v] is the
identity (`faces`).  `build_bredon_complex` writes its differentials
out in the monomial basis.

In the bar basis x_L = prod (t_v - 1) restriction is a projection, so
the complex splits into one block per clique K, the cubes [T, T'] with
K inside T.  `cone_certificate` checks this once per pair of clique
sizes, and d o d = 0 and an acyclic matching once per cube dimension,
counts the cells from the number of cliques of each size, and reads the
cohomology off it: H^0 free on the d blocks, nothing above.
H^0 is the inverse limit, so `inverse_limit` returns the certificate
itself.  In apex coordinates the clique monomial families form the
zeta matrix of the clique poset, which `ConeCertificate.clique_factors`
checks once per clique size.

An independent route to the same vanishing statement goes through the
two-term interval complex I and its tensor powers, the cochains of the
n-cube, each built from the last as P (x) I by one index rule
(`interval_tensor_powers`).  The cohomology of a complex comes from
the invariant factors of its differentials, all of them from one
reduction of the whole complex by unit pivots (`cohomology`): each
pivot removes its pair of cells, an elementary reduction that keeps
the cohomology, and what no unit pivot reaches goes to Hermite forms.

Each identity is checked once, where it is made.  d o d = 0 on a
tensor power follows from the last power's and the sign rule, which
`interval_tensor_powers` checks on one row per degree; on the cubical
complex it follows from `cone_certificate`'s checks, and the CLI
builds it only once they hold; a `CochainComplex` constructed from
anywhere else multiplies out every composite.
"""

from functools import cached_property
from math import comb

from .graphs import GraphError, cliques_within
from .intlinalg import accumulate, coboundary_factors

KUNNETH_CAP = 6
# the largest d for which `inverse_limit` answers: a limit report lists
# d invariant factors twice, and the zeta check expands up to 2d terms
LIMIT_RANK_CAP = 1 << 23


class CochainComplex:
    """Finite complex of free Z-modules given by its differentials.

    diffs[k] maps degree k to degree k+1 and holds one dict row
    {column: nonzero entry} per degree-(k+1) cell: the one matrix form
    taken here, as in `coboundary_factors` and `kernel_basis`.  The
    constructor checks the differential count, the row counts and the
    column ranges, and d o d = 0 by multiplying every row of d^(k+1)
    into d^k.  The two builders here fix the shape by their numbering
    and show d o d = 0 where they make it, so they store what they make
    by `_made`, which checks nothing: `interval_tensor_powers` by the
    sign rule and `build_bredon_complex` by `cone_certificate`.
    """

    def __init__(self, ranks, diffs):
        ranks = list(ranks)
        if len(diffs) != max(len(ranks) - 1, 0):
            raise ValueError("expected %d differentials, got %d"
                             % (max(len(ranks) - 1, 0), len(diffs)))
        for k, d in enumerate(diffs):
            for row in d:
                if row and (min(row) < 0 or max(row) >= ranks[k]):
                    raise ValueError("d^%d has a column outside 0..%d"
                                     % (k, ranks[k] - 1))
            if len(d) != ranks[k + 1]:
                raise ValueError("d^%d has %d rows, expected %d"
                                 % (k, len(d), ranks[k + 1]))
        self.ranks, self.diffs = ranks, [list(d) for d in diffs]
        for k in range(len(diffs) - 1):
            for row in self.diffs[k + 1]:
                _check_composite(k, row, self.diffs[k])

    @classmethod
    def _made(cls, ranks, diffs):
        """A complex whose builder has fixed its shape and d o d = 0."""
        complex_ = cls.__new__(cls)
        complex_.ranks, complex_.diffs = list(ranks), diffs
        return complex_


def _check_composite(k, row, inner):
    """Raise unless this row of d^(k+1) times the rows `inner` of d^k
    is 0."""
    product = {}
    for j, x in row.items():
        for c, y in inner[j].items():
            product[c] = product.get(c, 0) + x * y
    if any(product.values()):
        raise ValueError("d^%d o d^%d != 0" % (k + 1, k))


def cohomology(complex_):
    """Free rank and torsion coefficients of H^k for every degree.

    H^k = ker d^k / im d^{k-1}; the image sits inside the kernel, which
    is a direct summand, so the torsion of H^k is the set of invariant
    factors of d^{k-1} exceeding 1, and its free rank is rank_k less
    the factor counts of d^k and d^(k-1).  The factors of every
    differential come from one reduction of the whole complex
    (`intlinalg.coboundary_factors`): a unit pivot at (y, x) removes the
    pair of cells x and y, an elementary reduction, which keeps the
    cohomology and every other invariant factor, so no degree eliminates
    a cell another degree has paired.  On I^1..I^6 and on the Bredon
    complexes here the unit steps pair every cell but the generators of
    H^0, and no row is left to the Hermite forms.
    """
    factors = coboundary_factors(complex_.ranks, complex_.diffs) + [[]]
    results = []
    prev_factors = []
    for k, rank in enumerate(complex_.ranks):
        free = rank - len(factors[k]) - len(prev_factors)
        # in divisibility order the factors 1 come first
        torsion = prev_factors[prev_factors.count(1):]
        results.append({"degree": k, "free_rank": free, "torsion": torsion})
        prev_factors = factors[k]
    return results


def faces(low, top):
    """((face low, face top), sign) for each face of the cube [low, top]:
    for the i-th vertex v of top - low, the face [low | v, top], whose
    coefficient restricts from the clique low | v, with sign (-1)^i, and
    the face [low, top - v], the identity, with the opposite sign, so
    that the kernel in degree 0 is the compatible families."""
    out, sign, free = [], 1, top ^ low
    while free:
        bit = free & -free
        free ^= bit
        out += ((low | bit, top), sign), ((low, top ^ bit), -sign)
        sign = -sign
    return out


def restrict(mono, clique):
    """Restriction of the character monomial t_mono to the subgroup of
    a smaller clique, as (monomial, coefficient): t_L goes to t_(L & J)."""
    return mono & clique, 1


def build_bredon_complex(graph):
    """Cochain complex of the Davis complex's cubes with coefficients the
    representation rings of their stabilisers, in the monomial basis.

    Degree-k basis: (cube, monomial) for the cubes [low, top] of
    dimension k, by top and then low in canonical clique order, with the
    monomials of low in that order.  The differential is made of `faces`
    and, on a face [low | v, top], `restrict`: the two rules
    `cone_certificate` checks, and the only ones used, so d o d = 0
    holds once the certificate is ok.  In the bar basis, a unitriangular
    change of each cell's coefficients, the complex splits by (a) into
    blocks on which each face carries x_K to x_K with its sign, so d o d
    there is the composite of `faces` with itself, 0 by (b) on every cube
    of each dimension; and (m) says `faces` lists faces of the cube.  The
    row counts and column ranges follow from the numbering, so the
    complex is stored as made (`_made`); a caller builds only after
    `cone_certificate(graph).ok`.

    A face listed twice has its signs summed, and a restricted monomial
    with coefficient 0 is dropped, so every column of a row comes from
    one (face, monomial) pair and is written once.  `restrict` is
    called once per pair of a face's bottom and the cube's bottom, not
    once per cube."""
    # every subset of a clique is a clique
    subsets = {c: cliques_within(graph, c) for c in graph.cliques}
    position = {c: {m: i for i, m in enumerate(ms)}
                for c, ms in subsets.items()}
    # the first cell of each cube in its degree
    start, ranks = {}, [0] * len(graph.f_vector)
    cubes = [[] for _ in ranks]
    for top in graph.cliques:
        for low in subsets[top]:
            k = (top ^ low).bit_count()
            start[low, top] = ranks[k]
            ranks[k] += len(subsets[low])
            cubes[k].append((low, top))
    # (column offset, row, coefficient) of each monomial of a face's
    # bottom restricted to the cube's bottom, by (face bottom, bottom)
    moves = {}
    diffs = []
    for level in cubes[1:]:
        d = []
        for low, top in level:
            # one row per monomial of low
            rows = [{} for _ in subsets[low]]
            for (face_low, face_top), sign in accumulate(
                    faces(low, top)).items():
                base = start[face_low, face_top]
                if face_low == low:
                    for i, row in enumerate(rows):
                        row[base + i] = sign
                    continue
                moved = moves.get((face_low, low))
                if moved is None:
                    at = position[low]
                    moved = moves[face_low, low] = [
                        (j, at[mono], x)
                        for j, ell in enumerate(subsets[face_low])
                        for mono, x in (restrict(ell, low),) if x]
                for j, i, x in moved:
                    rows[i][base + j] = sign * x
            d += rows
        diffs.append(d)
    return CochainComplex._made(ranks, diffs)


_IDENTITIES = {"a": "restriction is a projection", "b": "d o d = 0",
               "m": "the matched face is a unit"}


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
        """H^k as `cohomology` gives it: one free Z per block in
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
        top degree of the complex.  Both limit checks report this list
        itself, not a copy, so an `all` report holds one list of d."""
        if all(_zeta_identities(k) for k in range(len(self.ranks))):
            return [1] * self.rank
        return None


def _label(graph, mask):
    return "{%s}" % ", ".join(graph.subset_labels(mask))


def _witness(graph, identity, block, cube):
    low, top = cube
    return ("identity (%s) %s fails in block K = %s at cube [%s, %s], "
            "degree %d" % (identity, _IDENTITIES[identity],
                           _label(graph, block), _label(graph, low),
                           _label(graph, top), (top ^ low).bit_count()))


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


def _dimension_failures(k):
    """The checks of (b) and (m) that fail on the cube [{}, {0..k-1}] of
    dimension k >= 1, which covers every cube of dimension k, as `faces`
    uses bit operations only: "b" when d o d is not 0 there, "m" when
    `faces` lists something other than a face of the cube, or gives the
    face [{0}, {0..k-1}] a coefficient other than 1 or -1."""
    top = (1 << k) - 1
    fs = faces(0, top)
    if k > 1 and accumulate((g, s * t) for face, s in fs
                            for g, t in faces(*face)):
        yield "b"
    cube_faces = {f for v in range(k)
                  for f in ((1 << v, top), (0, top ^ 1 << v))}
    if (any(face not in cube_faces for face, _s in fs)
            or abs(sum(s for face, s in fs if face == (1, top))) != 1):
        yield "m"


def bredon_ranks(counts):
    """The ranks of the Bredon complex from the f-vector `counts`: a
    clique of size s tops C(s, k) cubes of dimension k, each with one
    cell per monomial of its bottom clique, 2^(s - k) of them, so

        rank_k = sum_s f_s C(s, k) 2^(s - k),

    which is C(n, k) 3^(n - k) on K_n."""
    return [sum(counts[s] * comb(s, k) << s - k
                for s in range(k, len(counts))) for k in range(len(counts))]


def cone_certificate(graph):
    """Certify the Bredon complex block by block and count its ranks,
    building no differential and listing no clique while every
    identity holds.

    In the bar basis x_L = prod (t_v - 1), which the unitriangular
    change t_L = prod (x_v + 1) relates to the monomial basis of
    `build_bredon_complex`, the complex splits into one block per clique
    K: the cells ([T, T'], x_K) with K inside T.  The checks:
      (a) on every pair J < J', `restrict` sends each x_L of R(J') to x_L
          when L lies in J and to 0 otherwise, so on block K every face
          carries x_K to x_K with its sign.  It sends t_M to t_(M & J),
          and t_A t_B = t_(A ^ B) with (A ^ B) & J = (A & J) ^ (B & J),
          so it is a ring map: checking the unit and the x_v, v in J',
          covers every x_L, a product of x_v.  It uses bit operations
          only, so the pair {0..a-1} < {0..b-1} covers every pair of
          sizes a < b;
      (b) d o d = 0, on one cube of each dimension 2..omega;
      (m) the matching on block K that pairs a cube [T, T'] holding
          w = min(T' - K) in T with [T - w, T'] is a Morse matching: the
          two cubes share their top, hence w, so it is an involution; it
          leaves only [K, K]; along a gradient path the top never grows,
          and for a fixed top it is the element matching on subsets, so
          it is acyclic.  w is the lowest vertex of T' - (T - w), so the
          pair's incidence is the larger cube's first face: checked to be
          a unit, with every face `faces` lists a face of the cube, on
          one cube of each dimension 1..omega.
    `faces` uses bit operations only, so (b) and (m) hold on every cube
    of a dimension once they hold on [{}, {0..k-1}].  Algebraic Morse
    theory (Skoeldberg 2006; Kozlov 2008) then leaves each block one
    free Z in degree 0 and nothing above.  The ranks and d come from the
    f-vector, `Graph.f_vector`, by `bredon_ranks`.  Only when a check
    fails are the cliques listed, to name the failure at its first cube
    (`_first_failure`)."""
    counts = graph.f_vector
    top = len(counts) - 1
    dims = [(k, identity) for k in range(1, top + 1)
            for identity in _dimension_failures(k)]
    pairs = any(_projection_failure((1 << a) - 1, (1 << b) - 1) is not None
                for b in range(1, top + 1) for a in range(b))
    witness = _first_failure(graph, dims, pairs) if dims or pairs else None
    return ConeCertificate(sum(counts), bredon_ranks(counts), witness)


def _first_failure(graph, dims, pairs):
    """The witness of the first cube, by top and then bottom in canonical
    clique order, at which one of the failing `dims` (dimension,
    identity) or, when `pairs`, check (a) on the pair of its bottom and
    top fails; None when no pair of the graph fails (a).  The first cube
    of dimension k is [{}, C] for C the first clique of size k, in block
    {}.  When `restrict` is a ring map, as it is here, that is the first
    failure of a cube-by-cube walk.  A `restrict` that is not one still
    fails when it is wrong on the unit or on some t_v, but (a) then names
    that x_v or the unit, which may be a later cell of the cube than the
    first x_L the walk finds wrong."""
    cliques = graph.cliques
    # (cube, identity, block) for the first failure of each kind
    found = [((0, next(c for c in cliques if c.bit_count() == k)),
              identity, 0) for k, identity in dims]
    cube = pairs and next(((low, top) for top in cliques
                           for low in cliques_within(graph, top)
                           if low != top and _projection_failure(low, top)
                           is not None), None)
    if cube:
        found.append((cube, "a", _projection_failure(*cube)))
    if not found:
        return None
    cube, identity, block = min(found, key=lambda f: (
        cliques.index(f[0][1]), cliques.index(f[0][0]), f[1]))
    return _witness(graph, identity, block, cube)


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
    containing K, that is (-1)^|K - M| at each cell ([J, J], M) with M
    inside K.  None is built; the f-vector gives d and the clique number,
    and `ConeCertificate.clique_factors` checks their shape once per size.
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
    return {"rank": limit.rank, "invariant_factors": factors,
            "surjective": True}


def clique_basis_isomorphism(limit):
    """Invariant factors of the map sending the clique basis of the
    K-ring onto the limit lattice, given as its certificate `limit`; an
    isomorphism shows up as d invariant factors 1."""
    factors = limit.clique_factors
    if factors is None:
        return {"isomorphism": False,
                "detail": "clique monomial family outside the limit lattice"}
    return {"invariant_factors": factors, "isomorphism": True}


def interval_tensor_powers(top):
    """The tensor powers I, I (x) I, ... of the interval complex up to the
    `top`-th, each P (x) I built from the last P.

    I is the relative two-term complex of the reflection action on an
    interval: rank two in degree zero (the representation ring of C2 on
    the fixed vertex), rank one in degree one (the free edge orbit),
    differential the restriction (1 1).  The degree-k cells of P (x) I
    are (a, e) for each cell a of P of degree k - 1, numbered a, then
    (a, v) for each a of degree k and vertex v = 0, 1, numbered
    r[k - 1] + 2a + v, where r are the ranks of P.  The row of (a, e)
    is a's row on the (a1, e) and (-1)^(k-1) at (a, 0) and (a, 1); the
    row of (a, v) is a's row on the (a1, v).

    d o d = 0 is checked where the rule makes it.  I has one
    differential, so it holds vacuously there.  On P (x) I, d o d on
    the row of (a, v) is P's d o d on the row of a, copied to v, and on
    the row of (a, e) it is P's on a, copied to e, plus a's row at the
    (a1, 0) and (a1, 1) times the sum of the signs of two consecutive
    degrees, which is 0 because they alternate.  P's d o d = 0 was
    shown for the power before, so only the signs are left: one (a, e)
    row per degree whose a has a nonempty row is multiplied into the
    differential below, which fails unless the signs cancel there.  The
    numbering fixes every row count and column range, so each power is
    stored as made (`_made`)."""
    if top < 1:
        raise ValueError("n must be >= 1")
    if top > KUNNETH_CAP:
        raise ValueError("n=%d exceeds the cap %d (ranks grow as 3^n)"
                         % (top, KUNNETH_CAP))
    power = CochainComplex._made([2, 1], [[{0: 1, 1: 1}]])
    yield power
    for _ in range(top - 1):
        r = power.ranks
        # the (a, e) cells of each degree, which come first
        below = [0] + r[:-1]
        # P's rows by the degree of their cell: none in degree 0
        rows = [[{}] * r[0]] + power.diffs + [[]]
        diffs = []
        for k, b in enumerate(below):
            sign = -1 if k % 2 else 1
            # (a, e) for a of degree k, then (a, v) for a of degree k + 1
            diffs.append([{**row, b + 2 * a: sign, b + 2 * a + 1: sign}
                          for a, row in enumerate(rows[k])]
                         + [{b + 2 * a1 + v: x for a1, x in row.items()}
                            for row in rows[k + 1] for v in (0, 1)])
            a = next((a for a, row in enumerate(rows[k]) if row), None)
            if a is not None:
                _check_composite(k - 1, diffs[k][a], diffs[k - 1])
        power = CochainComplex._made([b + 2 * x for b, x in zip(below, r)]
                                     + r[-1:], diffs)
        yield power


def interval_tensor_kunneth(power):
    """Cohomology of `power`, the n-fold tensor power of the interval
    complex from `interval_tensor_powers`, whose n is its top degree;
    the expected answer is a single Z in degree zero."""
    coh = cohomology(power)
    ok = (coh[0]["free_rank"] == 1 and not coh[0]["torsion"]
          and all(c["free_rank"] == 0 and not c["torsion"] for c in coh[1:]))
    return {"n": len(power.ranks) - 1, "ranks": power.ranks,
            "cohomology": coh, "ok": ok}
