"""Exact integer linear algebra on sparse rows, by one elimination
(`_Elimination`): the rows, each column's holders, the pivots taken,
and a transform only for kernels and tracked Hermite forms.  It has two
pivot rules.  The unit steps take unit pivots in place, found on a
queue of changed rows, on the whole coboundary of a cochain complex at
once (`coboundary_factors`).  Every cell is numbered once, so that its
row and its column share an index, and a unit pivot removes its pair of
cells, each with its row and its column: an elementary reduction, exact
over Z, so no differential eliminates a cell that another has paired.
Taken from the top degree down, the unit steps on I^1..I^6 and the
Bredon complexes here collapse free faces: no row operation, and no row
left.  Every row operation, of either rule, is one call (`_add`).  The
echelon form is Euclid elimination with pivots in column order (Cohen,
A Course in Computational Algebraic Number Theory, 2.4.2); it gives
kernels and Hermite normal forms, and the diagonal form of what the
unit steps leave, by untracked Hermite forms of the rows and of the
columns in turn.  Lattice membership substitutes into the Hermite form
and certifies over the generators, and exact solving (`ColumnSolver`)
is membership in the lattice of the columns.  Also the
sparse-combination core (`accumulate`, `Combination`) under the ring
elements: each names its ring fields in `__slots__`, and the core makes
and checks every element from them.

Vectors at every interface are dict vectors {index: nonzero entry}, and
a matrix is a list of them, one per row (for `ColumnSolver`, one per
column).  `coboundary_factors`, `kernel_basis`, `row_hnf`, `Lattice`
and `ColumnSolver` copy what they are given, explicit zero entries
dropped before any range check, and return dict vectors; the cochain
complexes hold dict rows from build to elimination.  Everything is
exact.  The dense Smith normal form with both transforms
(`smith_normal_form`, the textbook algorithm, with `mat_mul` and
`identity`) works on lists of rows and is kept only as the reference
the sparse kernel is tested against.
"""

from bisect import bisect_left
from collections import deque
from itertools import chain, compress
from math import gcd, prod
from operator import attrgetter


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimensions do not chain: %dx%d by %dx%d"
                         % (len(a), len(a[0]), len(b), len(b[0])))
    cols = len(b[0]) if b else 0
    sparse_b = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        orow = [0] * cols
        for x, brow in zip(row, sparse_b):
            if x:
                for j, y in brow:
                    orow[j] += x * y
        out.append(orow)
    return out


def smith_normal_form(mat):
    """U * mat * V = D with U, V unimodular and D diagonal, each nonzero
    entry dividing the next.  Returns (diag, U, V), diag the nonzero
    entries of D, all lists of rows.

    The textbook algorithm (Newman, Integral Matrices, 1972) on the
    block matrix [[mat, 1], [1, 0]]: its row operations on the first
    m rows carry U along, its column operations on the first n columns
    carry V.  At each diagonal position the pivot is the least nonzero
    entry left.  Euclid steps clear its column and then its row, the
    least nonzero remainder in them the next pivot.  When both are clear
    but the pivot does not divide an entry left, that entry's row is
    added to the pivot row, so the divisibility chain holds by
    construction."""
    m = len(mat)
    n = len(mat[0]) if mat else 0
    a = ([list(row) + e for row, e in zip(mat, identity(m))]
         + [e + [0] * m for e in identity(n)])
    diag = []
    for t in range(min(m, n)):
        left = [(abs(a[i][j]), i, j) for i in range(t, m)
                for j in range(t, n) if a[i][j]]
        if not left:
            break
        _, i, j = min(left)
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            p = a[t][t]
            for i in range(t + 1, m):
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            i = min((i for i in range(t + 1, m) if a[i][t]),
                    key=lambda i: abs(a[i][t]), default=None)
            if i is not None:
                a[t], a[i] = a[i], a[t]
                continue
            for j in range(t + 1, n):
                q = a[t][j] // p
                if q:
                    for row in a:
                        row[j] -= q * row[t]
            j = min((j for j in range(t + 1, n) if a[t][j]),
                    key=lambda j: abs(a[t][j]), default=None)
            if j is not None:
                for row in a:
                    row[t], row[j] = row[j], row[t]
                continue
            if p in (1, -1):  # a unit divides every entry left
                break
            i = next((i for i in range(t + 1, m)
                      if any(x % p for x in a[i][t + 1:n])), None)
            if i is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[i])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        diag.append(a[t][t])
    return diag, [row[n:] for row in a[:m]], [row[:n] for row in a[m:]]


class _Elimination:
    """The module's one elimination state: sparse rows, dicts {column:
    nonzero entry}, worked in place; `cols`, each column's set of the
    active rows that hold it; the pivots (row, column); and, only with
    track=True, the transform: track[i] writes row i in the rows given
    (else track is None).  An echelon pivot retires its row as it
    stands, so the active rows are the rows not among the pivots; a unit
    pivot empties its row."""

    def __init__(self, rows, track=False):
        self.rows = rows
        self.cols = cols = {}
        for i, row in enumerate(rows):
            for j in row:
                if j in cols:
                    cols[j].add(i)
                else:
                    cols[j] = {i}
        self.track = [{i: 1} for i in range(len(rows))] if track else None
        self.pivots = []

    def unit_steps(self):
        """Takes the unit pivots, untracked, until no active row holds a
        unit.  A row is looked at off a queue, each at most once
        (`queued`): first the nonempty rows from the last index down,
        then a row again only when a row operation changes it.  It steps
        on a unit in the column with the fewest holders, ties to the
        first met.  A retired row leaves every holder set, so it is
        never queued.  In a complex numbered degree by degree the top
        degree comes first, and a column its pivot row alone holds, a
        free face, takes no row operation."""
        rows, cols = self.rows, self.cols
        # an empty row holds no unit, so it is never queued
        self.queue = queue = deque(compress(range(len(rows) - 1, -1, -1),
                                            reversed(rows)))
        self.queued = queued = set(queue)
        while queue:
            i = queue.popleft()
            queued.discard(i)
            best = None
            for j, v in rows[i].items():
                if v in (1, -1) and (best is None or len(cols[j]) < fewest):
                    best, fewest = j, len(cols[j])
                    # a column this row alone holds has the fewest
                    if fewest == 1:
                        break
            if best is not None:
                self._unit_step(i, best)
        return self

    def _unit_step(self, r, c):
        """Clears column c by the unit pivot at (r, c) and retires row r.
        Row i takes -(entry at c) times the pivot times row r: no
        remainder, and only the pivot row's other entries are added in.
        A pivot row with no other entry just deletes the column from the
        other rows, which only shrink, so none is queued.  Then the pair
        rule: where rows and columns number the cells of one complex,
        c's own row and r's own column are deleted too, and both rows
        emptied, so the pair of cells leaves the complex.  The rows that
        lose r's column only shrink, so none is queued; in a matrix
        numbered as a two-term complex neither c's row nor r's column
        exists."""
        rows, cols = self.rows, self.cols
        pivot_row = rows[r]
        unit = -pivot_row.pop(c)
        members = cols.pop(c)
        members.discard(r)
        for j in pivot_row:
            cols[j].discard(r)
        queue, queued = self.queue, self.queued
        for i in members:
            row = rows[i]
            q = unit * row.pop(c)
            if pivot_row:
                self._add(i, q, r)
                # a changed row is queued, unless empty or queued already
                if row and i not in queued:
                    queued.add(i)
                    queue.append(i)
        self.pivots.append((r, c))
        # the pair rule: cell c's own row and cell r's own column go too,
        # so that neither cell keeps a row or a column
        for j in rows[c]:
            cols[j].discard(c)
        for i in cols.pop(r, ()):
            del rows[i][r]
        rows[r] = {}
        rows[c] = {}

    def echelon(self):
        """Row echelon form: the pivot is the least entry, lowest row
        first, in the leftmost column that active rows hold, so pivots
        come in column order.  A column no active row holds never fills
        again (fill comes only from active rows), so it is dropped."""
        rows, cols = self.rows, self.cols
        order = sorted(cols, reverse=True)
        while order:
            c = order[-1]
            members = cols.get(c)
            if not members:
                order.pop()
                continue
            r = min(members, key=lambda i: (abs(rows[i][c]), i))
            r = self._clear_column(r, c)
            for j in rows[r]:
                cols[j].discard(r)
            del cols[c]
            self.pivots.append((r, c))
        return self

    def _add(self, i, q, r):
        """row i += q * row r, and the same on the transform if kept."""
        row, cols = self.rows[i], self.cols
        for j, v in self.rows[r].items():
            x = row.get(j)
            if x is None:
                row[j] = q * v
                cols[j].add(i)
            else:
                x += q * v
                if x:
                    row[j] = x
                else:
                    del row[j]
                    cols[j].discard(i)
        if self.track is not None:
            _add_into(self.track[i], q, self.track[r])

    def _clear_column(self, r, c):
        """Row operations leaving one active row with an entry in column
        c; returns that row.  Each round takes the least remainder as
        the next pivot, so a unit pivot needs one round."""
        rows = self.rows
        while True:
            p = rows[r][c]
            least = None
            for i in [i for i in self.cols[c] if i != r]:
                self._add(i, -(rows[i][c] // p), r)
                x = rows[i].get(c)
                if x is not None and (least is None
                                      or abs(x) < abs(rows[least][c])):
                    least = i
            if least is None:
                return r
            r = least


def _add_into(y, q, x):
    """y += q * x on sparse vectors."""
    for j, v in x.items():
        s = y.get(j, 0) + q * v
        if s:
            y[j] = s
        else:
            del y[j]


def accumulate(pairs):
    """The dict of summed (key, value) pairs, zero sums dropped."""
    out = {}
    for k, v in pairs:
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


class Combination:
    """Sparse integer combination of monomials: `coeffs` maps keys to
    nonzero integers.  A subclass names in `__slots__` its ring fields,
    what two elements must share to be combined, and gives `error`, its
    exception type; its constructor takes the fields, then `coeffs`, and
    validates them.  From these the core reads `_ring`, the fields as a
    tuple, makes `_make(coeffs)`, a new element of the same ring, and
    `_check(other)` raises "type mismatch" for another class, else
    "<field> mismatch" at the first field apart."""

    __slots__ = ("coeffs",)

    def __init_subclass__(cls):
        super().__init_subclass__()
        read = attrgetter(*cls.__slots__)
        # attrgetter returns a lone field bare, not as a 1-tuple
        cls._ring = property(read if len(cls.__slots__) > 1
                             else lambda self: (read(self),))

    def _make(self, coeffs):
        return type(self)(*self._ring, coeffs)

    def _check(self, other):
        if self._ring != other._ring:
            if type(other) is not type(self):
                raise self.error("type mismatch: %s vs %s" % (
                    type(self).__name__, type(other).__name__))
            for name, x, y in zip(self.__slots__, self._ring, other._ring):
                if x != y:
                    raise self.error("%s mismatch: %s vs %s" % (name, x, y))

    def __eq__(self, other):
        return (type(other) is type(self)
                and self._ring == other._ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self._ring, frozenset(self.coeffs.items())))

    def __add__(self, other):
        self._check(other)
        return self._make(accumulate(chain(self.coeffs.items(),
                                           other.coeffs.items())))

    def __sub__(self, other):
        self._check(other)
        negated = ((k, -c) for k, c in other.coeffs.items())
        return self._make(accumulate(chain(self.coeffs.items(), negated)))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, n):
        return self._make({k: n * c for k, c in self.coeffs.items()})


def _sparse(vec):
    """A fresh dict vector with its zero entries dropped: the copy every
    entry point makes of what it is given.  Most vectors hold no zero,
    and those are copied whole."""
    if all(vec.values()):
        return dict(vec)
    return {j: x for j, x in vec.items() if x}


def _transpose(rows):
    """The columns of sparse rows, as dict vectors {row: entry}."""
    columns = {}
    for i, row in enumerate(rows):
        for j, x in row.items():
            columns.setdefault(j, {})[i] = x
    return list(columns.values())


def _coboundary(ranks, diffs):
    """The elimination state over the whole coboundary of a cochain
    complex: every cell numbered once, degree by degree, and cell i's
    row at index i, its columns the numbers of the cells one degree
    down.  One walk of the rows copies each, drops its zero entries and
    shifts its columns; the state indexes them."""
    # degree-0 cells have no row; no step writes to an empty row
    rows, start = [{}] * sum(ranks[:1]), 0
    for rank, d in zip(ranks, diffs):
        rows += [{j + start: x for j, x in row.items() if x} for row in d]
        start += rank
    return _Elimination(rows)


def coboundary_factors(ranks, diffs):
    """The nonzero invariant factors of each differential of the cochain
    complex with these ranks, in divisibility order; diffs[k] maps
    degree k to k+1 and holds one dict row per degree-(k+1) cell.

    One reduction of the whole complex (`_coboundary`) by the unit
    steps.  A unit pivot at (y, x), y of degree k+1 and x of degree k,
    clears x's column from d^k and also deletes x's own row in d^(k-1)
    and y's own column in d^(k+1): the pair rule.  That is an elementary
    reduction (Kaczynski, Mrozek and Slusarek, Comput. Math. Appl.
    1998), a chain homotopy equivalence, and it keeps every invariant
    factor but the 1 of the pivot: since d o d = 0 and the pivot is a
    unit, x's row in d^(k-1) is an integer combination of the other
    rows, and y's column in d^(k+1) one of the other columns.  So no
    later pivot takes a cell that an earlier one has paired.  The rows
    left in each degree hold no unit; `_unit_free_factors` takes them."""
    elim = _coboundary(ranks, diffs).unit_steps()
    pivot_rows = sorted(r for r, _c in elim.pivots)
    factors, a = [], 0
    for low, rank in zip(ranks, ranks[1:]):
        # the rows a..b-1 of the cells one degree up: the pivots among
        # them, each a factor 1, and the nonempty rows left
        a += low
        b = a + rank
        ones = bisect_left(pivot_rows, b) - bisect_left(pivot_rows, a)
        rest = list(filter(None, elim.rows[a:b]))
        factors.append([1] * ones + _unit_free_factors(rest))
    return factors


def _unit_free_factors(rows):
    """The nonzero invariant factors, in divisibility order, of these
    rows, which hold no unit.  `row_hnf` on the rows and on the
    transposed result, in turn, untracked, brings them to a diagonal,
    one entry per row and per column (Kannan and Bachem, SIAM J. Comput.
    1979); then pairs of entries (a, b) become (gcd, lcm) until each
    divides the next."""
    while rows:
        rows = row_hnf(rows)
        if all(len(row) == 1 for row in rows):
            break
        rows = _transpose(rows)
    rest = sorted(x for row in rows for x in row.values() if x != 1)
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            g = gcd(rest[i], rest[j])
            rest[i], rest[j] = g, rest[i] // g * rest[j]
    return [1] * (len(rows) - len(rest)) + rest


def kernel_basis(rows, n):
    """Basis, as dict vectors, of the integer kernel {x in Z^n :
    rows @ x = 0} of dict rows over n columns.

    Column operations on the matrix, tracked in a unimodular V, bring it
    to column echelon form; the columns of V whose columns of the
    echelon form are zero span the kernel over Z, which as the kernel of
    an integer matrix is a saturated sublattice."""
    columns = [{} for _ in range(n)]
    for i, row in enumerate(map(_sparse, rows)):
        for j, x in row.items():
            if not 0 <= j < n:
                raise ValueError("row entry at column %d outside %d columns"
                                 % (j, n))
            columns[j][i] = x
    elim = _Elimination(columns, track=True).echelon()
    pivot_cols = {r for r, _c in elim.pivots}
    return [elim.track[j] for j in range(n) if j not in pivot_cols]


def row_hnf(rows, track=False):
    """Row-style Hermite normal form of the lattice spanned by dict
    rows {column: entry}.

    Returns the nonzero HNF rows as dict rows (pivots positive, entries
    above a pivot reduced into [0, pivot)).  With track=True also
    returns, per HNF row, its integer expression in the input rows, a
    dict {input row: coefficient}; without it no transform is kept.

    The echelon form leaves one row per pivot column, in column order;
    each pivot is made positive and reduces the rows above it, leftmost
    first: a pivot row changes only its own and later columns."""
    rows = list(map(_sparse, rows))
    elim = _Elimination(rows, track).echelon()
    exprs = elim.track
    form = []
    for r, c in elim.pivots:
        if rows[r][c] < 0:
            rows[r] = {j: -x for j, x in rows[r].items()}
            if track:
                exprs[r] = {j: -x for j, x in exprs[r].items()}
        row, p = rows[r], rows[r][c]
        for k in form:
            q = rows[k].get(c, 0) // p
            if q:
                _add_into(rows[k], -q, row)
                if track:
                    _add_into(exprs[k], -q, exprs[r])
        form.append(r)
    hnf = [rows[r] for r in form]
    if track:
        return hnf, [exprs[r] for r in form]
    return hnf


class Lattice:
    """Sublattice of Z^n spanned by dict generators {coordinate: entry},
    held in HNF as dict rows `basis`, each with `exprs`, its integer
    combination of the generators.

    `membership` substitutes a vector into the basis, pivot by pivot,
    and a positive answer carries a combination of the generators as a
    certificate."""

    def __init__(self, n, generators):
        self.n = n
        generators = list(map(_sparse, generators))
        for g in generators:
            self._check_range(g, "generator")
        self.basis, self.exprs = row_hnf(generators, track=True)
        self.pivot_cols = [min(row) for row in self.basis]
        self.generator_count = len(generators)

    def _check_range(self, vec, what):
        for j in vec:
            if not 0 <= j < self.n:
                raise ValueError("%s coordinate %d outside ambient %d"
                                 % (what, j, self.n))

    @property
    def rank(self):
        return len(self.basis)

    def membership(self, v):
        """(True, combination) if the dict vector v lies in the lattice,
        the combination a dict vector {generator: coefficient}; else
        (False, reason)."""
        v = _sparse(v)
        self._check_range(v, "vector")
        cert = {}
        for row, expr, col in zip(self.basis, self.exprs, self.pivot_cols):
            # a basis row is zero left of its pivot, so subtracting it
            # leaves the columns passed clear
            if v and min(v) < col:
                return False, "nonzero entry at column %d outside the lattice span" % min(v)
            x = v.get(col)
            if x:
                q, remainder = divmod(x, row[col])
                if remainder:
                    return False, ("coefficient %d at column %d violates the "
                                   "congruence modulo %d" % (x, col, row[col]))
                _add_into(v, -q, row)
                _add_into(cert, q, expr)
        if v:
            return False, "nonzero entry at column %d outside the lattice span" % min(v)
        return True, cert

    def __contains__(self, v):
        return self.membership(v)[0]

    def index_in(self, other):
        """Index [other : self] when self is a sublattice of other of the
        same rank.  Both then have the same pivot columns, and the index
        is the ratio of the products of their pivots."""
        if self.rank != other.rank:
            raise ValueError("lattices have different ranks")
        if not all(row in other for row in self.basis):
            raise ValueError("not a sublattice")
        return (prod(r[c] for r, c in zip(self.basis, self.pivot_cols))
                // prod(r[c] for r, c in zip(other.basis, other.pivot_cols)))


class ColumnSolver:
    """Solves L @ c = v exactly over Z for L given by independent
    columns, dict vectors over n coordinates: v is tested for
    membership in the `Lattice` of the columns, whose certificate is
    then the only solution c."""

    def __init__(self, columns, n):
        self.lattice = Lattice(n, columns)
        if self.lattice.rank != len(columns):
            raise ValueError("columns are not independent")

    def solve(self, vec):
        """Integer coefficients c with L @ c = vec, a dict vector
        {column of L: coefficient}, or None when vec is outside the
        lattice spanned by the columns."""
        found, combination = self.lattice.membership(vec)
        return combination if found else None
