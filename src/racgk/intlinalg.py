"""Exact integer linear algebra on sparse rows, by one elimination
(`_Elimination`): the rows, each column's holders, the pivots taken,
and a transform only for kernels and tracked Hermite forms.  It has
two pivot rules.  The unit steps take a matrix's unit pivots in place,
found on a queue of changed rows; on the complexes here they leave no
row.  The echelon form is Euclid elimination with pivots in column
order (Cohen, A Course in Computational Algebraic Number Theory,
2.4.2); it gives kernels and Hermite normal forms, and the diagonal
form of what the unit steps leave, by untracked Hermite forms of the
rows and of the columns in turn.  Lattice membership substitutes into
the Hermite form and certifies over the generators, and exact solving
(`ColumnSolver`) is membership in the lattice of the columns.  Also
the sparse-combination core (`accumulate`, `Combination`) under the
ring elements.

Vectors at every interface are dict vectors {index: nonzero entry}, and
a matrix is a list of them, one per row (for `ColumnSolver`, one per
column).  `invariant_factors`, `kernel_basis`, `row_hnf`, `Lattice` and
`ColumnSolver` copy what they are given, explicit zero entries dropped
before any range check, and return dict vectors; the cochain complexes
hold dict rows from build to elimination.  Everything is exact.  The
dense Smith normal form with both transforms (`smith_normal_form`, with
`mat_mul` and `identity`) works on lists of rows and is kept only as the
reference the sparse kernel is tested against.
"""

from collections import deque
from itertools import chain
from math import gcd


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
    """U * mat * V = D with U, V unimodular and D diagonal with a
    divisibility chain.  Returns (diag, U, V) where diag lists the
    nonzero invariant factors.  Pivoting is on minimal absolute value to
    limit entry growth."""
    a = [list(row) for row in mat]
    m = len(a)
    n = len(a[0]) if a else 0
    u = identity(m)
    v = identity(n)
    t = 0
    while True:
        # locate the minimal-magnitude nonzero entry in the submatrix
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x and (best is None or abs(x) < best):
                    piv, best = (i, j), abs(x)
        if piv is None:
            break
        i, j = piv
        if i != t:
            a[t], a[i] = a[i], a[t]
            u[t], u[i] = u[i], u[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
            for row in v:
                row[t], row[j] = row[j], row[t]
        while True:
            # clear column t
            dirty = False
            for i in range(m):
                if i != t and a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        for j in range(n):
                            a[i][j] -= q * a[t][j]
                        for j in range(m):
                            u[i][j] -= q * u[t][j]
                    if a[i][t]:
                        # remainder is smaller than the pivot; swap it up
                        a[t], a[i] = a[i], a[t]
                        u[t], u[i] = u[i], u[t]
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(n):
                if j != t and a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                        for row in v:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        for row in v:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if not dirty and all(a[i][t] == 0 for i in range(m) if i != t):
                break
        if a[t][t] < 0:
            for j in range(n):
                a[t][j] = -a[t][j]
            for j in range(m):
                u[t][j] = -u[t][j]
        t += 1
        if t >= min(m, n):
            break
    # enforce the divisibility chain d_k | d_{k+1}
    rank = t
    diag = [a[i][i] for i in range(rank)]
    changed = True
    while changed:
        changed = False
        for k in range(rank - 1):
            if diag[k + 1] % diag[k]:
                changed = True
                # combining two diagonal entries: replace by gcd and lcm;
                # the unimodular updates act on rows/cols k and k+1
                x, y = diag[k], diag[k + 1]
                g, s, tt = _xgcd(x, y)
                l = x // g * y
                _snf_pair_update(a, u, v, k, x, y, g, s, tt)
                diag[k], diag[k + 1] = g, l
    return diag, u, v


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _snf_pair_update(a, u, v, k, x, y, g, s, t):
    """Replace diagonal entries (x, y) at positions (k, k+1) by
    (gcd, lcm), keeping the U * M * V = a relation valid.

    With g = s*x + t*y, the unimodular pair
        L = [[s, t], [-y/g, x/g]]      acting on rows k, k+1
        R = [[1, -t*y/g], [1, s*x/g]]  acting on columns k, k+1
    satisfies L * diag(x, y) * R = diag(g, x*y/g).
    """
    yg = y // g
    xg = x // g
    i, j = k, k + 1
    for col in range(len(a[0]) if a else 0):
        ai, aj = a[i][col], a[j][col]
        a[i][col] = s * ai + t * aj
        a[j][col] = -yg * ai + xg * aj
    for col in range(len(u)):
        ui, uj = u[i][col], u[j][col]
        u[i][col] = s * ui + t * uj
        u[j][col] = -yg * ui + xg * uj
    for rr in range(len(v)):
        vi, vj = v[rr][i], v[rr][j]
        v[rr][i] = vi + vj
        v[rr][j] = -t * yg * vi + s * xg * vj
    for rr in range(len(a)):
        ai, aj = a[rr][i], a[rr][j]
        a[rr][i] = ai + aj
        a[rr][j] = -t * yg * ai + s * xg * aj


class _Elimination:
    """The module's one elimination state: sparse rows, dicts {column:
    nonzero entry}, worked in place; `cols`, each column's set of the
    active rows that hold it; the pivots (row, column); and, only with
    track=True, the transform: track[i] writes row i in the rows given
    (else track is None).  A pivot retires its row as it stands, so the
    active rows are the rows not among the pivots."""

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
        (`queued`): first the nonempty rows in index order, then a row
        again only when a row operation changes it.  It steps on a unit
        in the column with the fewest holders, ties to the first met.  A
        retired row leaves every holder set, so it is never queued."""
        rows, cols = self.rows, self.cols
        # an empty row holds no unit, so it is never queued
        self.queue = queue = deque(i for i, row in enumerate(rows) if row)
        self.queued = queued = set(queue)
        while queue:
            i = queue.popleft()
            queued.discard(i)
            best = None
            for j, v in rows[i].items():
                if v in (1, -1) and (best is None or len(cols[j]) < fewest):
                    best, fewest = j, len(cols[j])
            if best is not None:
                self._unit_step(i, best)
        return self

    def _unit_step(self, r, c):
        """Clears column c by the unit pivot at (r, c) and retires row r.
        Row i takes -(entry at c) times the pivot times row r: no
        remainder, and only the pivot row's other entries are added in.
        A pivot row with no other entry just deletes the column from the
        other rows, which only shrink, so none is queued."""
        rows, cols = self.rows, self.cols
        pivot_row = rows[r]
        unit = -pivot_row[c]
        members = cols.pop(c)
        rest = [(j, v, cols[j]) for j, v in pivot_row.items() if j != c]
        members.discard(r)
        if rest:
            queue, queued = self.queue, self.queued
            for i in members:
                row = rows[i]
                q = unit * row.pop(c)
                for j, v, holders in rest:
                    x = row.get(j)
                    if x is None:
                        row[j] = q * v
                        holders.add(i)
                    else:
                        x += q * v
                        if x:
                            row[j] = x
                        else:
                            del row[j]
                            holders.discard(i)
                # a changed row is queued, unless empty or queued already
                if row and i not in queued:
                    queued.add(i)
                    queue.append(i)
        else:
            for i in members:
                del rows[i][c]
        for _j, _v, holders in rest:
            holders.discard(r)
        self.pivots.append((r, c))

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
    nonzero integers.  A subclass gives `_ring()`, what two elements must
    share to be combined; `_check(other)`, which raises its own error if
    they do not; and `_make(coeffs)`, a new element of the same ring."""

    __slots__ = ("coeffs",)

    def __eq__(self, other):
        return (type(other) is type(self)
                and self._ring() == other._ring()
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self._ring(), frozenset(self.coeffs.items())))

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


def _divisibility_chain(values):
    """The invariant factors of a diagonal matrix with these nonzero
    entries: pairs (a, b) become (gcd, lcm) until each divides the
    next."""
    rest = sorted(v for v in values if v != 1)
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            g = gcd(rest[i], rest[j])
            rest[i], rest[j] = g, rest[i] // g * rest[j]
    return [1] * (len(values) - len(rest)) + rest


def _transpose(rows):
    """The columns of sparse rows, as dict vectors {row: entry}."""
    columns = {}
    for i, row in enumerate(rows):
        for j, x in row.items():
            columns.setdefault(j, {})[i] = x
    return list(columns.values())


def invariant_factors(rows):
    """Nonzero invariant factors of the matrix with these dict rows, in
    divisibility order.  The unit steps come first, each a factor 1, and
    on the complexes here they leave no row.  The active rows left hold
    no unit; `row_hnf` on them and on the transposed result, in turn,
    untracked, brings them to diagonal form, one entry per row and per
    column (Kannan and Bachem, SIAM J. Comput. 1979).  The rows are
    copied, not consumed."""
    rows = list(map(_sparse, rows))
    elim = _Elimination(rows).unit_steps()
    retired = {r for r, _c in elim.pivots}
    rest = [row for i, row in enumerate(rows) if row and i not in retired]
    while rest:
        rest = row_hnf(rest)
        if all(len(row) == 1 for row in rest):
            break
        rest = _transpose(rest)
    return _divisibility_chain([1] * len(retired)
                               + [x for row in rest for x in row.values()])


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
        """Index [other : self] when self is finite-index in other."""
        if self.rank != other.rank:
            raise ValueError("lattices have different ranks")
        det_self = 1
        for row, col in zip(self.basis, self.pivot_cols):
            det_self *= row[col]
        det_other = 1
        for row, col in zip(other.basis, other.pivot_cols):
            det_other *= row[col]
        if self.pivot_cols != other.pivot_cols:
            raise ValueError("lattices are not commensurable in HNF position")
        if det_self % det_other:
            raise ValueError("not a sublattice")
        return det_self // det_other


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
