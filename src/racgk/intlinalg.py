"""Exact integer linear algebra: invariant factors, kernels and exact
solving by one sparse elimination kernel; Hermite normal forms and
lattice membership with certificates; the sparse-combination core
(`accumulate`, `Combination`) under the ring elements.

Vectors at every interface are dict vectors {index: nonzero entry}, and
a matrix is a list of them, one per row (for `ColumnSolver`, one per
column).  `invariant_factors`, `kernel_basis`, `row_hnf`, `Lattice` and
`ColumnSolver` copy what they are given, explicit zero entries dropped,
and return dict vectors; the cochain complexes hold dict rows from
build to elimination.  Everything is exact.  The dense Smith normal
form with both transforms (`smith_normal_form`, with `mat_mul` and
`identity`) works on lists of rows and is kept only as the reference
the sparse kernel is tested against.
"""

from heapq import heapify, heappop, heappush
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
    """Integer elimination on sparse rows, dicts {column: nonzero entry}.

    Pivots are unit entries while any remain, found by taking the
    shortest row or column that holds one, and in it the unit whose
    crossing line is shortest.  Only when no unit is left is a pivot of
    least magnitude taken, and Euclid's steps finish it exactly.

    With `leftmost` the pivot is instead the entry of least magnitude
    in the leftmost column that active rows still hold, so the pivots
    come in column order.

    Each step clears the pivot column from the other rows by row
    operations and retires the pivot row.  With `echelon` it stops
    there and leaves the retired row as it stands, which gives a row
    echelon form; with `track` each row operation is then repeated on a
    row of the identity, so track[i] writes row i in the rows given.
    Otherwise it also clears the pivot row by column operations, which
    touch only that row once its column is clear, and retires only a
    row whose single entry is its pivot: a diagonal form, with no
    transform kept.
    """

    def __init__(self, rows, echelon, track=False, leftmost=False):
        self.rows = rows
        self.echelon = echelon
        self.track = [{i: 1} for i in range(len(rows))] if track else None
        self.leftmost = leftmost
        self.active = set(range(len(rows)))
        self.cols = {}
        for i, row in enumerate(rows):
            for j in row:
                self.cols.setdefault(j, set()).add(i)
        if leftmost:
            self.heap = None
            self.order = sorted(self.cols, reverse=True)
        else:
            self.heap = [(len(row), 0, i) for i, row in enumerate(rows)]
            self.heap += [(len(members), 1, j)
                          for j, members in self.cols.items()]
            heapify(self.heap)
        self.pivots = []
        self._run()

    def _run(self):
        while True:
            if self.leftmost:
                pivot = self._leftmost_pivot()
            else:
                pivot = self._unit_pivot() or self._least_pivot()
            if pivot is None:
                return
            r, c = pivot
            r = self._clear_column(r, c)
            if not self.echelon and not self._clear_row(r, c):
                continue
            self.active.discard(r)
            for j in self.rows[r]:
                self.cols[j].discard(r)
            del self.cols[c]
            self.pivots.append((r, c))

    def _unit_pivot(self):
        """A unit entry on the shortest line that has one.  Every row
        whose entries changed since it was last looked at is on the heap
        again, under a length no shorter than its own, so an empty heap
        means no active row holds a unit."""
        heap, rows, cols = self.heap, self.rows, self.cols
        while heap:
            length, is_col, x = heappop(heap)
            if is_col:
                members = cols.get(x)
                if not members:
                    continue
                if len(members) > length:
                    heappush(heap, (len(members), 1, x))
                    continue
                units = [i for i in members if rows[i][x] in (1, -1)]
                if units:
                    return min(units, key=lambda i: len(rows[i])), x
            elif x in self.active and len(rows[x]) <= length:
                units = [j for j, v in rows[x].items() if v in (1, -1)]
                if units:
                    return x, min(units, key=lambda j: len(cols[j]))
        return None

    def _leftmost_pivot(self):
        """The least entry, lowest row first, of the leftmost column
        that an active row holds.  A column no active row holds never
        fills again (fill comes only from active rows), so the columns
        passed are dropped for good."""
        order, cols, rows = self.order, self.cols, self.rows
        while order:
            c = order[-1]
            members = cols.get(c)
            if members:
                return min(members, key=lambda i: (abs(rows[i][c]), i)), c
            order.pop()
        return None

    def _least_pivot(self):
        best = None
        for i in self.active:
            for j, v in self.rows[i].items():
                key = (abs(v), len(self.rows[i]))
                if best is None or key < best[0]:
                    best = key, i, j
        return best and best[1:]

    def _add(self, i, q, r):
        """row i += q * row r."""
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
        if not self.leftmost:
            heappush(self.heap, (len(row), 0, i))

    def _clear_column(self, r, c):
        """Row operations leaving one active row with an entry in column
        c; returns that row.  Each round takes the least remainder as
        the next pivot, so a unit pivot needs one round."""
        rows = self.rows
        if not self.echelon and rows[r] in ({c: 1}, {c: -1}):
            # the row operations only delete column c
            for i in self.cols[c]:
                if i != r:
                    del rows[i][c]
            self.cols[c] = {r}
            return r
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

    def _clear_row(self, r, c):
        """Column operations reducing row r modulo its pivot; True when
        only the pivot is left."""
        row = self.rows[r]
        p = row[c]
        if p in (1, -1):
            return True
        for j, x in list(row.items()):
            remainder = x % p
            if j == c or remainder == x:
                continue
            if remainder:
                row[j] = remainder
            else:
                del row[j]
                self.cols[j].discard(r)
        if len(row) == 1:
            return True
        heappush(self.heap, (len(row), 0, r))
        return False


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
    entry point makes of what it is given."""
    return {j: x for j, x in vec.items() if x}


def _divisibility_chain(values):
    """The invariant factors of a diagonal matrix with these nonzero
    entries: pairs (a, b) become (gcd, lcm) until each divides the
    next."""
    units = sum(1 for v in values if v == 1)
    rest = sorted(v for v in values if v != 1)
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            g = gcd(rest[i], rest[j])
            rest[i], rest[j] = g, rest[i] // g * rest[j]
    return [1] * units + rest


def invariant_factors(rows):
    """Nonzero invariant factors of the matrix with these dict rows, in
    divisibility order, from a sparse elimination to diagonal form that
    builds no transforms.  The rows are copied, not consumed."""
    rows = list(map(_sparse, rows))
    elim = _Elimination(rows, echelon=False)
    return _divisibility_chain([abs(rows[r][c]) for r, c in elim.pivots])


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
            columns[j][i] = x
    elim = _Elimination(columns, echelon=True, track=True)
    pivot_cols = {r for r, _c in elim.pivots}
    return [elim.track[j] for j in range(n) if j not in pivot_cols]


def _hermite(rows, track):
    """Hermite normal form of the lattice spanned by sparse rows, which
    it consumes: (row, expression) pairs in pivot column order, the
    expression None unless tracked.

    The kernel's leftmost pivot rule leaves one row per pivot column,
    in column order; each pivot is made positive, then the entries
    above it are reduced, leftmost pivot first: reducing by a pivot row
    changes only its own and later columns.  A pivot reduces only the
    rows that hold its column: `holders` maps each column to the form
    rows with an entry there, and grows by the fill each reduction
    writes.  An entry a reduction cancelled leaves a stale holder, whose
    quotient is 0.  The reductions by one pivot touch different rows,
    so their order does not change the form."""
    elim = _Elimination(rows, echelon=True, track=track, leftmost=True)
    form = []
    holders = {}
    for r, c in elim.pivots:
        row = rows[r]
        expr = elim.track[r] if track else None
        p = row[c]
        if p < 0:
            p = -p
            row = {j: -x for j, x in row.items()}
            if track:
                expr = {j: -x for j, x in expr.items()}
        for k in holders.pop(c, ()):
            above, above_expr = form[k]
            q = above.get(c, 0) // p
            if q:
                _add_into(above, -q, row)
                if track:
                    _add_into(above_expr, -q, expr)
                for j in row:
                    if j != c and j in above:
                        holders.setdefault(j, set()).add(k)
        for j in row:
            if j != c:
                holders.setdefault(j, set()).add(len(form))
        form.append((row, expr))
    return form


def row_hnf(rows, track=False):
    """Row-style Hermite normal form of the lattice spanned by dict
    rows {column: entry}.

    Returns the nonzero HNF rows as dict rows (pivots positive, entries
    above a pivot reduced into [0, pivot)).  With track=True also
    returns, per HNF row, its integer expression in the input rows, a
    dict {input row: coefficient}."""
    form = _hermite(list(map(_sparse, rows)), track)
    hnf = [row for row, _expr in form]
    if track:
        return hnf, [expr for _row, expr in form]
    return hnf


class Lattice:
    """Sublattice of Z^n spanned by dict generators {coordinate: entry},
    held in HNF as dict rows.

    Supports exact membership queries; when the generators are tracked,
    a positive answer carries an integer combination of the original
    generators as a certificate."""

    def __init__(self, n, generators, track=False):
        self.n = n
        for g in generators:
            self._check_range(g, "generator")
        self.track = track
        if track:
            self.basis, self.exprs = row_hnf(generators, track=True)
        else:
            self.basis, self.exprs = row_hnf(generators), None
        self.pivot_cols = [min(row) for row in self.basis]
        self.generator_count = len(generators)

    def _check_range(self, vec, what):
        if any(not 0 <= j < self.n for j in vec):
            raise ValueError("%s coordinate outside ambient %d"
                             % (what, self.n))

    @property
    def rank(self):
        return len(self.basis)

    def membership(self, v):
        """(True, combination) if the dict vector v lies in the lattice,
        else (False, reason).  The combination, a dict vector, is over
        the original generators when tracked, otherwise over the HNF
        basis."""
        self._check_range(v, "vector")
        v = _sparse(v)
        coeffs = {}
        for k, (row, col) in enumerate(zip(self.basis, self.pivot_cols)):
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
                coeffs[k] = q
                _add_into(v, -q, row)
        if v:
            return False, "nonzero entry at column %d outside the lattice span" % min(v)
        if self.track:
            cert = {}
            for k, q in coeffs.items():
                _add_into(cert, q, self.exprs[k])
            return True, cert
        return True, coeffs

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
    """Solves L @ c = v exactly over Z for a fixed full-column-rank L
    given by its columns, dict vectors.

    Holds a column echelon form H = L @ V, V unimodular: column s of H
    has its pivot in row i_s and is zero in the pivot rows of all
    earlier columns.  `solve` finds the coefficients of v over the
    columns of H by forward substitution in the pivot rows, checks that
    nothing is left over, and maps them back through V."""

    def __init__(self, basis_cols):
        self.r = len(basis_cols)
        elim = _Elimination(list(map(_sparse, basis_cols)), echelon=True,
                            track=True)
        if len(elim.pivots) != self.r:
            raise ValueError("columns are not independent")
        self.steps = [(c, elim.rows[r][c], elim.rows[r], elim.track[r])
                      for r, c in elim.pivots]

    def solve(self, vec):
        """Integer coefficients c with L @ c = vec, a dict vector
        {column of L: coefficient}, or None when vec is outside the
        lattice spanned by the columns."""
        rest = _sparse(vec)
        coeffs = {}
        for i, p, column, combination in self.steps:
            x = rest.get(i)
            if x:
                q, remainder = divmod(x, p)
                if remainder:
                    return None
                _add_into(rest, -q, column)
                _add_into(coeffs, q, combination)
        if rest:
            return None
        return coeffs
