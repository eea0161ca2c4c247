"""Exact integer linear algebra: Smith and Hermite normal forms,
kernels, and lattice membership with certificates.

All matrices are lists of rows of Python ints; everything is exact.
"""


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimensions do not chain: %dx%d by %dx%d"
                         % (len(a), len(a[0]), len(b), len(b[0])))
    cols = len(b[0]) if b else 0
    out = [[0] * cols for _ in a]
    for i, row in enumerate(a):
        for k, x in enumerate(row):
            if x:
                brow = b[k]
                orow = out[i]
                for j in range(cols):
                    orow[j] += x * brow[j]
    return out


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def is_zero(a):
    return all(x == 0 for row in a for x in row)


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


def invariant_factors(mat):
    return smith_normal_form(mat)[0]


def kernel_basis(mat):
    """Basis (list of vectors) of the integer kernel {x : mat @ x = 0}.

    The kernel of an integer matrix is a saturated sublattice, so the
    returned basis spans it over Z."""
    if not mat or not mat[0]:
        n = len(mat[0]) if mat else 0
        return [[int(i == j) for i in range(n)] for j in range(n)]
    diag, _u, v = smith_normal_form(mat)
    r = len(diag)
    n = len(mat[0])
    return [[v[i][j] for i in range(n)] for j in range(r, n)]


def row_hnf(rows, track=False):
    """Row-style Hermite normal form of the lattice spanned by `rows`.

    Returns the nonzero HNF rows (pivots positive, entries above a pivot
    reduced into [0, pivot)).  With track=True also returns, per HNF
    row, its integer expression in the input rows."""
    n = len(rows[0]) if rows else 0
    work = [(list(r), [int(i == j) for j in range(len(rows))])
            for i, r in enumerate(rows)]
    pivots = []
    for col in range(n):
        cand = [w for w in work if w[0][col]]
        if not cand:
            continue
        while len(cand) > 1:
            cand.sort(key=lambda w: abs(w[0][col]))
            base = cand[0]
            for other in cand[1:]:
                q = other[0][col] // base[0][col]
                if q:
                    for j in range(col, n):
                        other[0][j] -= q * base[0][j]
                    for j in range(len(other[1])):
                        other[1][j] -= q * base[1][j]
            cand = [w for w in cand if w[0][col]]
        piv = cand[0]
        work.remove(piv)
        if piv[0][col] < 0:
            piv = ([-x for x in piv[0]], [-x for x in piv[1]])
        pivots.append((col, piv))
    # reduce entries above each pivot
    for idx in range(len(pivots) - 1, -1, -1):
        col, (prow, pexpr) = pivots[idx]
        for _c, (row, expr) in pivots[:idx]:
            q = row[col] // prow[col]
            if q:
                for j in range(col, len(row)):
                    row[j] -= q * prow[j]
                for j in range(len(expr)):
                    expr[j] -= q * pexpr[j]
    hnf = [p[1][0] for p in pivots]
    if track:
        return hnf, [p[1][1] for p in pivots]
    return hnf


class Lattice:
    """Sublattice of Z^n spanned by generator vectors, held in HNF.

    Supports exact membership queries; when the generators are tracked,
    a positive answer carries an integer combination of the original
    generators as a certificate."""

    def __init__(self, n, generators, track=False):
        self.n = n
        self.generators = [list(g) for g in generators]
        for g in self.generators:
            if len(g) != n:
                raise ValueError("generator length %d != ambient %d"
                                 % (len(g), n))
        self.track = track
        if track:
            self.basis, self.exprs = row_hnf(self.generators, track=True)
        else:
            self.basis = row_hnf(self.generators)
            self.exprs = None
        self.pivot_cols = [next(j for j, x in enumerate(row) if x)
                           for row in self.basis]

    @property
    def rank(self):
        return len(self.basis)

    def membership(self, v):
        """(True, combination) if v lies in the lattice, else
        (False, reason).  The combination is over the original
        generators when tracked, otherwise over the HNF basis."""
        if len(v) != self.n:
            raise ValueError("vector length %d != ambient %d"
                             % (len(v), self.n))
        v = list(v)
        coeffs = [0] * len(self.basis)
        for i, (row, col) in enumerate(zip(self.basis, self.pivot_cols)):
            # entries left of this pivot must already be cleared
            for j in range(col):
                if v[j] and j not in self.pivot_cols[:i]:
                    return False, "nonzero entry at column %d outside the lattice span" % j
            if v[col] % row[col]:
                return False, ("coefficient %d at column %d violates the "
                               "congruence modulo %d" % (v[col], col, row[col]))
            q = v[col] // row[col]
            coeffs[i] = q
            if q:
                for j in range(len(v)):
                    v[j] -= q * row[j]
        if any(v):
            j = next(j for j, x in enumerate(v) if x)
            return False, "nonzero entry at column %d outside the lattice span" % j
        if self.track:
            cert = [0] * len(self.generators)
            for c, expr in zip(coeffs, self.exprs):
                for j, e in enumerate(expr):
                    cert[j] += c * e
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
    """Solves L @ c = v exactly over Z for a fixed full-column-rank L."""

    def __init__(self, basis_cols):
        self.cols = [list(c) for c in basis_cols]
        mat = transpose(self.cols)
        self.m = len(mat)
        self.r = len(self.cols)
        self.diag, self.u, self.v = smith_normal_form(mat)
        if len(self.diag) != self.r:
            raise ValueError("columns are not independent")

    def solve(self, vec):
        w = mat_vec(self.u, vec)
        for i, x in enumerate(w):
            if i < self.r:
                if x % self.diag[i]:
                    return None
            elif x:
                return None
        y = [w[i] // self.diag[i] for i in range(self.r)]
        return mat_vec(self.v, y)
