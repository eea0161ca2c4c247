import random
from collections import deque
from itertools import chain

import pytest
import sympy
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.matrices.normalforms import hermite_normal_form
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from racgk import intlinalg
from racgk.bredon import build_bredon_complex, interval_tensor_powers
from racgk.intlinalg import (ColumnSolver, Lattice, kernel_basis, mat_mul,
                             row_hnf, smith_normal_form)
from conftest import (complete_graph, dense_differentials, densify,
                      graph_suite, invariant_factors, sparsify, two_term)


def unimodular(t):
    """Whether a square list of rows has determinant 1 or -1, by sympy."""
    return DomainMatrix([list(map(ZZ, row)) for row in t], (len(t), len(t)),
                        ZZ).det() in (1, -1)


def check_snf(mat):
    diag, u, v = smith_normal_form(mat)
    m, n = len(mat), len(mat[0]) if mat else 0
    assert len(u) == m and len(v) == n, mat
    assert unimodular(u) and unimodular(v), mat
    prod = mat_mul(mat_mul(u, mat), v)
    for i in range(m):
        for j in range(n):
            expected = diag[i] if i == j and i < len(diag) else 0
            assert prod[i][j] == expected
    for a, b in zip(diag, diag[1:]):
        assert a > 0 and b % a == 0
    return diag


def sympy_diagonal(mat):
    """The nonzero invariant factors of a list of rows, by sympy."""
    if not mat or not mat[0]:
        return []
    sd = sympy_snf(sympy.Matrix(mat))
    return sorted(abs(sd[i, i]) for i in range(min(sd.shape)) if sd[i, i])


def test_snf_examples():
    assert check_snf([[2, 0], [0, 3]]) == [1, 6]
    assert check_snf([[1, 1]]) == [1]
    assert check_snf([[0, 0], [0, 0]]) == []
    assert check_snf([]) == [] and check_snf([[], []]) == []
    assert check_snf([[6, 0], [0, 4]]) == [2, 12]


def test_snf_matches_sympy_randomized():
    rng = random.Random(7)
    for _ in range(150):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        assert check_snf(mat) == sympy_diagonal(mat), mat


def random_matrix(rng, max_m=7, max_n=7, bound=9):
    """A random integer matrix, often with zero rows and columns; one in
    three is scaled by a common factor so that it holds no unit entry."""
    m, n = rng.randint(0, max_m), rng.randint(0, max_n)
    density = rng.random()
    mat = [[rng.randint(-bound, bound) if rng.random() < density else 0
            for _ in range(n)] for _ in range(m)]
    if rng.random() < 1 / 3:
        scale = rng.choice([2, 3, 4, 6])
        mat = [[scale * x for x in row] for row in mat]
    return mat


def test_snf_matches_sympy_on_random_matrices():
    rng = random.Random(13)
    empty = zero_line = unit_free = 0
    for _ in range(300):
        mat = random_matrix(rng)
        assert check_snf(mat) == sympy_diagonal(mat), mat
        empty += not mat or not mat[0]
        zero_line += any(not any(line) for line in chain(mat, zip(*mat)))
        unit_free += bool(mat) and all(abs(x) != 1 for row in mat for x in row)
    assert min(empty, zero_line, unit_free) > 20


def test_invariant_factors_match_dense_examples():
    for mat, expected in [([[2, 0], [0, 3]], [1, 6]), ([[2, 1], [0, 2]], [1, 4]),
                          ([[4, 6], [6, 9]], [1]), ([[0, 0], [0, 0]], []),
                          ([[0], [0], [5]], [5]), ([], []), ([[]], [])]:
        assert invariant_factors(sparsify(mat)) == expected, mat
        assert smith_normal_form(mat)[0] == expected, mat


def test_invariant_factors_match_dense_randomized():
    rng = random.Random(19)
    for _ in range(1200):
        mat = random_matrix(rng)
        assert invariant_factors(sparsify(mat)) == smith_normal_form(mat)[0], mat


def test_invariant_factors_match_dense_on_bredon_differentials():
    graphs = [(name, g) for name, g, _ in graph_suite()]
    for name, graph in graphs + [("K4", complete_graph(4))]:
        c = build_bredon_complex(graph)
        for k, (rows, d) in enumerate(zip(c.diffs, dense_differentials(c))):
            assert invariant_factors(rows) == smith_normal_form(d)[0], (name, k)


def test_invariant_factors_match_dense_on_interval_powers():
    # every differential of I^n up to n = 5, one past an `all` report's
    for n, power in enumerate(interval_tensor_powers(5), 1):
        for k, (rows, d) in enumerate(zip(power.diffs,
                                          dense_differentials(power))):
            assert invariant_factors(rows) == smith_normal_form(d)[0], (n, k)


def queue_counts(monkeypatch, rows):
    """(rows taken off the unit steps' queue, nonempty rows, row
    operations) for the unit steps on these rows.  A row operation is a
    call of `_add`, which adds the pivot row's other entries to a row;
    deleting the column of a pivot row with no other entry does not
    count.  A row
    may be put on the queue only when it is not on it and an operation
    changed it since it was last taken off, no retired row may be taken
    off it, and no active row may hold a unit once the queue is empty."""
    counts = {"pops": 0, "ops": 0}
    changed, retired = set(), set()

    class Counted(deque):
        def popleft(self):
            counts["pops"] += 1
            i = super().popleft()
            assert i not in retired, i
            changed.discard(i)
            return i

        def append(self, i):
            assert i not in self and i in changed, i
            super().append(i)

    class Recorded(intlinalg._Elimination):
        def _add(self, i, q, r):
            counts["ops"] += 1
            changed.add(i)
            super()._add(i, q, r)

        def _unit_step(self, r, c):
            super()._unit_step(r, c)
            retired.add(r)

    with monkeypatch.context() as patch:
        patch.setattr(intlinalg, "deque", Counted)
        patch.setattr(intlinalg, "_Elimination", Recorded)
        steps = matrix_state(rows).unit_steps()
    assert not steps.queue
    assert not any(v in (1, -1) for row in active_rows(steps)
                   for v in row.values())
    return counts["pops"], sum(1 for row in rows if row), counts["ops"]


def test_queue_takes_each_row_once_per_change(monkeypatch):
    # a row is looked at once, and again only after it changes
    complexes = [("I^%d" % n, power)
                 for n, power in enumerate(interval_tensor_powers(4), 1)]
    complexes.append(("K4", build_bredon_complex(complete_graph(4))))
    for name, c in complexes:
        for k, rows in enumerate(c.diffs):
            pops, nonempty, ops = queue_counts(monkeypatch, rows)
            assert nonempty <= pops <= nonempty + ops, (name, k)
    rng = random.Random(31)
    for _ in range(300):
        rows = sparsify(random_matrix(rng))
        pops, nonempty, ops = queue_counts(monkeypatch, rows)
        assert nonempty <= pops <= nonempty + ops, rows


def active_rows(elim):
    """The nonempty rows of an elimination that are not among its
    pivots, in index order."""
    retired = {r for r, _c in elim.pivots}
    return [row for i, row in enumerate(elim.rows)
            if row and i not in retired]


def matrix_state(rows):
    """The elimination state that `invariant_factors` reduces: the
    matrix as a two-term complex, its columns numbered first."""
    return intlinalg._coboundary(*two_term(rows))


def rows_left(rows):
    """The nonempty rows that the unit steps leave active."""
    return active_rows(matrix_state(rows).unit_steps())


def test_unit_steps_leave_no_row_on_the_complexes():
    # the Euclid steps of the echelon form see no row of a real complex
    complexes = [("I^%d" % n, power)
                 for n, power in enumerate(interval_tensor_powers(6), 1)]
    complexes += [("K%d" % n, build_bredon_complex(complete_graph(n)))
                  for n in range(2, 6)]
    count = 0
    for name, c in complexes:
        for k, rows in enumerate(c.diffs):
            assert rows_left(rows) == [], (name, k)
            count += 1
    assert count > 20


def test_invariant_factors_without_a_unit_match_dense(monkeypatch):
    # no unit anywhere: the unit steps look at each row once and change
    # none, and Hermite forms of rows and columns in turn do the rest
    assert invariant_factors([{0: 2, 1: 3}, {0: 4, 1: 7}]) == [1, 2]
    assert smith_normal_form([[2, 3], [4, 7]])[0] == [1, 2]
    rng = random.Random(29)
    entries = [0, 2, -2, 3, -3, 4, -4, 6, -6]
    for _ in range(600):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.choice(entries) for _ in range(n)] for _ in range(m)]
        rows = sparsify(mat)
        assert invariant_factors(rows) == smith_normal_form(mat)[0], mat
        pops, nonempty, ops = queue_counts(monkeypatch, rows)
        assert pops == nonempty and ops == 0, mat
        assert len(rows_left(rows)) == nonempty, mat


def test_unit_steps_hand_off_a_block_without_a_unit():
    # an identity beside [[2, 3], [4, 7]]: two unit steps, then the
    # Hermite forms take the block
    mat = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 3], [0, 0, 4, 7]]
    assert rows_left(sparsify(mat)) == [{2: 2, 3: 3}, {2: 4, 3: 7}]
    assert invariant_factors(sparsify(mat)) == [1, 1, 1, 2]
    assert smith_normal_form(mat)[0] == [1, 1, 1, 2]
    # units in some columns, even entries under them, and a block
    # without a unit in the others: the unit steps fill the block rows
    rng = random.Random(41)
    entries = [0, 2, -2, 3, -3, 4, -4, 6, -6]
    handed_off = 0
    for _ in range(600):
        units, m, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        top = [[int(i == j) * rng.choice([1, -1]) for j in range(units)]
               + [rng.choice(entries) for _ in range(n)]
               for i in range(units)]
        block = [[rng.choice([0, 2, -2, 4]) for _ in range(units)]
                 + [rng.choice(entries) for _ in range(n)]
                 for _ in range(m)]
        mat = top + block
        rng.shuffle(mat)
        rows = sparsify(mat)
        assert invariant_factors(rows) == smith_normal_form(mat)[0], mat
        handed_off += bool(rows_left(rows))
    assert handed_off > 300


def test_kernel_basis_spans_dense_kernel():
    rng = random.Random(23)
    for _ in range(400):
        mat = random_matrix(rng)
        if not mat:
            continue
        n = len(mat[0])
        ker = kernel_basis(sparsify(mat), n)
        for vec in ker:
            assert all(sum(row[j] * x for j, x in vec.items()) == 0
                       for row in mat), (mat, vec)
        diag, _u, v = smith_normal_form(mat)
        dense = sparsify([[v[i][j] for i in range(n)]
                          for j in range(len(diag), n)])
        assert len(ker) == len(dense), mat
        if ker:
            ours, theirs = Lattice(n, ker), Lattice(n, dense)
            assert all(vec in ours for vec in dense), mat
            assert all(vec in theirs for vec in ker), mat


def test_kernel_basis():
    rng = random.Random(11)
    for _ in range(100):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = sparsify([[rng.randint(-5, 5) for _ in range(n)]
                         for _ in range(m)])
        ker = kernel_basis(rows, n)
        assert len(ker) == n - len(invariant_factors(rows))
        for vec in ker:
            assert all(0 <= j < n for j in vec)
            assert all(sum(row.get(j, 0) * x for j, x in vec.items()) == 0
                       for row in rows)
    assert kernel_basis([], 2) == [{0: 1}, {1: 1}]


def test_kernel_basis_rejects_columns_outside_range():
    with pytest.raises(ValueError, match="column 3 outside 2 columns"):
        kernel_basis([{0: 1, 3: 1}], 2)
    with pytest.raises(ValueError, match="column -1 outside 3 columns"):
        kernel_basis([{0: 1, -1: 1}], 3)


def test_row_hnf_canonical():
    h = row_hnf([{0: 2, 1: 4}, {1: 6}])
    assert h == [{0: 2, 1: 4}, {1: 6}]
    # HNF is independent of generator order and redundancy
    assert row_hnf([{1: 6}, {0: 2, 1: 4}, {0: 2, 1: 10}]) == h


def check_hnf_shape(h):
    pivots = []
    for row in h:
        assert all(row.values())
        col = min(row)
        assert row[col] > 0 and (not pivots or col > pivots[-1])
        pivots.append(col)
    for i, col in enumerate(pivots):
        for row in h[:i]:
            assert 0 <= row.get(col, 0) < h[i][col], (h, i)


def test_row_hnf_reduces_above_every_pivot():
    h = row_hnf(sparsify([[1, 0, -25, -25, -15, 3, -10],
                          [0, 1, 9, 10, 6, 1, 3],
                          [0, 0, 16, 5, 3, -3, 1], [0, 0, 0, 8, 5, 1, 4]]))
    check_hnf_shape(h)
    assert h[0] == {0: 1, 2: 7, 3: 1, 4: 1, 5: -1}


def test_row_hnf_canonical_randomized():
    rng = random.Random(29)
    for _ in range(200):
        g = rng.randint(1, 5)
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(g)]
        h = row_hnf(sparsify(rows))
        check_hnf_shape(h)
        others = [list(r) for r in rows]
        for _ in range(rng.randint(0, 3)):
            coeffs = [rng.randint(-3, 3) for _ in rows]
            others.append([sum(c * r[j] for c, r in zip(coeffs, rows))
                           for j in range(n)])
        rng.shuffle(others)
        assert row_hnf(sparsify(others)) == h, rows


def test_row_hnf_tracked_combinations():
    rng = random.Random(13)
    for _ in range(100):
        g = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(g)]
        h, exprs = row_hnf(sparsify(rows), track=True)
        for row, e in zip(h, exprs):
            comb = [sum(c * rows[i][j] for i, c in e.items())
                    for j in range(n)]
            assert sparsify([comb]) == [row]


def dense_row_hnf(rows, track=False):
    """Reference Hermite form: dense rows with a row of the identity
    tracked beside each, columns cleared left to right by Euclid steps
    on the least entry, then reduced above the pivots leftmost first."""
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
    for idx in range(len(pivots)):
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


def hnf_inputs(rng, count):
    """Random generator sets: zero rows, negative leading entries, rank
    deficiency from added combinations, duplicated generators, and a
    third scaled so that no unit entry exists."""
    for _ in range(count):
        mat = random_matrix(rng, max_m=8, max_n=7)
        if mat and rng.random() < 0.5:
            coeffs = [rng.randint(-3, 3) for _ in mat]
            mat.append([sum(c * row[j] for c, row in zip(coeffs, mat))
                        for j in range(len(mat[0]))])
        if mat and rng.random() < 0.3:
            mat.append(list(rng.choice(mat)))
        if mat and rng.random() < 0.3:
            mat.insert(rng.randrange(len(mat)), [0] * len(mat[0]))
        yield mat


def test_row_hnf_matches_dense_oracle():
    rng = random.Random(41)
    # row 0 gets its column-2 entry only as fill from the reduction by
    # pivot 1, and pivot 2 must then reduce it
    fill_in = [[1, 5, 0], [0, 2, 1], [0, 0, 3]]
    for mat in chain([fill_in], hnf_inputs(rng, 1000)):
        expected = sparsify(dense_row_hnf(mat))
        assert row_hnf(sparsify(mat)) == expected, mat
        h, exprs = row_hnf(sparsify(mat), track=True)
        assert h == expected, mat
        assert len(exprs) == len(h)
        n = len(mat[0]) if mat else 0
        for row, e in zip(h, exprs):
            assert all(0 <= i < len(mat) for i in e)
            assert sparsify([[sum(c * mat[i][j] for i, c in e.items())
                              for j in range(n)]]) == [row], (mat, row, e)


def test_row_hnf_sparse_rows():
    rng = random.Random(43)
    for mat in hnf_inputs(rng, 300):
        rows = sparsify(mat)
        if not rows:
            continue
        given = [dict(r) for r in rows]
        h, exprs = row_hnf(rows, track=True)
        assert rows == given
        assert h == sparsify(dense_row_hnf(mat)), mat
        assert row_hnf(rows) == h
        for row, e in zip(h, exprs):
            comb = {}
            for i, c in e.items():
                for j, x in rows[i].items():
                    comb[j] = comb.get(j, 0) + c * x
            assert {j: x for j, x in comb.items() if x} == row, mat


def test_lattice_sparse_generators():
    lat = Lattice(4, [{1: 2, 3: -4}, {1: 4}, {}])
    assert lat.basis == [{1: 2, 3: 4}, {3: 8}]
    assert lat.pivot_cols == [1, 3]
    with pytest.raises(ValueError, match="outside ambient"):
        Lattice(4, [{4: 1}])
    with pytest.raises(ValueError, match="outside ambient"):
        Lattice(4, [{-1: 1}])
    for v in ({4: 1}, {-1: 1}):
        with pytest.raises(ValueError, match="outside ambient"):
            lat.membership(v)
    # an explicit zero is dropped before the range check
    assert lat.membership({1: 2, 7: 0}) == lat.membership({1: 2})


def test_hnf_spans_same_lattice_as_sympy():
    rng = random.Random(17)
    for _ in range(60):
        g = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(g)]
        ours = Lattice(n, sparsify(rows))
        try:
            sh = hermite_normal_form(sympy.Matrix(rows).T)
        except Exception:
            continue
        theirs = sparsify([[int(sh[i, c]) for i in range(n)]
                           for c in range(sh.shape[1])])
        for vec in theirs:
            assert vec in ours
        other = Lattice(n, theirs) if theirs else None
        for vec in ours.basis:
            assert other is not None and vec in other


def test_lattice_membership_certificate():
    lat = Lattice(2, [{0: 1}, {1: 2}])
    ok, cert = lat.membership({0: 3, 1: 4})
    assert ok
    assert cert == {0: 3, 1: 2}
    ok, reason = lat.membership({1: 1})
    assert not ok
    assert "congruence" in reason
    ok, cert = lat.membership({})
    assert ok and cert == {}


def dense_membership(lat, v, generators):
    """Reference membership on dense lists: every basis row rescans all
    the columns left of its pivot, and the certificate is summed over
    the generators at the end."""
    v = list(v)
    basis = densify(lat.basis, len(v))
    coeffs = [0] * len(basis)
    for i, (row, col) in enumerate(zip(basis, lat.pivot_cols)):
        for j in range(col):
            if v[j] and j not in lat.pivot_cols[:i]:
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
    cert = [0] * len(generators)
    for c, expr in zip(coeffs, densify(lat.exprs, len(generators))):
        for j, e in enumerate(expr):
            cert[j] += c * e
    return True, cert


def test_lattice_membership_matches_dense_oracle():
    rng = random.Random(47)
    outcomes = set()
    for mat in hnf_inputs(rng, 400):
        if not mat or not mat[0]:
            continue
        n = len(mat[0])
        lat = Lattice(n, sparsify(mat))
        for _ in range(6):
            coeffs = [rng.randint(-3, 3) for _ in mat]
            v = [sum(c * row[j] for c, row in zip(coeffs, mat))
                 for j in range(n)]
            if rng.random() < 0.6:
                v[rng.randrange(n)] += rng.randint(-2, 2)
            [sv] = sparsify([v])
            got = lat.membership(sv)
            if got[0]:
                got = True, densify([got[1]], len(mat))[0]
            assert got == dense_membership(lat, v, mat), (mat, v)
            outcomes.add(got[1].split(" ")[0] if not got[0] else True)
    assert outcomes == {True, "nonzero", "coefficient"}


def test_lattice_index():
    whole = Lattice(2, [{0: 1}, {1: 1}])
    sub = Lattice(2, [{0: 2}, {1: 3}])
    assert sub.index_in(whole) == 6
    assert Lattice(2, [{0: 6, 1: 3}]).index_in(Lattice(2, [{0: 2, 1: 1}])) == 3
    # same rank, pivot column and a pivot that divides, but not nested
    axis = Lattice(2, [{0: 1}])
    for generator in ({0: 1, 1: 1}, {0: 2, 1: 1}):
        with pytest.raises(ValueError, match="not a sublattice"):
            Lattice(2, [generator]).index_in(axis)
    with pytest.raises(ValueError, match="not a sublattice"):
        Lattice(1, [{0: 2}]).index_in(Lattice(1, [{0: 3}]))
    with pytest.raises(ValueError, match="different ranks"):
        axis.index_in(whole)


def test_column_solver():
    solver = ColumnSolver([{0: 1, 2: 2}, {1: 3, 2: 1}], 3)
    assert solver.solve({0: 2, 1: 3, 2: 5}) == {0: 2, 1: 1}
    assert solver.solve({0: 1, 1: 1, 2: 1}) is None
    assert solver.solve({}) == {}


def test_column_solver_rejects_dependent():
    with pytest.raises(ValueError):
        ColumnSolver([{0: 1, 1: 2}, {0: 2, 1: 4}], 2)
    rng = random.Random(31)
    for _ in range(100):
        m, r = rng.randint(1, 6), rng.randint(1, 4)
        cols = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(r)]
        coeffs = [rng.randint(-3, 3) for _ in range(r)]
        cols.insert(rng.randint(0, r), [sum(c * col[i] for c, col in
                                            zip(coeffs, cols))
                                        for i in range(m)])
        with pytest.raises(ValueError):
            ColumnSolver(sparsify(cols), m)


def test_column_solver_randomized():
    rng = random.Random(37)
    tried = 0
    while tried < 200:
        m, r = rng.randint(1, 7), rng.randint(1, 5)
        cols = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(r)]
        if len(smith_normal_form(cols)[0]) != r:
            continue
        tried += 1
        solver = ColumnSolver(sparsify(cols), m)
        lattice = Lattice(m, sparsify(cols))
        for _ in range(5):
            coeffs = [rng.randint(-6, 6) for _ in range(r)]
            vec = [sum(c * col[i] for c, col in zip(coeffs, cols))
                   for i in range(m)]
            assert solver.solve(sparsify([vec])[0]) == sparsify([coeffs])[0]
            vec[rng.randrange(m)] += rng.choice([-1, 1, 2])
            [sv] = sparsify([vec])
            found = solver.solve(sv)
            if sv in lattice:
                assert [sum(c * cols[k][i] for k, c in found.items())
                        for i in range(m)] == vec
            else:
                assert found is None, (cols, vec)


def test_column_solver_congruence():
    solver = ColumnSolver([{0: 2}, {1: 2}], 2)
    assert solver.solve({0: 4, 1: -2}) == {0: 2, 1: -1}
    assert solver.solve({0: 1}) is None


def test_column_solver_is_lattice_membership():
    solver = ColumnSolver([{0: 2, 1: 1}, {1: 3}], 2)
    assert solver.solve({0: 4, 1: -1}) == {0: 2, 1: -1}
    assert solver.solve({0: 1}) is None
    assert solver.solve({1: 1}) is None
    for vec in ({2: 1}, {-1: 1}):
        with pytest.raises(ValueError, match="outside ambient"):
            solver.solve(vec)
    assert solver.solve({0: 4, 1: -1, 5: 0}) == {0: 2, 1: -1}
    with pytest.raises(ValueError, match="outside ambient"):
        ColumnSolver([{0: 1}, {2: 1}], 2)
    for dependent in ([{0: 1}, {0: 2}], [{0: 1}, {}], [{0: 1, 1: 1}] * 2):
        with pytest.raises(ValueError, match="not independent"):
            ColumnSolver(dependent, 2)
    rng = random.Random(61)
    seen = set()
    for mat in hnf_inputs(rng, 400):
        rows = sparsify(mat)
        if not rows or len(invariant_factors(rows)) != len(rows):
            continue
        n = len(mat[0])
        solver, lattice = ColumnSolver(rows, n), Lattice(n, rows)
        for _ in range(6):
            coeffs = [rng.randint(-3, 3) for _ in mat]
            v = [sum(c * row[j] for c, row in zip(coeffs, mat))
                 for j in range(n)]
            if rng.random() < 0.5:
                v[rng.randrange(n)] += rng.randint(-2, 2)
            [sv] = sparsify([v])
            found, cert = lattice.membership(sv)
            assert solver.solve(sv) == (cert if found else None), (mat, v)
            seen.add(found)
    assert seen == {True, False}


def test_echelon_pivots_come_in_column_order(monkeypatch):
    # kernels, solving and Hermite forms share the one echelon form
    runs = []

    class Recorded(intlinalg._Elimination):
        def echelon(self):
            super().echelon()
            runs.append([c for _r, c in self.pivots])
            return self

    monkeypatch.setattr(intlinalg, "_Elimination", Recorded)
    rng = random.Random(67)
    calls = 0
    for mat in hnf_inputs(rng, 300):
        n = len(mat[0]) if mat else 0
        rows = sparsify(mat)
        jobs = [lambda: kernel_basis(rows, n), lambda: row_hnf(rows),
                lambda: row_hnf(rows, track=True)]
        if rows and len(invariant_factors(rows)) == len(rows):
            jobs.append(lambda: ColumnSolver(rows, n))
        for job in jobs:
            runs.clear()
            job()
            [columns] = runs
            assert columns == sorted(set(columns)), mat
            calls += 1
    assert calls > 900


def test_transform_kept_only_where_read(monkeypatch):
    # kernels and tracked Hermite forms read the transform; untracked
    # Hermite forms, and so the unit-free fallback of the invariant
    # factors, build none
    kept = []

    class Recorded(intlinalg._Elimination):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            kept.append(self.track is not None)

    def transforms(job):
        kept.clear()
        job()
        return set(kept)

    monkeypatch.setattr(intlinalg, "_Elimination", Recorded)
    unit_free = [{0: 2, 1: 3}, {0: 4, 1: 7}]
    assert transforms(lambda: invariant_factors(unit_free)) == {False}
    assert len(kept) > 1
    rng = random.Random(71)
    for mat in hnf_inputs(rng, 300):
        n = len(mat[0]) if mat else 0
        rows = sparsify(mat)
        assert transforms(lambda: row_hnf(rows)) == {False}, mat
        assert transforms(lambda: row_hnf(rows, track=True)) == {True}, mat
        assert transforms(lambda: Lattice(n, rows)) == {True}, mat
        assert transforms(lambda: kernel_basis(rows, n)) == {True}, mat
        assert row_hnf(rows) == row_hnf(rows, track=True)[0], mat


def with_explicit_zeros(rng, rows, n):
    """Copies of dict rows over n columns with zero entries added at
    some of their empty columns."""
    out = []
    for row in rows:
        row = dict(row)
        for j in range(n):
            if j not in row and rng.random() < 0.5:
                row[j] = 0
        out.append(row)
    return out


def test_explicit_zero_entries_change_nothing():
    assert row_hnf([{0: 0, 1: 2}, {0: 3}]) == [{0: 3}, {1: 2}]
    assert row_hnf([{0: 0, 1: 2}]) == [{1: 2}]
    assert Lattice(2, [{0: 0, 1: 2}, {0: 3}]).basis == [{0: 3}, {1: 2}]
    # a zero outside the ambient range is dropped like any other
    lat = Lattice(2, [{0: 1, 5: 0}])
    assert (lat.basis, lat.exprs) == ([{0: 1}], [{0: 1}])
    assert lat.membership({0: 1, 7: 0}) == (True, {0: 1})
    assert row_hnf([{0: 1, 5: 0}]) == [{0: 1}]
    assert invariant_factors([{0: 1, 5: 0}]) == [1]
    assert kernel_basis([{0: 1, 5: 0}], 2) == [{1: 1}]
    rng = random.Random(53)
    for mat in hnf_inputs(rng, 300):
        n = len(mat[0]) if mat else 0
        rows = sparsify(mat)
        padded = with_explicit_zeros(rng, rows, n)
        assert invariant_factors(padded) == invariant_factors(rows), mat
        assert kernel_basis(padded, n) == kernel_basis(rows, n), mat
        assert row_hnf(padded) == row_hnf(rows), mat
        assert (row_hnf(padded, track=True)
                == row_hnf(rows, track=True)), mat
        lat, ref = Lattice(n, padded), Lattice(n, rows)
        assert (lat.basis, lat.exprs) == (ref.basis, ref.exprs), mat
        for v in with_explicit_zeros(rng, rows, n):
            assert lat.membership(v) == ref.membership(v), (mat, v)
        if rows and len(invariant_factors(rows)) == len(rows):
            # independent rows, read as the columns of a solver over Z^n
            solver = ColumnSolver(padded, n)
            ref = ColumnSolver(rows, n)
            for v in with_explicit_zeros(rng, rows + [{0: 1}], n):
                assert solver.solve(v) == ref.solve(v), (mat, v)
