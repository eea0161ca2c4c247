"""Character-theoretic verification of two restriction-image facts.

Restricting the dihedral group of order 8 to its center, the sign
character of the center is hit only with even multiplicity; the same
parity holds for the real representations of C4 restricted to its index
two subgroup.  Both facts are recovered here as Hermite normal form
lattice computations on embedded character tables, together with an
exact integer check of the explicit 2-dimensional representation, a
quarter turn and a reflection of the plane, that realizes twice the
sign character.  The three tables are module constants, checked once at
import; the lattices, parity sweeps and matrix identities are computed
afresh for every report.
"""

from .intlinalg import ColumnSolver, Lattice


class CharLabError(ValueError):
    pass


class CharacterTable:
    """Integer character table with conjugacy class data.

    characters[i][c] is the value of the i-th irreducible on class c.
    Orthogonality of distinct rows is checked at construction; row norms
    must be the group order or twice it (the doubling occurs for real
    irreducible characters of complex type).  The sizes and characters
    are kept as tuples, so a module table stays as it was checked.
    """

    def __init__(self, name, class_sizes, characters, class_of=None):
        self.name = name
        self.class_sizes = tuple(class_sizes)
        self.characters = tuple(map(tuple, characters))
        self.class_of = dict(class_of or {})
        self.order = sum(self.class_sizes)
        n = len(self.class_sizes)
        for ch in self.characters:
            if len(ch) != n:
                raise CharLabError("character length %d != class count %d"
                                   % (len(ch), n))
        for i, chi in enumerate(self.characters):
            for j, psi in enumerate(self.characters):
                dot = sum(s * a * b for s, a, b
                          in zip(self.class_sizes, chi, psi))
                if i != j and dot != 0:
                    raise CharLabError(
                        "%s: rows %d and %d are not orthogonal" % (name, i, j))
                if i == j and dot not in (self.order, 2 * self.order):
                    raise CharLabError(
                        "%s: row %d has norm %d, expected %d or %d"
                        % (name, i, dot, self.order, 2 * self.order))


# the three tables, built and checked once, at import
C2 = CharacterTable(
    "C2", [1, 1],
    [[1, 1],    # trivial
     [1, -1]],  # sign
    class_of={"e": 0, "s": 1})

# classes: e, s^2 (the central rotation), {s, s^3}, two reflection pairs
D8 = CharacterTable(
    "D8", [1, 1, 2, 2, 2],
    [[1, 1, 1, 1, 1],     # trivial
     [1, 1, 1, -1, -1],   # -1 on every reflection
     [1, 1, -1, 1, -1],
     [1, 1, -1, -1, 1],
     [2, -2, 0, 0, 0]],   # tau, the faithful 2-dimensional representation
    class_of={"e": 0, "s2": 1})

# real irreducibles of C4: trivial, sign of the order-2 quotient, and
# the 2-dimensional rotation (complex type, hence norm 2|G|)
C4_REAL = CharacterTable(
    "C4-real", [1, 1, 1, 1],
    [[1, 1, 1, 1],
     [1, -1, 1, -1],
     [2, 0, -2, 0]],
    class_of={"e": 0, "s": 1, "s2": 2, "s3": 3})


def basis_solver(table):
    """A solver for coordinates in the irreducible basis of a square
    table: sum_i x_i * chi_i(c) = values[c], one column per irreducible.
    Built once per table and shared by its decompositions."""
    n = len(table.class_sizes)
    if len(table.characters) != n:
        raise CharLabError("decomposition needs a square character table")
    try:
        return ColumnSolver([dict(enumerate(chi))
                             for chi in table.characters], n)
    except ValueError:
        raise CharLabError("character table rows are dependent") from None


def decompose_in_basis(solver, values):
    """Integer coordinates, a dict {irreducible: multiplicity}, of the
    class function with these values in the irreducible basis that
    `solver`, a table's `basis_solver`, solves in; errors when
    non-integral."""
    coords = solver.solve(dict(enumerate(values)))
    if coords is None:
        raise CharLabError("non-integral decomposition of %r" % (values,))
    return coords


def restriction_image(source, target, class_map):
    """HNF lattice spanned by the restrictions of the source
    irreducibles, in the target irreducible basis.

    class_map sends each target class index to the source class
    containing its representatives."""
    solver = basis_solver(target)
    classes = [class_map[c] for c in range(len(target.class_sizes))]
    gens = [decompose_in_basis(solver, [chi[c] for c in classes])
            for chi in source.characters]
    return Lattice(len(target.characters), gens)


PARITY_RANGE = range(-8, 9)


def parity_sweep(lattice, direction):
    """Membership of each multiple k in `PARITY_RANGE` of a dict vector."""
    out = []
    for k in PARITY_RANGE:
        ok, _ = lattice.membership({j: k * x for j, x in direction.items()})
        out.append((k, ok))
    return out


def _dense(vec, n):
    """The list of n entries of a dict vector, for a report."""
    return [vec.get(j, 0) for j in range(n)]


def _center_parity(table):
    """The restriction of a table to C2, whose classes e and s are the
    table's e and s2: the image lattice, its basis rows for a report,
    the parity sweep of the sign character, and whether exactly its
    even multiples are hit."""
    lat = restriction_image(table, C2, {C2.class_of["e"]: table.class_of["e"],
                                       C2.class_of["s"]: table.class_of["s2"]})
    sweep = parity_sweep(lat, {1: 1})
    return (lat, [_dense(row, lat.n) for row in lat.basis], sweep,
            all(ok == (k % 2 == 0) for k, ok in sweep))


# --- exact integer check of the explicit representation ---

def mat2_mul(m, n):
    """The product of two 2x2 integer matrices."""
    return [[a * b + c * d for b, d in zip(*n)] for a, c in m]


I2 = [[1, 0], [0, 1]]
NEG_I2 = [[-1, 0], [0, -1]]
TAU_SIGMA = [[0, -1], [1, 0]]    # the quarter turn
TAU_EPSILON = [[1, 0], [0, -1]]  # the reflection in the first axis


def verify_tau():
    """Identities of the faithful 2-dimensional dihedral representation:
    the rotation generator has order 4 and squares to minus the
    identity, the reflection is an involution inverting the rotation,
    and the restriction to the center has character twice the sign."""
    s2 = mat2_mul(TAU_SIGMA, TAU_SIGMA)
    s4 = mat2_mul(s2, s2)
    e2 = mat2_mul(TAU_EPSILON, TAU_EPSILON)
    conj = mat2_mul(mat2_mul(TAU_EPSILON, TAU_SIGMA), TAU_EPSILON)
    sigma_inv = mat2_mul(s2, TAU_SIGMA)  # sigma^3
    checks = {
        "sigma_order_four": s4 == I2,
        "epsilon_involution": e2 == I2,
        "dihedral_relation": conj == sigma_inv,
        "center_acts_as_minus_identity": s2 == NEG_I2,
        "center_character_is_twice_sign": s2[0][0] + s2[1][1] == -2,
    }
    return {"checks": checks, "ok": all(checks.values())}


def lemma_d8_report():
    """Restriction from the dihedral group of order 8 to its center:
    the sign character is hit exactly by even multiples."""
    lat, basis, sweep, ok_sweep = _center_parity(D8)
    in2, cert = lat.membership({1: 2})
    # the certificate must be the class of the 2-dimensional irreducible
    cert_is_tau = bool(in2) and cert == {4: 1}
    tau = verify_tau()
    return {
        "lattice_basis": basis,
        "parity_sweep": sweep,
        "parity_ok": ok_sweep,
        "two_lambda_certificate": (_dense(cert, lat.generator_count)
                                   if in2 else cert),
        "certificate_is_tau": cert_is_tau,
        "tau_identities": tau,
        "ok": ok_sweep and cert_is_tau and tau["ok"],
    }


def lemma_c4_real_report():
    """Real restriction from C4 to its index-two subgroup: the image is
    the span of the trivial character and twice the sign character."""
    lat, basis, sweep, ok_sweep = _center_parity(C4_REAL)
    matches = lat.basis == Lattice(2, [{0: 1}, {1: 2}]).basis
    return {
        "lattice_basis": basis,
        "lattice_matches_tr_2lambda": matches,
        "parity_sweep": sweep,
        "parity_ok": ok_sweep,
        "ok": ok_sweep and matches,
    }
