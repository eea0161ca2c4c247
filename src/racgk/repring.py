"""Exact arithmetic in representation rings of elementary abelian
2-groups.

The group attached to a clique J is the direct sum of one C2 per member
of J.  Its representation ring is the integral group ring of the dual
group: free on monomials indexed by subsets K of J, with monomial
product the symmetric difference (each generator squares to 1).  Both
monomials and group elements are encoded as bitmasks over the global
vertex order.
"""

from math import gcd

from .graphs import submasks
from .intlinalg import Combination, accumulate


class RepRingError(ValueError):
    pass


class RepRingElement(Combination):
    """Sparse integer combination of character monomials of (C2)^J.

    `ambient` is the bitmask of J; `coeffs` maps monomial masks
    (subsets of the ambient) to nonzero integers.
    """

    __slots__ = ("ambient",)
    error = RepRingError

    def __init__(self, ambient, coeffs):
        self.ambient = ambient
        self.coeffs = {}
        for k, c in coeffs.items():
            if k & ~ambient:
                raise RepRingError(
                    "monomial %#x is not a subset of the ambient %#x"
                    % (k, ambient))
            if c:
                self.coeffs[k] = c

    @classmethod
    def zero(cls, ambient):
        return cls(ambient, {})

    @classmethod
    def one(cls, ambient):
        return cls(ambient, {0: 1})

    @classmethod
    def monomial(cls, ambient, mask, coeff=1):
        return cls(ambient, {mask: coeff})

    def __repr__(self):
        return "RepRingElement(ambient=%#x, %r)" % (self.ambient, self.coeffs)


def rep_multiply(a, b):
    """Group-ring product: monomials multiply by symmetric difference."""
    a._check(b)
    out = accumulate((k ^ l, ck * cl) for k, ck in a.coeffs.items()
                     for l, cl in b.coeffs.items())
    return RepRingElement(a.ambient, out)


def restriction(a, target):
    """Restrict to the subgroup of a sub-clique: monomials intersect."""
    if target & ~a.ambient:
        raise RepRingError("target %#x is not a subset of the ambient %#x"
                           % (target, a.ambient))
    out = accumulate((k & target, c) for k, c in a.coeffs.items())
    return RepRingElement(target, out)


def _group_elements(ambient):
    """Bitmask supports of the elements of (C2)^J, in mask order."""
    return sorted(submasks(ambient))


def character_evaluation(a):
    """Value of the virtual character at every group element.

    Component at g is sum over monomials K of coeff(K) * (-1)^|K & g|.
    This is an injective ring homomorphism into the pointwise-product
    ring Z^(2^|J|)."""
    values = []
    for g in _group_elements(a.ambient):
        total = 0
        for k, c in a.coeffs.items():
            sign = -1 if bin(k & g).count("1") % 2 else 1
            total += sign * c
        values.append(total)
    return values


def character_interpolation(ambient, values):
    """Inverse of character_evaluation; errors when the value vector is
    not a virtual character (non-integral inverse-transform coefficient).
    The coefficient of monomial K is the sum of the signed values
    (-1)^|K & g| chi(g) over the group, divided by its order, in
    integers; a refusal names the reduced fraction."""
    elements = _group_elements(ambient)
    if len(values) != len(elements):
        raise RepRingError("expected %d values, got %d"
                           % (len(elements), len(values)))
    order = len(elements)
    coeffs = {}
    for k in elements:
        total = 0
        for g, val in zip(elements, values):
            total += -val if bin(k & g).count("1") % 2 else val
        coeff, remainder = divmod(total, order)
        if remainder:
            common = gcd(total, order)
            raise RepRingError(
                "value vector is not a virtual character: coefficient of "
                "monomial %#x would be %d/%d"
                % (k, total // common, order // common))
        if coeff:
            coeffs[k] = coeff
    return RepRingElement(ambient, coeffs)


def to_json_dict(a, graph):
    return {
        "ambient": list(graph.subset_labels(a.ambient)),
        "terms": [{"monomial": list(graph.subset_labels(k)),
                   "coeff": str(c)}
                  for k, c in sorted(a.coeffs.items())],
    }


def from_json_dict(data, graph):
    ambient = graph.mask_of(data["ambient"])
    coeffs = accumulate((graph.mask_of(term["monomial"]), int(term["coeff"]))
                        for term in data["terms"])
    return RepRingElement(ambient, coeffs)
