import os
import random
import subprocess
import sys

import pytest

from racgk.repring import (RepRingElement, RepRingError, character_evaluation,
                           character_interpolation, rep_multiply,
                           restriction)

S = 0b001
T = 0b010
U = 0b100
ST = S | T
STU = S | T | U
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def random_element(rng, ambient, terms=4):
    coeffs = {}
    for _ in range(rng.randint(1, terms)):
        k = rng.getrandbits(3) & ambient
        coeffs[k] = coeffs.get(k, 0) + rng.randint(-5, 5)
    return RepRingElement(ambient, coeffs)


def test_generator_squares_to_one():
    s = RepRingElement.monomial(S, S)
    assert rep_multiply(s, s) == RepRingElement.one(S)


def test_symmetric_difference_product():
    st = RepRingElement.monomial(ST, ST)
    t = RepRingElement.monomial(ST, T)
    assert rep_multiply(st, t) == RepRingElement.monomial(ST, S)


def test_difference_of_squares_vanishes():
    one = RepRingElement.one(S)
    s = RepRingElement.monomial(S, S)
    assert rep_multiply(one + s, one - s) == RepRingElement.zero(S)


def test_multiply_ambient_mismatch():
    with pytest.raises(RepRingError, match="ambient"):
        rep_multiply(RepRingElement.one(S), RepRingElement.one(T))


def test_restriction_of_product_monomial():
    st = RepRingElement.monomial(ST, ST)
    assert restriction(st, S) == RepRingElement.monomial(S, S)


def test_restriction_to_ambient_is_identity():
    a = RepRingElement(ST, {0: 2, S: -1, ST: 3})
    assert restriction(a, ST) == a


def test_restriction_sums_collisions():
    a = RepRingElement(ST, {0: 1, T: 1})
    assert restriction(a, S) == RepRingElement(S, {0: 2})


def test_character_values():
    assert character_evaluation(RepRingElement.one(S)) == [1, 1]
    assert character_evaluation(RepRingElement.monomial(S, S)) == [1, -1]
    assert character_evaluation(RepRingElement.monomial(ST, ST)) == [1, -1, -1, 1]


def test_character_interpolation_examples():
    assert character_interpolation(S, [1, 1]) == RepRingElement.one(S)
    assert character_interpolation(S, [2, 0]) == RepRingElement(S, {0: 1, S: 1})
    with pytest.raises(RepRingError, match="not a virtual character"):
        character_interpolation(S, [1, 0])


def test_a_refusal_names_the_reduced_fraction():
    # the coefficient, summed in integers, is written as a reduced
    # fraction with its sign on the numerator
    cases = [(S, [1, 0], 0, "1/2"), (ST, [1, 0, 0, 0], 0, "1/4"),
             (ST, [2, 0, 0, 0], 0, "1/2"), (ST, [0, 0, 0, -1], 0, "-1/4"),
             (STU, [3, 0, 0, 0, 0, 0, 0, 3], 0, "3/4")]
    for ambient, values, monomial, fraction in cases:
        with pytest.raises(RepRingError) as refusal:
            character_interpolation(ambient, values)
        assert str(refusal.value) == (
            "value vector is not a virtual character: coefficient of "
            "monomial %#x would be %s" % (monomial, fraction))


def test_the_package_loads_no_fraction_arithmetic():
    # every coefficient is an int: importing racgk loads neither
    # fractions nor decimal
    code = ("import sys, racgk; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=SRC))
    assert out.stdout == "[]\n"


def test_evaluation_is_ring_homomorphism():
    rng = random.Random(3)
    for _ in range(200):
        a = random_element(rng, STU)
        b = random_element(rng, STU)
        pointwise = [x * y for x, y in zip(character_evaluation(a),
                                           character_evaluation(b))]
        assert character_evaluation(rep_multiply(a, b)) == pointwise


def test_interpolation_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        a = random_element(rng, STU)
        values = character_evaluation(a)
        assert character_interpolation(STU, values) == a
        assert character_evaluation(character_interpolation(STU, values)) == values


def test_restriction_is_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(200):
        a = random_element(rng, STU)
        b = random_element(rng, STU)
        assert restriction(rep_multiply(a, b), ST) == rep_multiply(
            restriction(a, ST), restriction(b, ST))


def test_restriction_transitivity():
    rng = random.Random(9)
    for _ in range(200):
        a = random_element(rng, STU)
        assert restriction(restriction(a, ST), S) == restriction(a, S)


def test_multiplication_commutative_associative_unital():
    rng = random.Random(11)
    one = RepRingElement.one(STU)
    for _ in range(100):
        a = random_element(rng, STU)
        b = random_element(rng, STU)
        c = random_element(rng, STU)
        assert rep_multiply(a, b) == rep_multiply(b, a)
        assert rep_multiply(rep_multiply(a, b), c) == rep_multiply(
            a, rep_multiply(b, c))
        assert rep_multiply(a, one) == a
