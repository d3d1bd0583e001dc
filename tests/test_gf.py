import random

import pytest

from rackforge.gf import make_field, primitive_element


FIELD_SIZES = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27)


def test_make_field_rejects_non_prime_powers():
    for q in (1, 6, 10, 12, 15, 100):
        with pytest.raises(ValueError):
            make_field(q)


def test_field_has_q_distinct_elements():
    # the codes 0..q-1 are q distinct elements: adding any a, or multiplying
    # by any nonzero a, permutes them
    for q in FIELD_SIZES:
        field = make_field(q)
        assert field.q == field.s**field.a == q
        codes = set(range(q))
        for a in range(q):
            assert {field.add(a, b) for b in range(q)} == codes
            if a:
                assert {field.mul(a, b) for b in range(q)} == codes


def test_known_moduli():
    assert make_field(8).modulus_string() == "x^3 + x + 1"
    assert make_field(4).modulus_string() == "x^2 + x + 1"
    assert make_field(9).modulus_string() == "x^2 + 1"
    assert make_field(7).modulus_string() == "x"


def test_primitive_element_generates_everything():
    for q in FIELD_SIZES:
        field = make_field(q)
        g = primitive_element(field)
        powers = {field.pow(g, n) for n in range(q - 1)}
        assert powers == set(range(1, q))
        # the least such code
        assert all(
            len({field.pow(h, n) for n in range(q - 1)}) < q - 1 for h in range(1, g)
        )


def test_field_axioms_on_samples():
    rng = random.Random(21)
    for q in FIELD_SIZES:
        field = make_field(q)
        add, mul = field.add, field.mul
        for _ in range(150):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            assert add(a, 0) == a
            assert mul(a, 1) == a
            if b:
                assert mul(mul(a, field.inv(b)), b) == a
                assert mul(b, field.inv(b)) == 1


def test_frobenius_is_additive():
    # (a + b)^s = a^s + b^s in characteristic s
    for q in (4, 8, 9, 16, 27):
        field = make_field(q)
        s = field.s
        for a in range(q):
            for b in range(q):
                assert field.pow(field.add(a, b), s) == field.add(
                    field.pow(a, s), field.pow(b, s)
                )


def test_pow_and_division_errors():
    field = make_field(9)
    with pytest.raises(ZeroDivisionError):
        field.inv(0)
    with pytest.raises(ZeroDivisionError):
        field.pow(0, -1)


def test_fermat_little_theorem():
    for q in FIELD_SIZES:
        field = make_field(q)
        for a in range(1, q):
            assert field.pow(a, q - 1) == 1
