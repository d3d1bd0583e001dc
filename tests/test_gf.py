import random

import pytest

from rackforge.gf import make_field, primitive_element


FIELD_SIZES = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27)


def test_make_field_rejects_non_prime_powers():
    for q in (1, 6, 10, 12, 15, 100):
        with pytest.raises(ValueError):
            make_field(q)


def test_field_has_q_distinct_elements():
    for q in FIELD_SIZES:
        field = make_field(q)
        elems = field.elements()
        assert len(elems) == q
        assert len(set(elems)) == q


def test_index_bijection_roundtrip():
    for q in FIELD_SIZES:
        field = make_field(q)
        for i in range(1, q + 1):
            assert field.element_index(field.element_at(i)) == i
        assert field.element_index(field.zero()) == 1


def test_known_moduli():
    assert make_field(8).modulus_string() == "x^3 + x + 1"
    assert make_field(4).modulus_string() == "x^2 + x + 1"
    assert make_field(9).modulus_string() == "x^2 + 1"
    assert make_field(7).modulus_string() == "x"


def test_primitive_element_generates_everything():
    for q in FIELD_SIZES:
        field = make_field(q)
        g = primitive_element(field)
        assert g.multiplicative_order() == q - 1
        powers = set()
        acc = field.one()
        for _ in range(q - 1):
            powers.add(acc)
            acc = acc * g
        assert len(powers) == q - 1


def test_field_axioms_on_samples():
    rng = random.Random(21)
    for q in FIELD_SIZES:
        field = make_field(q)
        elems = field.elements()
        for _ in range(150):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + field.zero() == a
            assert a * field.one() == a
            assert a - a == field.zero()
            if not b.is_zero():
                assert (a / b) * b == a
                assert b * b.inverse() == field.one()


def test_negation_and_subtraction():
    field = make_field(5)
    a = field.element((3,))
    assert (-a) + a == field.zero()
    assert a - field.element((1,)) == field.element((2,))


def test_frobenius_is_additive():
    # (a + b)^s = a^s + b^s in characteristic s
    for q in (4, 8, 9, 16, 27):
        field = make_field(q)
        s = field.s
        elems = field.elements()
        for a in elems:
            for b in elems:
                assert (a + b) ** s == a**s + b**s


def test_pow_and_division_errors():
    field = make_field(9)
    z = field.zero()
    with pytest.raises(ZeroDivisionError):
        field.one() / z
    with pytest.raises(ZeroDivisionError):
        z.inverse()
    with pytest.raises(ValueError):
        z.multiplicative_order()


def test_fermat_little_theorem():
    for q in FIELD_SIZES:
        field = make_field(q)
        for a in field.elements():
            if not a.is_zero():
                assert a ** (q - 1) == field.one()


def test_mixed_field_arithmetic_rejected():
    a = make_field(4).one()
    b = make_field(8).one()
    with pytest.raises(ValueError):
        a + b
