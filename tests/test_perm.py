import random

import pytest
from hypothesis import given, strategies as st

from rackforge.perm import (
    Permutation,
    compose,
    conjugate,
    format_cycles,
    parse_cycles,
)


def random_permutation(degree, rng):
    images = list(range(degree))
    rng.shuffle(images)
    return Permutation(images)


def test_identity_and_cycle_basics():
    e = Permutation.identity(5)
    assert e.order() == 1
    assert e.support() == ()
    c = Permutation.cycle([1, 2, 3], 5)
    assert c(1) == 2 and c(2) == 3 and c(3) == 1 and c(4) == 4
    assert c.order() == 3
    assert c.support() == (1, 2, 3)


def test_cycle_rejects_bad_points():
    # a repeated point would silently give a shorter cycle: (1 2 1 2) is not (1 2)
    for points in ([1, 2, 1, 2], [1, 1], [3, 1, 2, 3]):
        with pytest.raises(ValueError):
            Permutation.cycle(points, 4)
    with pytest.raises(ValueError):
        Permutation.cycle([1, 5], 4)


def test_compose_applies_right_factor_first():
    a = Permutation.cycle([1, 2, 3], 3)
    assert compose(a, a) == Permutation.cycle([1, 3, 2], 3)
    assert a * a == a**2


def test_square_of_three_cycle():
    a = parse_cycles("(1 2 3)", 3)
    assert format_cycles(a * a) == "(1 3 2)"


def test_parity_values():
    assert Permutation.cycle([1, 2], 4).parity() == -1
    assert Permutation.cycle([1, 2, 3], 4).parity() == 1
    assert Permutation.identity(4).parity() == 1


def test_inverse_and_power():
    rng = random.Random(1)
    for _ in range(200):
        g = random_permutation(8, rng)
        assert g * g.inverse() == Permutation.identity(8)
        assert g**0 == Permutation.identity(8)
        assert g**-1 == g.inverse()
        assert g ** g.order() == Permutation.identity(8)


def _tuple_compose(a, b):
    return tuple(a[b[i]] for i in range(len(b)))


def _tuple_inverse(a):
    return tuple(sorted(range(len(a)), key=a.__getitem__))


def test_kernel_matches_tuple_formulas():
    # products, inverses, conjugates and powers skip the bijection check,
    # so each is held against a formula written apart from the kernel
    rng = random.Random(41)
    for degree in list(range(1, 31)) + [300]:
        for _ in range(4):
            a = random_permutation(degree, rng)
            b = random_permutation(degree, rng)
            x, y = a.images, b.images
            assert compose(a, b).images == (a * b).images == _tuple_compose(x, y)
            assert a.inverse().images == _tuple_inverse(x)
            expected = _tuple_compose(_tuple_compose(x, y), _tuple_inverse(x))
            assert conjugate(a, b).images == expected
            power = tuple(range(degree))
            for k in range(1, 6):
                power = _tuple_compose(power, x)
                assert (a**k).images == power
                assert (a**-k).images == _tuple_inverse(power)
            assert a.extend(degree + 2).images == x + (degree, degree + 1)
            for result in (a * b, a.inverse(), conjugate(a, b), a**3, a**-2):
                assert Permutation(result.images) == result
        with pytest.raises(ValueError):
            compose(a, Permutation.identity(degree + 1))
        with pytest.raises(ValueError):
            conjugate(a, Permutation.identity(degree + 1))


def test_parity_is_multiplicative():
    rng = random.Random(2)
    for _ in range(500):
        a = random_permutation(7, rng)
        b = random_permutation(7, rng)
        assert (a * b).parity() == a.parity() * b.parity()


def test_inverse_of_product_reverses_factors():
    rng = random.Random(3)
    for _ in range(500):
        a = random_permutation(9, rng)
        b = random_permutation(9, rng)
        assert (a * b).inverse() == b.inverse() * a.inverse()


def test_conjugation_preserves_cycle_type():
    rng = random.Random(4)
    for _ in range(500):
        g = random_permutation(8, rng)
        x = random_permutation(8, rng)
        lengths = sorted(map(len, conjugate(g, x).cycles(include_fixed=True)))
        assert lengths == sorted(map(len, x.cycles(include_fixed=True)))


def test_conjugate_of_cycle_maps_points():
    rng = random.Random(5)
    for _ in range(200):
        g = random_permutation(8, rng)
        x = Permutation.cycle([1, 2, 3, 4, 5], 8)
        y = conjugate(g, x)
        for a in range(1, 9):
            assert y(g(a)) == g(x(a))


def test_extend_keeps_mapping():
    c = Permutation.cycle([1, 2, 3], 3)
    e = c.extend(6)
    assert e.degree == 6
    assert e(1) == 2 and e(5) == 5


def test_extend_cannot_shrink():
    with pytest.raises(ValueError):
        Permutation.identity(5).extend(3)


def test_restricted_to_relabels():
    x = Permutation.cycle([2, 4, 6], 7)
    r = x.restricted_to((2, 4, 6))
    assert r.degree == 3
    assert r == Permutation.cycle([1, 2, 3], 3)


def test_restricted_to_requires_closure():
    x = Permutation.cycle([1, 2, 3], 5)
    with pytest.raises(ValueError):
        x.restricted_to((1, 2))


def test_parse_format_roundtrip():
    rng = random.Random(6)
    for _ in range(300):
        g = random_permutation(9, rng)
        assert parse_cycles(format_cycles(g), 9) == g


def test_parse_rejects_bad_text():
    with pytest.raises(ValueError):
        parse_cycles("(1 2", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1 2)(2 3)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1 9)", 4)


def test_json_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        g = random_permutation(6, rng)
        assert Permutation.from_json_dict(g.to_json_dict()) == g


@pytest.mark.parametrize(
    "data",
    [
        {"degree": 3, "images": [True, 3, 2]},
        {"degree": True, "images": [1]},
        {"degree": 3.0, "images": [1, 2, 3]},
        {"degree": 3, "images": [1.0, 2.0, 3.0]},
        {"degree": 3, "images": "123"},
        {"degree": 2, "images": {"1": 2, "2": 1}},
        {"images": [1, 2]},
        {"degree": 2},
        [{"degree": 1, "images": [1]}],
        "(1 2)",
        None,
    ],
)
def test_from_json_rejects_malformed_input(data):
    with pytest.raises(ValueError):
        Permutation.from_json_dict(data)


def test_order_is_lcm_of_cycle_lengths():
    g = parse_cycles("(1 2 3)(4 5)", 6)
    assert g.order() == 6


@given(st.permutations(list(range(6))), st.permutations(list(range(6))), st.permutations(list(range(6))))
def test_composition_associative(a, b, c):
    x, y, z = Permutation(a), Permutation(b), Permutation(c)
    assert (x * y) * z == x * (y * z)


@given(st.permutations(list(range(7))))
def test_double_inverse(images):
    g = Permutation(images)
    assert g.inverse().inverse() == g
