import re
from fractions import Fraction
from functools import reduce
from math import comb
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import gammatri
from gammatri.poly import Poly1, Poly2, binom, binomial_row


def test_binomial_square():
    p = Poly1({0: 1, 1: 1})
    assert p * p == Poly1({0: 1, 1: 2, 2: 1})


def test_additive_identity():
    p = Poly2({(0, 0): 1, (2, 1): -3})
    assert p + Poly2.zero() == p
    assert p + 0 == p


def test_one_plus_xy_cubed_by_repeated_mul():
    q = Poly2({(0, 0): 1, (1, 1): 1})
    cube = q * q * q
    assert cube == Poly2({(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1})
    assert cube == Poly2({(k, k): c for k, c in enumerate(binomial_row(3, 1))})


@pytest.mark.parametrize("a, b, want", [
    (4, 2, 6),
    (3, -1, 0),
    (-1, -1, 1),
    (-1, 0, 0),
    (0, 0, 1),
    (2, 5, 0),
    (-3, -2, 0),
    (10, 3, 120),
])
def test_binom_values(a, b, want):
    assert binom(a, b) == want


@given(st.integers(1, 80), st.integers(0, 80))
def test_binom_pascal(a, b):
    if b <= a:
        assert binom(a, b) == binom(a - 1, b - 1) + binom(a - 1, b)


@given(st.integers(0, 40), st.integers(0, 40))
def test_binom_matches_comb(a, b):
    if a >= b >= 0:
        assert binom(a, b) == comb(a, b)


small_poly1 = st.builds(
    Poly1,
    st.dictionaries(st.integers(0, 3), st.integers(-9, 9), max_size=5))
small_poly2 = st.builds(
    Poly2,
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-9, 9),
        max_size=5,
    ))


@given(st.one_of(st.tuples(small_poly1, small_poly1, small_poly1),
                 st.tuples(small_poly2, small_poly2, small_poly2)))
def test_ring_axioms(abc):
    a, b, c = abc
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c
    assert a - a == type(a).zero()
    assert a - b == a + (-b) and (a - b) + b == a
    assert 3 - a == -(a - 3) == 3 + (-a)


# test-only oracles: a plain dict total that shares no code with the
# package, and reduce with + and * as the running totals were written

def dict_total(ps):
    out = {}
    for p in ps:
        for k, c in p.items():
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def term_products(a, b):
    return [Poly2({(i1 + i2, j1 + j2): c1 * c2})
            for (i1, j1), c1 in a.items() for (i2, j2), c2 in b.items()]


@given(st.one_of(st.lists(small_poly1, max_size=6),
                 st.lists(small_poly2, max_size=6)))
def test_sum_matches_oracles(ps):
    cls = Poly1 if ps and isinstance(ps[0], Poly1) else Poly2
    total = cls.sum(ps)
    assert dict(total.items()) == dict_total(ps)
    assert total == reduce(add, ps, cls.zero())
    # every term cancels
    assert cls.sum(ps + [-p for p in reversed(ps)]).is_zero()


@given(small_poly2, small_poly2)
def test_mul_matches_term_products(a, b):
    terms = term_products(a, b)
    assert dict((a * b).items()) == dict_total(terms)
    assert a * b == reduce(add, terms, Poly2.zero()) == Poly2.sum(terms)
    # the product cancels against its negation
    assert (a * b + (-a) * b).is_zero()


@given(small_poly1)
def test_poly1_never_equals_poly2(p):
    assert p != p.to_poly2() and p.to_poly2() != p


def test_no_zero_coefficients_stored():
    p = Poly1({0: 1, 1: 2}) - Poly1({1: 2})
    assert p.items() == [(0, 1)]
    assert p.degree() == 0
    assert Poly1().degree() == -1


def test_operators_take_int_scalars_only():
    p = Poly1({0: 1, 2: 3})
    for bad in (Fraction(1, 2), 0.5):
        with pytest.raises(TypeError):
            p * bad
        with pytest.raises(TypeError):
            p + bad
    assert p != Fraction(1, 2)


def test_package_is_integer_only():
    src = Path(gammatri.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert not re.search(r"^\s*(from|import)\s+fractions\b", text, re.M), path.name


def test_specialize_y():
    p = Poly2({(0, 0): 1, (1, 1): 2, (2, 2): 1})
    assert p.substitute_y(1) == Poly1({0: 1, 1: 2, 2: 1})
    assert Poly2({(2, 1): 1}).substitute_y("x") == Poly1({3: 1})
    # y := 0 is coeff_of_y(0), not a substitution
    assert p.coeff_of_y(0) == Poly1({0: 1})
    for value in (0, 2):
        with pytest.raises(ValueError):
            p.substitute_y(value)


def substituted(p, value):
    """Test-only oracle: y := 1 or x, one monomial at a time."""
    return Poly1.sum(Poly1({i + j if value == "x" else i: c})
                     for (i, j), c in p.items())


def test_specialize_y_adds_up_colliding_exponents():
    x_plus_y = Poly2({(1, 0): 1, (0, 1): 1})
    xy_plus_x = Poly2({(1, 1): 1, (1, 0): 1})
    assert x_plus_y.substitute_y("x") == Poly1({1: 2})
    assert xy_plus_x.substitute_y(1) == Poly1({1: 2})
    assert Poly2({(1, 0): 1, (0, 1): -1}).substitute_y("x").is_zero()


@given(small_poly2, st.sampled_from([1, "x"]))
def test_specialize_y_matches_its_oracle(p, value):
    assert p.substitute_y(value) == substituted(p, value)


def test_constructors_drop_zero_entries():
    assert Poly1({0: 0, 2: 5, 3: 0}).items() == [(2, 5)]
    assert Poly2({(0, 0): 0, (1, 2): -1}).items() == [((1, 2), -1)]
    assert Poly1({1: 0}).is_zero() and Poly2({(4, 4): 0}).is_zero()


@pytest.mark.parametrize("cls, coeffs, message", [
    (Poly1, {-1: 0}, "negative exponent -1"),
    (Poly1, {2: 1, -3: 0, -1: 5}, "negative exponent -3"),
    (Poly2, {(0, -1): 0}, r"negative exponent pair \(0, -1\)"),
    (Poly2, {(1, 1): 1, (-2, 0): 0, (0, -5): 7},
     r"negative exponent pair \(-2, 0\)"),
])
def test_negative_key_raises_even_with_zero_coefficient(cls, coeffs, message):
    with pytest.raises(ValueError, match=message):
        cls(coeffs)


def test_constructors_take_a_mapping_only():
    with pytest.raises(TypeError):
        Poly1([(1, 2)])
    with pytest.raises(TypeError):
        Poly2([((0, 0), 1)])


@given(st.one_of(
    st.tuples(st.just(Poly1),
              st.dictionaries(st.integers(0, 6), st.integers(-2, 2))),
    st.tuples(st.just(Poly2),
              st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                              st.integers(-2, 2)))))
def test_constructor_keeps_the_nonzero_part(case):
    cls, d = case
    assert dict(cls(d).items()) == {k: c for k, c in d.items() if c}


def test_coeff_of():
    assert Poly2({(0, 0): 1, (1, 1): 3}).coeff(1, 1) == 3
    assert Poly2({(0, 0): 1}).coeff(5, 0) == 0


def test_binomial_powers():
    assert binomial_row(2, 1) == (1, 2, 1)
    assert binomial_row(2, -1) == (1, -2, 1)
    assert binomial_row(3, 2) == (1, 6, 12, 8)
    assert binomial_row(0, 1) == (1,)
    assert binomial_row(-1, 1) == ()


@given(st.integers(0, 40), st.sampled_from([-1, 1, 2]))
def test_binomial_row_is_the_expanded_power(n, s):
    row = binomial_row(n, s)
    assert row == tuple(comb(n, k) * s**k for k in range(n + 1))
    assert Poly1(dict(enumerate(row))) == Poly1({0: 1, 1: s}) ** n
    assert binomial_row(n, s) is row  # cached, not rebuilt


def test_serialization_round_trip():
    p = Poly2({(0, 0): 12, (3, 1): -7})
    assert p.to_triples() == [[0, 0, "12"], [3, 1, "-7"]]
    assert Poly2({(i, j): int(c) for i, j, c in p.to_triples()}) == p
    q = Poly1({0: 1, 4: 10**40})
    assert Poly1({int(e): int(c) for e, c in q.to_pairs()}) == q


def test_big_integers_stay_exact():
    p = Poly1({1: 10**30})
    assert (p * p).coeff(2) == 10**60


def test_str_rendering():
    assert str(Poly2({(0, 2): 1, (1, 0): -1})) == "y^2 - x"
    assert str(Poly1()) == "0"
