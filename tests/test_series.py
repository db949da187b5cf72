import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gammatri.coxeter import (
    gamma_triangle_D,
    gamma_triangle_diagram,
    reference_tables,
    standard_diagram,
)
from gammatri.poly import Poly2, binom, quotient
from gammatri.series import (
    G_closed,
    G_sum,
    TruncSeries,
    binomial_identity_check,
    carlitz_convolution_check,
    eq_c_series,
    g_base,
    g_closed,
    g_sum,
    gB_via_substitution,
    substitute_x_over_t_times_t,
    substitute_x_to_xt,
    times_yt,
    two_minus_theta,
    verify_identities,
)
from gammatri import packed, series
from gammatri.packed import (_first_nonzero, _norms, _pack, _packed_product, _packed_sum,
                             _product_bound, _sum_bound, _unpack)


def xp(mapping):
    return Poly2({(k, 0): c for k, c in mapping.items()})


def first_nonzero(s, through):
    """(n, coefficient) of the first nonzero term of s with n <= through,
    or None."""
    return next(((n, c) for n, c in enumerate(s.coeffs[:through + 1])
                 if not c.is_zero()), None)


def is_zero_through(s, through):
    return first_nonzero(s, through) is None


def g_base_alt(order):
    """g computed as (1-t) sqrt(1 - 4x (t/(1-t))^2)."""
    one_minus_t = TruncSeries.from_map({0: 1, 1: -1}, order)
    u = TruncSeries.from_map({1: 1}, order) * one_minus_t.inverse()
    radicand = TruncSeries.one(order) - (u * u) * xp({1: 4})
    return one_minus_t * radicand.sqrt()


# test-only oracles: sparse running-total loops for the product, inverse
# and sqrt, which the packed kernel must match exactly

def sparse_product(a, b):
    n = min(a.order, b.order)
    out = [Poly2.zero()] * n
    for i, p in enumerate(a.coeffs[:n]):
        if p.is_zero():
            continue
        for j in range(n - i):
            q = b.coeffs[j]
            if not q.is_zero():
                out[i + j] = out[i + j] + p * q
    return TruncSeries(n, out)


def sparse_inverse(s):
    v = s.coeff(0).coeff(0, 0)
    out = [Poly2({(0, 0): v})]
    for n in range(1, s.order):
        acc = Poly2.zero()
        for k in range(1, n + 1):
            acc = acc + s.coeffs[k] * out[n - k]
        out.append(acc.scale(-v))
    return TruncSeries(s.order, out)


def sparse_sqrt(s):
    """c_n - sum over all 0 < k < n of r_k r_(n-k), halved; no symmetry."""
    out = [Poly2.one()]
    for n in range(1, s.order):
        acc = s.coeffs[n]
        for k in range(1, n):
            acc = acc - out[k] * out[n - k]
        if any(c % 2 for _, c in acc.items()):
            raise ArithmeticError(f"odd coefficient of t^{n}")
        out.append(Poly2({key: c // 2 for key, c in acc.items()}))
    return TruncSeries(s.order, out)


# test-only oracles for the defining sums: the (k, m, l)-indexed coefficient
# formulas of x^k t^(2k+m) and x^k y^l t^(2k+m+l), written out apart from
# coxeter's local gamma and closed_triangle, and GD assembled rank by rank
# with its own D2 case

def a_local_coeff(k, m):
    return quotient(binom(2 * k + m, k) * binom(k + m - 1, k - 1), k + m + 1)


def b_local_coeff(k, m):
    return binom(2 * k + m, k) * binom(k + m - 1, k - 1)


def d_local_coeff(k, m):
    return quotient((2 * k + m - 2) * binom(2 * k - 2, k - 1)
                    * binom(2 * k + m - 2, 2 * k - 2), k)


def a_triangle_coeff(k, m, l):
    return quotient((l + 1) * binom(l + 2 * k + m, k) * binom(k + m - 1, k - 1),
                    l + k + m + 1)


def b_triangle_coeff(k, m, l):
    return binom(2 * k + l + m, k) * binom(k + m - 1, k - 1)


def g_sum_oracle(kind, order):
    """gA, gB, gD from their double sums over x^k t^(2k+m)."""
    coeff = {"A": a_local_coeff, "B": b_local_coeff, "D": d_local_coeff}[kind]
    kmin = 1 if kind == "D" else 0
    return TruncSeries(order, [
        xp({k: coeff(k, n - 2 * k) for k in range(kmin, n // 2 + 1)})
        for n in range(order)])


def G_D_assembled(order):
    """sum over n >= 2 of the type D rank n triangle times t^n (rank 2 is
    the disconnected convention y^2, rank 3 matches type A rank 3)."""
    out = {n: gamma_triangle_D(n).to_poly2() for n in range(3, order)}
    if order > 2:
        out[2] = Poly2({(0, 2): 1})
    return TruncSeries.from_map(out, order)


def G_sum_oracle(kind, order):
    """GA, GB from their triple sums over x^k y^l t^(2k+m+l); GD assembled
    rank by rank."""
    if kind == "D":
        return G_D_assembled(order)
    coeff = {"A": a_triangle_coeff, "B": b_triangle_coeff}[kind]
    return TruncSeries(order, [
        Poly2({(k, l): coeff(k, n - 2 * k - l, l)
               for k in range(n // 2 + 1) for l in range(n - 2 * k + 1)})
        for n in range(order)])


@pytest.mark.parametrize("kind", "ABD")
def test_sums_match_the_coefficient_formulas(kind):
    assert g_sum(kind, 40) == g_sum_oracle(kind, 40)
    assert G_sum(kind, 40) == G_sum_oracle(kind, 40)


def test_sqrt_of_one_minus_4xt2():
    s = TruncSeries.from_map({0: 1, 2: xp({1: -4})}, 6).sqrt()
    assert s.coeff(0) == 1
    assert s.coeff(2) == xp({1: -2})
    assert s.coeff(4) == xp({2: -2})
    assert s.coeff(1) == 0 and s.coeff(3) == 0


def test_euler_theta():
    s = TruncSeries.from_map({3: 1}, 5).euler_theta()
    assert s.coeff(3) == 3
    assert s.coeff(0) == 0


def test_d_dt():
    s = TruncSeries.from_map({0: 1, 1: -1}, 5).d_dt()
    assert s.order == 4
    assert s.coeff(0) == -1
    assert all(s.coeff(n) == 0 for n in range(1, 4))


@pytest.mark.parametrize("build, message", [
    (lambda: TruncSeries(2, [1, 2, 3]), "more coefficients than the stated order"),
    (lambda: TruncSeries(2, [1, 2]).truncate(3), "cannot extend a truncated series"),
    (lambda: TruncSeries(1, [1]).d_dt(), "need order >= 2 to differentiate"),
], ids=["too many coefficients", "truncate longer", "d_dt at order 1"])
def test_series_orders_are_never_overstated(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_sqrt_requires_unit_constant():
    with pytest.raises(ValueError):
        TruncSeries.from_map({0: 2}, 4).sqrt()


def test_inverse_requires_scalar_unit():
    with pytest.raises(ValueError):
        TruncSeries.from_map({0: xp({1: 1})}, 4).inverse()
    with pytest.raises(ValueError):
        TruncSeries.from_map({1: 1}, 4).inverse()


small_series = st.builds(
    lambda cs: TruncSeries(8, [Poly2.one()] + [
        Poly2({(k, 0): v for k, v in enumerate(row)}) for row in cs]),
    st.lists(st.lists(st.integers(-3, 3), max_size=3), max_size=7))


@settings(max_examples=60)
@given(small_series)
def test_sqrt_of_a_square_is_its_root(r):
    assert (r * r).sqrt() == r


def test_sqrt_raises_on_an_odd_coefficient():
    with pytest.raises(ArithmeticError, match=r"of t\^1 "):
        TruncSeries.from_map({0: 1, 1: 1}, 4).sqrt()


def test_exact_div_raises_naming_the_t_power():
    s = TruncSeries.from_map({0: 2, 3: xp({1: 4, 2: 6})}, 5)
    assert s.exact_div(2) == TruncSeries.from_map({0: 1, 3: xp({1: 2, 2: 3})}, 5)
    with pytest.raises(ArithmeticError, match=r"of t\^3 "):
        (s + TruncSeries.from_map({3: xp({2: 1})}, 5)).exact_div(2)
    # the gD numerator (g-1)(g-1+t) with an odd constant term
    g = g_base(8)
    num = (g - 1) * (g - 1 + TruncSeries.from_map({1: 1}, 8))
    assert num.exact_div(2).order == 8
    with pytest.raises(ArithmeticError, match=r"of t\^0 "):
        (num + 1).exact_div(2)


def test_coefficient_formulas_divide_exactly():
    assert quotient(-12, 4) == -3
    with pytest.raises(ArithmeticError):
        quotient(7, 2)


def test_inverse_needs_a_unit_constant_term():
    with pytest.raises(ValueError):
        TruncSeries.from_map({0: 2, 1: 1}, 4).inverse()
    s = TruncSeries.from_map({0: -1, 1: xp({1: 3})}, 6)
    assert is_zero_through(s * s.inverse() - 1, 5)


@settings(max_examples=60)
@given(small_series)
def test_inverse_multiplies_to_one(s):
    assert is_zero_through(s * s.inverse() - 1, 7)


@given(small_series, small_series)
def test_subtraction_is_adding_the_negation(a, b):
    assert a - b == a + (-b) and (a - b) + b == a
    x = xp({1: 2})
    assert 1 - a == -(a - 1) == 1 + (-a)
    assert x - a == -(a - x) == x + (-a)
    assert a - b.truncate(5) == (a + (-b.truncate(5)))


# bivariate coefficients with negative and zero entries, wide enough to
# cross the byte and slot boundaries of the packed kernel; an empty dict
# gives a zero coefficient
poly2s = st.dictionaries(st.tuples(st.integers(0, 10), st.integers(0, 3)),
                         st.integers(-2**200, 2**200), max_size=6).map(Poly2)
any_series = st.integers(1, 7).flatmap(
    lambda order: st.lists(poly2s, max_size=order).map(
        lambda cs: TruncSeries(order, cs)))
ONE_PLUS_T = TruncSeries.from_map({0: 1, 1: 1}, 5)
ONE_MINUS_T = TruncSeries.from_map({0: 1, 1: -1}, 5)


@settings(max_examples=150)
@given(any_series, any_series)
@example(ONE_PLUS_T, ONE_MINUS_T)  # the t^1 coefficient cancels to zero
@example(ONE_PLUS_T, -ONE_PLUS_T + ONE_PLUS_T)
def test_product_matches_running_total_oracle(a, b):
    assert a * b == sparse_product(a, b)


def test_product_width_is_tight_at_the_extremes():
    # order 7, constant coefficients: the t^6 digit is a sum of 7 products
    # of -(2^100 - 1) and 2^97 - 1, and the bound is exactly its size,
    # 200 bits, plus a sign bit
    a = [Poly2({(0, 0): -(2**100 - 1)})] * 7
    b = [Poly2({(0, 0): 2**97 - 1})] * 7
    want = sparse_product(TruncSeries(7, a), TruncSeries(7, b))
    extreme = want.coeff(6).coeff(0, 0)
    bound = _product_bound(a, b)
    assert bound == -extreme == 7 * (2**100 - 1) * (2**97 - 1)
    assert bound.bit_length() == 200
    assert TruncSeries(7, a) * TruncSeries(7, b) == want
    assert TruncSeries(7, _packed_product(a, b, 201)) == want
    assert TruncSeries(7, _packed_product(a, b, 200)) != want
    # a bound of 197 bits, not a whole number of bytes: the slots are
    # exactly 198 bits wide, and one bit fewer no longer holds the t^6 digit
    a = [Poly2({(0, 0): -(2**97 - 1)})] * 7
    b = [Poly2({(0, 0): 2**97 - 1})] * 7
    want = sparse_product(TruncSeries(7, a), TruncSeries(7, b))
    assert _product_bound(a, b).bit_length() == 197
    assert TruncSeries(7, a) * TruncSeries(7, b) == want
    assert TruncSeries(7, _packed_product(a, b, 198)) == want
    assert TruncSeries(7, _packed_product(a, b, 197)) != want


def digits(cs):
    return [abs(v) for c in cs for _, v in c.items()]


@settings(max_examples=150)
@given(any_series, any_series)
def test_product_bound_holds_every_digit(a, b):
    n = min(a.order, b.order)
    bound = _product_bound(a.coeffs[:n], b.coeffs[:n])
    assert all(d <= bound for d in digits(sparse_product(a, b).coeffs))
    assert all(d <= bound for d in digits(a.coeffs[:n] + b.coeffs[:n]))


def sum_by_series(terms, sources):
    """The packed sum of the terms (c, a, b, p, q) built with the series
    operators, products by sparse_product, through the sources' order."""
    out = TruncSeries(sources["one"].order)
    for c, a, b, p, q in terms:
        x = sparse_product(sources[p], sources[q])
        out = out + (x * Poly2({(0, a): c})).shift_t(b)
    return out


def first_nonzero_packed(terms, sources):
    return _first_nonzero(terms, {k: s.coeffs for k, s in sources.items()},
                          {k: _norms(s.coeffs) for k, s in sources.items()},
                          sources["one"].order)


def with_one(sources):
    return {**sources, "one": TruncSeries.one(next(iter(sources.values())).order)}


def sum_terms(names):
    """Signed, y- and t-shifted products of two of the named series."""
    name = st.sampled_from(names)
    return st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2),
                              st.integers(0, 2), name, name),
                    min_size=1, max_size=5)


# up to three series of one order, and the series 1, which makes a term of
# one series out of a product
packed_sums = st.integers(1, 7).flatmap(
    lambda order: st.lists(st.lists(poly2s, max_size=order).map(
        lambda cs: TruncSeries(order, cs)), min_size=1, max_size=3)).flatmap(
    lambda series: st.tuples(st.just(with_one(dict(enumerate(series)))),
                             sum_terms([*range(len(series)), "one"])))


@settings(max_examples=150)
@given(packed_sums)
# (1 + t)^2 - (1 + t) - t (1 + t) cancels to zero
@example((with_one({0: ONE_PLUS_T}),
          [(1, 0, 0, 0, 0), (-1, 0, 0, "one", 0), (-1, 0, 1, "one", 0)]))
# y t (1 + t)(1 - t) - y t + y t^3 cancels too, through the y-shifts
@example((with_one({0: ONE_PLUS_T, 1: ONE_MINUS_T}),
          [(1, 1, 1, 0, 1), (-1, 1, 1, "one", "one"), (1, 1, 3, "one", "one")]))
def test_packed_sum_finds_the_first_nonzero_of_the_series_expression(case):
    sources, terms = case
    assert first_nonzero_packed(terms, sources) == \
        first_nonzero(sum_by_series(terms, sources), sources["one"].order - 1)


def test_packed_sum_width_is_tight_at_the_extremes():
    # order 7, constant coefficients at y^1: the t^6 digit of
    # y ab + y a - 2 y t b is -(7AB + A + 2B), A = 2^100 - 1 and B = 2^97 - 1,
    # every term of one sign, and the bound is exactly its size, 200 bits,
    # plus a sign bit
    A, B = 2**100 - 1, 2**97 - 1
    sources = with_one({"a": TruncSeries(7, [-A] * 7), "b": TruncSeries(7, [B] * 7)})
    terms = ((1, 1, 0, "a", "b"), (1, 1, 0, "one", "a"), (-2, 1, 1, "one", "b"))
    want = sum_by_series(terms, sources)
    norms = {k: _norms(s.coeffs) for k, s in sources.items()}
    bound = _sum_bound(terms, norms, 7)
    assert bound == -want.coeff(6).coeff(0, 1) == 7 * A * B + A + 2 * B
    assert bound.bit_length() == 200

    def packed_at(w):
        cs = {k: s.coeffs for k, s in sources.items()}
        return TruncSeries(7, [_unpack(p, w) for p in _packed_sum(terms, cs, 7, w)])

    assert packed_at(201) == want
    assert packed_at(200) != want


def test_identities_read_as_signed_terms():
    assert series._terms("GD - gD - 2yt gA + 2yt one - y2t2 gA - yt gA*GD") == [
        (1, 0, 0, "one", "GD"), (-1, 0, 0, "one", "gD"), (-2, 1, 1, "one", "gA"),
        (2, 1, 1, "one", "one"), (-1, 2, 2, "one", "gA"), (-1, 1, 1, "gA", "GD")]
    assert series._terms("t g*g' - g*g + one - t one") == [
        (1, 0, 1, "g", "g'"), (-1, 0, 0, "g", "g"), (1, 0, 0, "one", "one"),
        (-1, 0, 1, "one", "one")]


def product_bits_by_size(a, b):
    """The slot width from the coefficient sizes: the largest ba_i + bb_i'
    over nonzero pairs (ba, bb the bit lengths of the largest |coefficient|)
    plus the bit length of the summand count n * (min y-degree + 1) *
    (min x-degree + 1), plus a sign bit."""
    n = len(a)
    ba, bb = ([max(digits([c]), default=0).bit_length() for c in cs]
              for cs in (a, b))
    top = max([ba[i] + bb[j] for i in range(n) if ba[i]
               for j in range(n - i) if bb[j]] + ba + bb)
    dx = min(max(c.deg_x() for c in a), max(c.deg_x() for c in b))
    dy = min(max(c.deg_y() for c in a), max(c.deg_y() for c in b))
    return top + (n * (dy + 1) * (dx + 1)).bit_length() + 1


def sum_bits_by_size(terms, sources, n):
    """The slot width of a packed sum from the coefficient sizes: the widest
    term, a term one * X as wide as the largest |coefficient| of X and any
    other as product_bits_by_size without its sign bit, widened by the bits
    of its scalar |c|, plus the bit length of the term count, plus a sign
    bit. For the one term of _packed_product this is product_bits_by_size."""
    bits = []
    for c, _, b, p, q in terms:
        P, Q = (sources[name][:n - b] for name in (p, q))
        size = (max(digits(Q), default=0).bit_length() if p == "one"
                else product_bits_by_size(P, Q) - 1)
        bits.append(size + (abs(c) - 1).bit_length())
    return max(bits) + (len(terms) - 1).bit_length() + 1


def test_products_are_never_packed_wider_than_by_coefficient_sizes(monkeypatch):
    # every packed sum: each product of TruncSeries.__mul__, through
    # _packed_product, and each identity's residual in verify_identities
    widths = []

    def recording(terms, sources, n, w):
        widths.append((w, sum_bits_by_size(terms, sources, n)))
        return _packed_sum(terms, sources, n, w)

    monkeypatch.setattr(packed, "_packed_sum", recording)
    assert all(c.ok for c in verify_identities(24))
    assert G_closed("A", 12) == G_sum("A", 12)
    assert len(widths) > 10
    assert all(new <= old for new, old in widths)


# a top digit 1 in slot D >= 2 over lower digits of -2^(w-1) packs to an
# int of only wD - 1 bits; the unpacking must still find slot D
@settings(max_examples=200)
@given(st.integers(2, 24).flatmap(lambda w: st.tuples(
    st.just(w),
    st.dictionaries(st.tuples(st.integers(0, 10), st.integers(0, 3)),
                    st.integers(-2**(w - 1), 2**(w - 1) - 1),
                    max_size=12))))
@example((8, {(0, 0): -128, (1, 0): -128, (2, 0): 1}))
@example((16, {(i, 1): -2**15 for i in range(10)} | {(10, 1): 2**15 - 1}))
def test_slots_round_trip_the_full_digit_range(case):
    w, terms = case
    c = Poly2(terms)
    assert _unpack(_pack(c, w), w) == c


def test_slots_round_trip_the_extreme_digits_at_every_width():
    for w in range(2, 25):
        lo, hi = -2**(w - 1), 2**(w - 1) - 1
        for top in (lo, -1, 1, hi):
            for low in (lo, -1, 0, 1, hi):
                c = Poly2({(i, 0): low for i in range(4)} | {(4, 0): top})
                assert _unpack(_pack(c, w), w) == c


@settings(max_examples=150)
@given(st.sampled_from([1, -1]), st.lists(poly2s, max_size=6))
def test_inverse_matches_running_total_oracle(unit, tail):
    s = TruncSeries(7, [Poly2({(0, 0): unit})] + tail)
    assert s.inverse() == sparse_inverse(s)


@settings(max_examples=150)
@given(st.lists(poly2s, max_size=6))
def test_sqrt_matches_running_total_oracle(tail):
    r = TruncSeries(7, [Poly2.one()] + tail)
    square = sparse_product(r, r)
    assert square.sqrt() == sparse_sqrt(square) == r
    # an arbitrary radicand: both raise on the same odd coefficient or agree
    try:
        want = sparse_sqrt(r)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            r.sqrt()
    else:
        assert r.sqrt() == want


def test_g_base_prefix():
    g = g_base(5)
    assert g.coeff(0) == 1
    assert g.coeff(1) == -1
    assert g.coeff(2) == xp({1: -2})
    assert g.coeff(3) == xp({1: -2})
    assert g.coeff(4) == xp({1: -2, 2: -2})


def test_g_base_squares_to_radicand():
    g = g_base(16)
    want = TruncSeries.from_map({0: 1, 1: -2, 2: xp({0: 1, 1: -4})}, 16)
    assert is_zero_through(g * g - want, 15)


def test_g_base_alternate_route():
    assert g_base(12) == g_base_alt(12)


def test_g_closed_prefixes():
    gA = g_closed("A", 5)
    assert [gA.coeff(n) for n in range(5)] == [
        Poly2.one(), Poly2.zero(), xp({1: 1}), xp({1: 1}), xp({1: 1, 2: 2})]
    gB = g_closed("B", 5)
    assert [gB.coeff(n) for n in range(5)] == [
        Poly2.one(), Poly2.zero(), xp({1: 2}), xp({1: 3}), xp({1: 4, 2: 6})]
    gD = g_closed("D", 5)
    assert [gD.coeff(n) for n in range(5)] == [
        Poly2.zero(), Poly2.zero(), Poly2.zero(), xp({1: 1}), xp({1: 2, 2: 2})]


@pytest.mark.parametrize("kind", "ABD")
def test_g_sum_equals_closed(kind):
    assert g_sum(kind, 14) == g_closed(kind, 14)


@pytest.mark.parametrize("build", [g_sum, G_sum, g_closed, G_closed])
@pytest.mark.parametrize("kind", ["C", "a", "Q"])
@pytest.mark.parametrize("order", [1, 4])
def test_series_builders_accept_only_A_B_D(build, kind, order):
    with pytest.raises(ValueError, match="unknown series kind"):
        build(kind, order)


def test_eq_c_matches_sqrt():
    assert is_zero_through(eq_c_series(14) - g_base(14), 13)


def test_G_sum_low_coefficients():
    GA = G_sum("A", 5)
    assert GA.coeff(0) == Poly2.one()
    assert GA.coeff(1) == Poly2({(0, 1): 1})
    assert GA.coeff(3) == Poly2({(0, 3): 1, (1, 1): 2, (1, 0): 1})
    GB = G_sum("B", 5)
    assert GB.coeff(4) == reference_tables()["B4"].to_poly2()


def test_k0_terms_collapse_to_geometric_series():
    # the binom(-1, -1) = 1 convention must make the k = 0 layer of the
    # triple sums equal sum_l y^l t^l, matching the k = 0 special branch
    # of the closed coefficient forms that G_sum reads
    GA, GB = G_sum("A", 11), G_sum("B", 11)
    for l in range(6):
        for m in range(6):
            want = 1 if m == 0 else 0
            assert b_triangle_coeff(0, m, l) == want
            assert a_triangle_coeff(0, m, l) == want
            assert GB.coeff(m + l).coeff(0, l) == GA.coeff(m + l).coeff(0, l) == want


@pytest.mark.parametrize("n", range(1, 9))
def test_GA_coefficients_match_diagram_triangles(n):
    assert G_sum("A", 9).coeff(n) \
        == gamma_triangle_diagram(standard_diagram("A", n)).to_poly2()


@pytest.mark.parametrize("n", range(2, 8))
def test_GD_coefficients_match_diagram_triangles(n):
    assert G_sum("D", 8).coeff(n) \
        == gamma_triangle_diagram(standard_diagram("D", n)).to_poly2()


@pytest.mark.parametrize("kind", "ABD")
def test_G_closed_route_agrees_with_sums(kind):
    assert G_closed(kind, 10) == G_sum(kind, 10)


@pytest.mark.parametrize("kind", "ABD")
def test_G_closed_builds_g_once(monkeypatch, kind):
    built = []

    def counted(order):
        built.append(order)
        return g_base(order)

    monkeypatch.setattr(series, "g_base", counted)
    G_closed(kind, 10)
    assert built == [11]


@pytest.mark.parametrize("kind", "ABD")
def test_g_closed_reads_the_g_it_is_given(kind):
    assert g_closed(kind, 12, g_base(13)) == g_closed(kind, 12)


def test_substitutions():
    # x^2 t^5 -> x^2 t^4 under t * s(x/t, t)
    s = TruncSeries.from_map({5: xp({2: 1})}, 12)
    out = substitute_x_over_t_times_t(s)
    assert out.coeff(4) == xp({2: 1})
    s2 = TruncSeries.from_map({2: xp({1: 1})}, 6)
    assert substitute_x_to_xt(s2).coeff(3) == xp({1: 1})


@pytest.mark.parametrize("substitute", [substitute_x_over_t_times_t,
                                        substitute_x_to_xt])
def test_substitutions_take_only_y_free_series(substitute):
    s = TruncSeries.from_map({2: Poly2({(0, 1): 1})}, 6)
    with pytest.raises(ValueError, match="substitution defined for y-free series only"):
        substitute(s)


def test_substitution_rejects_negative_powers():
    s = TruncSeries.from_map({1: xp({2: 1})}, 8)
    with pytest.raises(ArithmeticError):
        substitute_x_over_t_times_t(s)


def test_gB_substitution_route():
    assert is_zero_through(gB_via_substitution(10) - g_sum("B", 11), 10)


def test_two_minus_theta():
    s = TruncSeries.from_map({0: 1, 3: xp({1: 2})}, 5)
    out = two_minus_theta(s)
    assert out.coeff(0) == 2
    assert out.coeff(3) == xp({1: -2})


def test_verify_identities_all_pass():
    checks = verify_identities(12)
    assert len(checks) == 13
    assert all(c.ok for c in checks)


def test_negative_control_detects_perturbation():
    # drop the t^4 term of gA; the recursive relation must then fail with
    # the first bad coefficient at t^4 or t^5
    N = 8
    y = Poly2({(0, 1): 1})
    gA = g_sum("A", N + 1)
    GA = G_sum("A", N + 1)
    bad = gA - TruncSeries.from_map({4: gA.coeff(4)}, N + 1)
    residual = GA - bad - ((bad * GA) * y).shift_t()
    hit = first_nonzero(residual, N)
    assert hit is not None and hit[0] in (4, 5)


def residuals_by_series(N):
    """verify_identities' residuals as series expressions, each built with
    the series operators: the oracle its packed residuals must match."""
    g = g_base(N + 2)
    gA, gB, gD = (series.g_sum(k, N + 1) for k in "ABD")
    GA, GB, GD = (series.G_sum(k, N + 1) for k in "ABD")
    return {
        "conjA": gA - g_closed("A", N + 1),
        "conjB": gB - g_closed("B", N + 1),
        "conjD": gD - g_closed("D", N + 1),
        "eqC": g.truncate(N + 1) - eq_c_series(N + 1),
        "petitA_grandA": GA - gA - times_yt(gA * GA),
        "petitB_grandB_1": GB - gB - times_yt(gA * GB),
        "petitB_grandB_2": GB - gB - times_yt(gB * GA),
        "petitD_grandD": (GD - gD - 2 * times_yt(gA - 1)
                          - times_yt(gA, 2) - times_yt(gA * GD)),
        "mini_D": (gB - 1) - 2 * (gA - 1) - gA * gD,
        "bizarre_B_D": GD - times_yt(GB - 1) - gD,
        "ode_g": ((g * g.d_dt()).shift_t() - g * g
                  + TruncSeries.from_map({0: 1, 1: -1}, N + 2)),
        "euler_gD": gD - two_minus_theta(
            (g + TruncSeries.from_map({0: -1, 1: 1}, N + 2)).exact_div(2)),
        "gB_from_gA_substitution": gB_via_substitution(N) - gB.truncate(N + 1),
    }


def checks_by_series(N):
    out = []
    for name, residual in residuals_by_series(N).items():
        hit = first_nonzero(residual, N)
        out.append((name, hit is None, f"residual 0 through t^{N}" if hit is None
                    else f"first nonzero residual at t^{hit[0]}: {hit[1]}"))
    return out


@pytest.mark.parametrize("n", range(1, 13))
def test_packed_residuals_match_the_series_expressions(n):
    assert [(c.name, c.ok, c.detail) for c in verify_identities(n)] \
        == checks_by_series(n)


def test_a_planted_fault_fails_exactly_the_identities_that_read_it(monkeypatch):
    # at order 24, one coefficient of one sum-route series off by a
    # monomial: GB's t^17 by x^2 y^3 (read by three identities), GD's t^13
    # by x^3 y^2 (built after GA is dropped) and gA's t^10 by x^3 (read by
    # five identities and, through gB_via_substitution, a sixth). The
    # identities that read it fail with the series oracle's detail, the
    # rest pass
    faults = {
        ("G_sum", "B", 17, (2, 3)): {
            "petitB_grandB_1": "first nonzero residual at t^17: x^2*y^3",
            "petitB_grandB_2": "first nonzero residual at t^17: x^2*y^3",
            "bizarre_B_D": "first nonzero residual at t^18: -x^2*y^4",
        },
        ("G_sum", "D", 13, (3, 2)): {
            "petitD_grandD": "first nonzero residual at t^13: x^3*y^2",
            "bizarre_B_D": "first nonzero residual at t^13: x^3*y^2",
        },
        ("g_sum", "A", 10, (3, 0)): {
            "conjA": "first nonzero residual at t^10: x^3",
            "petitA_grandA": "first nonzero residual at t^10: -x^3",
            "petitB_grandB_1": "first nonzero residual at t^11: -x^3*y",
            "petitD_grandD": "first nonzero residual at t^11: -2*x^3*y",
            "mini_D": "first nonzero residual at t^10: -2*x^3",
            "gB_from_gA_substitution": "first nonzero residual at t^10: 8*x^3",
        },
    }
    for (builder, kind, n, monomial), want in faults.items():
        true_build = getattr(series, builder)

        def planted(k, order):
            s = true_build(k, order)
            if k == kind:
                s.coeffs[n] = s.coeffs[n] + Poly2({monomial: 1})
            return s

        with monkeypatch.context() as m:
            m.setattr(series, builder, planted)
            checks = [(c.name, c.ok, c.detail) for c in verify_identities(24)]
            assert checks == checks_by_series(24)
        assert {name: detail for name, ok, detail in checks if not ok} == want


# the sources verify_identities reads, by the builder call that makes each
SOURCE_BUILDERS = {
    "g_base": lambda order: "g",
    "g_sum": lambda kind, order: f"g{kind}",
    "G_sum": lambda kind, order: f"G{kind}",
    "g_closed": lambda kind, order, g=None: f"g{kind}_closed",
    "eq_c_series": lambda order: "eq_c",
    "two_minus_theta": lambda s: "two_minus_theta",
    "gB_via_substitution": lambda order: "gB_via_substitution",
}


def record_builds(monkeypatch) -> list:
    """The names of the sources built from now on, in build order: every
    builder of SOURCE_BUILDERS, TruncSeries.one ("one") and
    TruncSeries.d_dt ("g'") is wrapped, and a call made inside another
    (gB_via_substitution's g_sum and d_dt) is not a build of its own."""
    built, depth = [], [0]

    def wrap(name_of, build):
        def wrapped(*args):
            if not depth[0]:
                built.append(name_of(*args))
            depth[0] += 1
            try:
                return build(*args)
            finally:
                depth[0] -= 1
        return wrapped

    for attr, name_of in SOURCE_BUILDERS.items():
        monkeypatch.setattr(series, attr, wrap(name_of, getattr(series, attr)))
    one = wrap(lambda order: "one", TruncSeries.one)
    monkeypatch.setattr(TruncSeries, "one", classmethod(lambda cls, order: one(order)))
    monkeypatch.setattr(TruncSeries, "d_dt", wrap(lambda s: "g'", TruncSeries.d_dt))
    return built


def readers_by_source() -> dict:
    """Each source name of IDENTITIES, in order of first appearance, with
    the position of each identity that reads it, once per mention."""
    readers = {}
    for i, residual in enumerate(series.IDENTITIES.values()):
        for term in series._terms(residual):
            for source in term[3:]:
                readers.setdefault(source, []).append(i)
    return readers


def test_each_source_is_held_from_its_first_reader_to_its_last(monkeypatch):
    # what each residual's packed sum is handed: every source from the first
    # identity that names it to the last, with its norms, and never the
    # three bivariate sums GA, GB, GD together
    built = record_builds(monkeypatch)
    held = []

    def recording(terms, sources, norms, n):
        held.append((set(sources), set(norms)))
        return _first_nonzero(terms, sources, norms, n)

    monkeypatch.setattr(series, "_first_nonzero", recording)
    assert all(c.ok for c in verify_identities(12))
    readers = readers_by_source()
    assert sorted(built) == sorted(readers)
    assert len(held) == len(series.IDENTITIES)
    for i, (sources, normed) in enumerate(held):
        assert not {"GA", "GB", "GD"} <= sources
        assert sources == normed == {s for s, at in readers.items()
                                     if at[0] <= i <= at[-1]}
    together = [name for name, (sources, _) in zip(series.IDENTITIES, held)
                if len({"GA", "GB", "GD"} & sources) == 2]
    assert together == ["petitB_grandB_1", "petitB_grandB_2", "petitD_grandD",
                        "mini_D", "bizarre_B_D"]


def test_sources_are_built_in_the_order_the_identities_name_them(monkeypatch):
    # g first, which the closed forms read, then each source when the first
    # residual naming it comes up: an order no set or hash seed decides
    built = record_builds(monkeypatch)
    verify_identities(12)
    assert built == ["g"] + [s for s in readers_by_source() if s != "g"]
    assert built == ["g", "one", "gA", "gA_closed", "gB", "gB_closed", "gD",
                     "gD_closed", "eq_c", "GA", "GB", "GD", "g'",
                     "two_minus_theta", "gB_via_substitution"]


def test_carlitz_example_value():
    # (k, m, l) = (1, 0, 0): the brute-force sum gives 2 on both routes
    conv = sum(a_local_coeff(k1, 0) * a_triangle_coeff(1 - k1, 0, 0)
               for k1 in range(2))
    assert conv == 2
    rhs = Fraction((0 + 2) * 1 * 4 * 1, (2 + 0 + 0 + 2) * (1 + 0))
    assert rhs == 2


def test_carlitz_zero_weight_rows():
    # k = 0 with m >= 1: both sides vanish
    for m in range(1, 6):
        for l in range(4):
            conv = sum(a_local_coeff(0, m1) * a_triangle_coeff(0, m - m1, l)
                       for m1 in range(m + 1))
            assert conv == 0


def test_carlitz_check_names_a_perturbed_coefficient(monkeypatch):
    # G_sum off by one at x^2 y^3 t^8 for A and at x^3 y t^7 for B: each
    # check fails, naming first the least (k, m, l) whose sum reads it
    real = series.G_sum
    off = {"A": (2, 1, 3), "B": (3, 0, 1)}

    def perturbed(kind, order):
        k, m, l = off[kind]
        coeffs = real(kind, order).coeffs
        coeffs[2 * k + m + l] = coeffs[2 * k + m + l] + Poly2({(k, l): 1})
        return TruncSeries(order, coeffs)

    monkeypatch.setattr(series, "G_sum", perturbed)
    checks = {c.name: c for c in carlitz_convolution_check()}
    for kind, (k, m, l) in off.items():
        check = checks[f"carlitz_convolution_{kind}"]
        assert not check.ok
        assert check.detail.startswith(f"mismatches: [({k}, {m}, {l}, ")


def test_binomial_identity_check_names_a_perturbed_pair(monkeypatch):
    # binom(38, 38) is read only by the right-hand side at n = 40, i = 20
    real = series.binom
    monkeypatch.setattr(series, "binom",
                        lambda a, b: real(a, b) + ((a, b) == (38, 38)))
    (check,) = binomial_identity_check()
    assert not check.ok
    assert check.detail.startswith("mismatches: [(40, 20, ")
    assert check.detail.count("(") == 1


def test_binomial_identity_base_cases():
    # n = 4, i = 2: both sides 1; n = 2, i = 1 needs binom(-1, -1) = 1
    lhs = Fraction(binom(2, 1) * binom(0, 0) + binom(3, 2) * binom(0, 1), 2)
    rhs = Fraction(binom(2, 1) * binom(2, 2), 2)
    assert lhs == rhs == 1
    lhs2 = Fraction(binom(0, 0) * binom(-1, -1) + binom(1, 1) * binom(-1, 0), 1)
    rhs2 = Fraction(binom(0, 0) * binom(0, 0), 1)
    assert lhs2 == rhs2 == 1


def test_series_coefficients_are_ints():
    built = [g_base(24), eq_c_series(24)]
    built += [route(k, 24) for route in (g_closed, g_sum, G_closed, G_sum)
              for k in "ABD"]
    for s in built:
        assert all(type(v) is int for c in s.coeffs for _, v in c.items())


def test_order_bookkeeping():
    s = TruncSeries.from_map({0: 1}, 5)
    assert (s.shift_t(2)).order == 7
    assert s.d_dt().order == 4
    with pytest.raises(ValueError):
        s.coeff(5)
    t = TruncSeries.from_map({1: 1}, 5)
    assert t.div_t().order == 4
    with pytest.raises(ValueError):
        t.div_t(2)


def test_coeff_rejects_a_negative_power():
    with pytest.raises(ValueError, match=r"t\^-1 "):
        TruncSeries(3, [1, 2, 5]).coeff(-1)


def test_div_t_rejects_a_negative_power():
    with pytest.raises(ValueError, match=r"t\^-1 "):
        TruncSeries(3, [1, 2, 5]).div_t(-1)


def test_shift_t_rejects_a_negative_power():
    with pytest.raises(ValueError, match=r"t\^-1: "):
        TruncSeries(3, [1, 2, 5]).shift_t(-1)


def test_times_yt_rejects_a_negative_power():
    # before any coefficient is shifted, so Poly2's exponent check never runs
    with pytest.raises(ValueError, match=r"t\^-1: "):
        times_yt(TruncSeries(3, [1, 2, 5]), -1)



def test_from_map_rejects_a_negative_power():
    # a negative key would wrap the list index and land at t^(order - 1)
    with pytest.raises(ValueError, match=r"t\^-1: "):
        TruncSeries.from_map({-1: 5}, 3)

def test_div_t_rejects_a_power_beyond_the_order():
    with pytest.raises(ValueError, match=r"t\^3 at order 2"):
        TruncSeries(2).div_t(3)


@pytest.mark.parametrize("build", [
    TruncSeries, lambda order: TruncSeries.from_map({0: 1}, order),
    g_base, eq_c_series, lambda order: g_sum("A", order),
    lambda order: G_sum("D", order), lambda order: g_closed("B", order),
    verify_identities,
])
def test_an_order_no_list_can_hold_raises_at_once(build):
    # a ValueError before any coefficient is built, not an OverflowError
    # from the list or a sum route running through 10^20 ranks
    with pytest.raises(ValueError, match="longer than any list can be"):
        build(sys.maxsize + 1)


def stored_as_validated(p):
    """p keeps exactly what the validating constructor makes of its stored
    terms: no zero, no negative exponent."""
    return p == type(p)(dict(p._c)) and all(p._c.values())


@settings(max_examples=150)
@given(any_series, any_series, st.lists(poly2s, max_size=6))
def test_kernel_results_store_what_the_constructor_would(a, b, tail):
    unit = TruncSeries(7, [Poly2.one()] + tail)
    square = sparse_product(unit, unit)
    results = [a * b, unit.inverse(), (-unit).inverse(), square.sqrt(),
               square.exact_div(1), (a + b) - b]
    assert all(stored_as_validated(c) for s in results for c in s.coeffs)


def test_substitution_names_the_first_monomial_in_order():
    # x^3 stored before x^2: both violate n >= 2k at t^2
    c = Poly2({(3, 0): 1, (2, 0): 1})
    with pytest.raises(ArithmeticError, match=r"x\^2 t\^2 "):
        substitute_x_over_t_times_t(TruncSeries(3, [0, 0, c]))
