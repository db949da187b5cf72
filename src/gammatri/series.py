"""Truncated formal power series in t with exact bivariate coefficients,
and the generating-series identities they verify.

A TruncSeries knows its coefficients for t^0 .. t^(order-1) and nothing
beyond; every operation propagates the honestly-known order (multiplying
by t gains one, d/dt loses one). All coefficients are integers: inverse()
takes only series with constant term 1 or -1, and the only divisions are
exact ones (sqrt halving its recursion, exact_div, and the closed forms
behind the defining sums), which raise ArithmeticError on a remainder.

Every product of two series, inverse() and sqrt() run through the packed
kernel (packed.py, Kronecker substitution in x): each operation packs
every t^n coefficient of its operands once and unpacks each output
coefficient once. One width rule serves all three: before the first
multiply, each operation bounds every digit it packs or unpacks by a
majorant B (for inverse() and sqrt(), an l1 norm bound carried through
the recursion) and packs at exactly w = bit_length(B) + 1 bits.

The identities are checked in packed form too. IDENTITIES states each as
the signed terms c y^a t^b P*Q of its residual over the source series,
and one packed sum per identity proves the residual zero through t^N: a
t-power is zero iff all its packed ints are 0, exact because balanced
digits are unique, so only the first nonzero t-power is unpacked, for the
report. The width rule extends to the whole residual: every source is
packed once at w = bit_length(B) + 1, B bounding every digit of the
residual by sum |c| times its term's bound. A source is held only while
an identity reads it: built, with its norms, when the first residual
naming it is checked, and dropped once the last one is decided. The
identities run in IDENTITIES order, which reads GA only up to
petitB_grandB_2 and GD only from petitD_grandD on, so at most two of the
bivariate sums GA, GB, GD (the largest sources) are held at once.

Series, closed route, read off one g per call (g_closed takes it as its
g parameter; g and gX have polynomial-in-x coefficients):
  g    = sqrt((1-t)^2 - 4xt^2)
  gA   = ((1 + t - g)/t)/2 * (1+xt)^-1
  gB   = ((2tx + g - t + 1)/2) * (g(1+xt))^-1
  gD   = ((g-1)(g-1+t)/2) * g^-1
  GA, GB = g / (1 - yt gA), g being gA or gB;  GD = yt (GB - 1) + gD
Sum route: gX = sum_n localgamma(X_n) t^n, GX = sum_n Gamma(X_n) t^n, each
term read off coxeter, the one home of the A/B/D closed forms.
"""

from __future__ import annotations

import re
import struct
import sys
from functools import partial
from math import comb

# gamma_triangle_diagram is unused here; perfbench's tests read it off series
from .coxeter import (TypedComponent, closed_triangle, gamma_triangle_diagram,
                      local_gamma_poly)
from .packed import (_first_nonzero, _l1, _norms, _pack, _packed_dot,
                     _packed_product, _product_bound, _unpack)
from .poly import Poly2, binom, quotient
from .report import Check


def _exact_div(c: Poly2, d: int, n: int) -> Poly2:
    """The t^n coefficient c divided by d; a remainder raises, naming t^n."""
    terms = c._c
    if any(v % d for v in terms.values()):
        raise ArithmeticError(f"coefficient {c} of t^{n} is not divisible by {d}")
    return Poly2._build({key: v // d for key, v in terms.items()})


# the most items a list can hold: CPython refuses a longer one before it
# allocates anything, with a MemoryError
_LONGEST = sys.maxsize // struct.calcsize("P")


class TruncSeries:
    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        if order < 1:
            raise ValueError("order must be >= 1")
        if order > _LONGEST:
            raise ValueError(f"order {order} is longer than any list can be "
                             f"(at most {_LONGEST})")
        self.order = order
        cs = list(coeffs or [])
        if len(cs) > order:
            raise ValueError("more coefficients than the stated order")
        cs += [Poly2.zero()] * (order - len(cs))
        self.coeffs = [c if isinstance(c, Poly2) else Poly2({(0, 0): c})
                       for c in cs]

    @classmethod
    def from_map(cls, mapping: dict, order: int) -> "TruncSeries":
        """The series with the t^n coefficient mapping[n], n >= 0; entries
        at n >= order are dropped."""
        out = cls(order)
        for n, c in mapping.items():
            if n < 0:
                raise ValueError(f"cannot set the coefficient of t^{n}: the "
                                 "power must be >= 0")
            if n < order:
                out.coeffs[n] = c if isinstance(c, Poly2) else Poly2({(0, 0): c})
        return out

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls.from_map({0: 1}, order)

    def coeff(self, n: int) -> Poly2:
        if not 0 <= n < self.order:
            raise ValueError(f"coefficient of t^{n} unknown at order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(order, self.coeffs[:order])

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __neg__(self):
        return TruncSeries(self.order, [-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, (int, Poly2)):
            other = TruncSeries.from_map({0: other}, self.order)
        elif not isinstance(other, TruncSeries):
            return NotImplemented
        return TruncSeries(min(self.order, other.order),
                           [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Poly2)):
            other = TruncSeries.from_map({0: other}, self.order)
        elif not isinstance(other, TruncSeries):
            return NotImplemented
        return TruncSeries(min(self.order, other.order),
                           [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        if not isinstance(other, (int, Poly2)):
            return NotImplemented
        return TruncSeries.from_map({0: other}, self.order) - self

    def __mul__(self, other):
        if isinstance(other, (int, Poly2)):
            return TruncSeries(self.order, [c * other for c in self.coeffs])
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = sorted((self.coeffs[:n], other.coeffs[:n]),
                      key=lambda cs: sum(map(len, cs)))
        w = _product_bound(a, b).bit_length() + 1
        return TruncSeries(n, _packed_product(a, b, w))

    def __rmul__(self, other):
        return self.__mul__(other)

    def shift_t(self, k: int = 1) -> "TruncSeries":
        """Multiply by t^k, k >= 0; the known order grows by k."""
        if k < 0:
            raise ValueError(f"cannot multiply by t^{k}: the power must be >= 0")
        return TruncSeries(self.order + k, [Poly2.zero()] * k + self.coeffs)

    def div_t(self, k: int = 1) -> "TruncSeries":
        """Divide by t^k, 0 <= k < order; the first k coefficients must
        vanish."""
        if not 0 <= k < self.order:
            raise ValueError(f"cannot divide by t^{k} at order {self.order}")
        for n in range(k):
            if not self.coeffs[n].is_zero():
                raise ValueError(f"coefficient of t^{n} is nonzero, cannot divide by t^{k}")
        return TruncSeries(self.order - k, self.coeffs[k:])

    def d_dt(self) -> "TruncSeries":
        if self.order < 2:
            raise ValueError("need order >= 2 to differentiate")
        return TruncSeries(self.order - 1,
                           [self.coeffs[n + 1] * (n + 1)
                            for n in range(self.order - 1)])

    def euler_theta(self) -> "TruncSeries":
        """t d/dt: multiply the t^n coefficient by n."""
        return TruncSeries(self.order,
                           [c * n for n, c in enumerate(self.coeffs)])

    def _constant_term_value(self):
        c0 = self.coeffs[0]
        if c0.deg_x() > 0 or c0.deg_y() > 0:
            raise ValueError(f"constant term {c0} is not a scalar")
        return c0.coeff(0, 0)

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse; the constant term must be the scalar 1 or
        -1 (its own inverse), so the result is integral."""
        v = self._constant_term_value()
        if v not in (1, -1):
            raise ValueError(
                f"constant term {v} is not 1 or -1, no integral inverse")
        # majorant: with M_k the l1 norm of s_k, R_0 = 1 and
        # R_n = sum_k M_k R_(n-k) bound the l1 norm of r_n = -v sum_k s_k
        # r_(n-k) by induction (the l1 norm is submultiplicative), so every
        # digit packed or unpacked here is at most max R_n in absolute value
        norms = [_l1(c) for c in self.coeffs]
        bound = [1]
        for n in range(1, self.order):
            bound.append(sum(norms[k] * bound[n - k] for k in range(1, n + 1)))
        w = max(bound).bit_length() + 1
        s = [_pack(c, w) for c in self.coeffs]
        packed = [{0: v}]
        out = [Poly2({(0, 0): v})]
        for n in range(1, self.order):
            r = _packed_dot(((s[k], packed[n - k]) for k in range(1, n + 1)), c=-v)
            packed.append(r)
            out.append(_unpack(r, w))
        return TruncSeries(self.order, out)

    def sqrt(self) -> "TruncSeries":
        """Square root with constant term 1, by coefficient recursion; each
        step halves exactly, and an odd coefficient raises ArithmeticError."""
        if self._constant_term_value() != 1:
            raise ValueError("square root needs constant term 1")
        # majorant: acc_n = c_n - sum_(0<k<n) r_k r_(n-k) has l1 norm at most
        # Q_n = |c_n|_1 + sum R_k R_(n-k), and r_n = acc_n / 2 at most
        # R_n = ceil(Q_n / 2) (R_0 = 1), so max Q_n bounds every digit
        bound = [1]
        top = 1
        for n in range(1, self.order):
            q = _l1(self.coeffs[n]) + sum(bound[k] * bound[n - k]
                                          for k in range(1, n))
            top = max(top, q)
            bound.append((q + 1) // 2)
        w = top.bit_length() + 1
        c = [_pack(p, w) for p in self.coeffs]
        packed = [{0: 1}]
        out = [Poly2.one()]
        for n in range(1, self.order):
            # c_n = sum_k r_k r_(n-k); each pair k < n - k occurs twice
            acc = _packed_dot(((packed[k], packed[n - k])
                               for k in range(1, (n + 1) // 2)), dict(c[n]), -2)
            if n % 2 == 0:
                _packed_dot(((packed[n // 2], packed[n // 2]),), acc, -1)
            out.append(_exact_div(_unpack(acc, w), 2, n))
            # every digit of acc is even now, so halving the packed int
            # halves each digit exactly
            packed.append({j: p >> 1 for j, p in acc.items()})
        return TruncSeries(self.order, out)

    def exact_div(self, d: int) -> "TruncSeries":
        """Divide every coefficient by the int d; a remainder raises
        ArithmeticError naming its t-power."""
        return TruncSeries(self.order, [_exact_div(c, d, n)
                                        for n, c in enumerate(self.coeffs)])

    def __str__(self):
        parts = [f"({c})*t^{n}" for n, c in enumerate(self.coeffs)
                 if not c.is_zero()]
        head = " + ".join(parts[:6]) if parts else "0"
        return f"{head} + O(t^{self.order})"

    def __repr__(self):
        return f"TruncSeries(order={self.order}, {self!s})"


def substitute_x_over_t_times_t(s: TruncSeries) -> TruncSeries:
    """t * s(x/t, t): the monomial x^k t^n moves to x^k t^(n-k+1).

    Requires n >= 2k on every monomial (asserted; in particular the t-power
    never goes negative, and no y may appear). Under that support condition
    the result is complete through t^j exactly when the source is known
    through t^(2j-2), which the returned order reflects."""
    new_order = (s.order + 1) // 2 + 1
    terms = [{} for _ in range(new_order)]  # a target's source is unique
    for n, c in enumerate(s.coeffs):
        if c.deg_y() > 0:
            raise ValueError("substitution defined for y-free series only")
        for (k, _), v in c._c.items():
            if n < 2 * k:
                k = min(k for k, _ in c._c if n < 2 * k)  # the first in order
                raise ArithmeticError(
                    f"monomial x^{k} t^{n} violates the n >= 2k support "
                    "condition of the substitution")
            target = n - k + 1
            if target < new_order:
                terms[target][(k, 0)] = v
    return TruncSeries(new_order, [Poly2(t) for t in terms])


def substitute_x_to_xt(s: TruncSeries) -> TruncSeries:
    """s(xt, t): the monomial x^k t^n moves to x^k t^(n+k)."""
    terms = [{} for _ in range(s.order)]  # a target's source is unique
    for n, c in enumerate(s.coeffs):
        if c.deg_y() > 0:
            raise ValueError("substitution defined for y-free series only")
        for (k, _), v in c._c.items():
            if n + k < s.order:
                terms[n + k][(k, 0)] = v
    return TruncSeries(s.order, [Poly2(t) for t in terms])


def _x_poly(mapping: dict) -> Poly2:
    return Poly2({(k, 0): c for k, c in mapping.items()})


def g_base(order: int) -> TruncSeries:
    """g = sqrt((1-t)^2 - 4xt^2); all coefficients integral."""
    radicand = TruncSeries.from_map(
        {0: 1, 1: -2, 2: _x_poly({0: 1, 1: -4})}, order)
    return radicand.sqrt()


def g_closed(kind: str, order: int, g: TruncSeries | None = None) -> TruncSeries:
    """Closed forms of gA, gB, gD as algebraic expressions in g, by default
    g_base(order + 1) for A and g_base(order) for B and D (a longer g is
    truncated): each even numerator is halved exactly, then times the
    inverse of a unit series."""
    if kind not in ("A", "B", "D"):
        raise ValueError(f"unknown series kind {kind!r}")
    if g is None:
        g = g_base(order + 1 if kind == "A" else order)
    if kind == "A":
        num = TruncSeries.from_map({0: 1, 1: 1}, order + 1) - g.truncate(order + 1)
        one_plus_xt = TruncSeries.from_map({0: 1, 1: _x_poly({1: 1})}, order)
        return num.div_t().exact_div(2) * one_plus_xt.inverse()
    g = g.truncate(order)
    if kind == "B":
        num = g + TruncSeries.from_map({0: 1, 1: _x_poly({0: -1, 1: 2})}, order)
        g_xt = (g * _x_poly({1: 1})).shift_t().truncate(order)  # g * xt
        return num.exact_div(2) * (g + g_xt).inverse()
    gm1 = g - 1
    num = gm1 * (gm1 + TruncSeries.from_map({1: 1}, order))
    return num.exact_div(2) * g.inverse()


def _rank_sum(kind: str, order: int, term) -> TruncSeries:
    """The sum over ranks n of term(n) t^n; types A and B start with the
    empty diagram's 1, type D at D2."""
    if kind not in ("A", "B", "D"):
        raise ValueError(f"unknown series kind {kind!r}")
    out = TruncSeries.from_map({} if kind == "D" else {0: 1}, order)
    for n in range(2 if kind == "D" else 1, order):
        out.coeffs[n] = term(n).to_poly2()
    return out


def g_sum(kind: str, order: int) -> TruncSeries:
    """gA, gB, gD as the sums over n of localgamma(X_n) t^n (0 for D2)."""
    return _rank_sum(kind, order,
                     lambda n: local_gamma_poly(TypedComponent(kind, n)))


def G_sum(kind: str, order: int) -> TruncSeries:
    """GA, GB, GD as the sums over n of closed_triangle(X, n) t^n (D2 = y^2,
    D3 = A3)."""
    return _rank_sum(kind, order, lambda n: closed_triangle(kind, n))


def times_yt(s: TruncSeries, k: int = 1) -> TruncSeries:
    """(yt)^k * s, k >= 0: the series shifted by t^k (the known order grows
    by k), then every coefficient by y^k."""
    return TruncSeries(s.order + k, [c.shift(0, k) for c in s.shift_t(k).coeffs])


def G_closed(kind: str, order: int) -> TruncSeries:
    """G = g + yt gA G solved as GA, GB = g / (1 - yt gA), g being gA or gB,
    and GD = yt (GB - 1) + gD, all from one g = g_base(order + 1)."""
    if kind not in ("A", "B", "D"):
        raise ValueError(f"unknown series kind {kind!r}")
    g = g_base(order + 1)
    gA = g_closed("A", order, g)
    num = gA if kind == "A" else g_closed("B", order, g)
    G = num * (TruncSeries.one(order) - times_yt(gA).truncate(order)).inverse()
    if kind == "D":
        return times_yt(G - 1).truncate(order) + g_closed("D", order, g)
    return G


def eq_c_series(order: int) -> TruncSeries:
    """1 - t - 2 sum_(n>=1) sum_i binom(2i-2, i-1) binom(n-2, 2i-2)/i x^i t^n,
    the fully expanded double-sum form of g."""
    out = TruncSeries.from_map({0: 1, 1: -1}, order)
    for n in range(2, order):
        c = {}
        for i in range(1, n // 2 + 1):
            c[i] = quotient(-2 * comb(2 * i - 2, i - 1) * comb(n - 2, 2 * i - 2), i)
        out.coeffs[n] = _x_poly(c)
    return out


def two_minus_theta(s: TruncSeries) -> TruncSeries:
    """(2 - theta_t) applied to a series, theta_t being the Euler derivation."""
    return s * 2 - s.euler_theta()


def gB_via_substitution(order: int) -> TruncSeries:
    """gB recovered from gA alone: differentiate t*gA(x/t, t) in t, then
    substitute x -> xt."""
    gA = g_sum("A", 2 * order + 2)
    h = substitute_x_over_t_times_t(gA)
    return substitute_x_to_xt(h.d_dt())


# Each identity as its residual, which must vanish through t^N: signed
# terms c y^a t^b X over the sources that verify_identities builds, written
# like "- 2yt gA" (c = 2, a = b = 1) or "- y2t2 gA" (a = b = 2), X a source
# or a product "gA*GD" of two; "one" is the series 1. Each source lives from
# the first identity that names it to the last, so this order sets what is
# held at once: GA's readers all come before GD's first, and no identity
# reads more than two of GA, GB, GD.
IDENTITIES = {
    "conjA": "gA - gA_closed",
    "conjB": "gB - gB_closed",
    "conjD": "gD - gD_closed",
    "eqC": "g - eq_c",
    "petitA_grandA": "GA - gA - yt gA*GA",
    "petitB_grandB_1": "GB - gB - yt gA*GB",
    "petitB_grandB_2": "GB - gB - yt gB*GA",
    "petitD_grandD": "GD - gD - 2yt gA + 2yt one - y2t2 gA - yt gA*GD",
    "mini_D": "gB - 2 gA + one - gA*gD",
    "bizarre_B_D": "GD - yt GB + yt one - gD",
    "ode_g": "t g*g' - g*g + one - t one",
    "euler_gD": "gD - two_minus_theta",
    "gB_from_gA_substitution": "gB_via_substitution - gB",
}
IDENTITY_NAMES = tuple(IDENTITIES)
_MONOMIAL = re.compile(r"(\d*)(?:y(\d*))?(?:t(\d*))?")


def _terms(residual: str) -> list:
    """The terms (c, a, b, p, q) of a residual written as in IDENTITIES, a
    lone source q read as one*q."""
    terms, sign, c, a, b = [], 1, 1, 0, 0
    for word in residual.split():
        if word in ("+", "-"):
            sign = -1 if word == "-" else 1
        elif monomial := _MONOMIAL.fullmatch(word):
            num, y, t = monomial.groups()
            c = int(num or 1)
            a, b = (0 if e is None else int(e or 1) for e in (y, t))
        else:
            p, _, q = word.rpartition("*")
            terms.append((sign * c, a, b, p or "one", q))
            sign, c, a, b = 1, 1, 0, 0
    return terms


def check_identity_order(order: int) -> None:
    """The ValueError of verify_identities(order), raised before it builds
    anything: the identities need series of order 2 * order + 2 (that of
    gB_via_substitution's g_sum), and no list is that long."""
    if 2 * order + 2 > _LONGEST:
        raise ValueError(f"order {order} is longer than any list can be: the "
                         f"identities need series of order 2 * {order} + 2, "
                         f"at most {_LONGEST}")


def verify_identities(order: int) -> list[Check]:
    """Evaluate every generating-series identity of IDENTITIES as LHS - RHS
    in packed form and report whether the residual vanishes through
    t^order, naming its first nonzero coefficient when it does not.

    The residuals are checked in IDENTITIES order. g is built first, since
    the closed forms and two_minus_theta read it; every other source is
    built, with its norms, when the first residual naming it comes up,
    in the order the residuals name them, and both are dropped as soon
    as the last residual naming it is decided. So each source is built
    once, and GA, GB and GD, the largest, are never all held at once."""
    N = order
    check_identity_order(N)
    g = g_base(N + 2)
    build = {"g": lambda: g, "g'": g.d_dt,
             "one": partial(TruncSeries.one, N + 1),
             "eq_c": partial(eq_c_series, N + 1),
             "two_minus_theta": lambda: two_minus_theta(
                 (g + TruncSeries.from_map({0: -1, 1: 1}, N + 2)).exact_div(2)),
             "gB_via_substitution": partial(gB_via_substitution, N)}
    for k in "ABD":
        build[f"g{k}"] = partial(g_sum, k, N + 1)
        build[f"G{k}"] = partial(G_sum, k, N + 1)
        build[f"g{k}_closed"] = partial(g_closed, k, N + 1, g)
    residuals = {name: _terms(residual) for name, residual in IDENTITIES.items()}
    # each source's last reader: a later reader overwrites an earlier one
    last = {source: name for name, terms in residuals.items()
            for term in terms for source in term[3:]}
    series, norms, checks = {}, {}, []
    for name, terms in residuals.items():
        for term in terms:
            for source in term[3:]:
                if source not in series:
                    series[source] = build[source]().coeffs[:N + 1]
                    norms[source] = _norms(series[source])
        hit = _first_nonzero(terms, series, norms, N + 1)
        for source in [s for s in series if last[s] == name]:
            del series[source], norms[source]
        if hit is None:
            checks.append(Check(name, True, f"residual 0 through t^{N}"))
        else:
            checks.append(Check(name, False,
                                f"first nonzero residual at t^{hit[0]}: {hit[1]}"))
    return checks


def carlitz_convolution_check() -> list[Check]:
    """The two convolution sums used to prove the type A and type B
    triangle relations, each against its closed-form right-hand side,
    exhaustively for 1 <= k <= 6, 0 <= m <= 6, 0 <= l <= 6. The summands
    are read off g_sum and G_sum; the convolution is done here in
    integers, not by a series product."""
    kmax = mmax = lmax = 6
    order = 2 * kmax + mmax + lmax + 1
    gA = g_sum("A", order).coeffs
    GA, GB = (G_sum(kind, order).coeffs for kind in "AB")

    def at(s: list, k: int, m: int, l: int = 0) -> int:  # of x^k y^l t^(2k+m+l)
        return s[2 * k + m + l].coeff(k, l)

    failures_a = []
    failures_b = []
    for k in range(1, kmax + 1):
        for m in range(mmax + 1):
            for l in range(lmax + 1):
                conv_a = sum(at(gA, k1, m1) * at(GA, k - k1, m - m1, l)
                             for k1 in range(k + 1) for m1 in range(m + 1))
                # cross-multiplied by the denominator, positive for k >= 1
                lhs_a = conv_a * (2 * k + m + l + 2) * (k + m)
                rhs_a = (l + 2) * k * comb(2 * k + m + l + 2, k) * comb(k + m, m)
                if lhs_a != rhs_a:
                    failures_a.append((k, m, l, lhs_a, rhs_a))
                conv_b = sum(at(gA, k1, m1) * at(GB, k - k1, m - m1, l)
                             for k1 in range(k + 1) for m1 in range(m + 1))
                rhs_b = comb(2 * k + m + l + 1, k) * binom(k + m - 1, m)
                if conv_b != rhs_b:
                    failures_b.append((k, m, l, conv_b, rhs_b))
    rng = f"k <= {kmax}, m <= {mmax}, l <= {lmax}"
    return [
        Check("carlitz_convolution_A", not failures_a,
              f"all equal for {rng}" if not failures_a
              else f"mismatches: {failures_a[:3]}"),
        Check("carlitz_convolution_B", not failures_b,
              f"all equal for {rng}" if not failures_b
              else f"mismatches: {failures_b[:3]}"),
    ]


def binomial_identity_check() -> list[Check]:
    """(binom(n-2,i-1)binom(n-i-2,i-2) + binom(n-1,i)binom(n-i-2,i-1))/(n-i)
    = binom(2i-2,i-1)binom(n-2,2i-2)/i for 2 <= n <= 40, 1 <= i <= n/2,
    cross-multiplied by the positive denominators i and n-i."""
    nmax = 40
    failures = []
    for n in range(2, nmax + 1):
        for i in range(1, n // 2 + 1):
            lhs = (binom(n - 2, i - 1) * binom(n - i - 2, i - 2)
                   + binom(n - 1, i) * binom(n - i - 2, i - 1)) * i
            rhs = binom(2 * i - 2, i - 1) * binom(n - 2, 2 * i - 2) * (n - i)
            if lhs != rhs:
                failures.append((n, i, lhs, rhs))
    return [Check("binomial_identity", not failures,
                  f"exact for all n <= {nmax}" if not failures
                  else f"mismatches: {failures[:3]}")]
