"""Truncated formal power series in t with exact bivariate coefficients,
and the generating-series identities they verify.

A TruncSeries knows its coefficients for t^0 .. t^(order-1) and nothing
beyond; every operation propagates the honestly-known order (multiplying
by t gains one, d/dt loses one). All coefficients are integers: inverse()
takes only series with constant term 1 or -1, and the only divisions are
exact ones (sqrt halving its recursion, exact_div, and the closed forms
behind the defining sums), which raise ArithmeticError on a remainder.

Series products, inverse() and sqrt() run through one packed kernel
(Kronecker substitution in x): each operation packs every t^n coefficient
of its operands once, as {y-power: int} with one x-slot every w bits, sums
big-int products so that CPython's multiplication does the x-convolution,
and unpacks each output coefficient once. w is proven to hold every digit
before the first multiply: from the operands' coefficient sizes for a
product, from an l1 majorant of the result for inverse and sqrt. The
packing lives here, not in Poly2.__mul__, because a series operation packs
each coefficient once for all its uses.

Series, closed route (g and gX have polynomial-in-x coefficients):
  g    = sqrt((1-t)^2 - 4xt^2)
  gA   = ((1 + t - g)/t)/2 * (1+xt)^-1
  gB   = ((2tx + g - t + 1)/2) * (g(1+xt))^-1
  gD   = ((g-1)(g-1+t)/2) * g^-1
  GA, GB = g / (1 - yt gA), g being gA or gB;  GD = yt (GB - 1) + gD
Sum route: gX = sum_n localgamma(X_n) t^n, GX = sum_n Gamma(X_n) t^n, each
term read off coxeter, the one home of the A/B/D closed forms.
"""

from __future__ import annotations

from math import comb

# gamma_triangle_diagram is unused here; perfbench's tests read it off series
from .coxeter import (TypedComponent, closed_triangle, gamma_triangle_diagram,
                      local_gamma_poly)
from .poly import Poly2, binom, quotient
from .report import Check


def _exact_div(c: Poly2, d: int, n: int) -> Poly2:
    """The t^n coefficient c divided by d; a remainder raises, naming t^n."""
    if any(v % d for _, v in c.items()):
        raise ArithmeticError(f"coefficient {c} of t^{n} is not divisible by {d}")
    return Poly2({key: v // d for key, v in c.items()})


# The packed kernel. A packed coefficient is {y-power: int}, the int being
# the x-polynomial evaluated at x = 2^w. Digits are balanced: slot k holds
# d_k in [-2^(w-1), 2^(w-1)), so a packed int unpacks uniquely once every
# digit of the exact result is known to lie in that range; the packed sums
# on the way there need no bound.

class _Slots:
    """Packing and unpacking with one x-slot every `bits` bits, rounded up
    to whole bytes so that one to_bytes call splits a packed int."""

    __slots__ = ("nbytes", "half", "_offsets")

    def __init__(self, bits: int):
        self.nbytes = -(-bits // 8)
        self.half = 1 << (8 * self.nbytes - 1)
        self._offsets = {}

    def _offset(self, n: int) -> int:
        """half in each of n slots: adding it makes every digit nonnegative."""
        off = self._offsets.get(n)
        if off is None:
            slot = bytes(self.nbytes - 1) + b"\x80"
            off = self._offsets[n] = int.from_bytes(slot * n, "little")
        return off

    def pack(self, c: Poly2) -> dict:
        """{y-power: packed x-polynomial}; every coefficient must fit a digit."""
        rows = {}
        for (i, j), v in c.items():
            rows.setdefault(j, {})[i] = v
        nb, half = self.nbytes, self.half
        out = {}
        for j, row in rows.items():
            n = max(row) + 1
            data = b"".join((row.get(i, 0) + half).to_bytes(nb, "little")
                            for i in range(n))
            out[j] = int.from_bytes(data, "little") - self._offset(n)
        return out

    def unpack(self, packed: dict) -> Poly2:
        """The Poly2 packed as `packed`, whose digits must all be in range."""
        nb, half = self.nbytes, self.half
        out = {}
        for j, p in packed.items():
            # with top digit d_D != 0 and w >= 2, |p| >= 2^(wD) / 3 >=
            # 2^(w(D-1)), so n > D; the slots above the top digit hold 0
            n = abs(p).bit_length() // (8 * nb) + 2
            data = (p + self._offset(n)).to_bytes(n * nb, "little")
            for i in range(n):
                d = int.from_bytes(data[i * nb:(i + 1) * nb], "little") - half
                if d:
                    out[(i, j)] = d
        return Poly2(out)


def _packed_dot(pairs) -> dict:
    """The sum of a * b over pairs of packed coefficients, by y-power."""
    out = {}
    for a, b in pairs:
        for j1, p in a.items():
            for j2, q in b.items():
                j = j1 + j2
                out[j] = out.get(j, 0) + p * q
    return out


def _bits(c: Poly2) -> int:
    """Bit length of the largest |coefficient|; 0 for the zero polynomial."""
    return max((abs(v) for _, v in c.items()), default=0).bit_length()


def _l1(c: Poly2) -> int:
    return sum(abs(v) for _, v in c.items())


def _product_bits(a: list, b: list) -> int:
    """A slot width that holds every digit of the product of the series with
    coefficients a and b, through t^(n-1), n = len(a) = len(b).

    A digit of the t^m coefficient at x^k y^j is a sum over the t-pairs
    i + i' = m (at most n), the y-splits of j (at most min y-degree + 1) and
    the x-splits of k (at most min x-degree + 1) of one product of a
    coefficient of a_i, below 2^ba_i, and one of b_i', below 2^bb_i', in
    absolute value. With S the product of the three counts and top the
    largest ba_i + bb_i' over nonzero pairs, |digit| < S * 2^top <
    2^(top + bit_length(S)) <= 2^(w - 1), the range of a balanced w-bit
    digit; the max over every ba_i and bb_i' keeps the inputs in range."""
    n = len(a)
    ba = [_bits(c) for c in a]
    bb = [_bits(c) for c in b]
    top = max([ba[i] + bb[j] for i in range(n) if ba[i]
               for j in range(n - i) if bb[j]] + ba + bb)
    dx = min(max(c.deg_x() for c in a), max(c.deg_x() for c in b))
    dy = min(max(c.deg_y() for c in a), max(c.deg_y() for c in b))
    summands = n * (dy + 1) * (dx + 1)
    return top + summands.bit_length() + 1


def _packed_product(a: list, b: list, bits: int) -> list:
    """The coefficients of the product through t^(len(a)-1), packed with
    `bits`-bit slots; correct whenever `bits` bounds every digit."""
    slots = _Slots(bits)
    pa = [slots.pack(c) for c in a]
    pb = [slots.pack(c) for c in b]
    return [slots.unpack(_packed_dot((pa[i], pb[m - i]) for i in range(m + 1)))
            for m in range(len(a))]


class TruncSeries:
    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        cs = list(coeffs or [])
        if len(cs) > order:
            raise ValueError("more coefficients than the stated order")
        cs += [Poly2.zero()] * (order - len(cs))
        self.coeffs = [c if isinstance(c, Poly2) else Poly2({(0, 0): c})
                       for c in cs]

    @classmethod
    def from_map(cls, mapping: dict, order: int) -> "TruncSeries":
        cs = [Poly2.zero()] * order
        for n, c in mapping.items():
            if n < order:
                cs[n] = c if isinstance(c, Poly2) else Poly2({(0, 0): c})
        return cls(order, cs)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls.from_map({0: 1}, order)

    def coeff(self, n: int) -> Poly2:
        if n >= self.order:
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
        if sum(map(len, a)) <= 2:
            # a binomial such as 1 + xt: one coefficientwise product per term
            # costs less than packing the other operand (1.5x at order 98)
            long = TruncSeries(n, b)
            return sum(((long * c).shift_t(k).truncate(n)
                        for k, c in enumerate(a) if c), TruncSeries(n))
        return TruncSeries(n, _packed_product(a, b, _product_bits(a, b)))

    def __rmul__(self, other):
        return self.__mul__(other)

    def shift_t(self, k: int = 1) -> "TruncSeries":
        """Multiply by t^k; the known order grows by k."""
        return TruncSeries(self.order + k, [Poly2.zero()] * k + self.coeffs)

    def div_t(self, k: int = 1) -> "TruncSeries":
        """Divide by t^k; the first k coefficients must vanish."""
        for n in range(k):
            if not self.coeffs[n].is_zero():
                raise ValueError(f"coefficient of t^{n} is nonzero, cannot divide by t^{k}")
        if self.order - k < 1:
            raise ValueError("nothing left after dividing by t")
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
        slots = _Slots(max(bound).bit_length() + 1)
        s = [slots.pack(c) for c in self.coeffs]
        packed = [{0: v}]
        out = [Poly2({(0, 0): v})]
        for n in range(1, self.order):
            acc = _packed_dot((s[k], packed[n - k]) for k in range(1, n + 1))
            r = {j: -v * p for j, p in acc.items()}
            packed.append(r)
            out.append(slots.unpack(r))
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
        slots = _Slots(top.bit_length() + 1)
        c = [slots.pack(p) for p in self.coeffs]
        packed = [{0: 1}]
        out = [Poly2.one()]
        for n in range(1, self.order):
            # c_n = sum_k r_k r_(n-k); each pair k < n - k occurs twice
            acc = dict(c[n])
            for j, p in _packed_dot((packed[k], packed[n - k])
                                    for k in range(1, (n + 1) // 2)).items():
                acc[j] = acc.get(j, 0) - 2 * p
            if n % 2 == 0:
                middle = packed[n // 2]
                for j, p in _packed_dot(((middle, middle),)).items():
                    acc[j] = acc.get(j, 0) - p
            out.append(_exact_div(slots.unpack(acc), 2, n))
            # every digit of acc is even now, so halving the packed int
            # halves each digit exactly
            packed.append({j: p >> 1 for j, p in acc.items()})
        return TruncSeries(self.order, out)

    def exact_div(self, d: int) -> "TruncSeries":
        """Divide every coefficient by the int d; a remainder raises
        ArithmeticError naming its t-power."""
        return TruncSeries(self.order, [_exact_div(c, d, n)
                                        for n, c in enumerate(self.coeffs)])

    def first_nonzero(self, through: int):
        """(n, coefficient) of the first nonzero term with n <= through,
        or None; raises if the series is not known that far."""
        if through >= self.order:
            raise ValueError(
                f"series only known through t^{self.order - 1}, asked t^{through}")
        for n in range(through + 1):
            if not self.coeffs[n].is_zero():
                return n, self.coeffs[n]
        return None

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
        for (k, _), v in c.items():
            if n < 2 * k:
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
        for (k, _), v in c.items():
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


def g_closed(kind: str, order: int) -> TruncSeries:
    """Closed forms of gA, gB, gD as algebraic expressions in g: each even
    numerator is halved exactly, then times the inverse of a unit series."""
    one_plus_xt = TruncSeries.from_map({0: 1, 1: _x_poly({1: 1})}, order)
    if kind == "A":
        g = g_base(order + 1)
        num = TruncSeries.from_map({0: 1, 1: 1}, order + 1) - g
        return num.div_t().exact_div(2) * one_plus_xt.inverse()
    if kind == "B":
        g = g_base(order)
        num = g + TruncSeries.from_map({0: 1, 1: _x_poly({0: -1, 1: 2})}, order)
        return num.exact_div(2) * (g * one_plus_xt).inverse()
    if kind == "D":
        g = g_base(order)
        gm1 = g - 1
        num = gm1 * (gm1 + TruncSeries.from_map({1: 1}, order))
        return num.exact_div(2) * g.inverse()
    raise ValueError(f"unknown series kind {kind!r}")


def _rank_sum(kind: str, order: int, term) -> TruncSeries:
    """The sum over ranks n of term(n) t^n; types A and B start with the
    empty diagram's 1, type D at D2."""
    if kind not in ("A", "B", "D"):
        raise ValueError(f"unknown series kind {kind!r}")
    out = {n: term(n).to_poly2() for n in range(2 if kind == "D" else 1, order)}
    if kind != "D":
        out[0] = 1
    return TruncSeries.from_map(out, order)


def g_sum(kind: str, order: int) -> TruncSeries:
    """gA, gB, gD as the sums over n of localgamma(X_n) t^n (0 for D2)."""
    return _rank_sum(kind, order,
                     lambda n: local_gamma_poly(TypedComponent(kind, n)))


def G_sum(kind: str, order: int) -> TruncSeries:
    """GA, GB, GD as the sums over n of closed_triangle(X, n) t^n (D2 = y^2,
    D3 = A3)."""
    return _rank_sum(kind, order, lambda n: closed_triangle(kind, n))


def times_yt(s: TruncSeries, k: int = 1) -> TruncSeries:
    """(yt)^k * s: every coefficient shifted by y^k, then the series by t^k
    (the known order grows by k)."""
    return TruncSeries(s.order, [c.shift(0, k) for c in s.coeffs]).shift_t(k)


def G_closed(kind: str, order: int) -> TruncSeries:
    """GA and GB solved out of the recursive relations
    G = g + yt gA G, i.e. G = g / (1 - yt gA); GD via yt (GB - 1) + gD."""
    if kind in ("A", "B"):
        gA = g_closed("A", order)
        g = gA if kind == "A" else g_closed("B", order)
        yt_gA = times_yt(gA).truncate(order)
        return g * (TruncSeries.one(order) - yt_gA).inverse()
    if kind == "D":
        GB = G_closed("B", order)
        gD = g_closed("D", order)
        return times_yt(GB - 1).truncate(order) + gD
    raise ValueError(f"unknown series kind {kind!r}")


def eq_c_series(order: int) -> TruncSeries:
    """1 - t - 2 sum_(n>=1) sum_i binom(2i-2, i-1) binom(n-2, 2i-2)/i x^i t^n,
    the fully expanded double-sum form of g."""
    out = [Poly2.one(), Poly2({(0, 0): -1})]
    for n in range(2, order):
        c = {}
        for i in range(1, n // 2 + 1):
            c[i] = quotient(-2 * comb(2 * i - 2, i - 1) * comb(n - 2, 2 * i - 2), i)
        out.append(_x_poly(c))
    return TruncSeries(order, out[:order])


def two_minus_theta(s: TruncSeries) -> TruncSeries:
    """(2 - theta_t) applied to a series, theta_t being the Euler derivation."""
    return s * 2 - s.euler_theta()


def gB_via_substitution(order: int) -> TruncSeries:
    """gB recovered from gA alone: differentiate t*gA(x/t, t) in t, then
    substitute x -> xt."""
    gA = g_sum("A", 2 * order + 2)
    h = substitute_x_over_t_times_t(gA)
    return substitute_x_to_xt(h.d_dt())


ODE_NAME = "ode_g"

IDENTITY_NAMES = (
    "conjA", "conjB", "conjD", "eqC",
    "petitA_grandA", "petitB_grandB_1", "petitB_grandB_2",
    "petitD_grandD", "mini_D", "bizarre_B_D",
    ODE_NAME, "euler_gD", "gB_from_gA_substitution",
)


def verify_identities(order: int) -> list[Check]:
    """Evaluate every generating-series identity as LHS - RHS and report
    whether the residual vanishes through t^order."""
    N = order
    g = g_base(N + 2)
    gA, gB, gD = (g_sum(k, N + 1) for k in "ABD")
    GA, GB, GD = (G_sum(k, N + 1) for k in "ABD")

    residuals = {
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
        ODE_NAME: ((g * g.d_dt()).shift_t() - g * g
                   + TruncSeries.from_map({0: 1, 1: -1}, N + 2)),
        "euler_gD": gD - two_minus_theta(
            (g + TruncSeries.from_map({0: -1, 1: 1}, N + 2)).exact_div(2)),
        "gB_from_gA_substitution": gB_via_substitution(N) - gB.truncate(N + 1),
    }
    checks = []
    for name in IDENTITY_NAMES:
        res = residuals[name]
        hit = res.first_nonzero(N)
        if hit is None:
            checks.append(Check(name, True, f"residual 0 through t^{N}"))
        else:
            checks.append(Check(name, False,
                                f"first nonzero residual at t^{hit[0]}: {hit[1]}"))
    return checks


def carlitz_convolution_check(kmax: int, mmax: int, lmax: int) -> list[Check]:
    """The two convolution sums used to prove the type A and type B
    triangle relations, each against its closed-form right-hand side,
    exhaustively for 1 <= k <= kmax, 0 <= m <= mmax, 0 <= l <= lmax. The
    summands are read off g_sum and G_sum; the convolution is done here
    in integers, not by a series product."""
    if min(kmax, mmax, lmax) < 1:
        raise ValueError("bounds must be >= 1")
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


def binomial_identity_check(nmax: int) -> list[Check]:
    """(binom(n-2,i-1)binom(n-i-2,i-2) + binom(n-1,i)binom(n-i-2,i-1))/(n-i)
    = binom(2i-2,i-1)binom(n-2,2i-2)/i for 2 <= n <= nmax, 1 <= i <= n/2,
    cross-multiplied by the positive denominators i and n-i."""
    if nmax < 2:
        raise ValueError("nmax must be >= 2")
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
