"""Sparse exact polynomial arithmetic in one and two variables.

Coefficients are Python ints (arbitrary precision), and the operators take
int scalars only: every quantity in this package is an integer, and every
division (quotient, the power-series halving) is exact and raises on a
remainder. Zero coefficients are never stored.

A polynomial is built from one mapping: exponent (Poly1) or (x, y)
exponent pair (Poly2) -> coefficient. The constructor rejects a negative
key, drops zero entries and adds nothing up, so callers collect terms in
one dict first; sum(polys) does so for whole polynomials. The private
builder _Poly._build keeps the nonzero entries and checks no key. It
builds only results whose keys cannot be negative: those made from the
keys of valid polynomials without subtracting (sums, products, negation,
scaling, y-slices, y-specializations) and the series kernel's unpacked
coefficients (packed.py; keys are slot and y-power indices). It never
receives a caller's mapping.

Storage order: the terms live in one dict, _c, in no promised order.
Every loop inside the package reads that dict as stored; items() is the
sorted public view, and only output sorts: __str__, to_pairs, to_triples
and the messages that name terms. An error that names the first bad term
still names the smallest in sorted order, found once it is known to
raise.

The transforms and the face-count sums, sums of c * x^a y^b (1 + s*x)^n,
add the cached rows binomial_row(n, s) into one dict instead of building
a polynomial per term. The series layer packs x-polynomials into big ints
once per series operation (packed.py), not in Poly2.__mul__, which would
re-pack each operand on every call.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb


def binom(a: int, b: int) -> int:
    """Binomial coefficient with the edge rules used everywhere in this
    package: 0 whenever b < 0 or a < b, with the single exception
    binom(-1, -1) = 1 (binomial_identity_check needs it at n = 2, i = 1)."""
    if a == -1 and b == -1:
        return 1
    if b < 0 or a < b:
        return 0
    return comb(a, b)


@lru_cache(maxsize=None)
def binomial_row(n: int, s: int) -> tuple:
    """The coefficients of (1 + s*x)^n, constant term first; () for n < 0.
    Cached by (n, s): the callers use s in {-1, 1, 2} and n up to the
    largest degree, so the cache holds O(n^2) ints."""
    return tuple(comb(n, k) * s**k for k in range(n + 1))


def quotient(num: int, den: int, what: str = "") -> int:
    """num / den, which must leave no remainder; the ArithmeticError names
    `what` when it is given."""
    q, r = divmod(num, den)
    if r:
        prefix = f"{what}: " if what else ""
        raise ArithmeticError(f"{prefix}{num} is not divisible by {den}")
    return q


class _Poly:
    """The operations of Poly1 and Poly2 that do not depend on the key
    shape. Subclasses check the keys of their mapping and keep its nonzero
    entries in __init__, multiply in __mul__, and name the key of the
    constant term in _ONE_KEY."""

    __slots__ = ("_c",)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({cls._ONE_KEY: 1})

    @classmethod
    def _build(cls, terms: dict):
        """The polynomial with the nonzero entries of terms, whose keys the
        caller knows to be nonnegative: no key is checked."""
        p = cls.__new__(cls)
        p._c = {k: c for k, c in terms.items() if c}
        return p

    @classmethod
    def sum(cls, polys):
        """The sum of the polynomials, accumulated in one dict."""
        out = {}
        for p in polys:
            for k, c in p._c.items():
                out[k] = out.get(k, 0) + c
        return cls._build(out)

    def items(self):
        return sorted(self._c.items())

    def is_zero(self) -> bool:
        return not self._c

    def __len__(self):
        """The number of nonzero terms."""
        return len(self._c)

    def scale(self, s):
        if not s:
            return type(self)()
        return self._build({k: c * s for k, c in self._c.items()})

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, int):
            other = type(self)({self._ONE_KEY: other})
        elif not isinstance(other, type(self)):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __neg__(self):
        return self._build({k: -c for k, c in self._c.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = type(self)({self._ONE_KEY: other})
        elif not isinstance(other, type(self)):
            return NotImplemented
        out = dict(self._c)
        for k, c in other._c.items():
            out[k] = out.get(k, 0) + c
        return self._build(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = type(self)({self._ONE_KEY: other})
        elif not isinstance(other, type(self)):
            return NotImplemented
        out = dict(self._c)
        for k, c in other._c.items():
            out[k] = out.get(k, 0) - c
        return self._build(out)

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return type(self)({self._ONE_KEY: other}) - self

    def __rmul__(self, other):
        return self.__mul__(other)

    def __str__(self):
        return _render(self.items())

    def __repr__(self):
        return f"{type(self).__name__}({self!s})"


class Poly1(_Poly):
    """Sparse univariate polynomial, exponent -> coefficient."""

    __slots__ = ()
    _ONE_KEY = 0

    def __init__(self, coeffs=None):
        coeffs = coeffs or {}
        for e in coeffs:
            if e < 0:
                raise ValueError(f"negative exponent {e}")
        self._c = {e: c for e, c in coeffs.items() if c}

    def coeff(self, e: int):
        return self._c.get(e, 0)

    def degree(self) -> int:
        """Maximum stored exponent; -1 for the zero polynomial."""
        return max(self._c) if self._c else -1

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, Poly1):
            return NotImplemented
        out = {}
        for e1, c1 in self._c.items():
            for e2, c2 in other._c.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return Poly1._build(out)

    def to_poly2(self) -> "Poly2":
        """Embed as a polynomial in x (no y)."""
        return Poly2._build({(e, 0): c for e, c in self._c.items()})

    def to_pairs(self):
        """Serialization: sorted [exponent, decimal-string] pairs."""
        return [[e, str(c)] for e, c in self.items()]


class Poly2(_Poly):
    """Sparse bivariate polynomial in x and y, (i, j) -> coefficient."""

    __slots__ = ()
    _ONE_KEY = (0, 0)

    def __init__(self, coeffs=None):
        coeffs = coeffs or {}
        for i, j in coeffs:
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent pair ({i}, {j})")
        self._c = {key: c for key, c in coeffs.items() if c}  # keys not rebuilt

    def coeff(self, i: int, j: int):
        return self._c.get((i, j), 0)

    def deg_x(self) -> int:
        return max((i for i, _ in self._c), default=-1)

    def deg_y(self) -> int:
        return max((j for _, j in self._c), default=-1)

    def coeff_of_y(self, j: int) -> Poly1:
        """The x-polynomial multiplying y^j."""
        return Poly1._build({i: c for (i, jj), c in self._c.items() if jj == j})

    def substitute_y(self, value) -> Poly1:
        """Specialize y to 1 or x; y := x sends x^i y^j to x^(i+j)."""
        if value not in (1, "x"):
            raise ValueError("y can only be specialized to 1 or 'x'")
        out = {}
        for (i, j), c in self._c.items():
            e = i + j if value == "x" else i
            out[e] = out.get(e, 0) + c
        return Poly1._build(out)

    def shift(self, i: int, j: int) -> "Poly2":
        """Multiply by x^i y^j."""
        return Poly2({(a + i, b + j): c for (a, b), c in self._c.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        out = {}
        terms = other._c.items()
        for (i1, j1), c1 in self._c.items():
            for (i2, j2), c2 in terms:
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        return Poly2._build(out)

    def to_triples(self):
        """Serialization: [i, j, decimal-string] sorted lexicographically."""
        return [[i, j, str(c)] for (i, j), c in self.items()]


def _mono(key):
    """x^i*y^j for the key (i, j), x^e for the key e; "" for the constant."""
    exps = (key,) if isinstance(key, int) else key
    return "*".join(v if e == 1 else f"{v}^{e}"
                    for v, e in zip("xy", exps) if e)


def _render(items):
    if not items:
        return "0"
    chunks = []
    for key, c in items:
        m = _mono(key)
        if not m:
            body = str(abs(c))
        elif abs(c) == 1:
            body = m
        else:
            body = f"{abs(c)}*{m}"
        neg = c < 0
        if not chunks:
            chunks.append(("-" if neg else "") + body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)
