"""Basis changes between face counts and their h/gamma refinements.

Univariate: f <-> h at a prescribed degree d, and the gamma extraction
h = sum_i gamma_i x^i (1+x)^(d-2i), defined exactly when h_k = h_(d-k).

Bivariate: F <-> H for a complex with a distinguished facet, and the
triangle extraction H = sum_(i,j) gamma_(i,j) x^i (1+xy)^j (1+x)^(d-2i-j):
the substitution y = (z-1)/x turns 1+xy into z, so row j is the gamma
expansion of the z^j slice at degree d - j. All substitution formulas are
implemented in their cleared polynomial form, so every step stays in exact
integer arithmetic, and each expansion is one accumulation of c * row[k],
row = poly.binomial_row(n, s), into a single dict at the shifted key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .poly import Poly1, Poly2, binomial_row


class NotGammaRepresentable(ValueError):
    """The input has no expansion in the gamma basis (non-symmetric data)."""

    def __init__(self, message, j=None):
        super().__init__(message)
        self.j = j


def _times_rows(p: Poly1, d: int, s: int) -> Poly1:
    """sum_a p_a x^a (1 + s*x)^(d-a)."""
    out = {}
    for a, c in p._c.items():
        for k, r in enumerate(binomial_row(d - a, s), a):
            out[k] = out.get(k, 0) + c * r
    return Poly1(out)


def h_from_f(f: Poly1, d: int) -> Poly1:
    """h(x) = sum_a f_a x^a (1-x)^(d-a) where f = sum_a f_a x^a."""
    if f.degree() > d:
        raise ValueError(f"f has degree {f.degree()} > d = {d}")
    return _times_rows(f, d, -1)


def f_from_h(h: Poly1, d: int) -> Poly1:
    """f(x) = sum_a h_a x^a (1+x)^(d-a); inverse of h_from_f."""
    if h.degree() > d:
        raise ValueError(f"h has degree {h.degree()} > d = {d}")
    return _times_rows(h, d, 1)


def gamma_from_h(h: Poly1, d: int) -> tuple:
    """(gamma_0, ..., gamma_(d//2)) with h = sum_i gamma_i x^i (1+x)^(d-2i),
    solved from h_i = sum_(k<=i) gamma_k C(d-2k, i-k); raises
    NotGammaRepresentable unless h is symmetric of degree d (Gal 2005)."""
    if h.degree() > d:
        raise ValueError(f"h has degree {h.degree()} > d = {d}")
    if any(h.coeff(d - k) != c for k, c in h._c.items()):
        raise NotGammaRepresentable(f"h = {h} is not symmetric of degree {d}")
    out = []
    for i in range(d // 2 + 1):
        out.append(h.coeff(i) - sum(g * comb(d - 2 * k, i - k)
                                    for k, g in enumerate(out)))
    return tuple(out)


def poly_from_gamma(vec) -> Poly1:
    """Gamma vector as the polynomial sum_i gamma_i x^i."""
    return Poly1(dict(enumerate(vec)))


@dataclass
class GammaTriangle:
    """Coefficients gamma_(i,j), nonzero only for 2i + j <= degree."""

    coeffs: dict = field(default_factory=dict)
    degree: int = 0

    def __post_init__(self):
        """Nonzero entries only, each inside the triangle; make drops the
        zeros first."""
        for (i, j), c in self.coeffs.items():
            if not c:
                raise ValueError(f"entry ({i}, {j}) is zero; make drops zeros")
            if i < 0 or j < 0 or 2 * i + j > self.degree:
                raise ValueError(
                    f"entry ({i}, {j}) outside the triangle for degree {self.degree}")

    @classmethod
    def make(cls, coeffs, degree: int) -> "GammaTriangle":
        return cls({key: c for key, c in coeffs.items() if c}, degree)

    def entry(self, i: int, j: int) -> int:
        return self.coeffs.get((i, j), 0)

    def items(self):
        return sorted(self.coeffs.items())

    def to_poly2(self) -> Poly2:
        return Poly2(self.coeffs)

    def row(self, j: int) -> Poly1:
        return Poly1({i: c for (i, jj), c in self.coeffs.items() if jj == j})

    def row_sums(self) -> tuple:
        """gamma_i = sum_j gamma_(i,j): the plain gamma vector."""
        out = [0] * (self.degree // 2 + 1)
        for (i, _), c in self.coeffs.items():
            out[i] += c
        return tuple(out)

    def to_dict(self) -> dict:
        return {"degree": self.degree, "entries": self.to_poly2().to_triples()}


def H_from_F(F: Poly2, d: int) -> Poly2:
    """H(x,y) = sum F_(i,j) x^(i+j) y^j (1-x)^(d-i-j), the cleared form of
    (1-x)^d F(x/(1-x), xy/(1-x))."""
    out = {}
    for (i, j), c in F._c.items():
        if i + j > d:
            i, j = min(key for key in F._c if sum(key) > d)  # the first in order
            raise ValueError(f"F entry ({i}, {j}) has i + j > d = {d}")
        for k, r in enumerate(binomial_row(d - i - j, -1), i + j):
            out[k, j] = out.get((k, j), 0) + c * r
    return Poly2(out)


def F_from_H(H: Poly2, d: int) -> Poly2:
    """F(x,y) = sum H_(a,b) x^(a-b) y^b (1+x)^(d-a); inverse of H_from_F."""
    out = {}
    for (a, b), c in H._c.items():
        if b > a or a > d:
            # the first in order, with the first of the two faults it has
            a, b = min((a, b) for a, b in H._c if b > a or a > d)
            if b > a:
                raise ValueError(
                    f"H entry ({a}, {b}) has y-degree exceeding x-degree")
            raise ValueError(f"H entry ({a}, {b}) has x-degree > d = {d}")
        for k, r in enumerate(binomial_row(d - a, 1), a - b):
            out[k, b] = out.get((k, b), 0) + c * r
    return Poly2(out)


def Gamma_from_H(H: Poly2, d: int) -> GammaTriangle:
    """Extract the triangle coefficients from
    H = sum gamma_(i,j) x^i (1+xy)^j (1+x)^(d-2i-j).

    y = (z-1)/x turns H into G(x,z) = sum H_(a,b) x^(a-b) (z-1)^b, which is
    sum gamma_(i,j) x^i z^j (1+x)^(d-2i-j) and a polynomial iff every b <= a;
    row j is gamma_from_h of G's z^j slice at degree d - j."""
    if H.deg_x() > d:
        raise NotGammaRepresentable(f"x-degree {H.deg_x()} exceeds d = {d}")
    j = max((b for a, b in H._c if b > a), default=None)
    if j is not None:
        raise NotGammaRepresentable(
            f"y^{j} slice {H.coeff_of_y(j)} not divisible by x^{j}", j=j)
    slices = [{} for _ in range(d + 1)]  # G's z^j slice, x-power -> coeff
    for (a, b), c in H._c.items():
        # the z^(b-l) coefficient of (z-1)^b is the z^l one of (1-z)^b
        for l, r in enumerate(binomial_row(b, -1)):
            zs = slices[b - l]
            zs[a - b] = zs.get(a - b, 0) + c * r
    coeffs = {}
    for j in range(d, -1, -1):
        try:
            row = gamma_from_h(Poly1(slices[j]), d - j)
        except NotGammaRepresentable as exc:
            raise NotGammaRepresentable(
                f"row j = {j} not representable: {exc}", j=j)
        coeffs.update(((i, j), gi) for i, gi in enumerate(row) if gi)
    return GammaTriangle.make(coeffs, d)


def H_from_Gamma(g: GammaTriangle) -> Poly2:
    """Expand sum gamma_(i,j) x^i (1+xy)^j (1+x)^(d-2i-j)."""
    out = {}
    for (i, j), c in g.coeffs.items():
        tail = binomial_row(g.degree - 2 * i - j, 1)
        for b, cb in enumerate(binomial_row(j, 1)):
            for k, r in enumerate(tail, i + b):
                out[k, b] = out.get((k, b), 0) + c * cb * r
    return Poly2(out)


def F_from_Gamma(g: GammaTriangle) -> Poly2:
    """Expand sum gamma_(i,j) (x(1+x))^i (1+x+y)^j (1+2x)^(d-2i-j), that is
    sum_b C(j,b) y^b x^i (1+x)^(i+j-b) (1+2x)^(d-2i-j); identical to
    F_from_H(H_from_Gamma(g))."""
    out = {}
    for (i, j), c in g.coeffs.items():
        tail = binomial_row(g.degree - 2 * i - j, 2)
        for b, cb in enumerate(binomial_row(j, 1)):
            for k, r in enumerate(binomial_row(i + j - b, 1), i):
                for l, t in enumerate(tail, k):
                    out[l, b] = out.get((l, b), 0) + c * cb * r * t
    return Poly2(out)
