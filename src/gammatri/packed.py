"""The packed kernel of the series layer: Kronecker substitution in x.

A packed coefficient is {y-power: int}, the int being the x-polynomial at
x = 2^w: one x-slot every w bits, packed by plain shifts, w being exactly
bit_length(B) + 1 with no byte alignment, B a bound on every digit the
caller unpacks. Digits are balanced: slot k holds d_k in [-2^(w-1),
2^(w-1)), so a packed int unpacks uniquely once every digit of the exact
result is known to lie in that range, and is 0 iff every digit is; the
packed sums on the way there need no bound.

One packed sum serves the series product and the identity residuals of
series.verify_identities: the sum of c y^a t^b P Q over terms (c, a, b,
p, q), P and Q the series that the names p and q map to (a term of one
series X is written one * X). It packs each series once and sums big-int
products into each packed t^m coefficient, so that CPython's
multiplication does the x-convolution; a y-shift offsets the y-powers, a
t-shift the index. Its digit bound: a digit of P_i Q_j is at most
|P_i|_1 |Q_j|_max, since each monomial of P_i meets one monomial of Q_j.

The packing lives here, not in Poly2.__mul__, because a series operation
packs each coefficient once for all its uses.
"""

from __future__ import annotations

from .poly import Poly2


def _pack(c: Poly2, w: int) -> dict:
    """{y-power: the x-polynomial at x = 2^w}, one packed int per y-power."""
    out = {}
    for (i, j), v in c._c.items():
        out[j] = out.get(j, 0) + (v << w * i)
    return out


def _unpack(packed: dict, w: int) -> Poly2:
    """The Poly2 packed as `packed` at width w >= 2, whose digits must all
    lie in [-2^(w-1), 2^(w-1)): each step peels the lowest balanced digit."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    out = {}
    for j, p in packed.items():
        i = 0
        while p:
            d = ((p + half) & mask) - half
            if d:
                out[(i, j)] = d
            p = (p - d) >> w
            i += 1
    return Poly2._build(out)


def _packed_dot(pairs, out=None, c: int = 1, a: int = 0) -> dict:
    """out (a new dict when None) plus c y^a times the sum of p * q over
    pairs (p, q) of packed coefficients, by y-power."""
    out = {} if out is None else out
    for p, q in pairs:
        for j1, u in p.items():
            u *= c
            for j2, v in q.items():
                j = j1 + j2 + a
                out[j] = out.get(j, 0) + u * v
    return out


def _l1(c: Poly2) -> int:
    return sum(map(abs, c._c.values()))


def _norms(cs: list) -> tuple:
    """The l1 norms and the largest |digit| of the coefficients cs."""
    return [_l1(c) for c in cs], [max(map(abs, c._c.values()), default=0) for c in cs]


def _sum_bound(terms, norms: dict, n: int) -> int:
    """A bound on every digit of the t^0 .. t^(n-1) coefficients of a
    packed sum, norms mapping each name to the _norms of its series: the
    max over m of sum |c| sum_i |P_i|_1 |Q_(m-b-i)|_max, i running over the
    nonzero P_i only."""
    total = [0] * n
    for c, _, b, p, q in terms:
        lp = [(i, v) for i, v in enumerate(norms[p][0]) if v]
        top = norms[q][1]
        for k in range(n - b):
            total[k + b] += abs(c) * sum(v * top[k - i] for i, v in lp if i <= k)
    return max(total)


def _packed_sum(terms, series: dict, n: int, w: int):
    """Yield the t^0 .. t^(n-1) coefficients of a packed sum at width w,
    series mapping each name to a coefficient list of length >= n. Each
    list is packed once; a y-shift offsets the y-powers, a t-shift the
    index. A coefficient is zero iff all its ints are, and unpacks
    correctly when its digits fit a balanced w-bit slot."""
    packed = {name: [_pack(c, w) for c in series[name][:n]]
              for name in {name for t in terms for name in t[3:]}}
    nonzero = {name: [i for i, d in enumerate(cs) if d] for name, cs in packed.items()}
    for m in range(n):
        out = {}
        for c, a, b, p, q in terms:
            P, Q, k = packed[p], packed[q], m - b
            _packed_dot(((P[i], Q[k - i]) for i in nonzero[p] if i <= k), out, c, a)
        yield out


def _first_nonzero(terms, series: dict, norms: dict, n: int):
    """(m, coefficient) of the first nonzero t^m coefficient, m < n, of a
    packed sum, or None; packed at w = bit_length(_sum_bound) + 1, only
    that coefficient is unpacked."""
    w = _sum_bound(terms, norms, n).bit_length() + 1
    for m, packed in enumerate(_packed_sum(terms, series, n, w)):
        if any(packed.values()):
            return m, _unpack(packed, w)
    return None


_PRODUCT = ((1, 0, 0, "a", "b"),)


def _product_bound(a: list, b: list) -> int:
    """A bound on every digit of the product of the series with
    coefficients a and b through t^(n-1), n = len(a) = len(b), as
    _sum_bound gives it, and on every digit of a and b."""
    norms = {"a": _norms(a), "b": _norms(b)}
    return max([_sum_bound(_PRODUCT, norms, len(a))] + norms["a"][1] + norms["b"][1])


def _packed_product(a: list, b: list, w: int) -> list:
    """The coefficients of the product through t^(len(a)-1), packed at
    width w; correct whenever every digit fits a balanced w-bit slot."""
    return [_unpack(p, w)
            for p in _packed_sum(_PRODUCT, {"a": a, "b": b}, len(a), w)]
