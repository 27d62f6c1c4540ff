"""Exact E and K of a family member, in rational arithmetic.

A double is a dyadic rational.  So at a point w = u + iv whose parts are
doubles, and for a weight lam whose parts are doubles, the data

    f = 2 w^(-N-2) (w^(2N) - 1),   g = w^m,   h = lam w^n,   N = m + n,

and everything built from them by + - x / are exact rationals.  This module
restates that data on pairs of Fractions, with no LaurentPoly, numpy or
mpmath, and takes nothing from wep4: callers pass (m, n, lam) as numbers.
It gives E and K two ways, from the CP1 x CP1 pair a = g + ih, b = g - ih
and from the Lagrange wedge of the lift F = (1/sqrt2, g, h, (g^2+h^2)/sqrt2);
every square root cancels in both, so the two must agree exactly.
"""

from __future__ import annotations

from fractions import Fraction


class Gauss:
    """A complex number with Fraction parts: exact + - x, conj, |.|^2, and
    integer powers by binary powering."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @classmethod
    def of(cls, z: complex) -> "Gauss":
        z = complex(z)
        return cls(z.real, z.imag)

    def __add__(self, other: "Gauss") -> "Gauss":
        return Gauss(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Gauss") -> "Gauss":
        return Gauss(self.re - other.re, self.im - other.im)

    def __mul__(self, other) -> "Gauss":
        if not isinstance(other, Gauss):
            return Gauss(self.re * other, self.im * other)
        return Gauss(self.re * other.re - self.im * other.im,
                     self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def conj(self) -> "Gauss":
        return Gauss(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __pow__(self, k: int) -> "Gauss":
        base = self if k >= 0 else self.conj() * (1 / self.abs2())
        out, k = Gauss(1), abs(k)
        while k:
            if k & 1:
                out = out * base
            base, k = base * base, k >> 1
        return out


I = Gauss(0, 1)


def data(m: int, n: int, lam: complex, w: complex):
    """(f, g, h, g', h') at w, exactly."""
    z, lam, big_n = Gauss.of(w), Gauss.of(lam), m + n
    f = 2 * (z ** (big_n - 2) - z ** (-big_n - 2))
    return f, z**m, lam * z**n, m * z ** (m - 1), n * lam * z ** (n - 1)


def split_fields(m: int, n: int, lam: complex, w: complex) -> tuple[Fraction, Fraction]:
    """E = |f|^2 A B / 4 and K = -2 (|a'|^2 / A^2 + |b'|^2 / B^2) / E."""
    f, g, h, dg, dh = data(m, n, lam, w)
    a, b, da, db = g + I * h, g - I * h, dg + I * dh, dg - I * dh
    big_a, big_b = 1 + a.abs2(), 1 + b.abs2()
    energy = f.abs2() * big_a * big_b / 4
    return energy, -2 * (da.abs2() / big_a**2 + db.abs2() / big_b**2) / energy


def wedge_fields(m: int, n: int, lam: complex, w: complex) -> tuple[Fraction, Fraction]:
    """E = |f|^2 |F|^2 / 2 and K = -2 |F ^ F'|^2 / (|F|^4 E), each pair of
    the wedge written out so that its 1/sqrt2 factors square to rationals."""
    f, g, h, dg, dh = data(m, n, lam, w)
    s, ds = g * g + h * h, 2 * (g * dg + h * dh)
    norm2 = Fraction(1, 2) + g.abs2() + h.abs2() + s.abs2() / 2
    wedge = (
        (dg.abs2() + dh.abs2()) / 2 + ds.abs2() / 4 + (g * dh - h * dg).abs2()
        + ((g * ds - s * dg).abs2() + (h * ds - s * dh).abs2()) / 2
    )
    energy = f.abs2() * norm2 / 2
    return energy, -2 * wedge / (norm2**2 * energy)


def condition(m: int, n: int, lam: complex, w: complex) -> float:
    """Roundoff condition number of split E and K at w, in units of eps.

    Evaluating p = sum c_k w^k in double errs by at most about
    sum (1 + |k|) |c_k w^k| eps: each power, the coefficient's own rounding
    and the product.  With kappa_p that sum over |p(w)|, and A = 1 + |a|^2
    adding no cancellation, E's relative error is at most
    2 kappa_f + 2 (kappa_a + kappa_b) and K's, through (|a'| / A)^2, at most

        2 kappa_f + 6 (kappa_a + kappa_b) + 2 (kappa_a' + kappa_b'),

    plus a few eps for the final products; a polynomial that is zero
    contributes nothing.  Returned as a float: it is a bound, not a value.
    """
    big_n, z, r = m + n, Gauss.of(w), abs(complex(w))
    lam = complex(lam)

    def kappa(terms: dict[int, complex]) -> float:
        terms = {k: c for k, c in terms.items() if c != 0}
        if not terms:
            return 0.0
        value = sum((Gauss.of(c) * z**k for k, c in terms.items()), Gauss(0)).abs2()
        return sum((1 + abs(k)) * abs(c) * r**k for k, c in terms.items()) / float(value) ** 0.5

    def pair(sign: int) -> dict[int, complex]:
        out: dict[int, complex] = {m: 1.0}
        out[n] = out.get(n, 0.0) + sign * 1j * lam
        return out

    def derivative(terms):
        return {k - 1: k * c for k, c in terms.items()}

    a, b = pair(1), pair(-1)
    f = {big_n - 2: 2.0, -big_n - 2: -2.0}
    return (2 * kappa(f) + 6 * (kappa(a) + kappa(b))
            + 2 * (kappa(derivative(a)) + kappa(derivative(b))) + 8)
