"""Holomorphic 1-forms for conformal minimal immersions into R4.

A triple (f, g, h) of holomorphic functions generates the 4-component form

    phi = ( f (1 - g^2 - h^2) / 2,  i f (1 + g^2 + h^2) / 2,  f g,  f h ).

Its antiderivative is a null curve in C4 and the real part of that curve is
a conformal minimal immersion of the punctured parameter domain.  Nullity,
sum_k phi_k^2 = 0, holds identically by construction; conformality of the
immersion (E = G, F = 0) is a direct consequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laurent import ONE, ZERO, LaurentPoly, accurate_sum, evaluate

__all__ = [
    "WeierstrassTriple",
    "phi_from_triple",
    "nullity_defect",
    "nullity_residual",
    "is_regular",
]

# Branch flag tolerance of is_regular, a distance in units of 1/N (see there).
BRANCH_TOL = 1e-8


@dataclass(frozen=True)
class WeierstrassTriple:
    """Holomorphic data (f, g, h); h may be zero for the planar reduction."""

    f: LaurentPoly
    g: LaurentPoly
    h: LaurentPoly


def nullity_defect(phi) -> LaurentPoly:
    """sum_k phi_k^2 as a Laurent polynomial (zero for genuine null forms)."""
    total = ZERO
    for p in phi:
        total = total + p * p
    return total


def phi_from_triple(t: WeierstrassTriple) -> tuple[LaurentPoly, ...]:
    """The null 1-form of (f, g, h) data, as its four components.

    The form is null by construction, so it is built without a check:
    verify's nullity suite is the one runtime rule that holds it to its
    rounding bound.
    """
    sq = t.g * t.g + t.h * t.h
    return (
        (t.f * (ONE - sq)) * 0.5,
        (t.f * (ONE + sq)) * 0.5j,
        t.f * t.g,
        t.f * t.h,
    )


def nullity_residual(phi, w):
    """|sum phi_k(w)^2| / sum |phi_k(w)|^2 for the components phi, reporting
    0/0 as 0.  ``w`` may be an ndarray of points, which gives an array of
    residuals.
    """
    vals = evaluate(phi, w)
    num = abs(accurate_sum(v * v for v in vals))
    den = accurate_sum(abs(v) ** 2 for v in vals)
    ratio = np.divide(num, den, out=np.zeros(np.shape(den)), where=den != 0.0)
    return ratio if isinstance(w, np.ndarray) else float(ratio)


def is_regular(triple: WeierstrassTriple, w, tol: float = BRANCH_TOL):
    """True where w is clear of the branch points: |f(w)| > tol env_f(|w|).

    The metric weight |f| (1 + |g|^2 + |h|^2) vanishes exactly where f does,
    so the rule compares f with its own envelope env_f(r) = sum |c_k| r^k
    and needs no other scale.  For the family, f = 2 w^(-N-2) (w^(2N) - 1)
    with N = m + n, the ratio is |w^(2N) - 1| / (1 + |w|^(2N)), about N times
    the distance to the nearest 2N-th root of unity near |w| = 1: tol is a
    distance in units of 1/N.  ``w`` may be an ndarray of points.
    """
    return abs(triple.f(w)) > tol * triple.f.envelope(abs(w))
