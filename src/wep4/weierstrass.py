"""Holomorphic 1-forms for conformal minimal immersions into R4.

A triple (f, g, h) of holomorphic functions generates the 4-component form

    phi = ( f (1 - g^2 - h^2) / 2,  i f (1 + g^2 + h^2) / 2,  f g,  f h ).

Its antiderivative is a null curve in C4 and the real part of that curve is
a conformal minimal immersion of the punctured parameter domain.  Nullity,
sum_k phi_k^2 = 0, holds identically by construction; conformality of the
immersion (E = G, F = 0) is a direct consequence.

The alternative convention driven by a pair of meromorphic functions
(the two Gauss maps) plus a holomorphic 1-form is provided as well, only to
exercise that route; there is no conversion map between the two data sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laurent import ONE, ZERO, LaurentPoly

__all__ = [
    "WeierstrassTriple",
    "GaussPairData",
    "PhiForm",
    "phi_from_triple",
    "phi_from_gauss_pair",
    "nullity_defect",
    "nullity_residual",
    "conformal_factor",
    "regularity_threshold",
]


@dataclass(frozen=True)
class WeierstrassTriple:
    """Holomorphic data (f, g, h); h may be zero for the planar reduction."""

    f: LaurentPoly
    g: LaurentPoly
    h: LaurentPoly


@dataclass(frozen=True)
class GaussPairData:
    """Two meromorphic Gauss maps g1, g2 plus a holomorphic 1-form factor h."""

    g1: LaurentPoly
    g2: LaurentPoly
    h: LaurentPoly


@dataclass(frozen=True)
class PhiForm:
    """The 4-vector of holomorphic 1-form components.

    ``triple`` is retained when the form was built from (f, g, h) data so
    that the regularity weight |f| (1 + |g|^2 + |h|^2) can be evaluated
    exactly; forms built another way fall back to sqrt(2 E).
    """

    parts: tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]
    triple: WeierstrassTriple | None = None


def nullity_defect(parts) -> LaurentPoly:
    """sum_k phi_k^2 as a Laurent polynomial (zero for genuine null forms)."""
    total = ZERO
    for p in parts:
        total = total + p * p
    return total


def _check_null(parts) -> None:
    defect = nullity_defect(parts)
    if defect.is_zero:
        return
    scale = max(
        (sum(abs(c) for _, c in p) ** 2 for p in parts if not p.is_zero),
        default=1.0,
    )
    worst = max(abs(c) for _, c in defect)
    # Construction guarantees symbolic cancellation; only float dust may remain.
    assert worst <= 1e-10 * max(1.0, scale), f"nullity defect {worst} at scale {scale}"


def phi_from_triple(t: WeierstrassTriple) -> PhiForm:
    """Build the null 1-form from (f, g, h) data."""
    sq = t.g * t.g + t.h * t.h
    parts = (
        (t.f * (ONE - sq)) * 0.5,
        (t.f * (ONE + sq)) * 0.5j,
        t.f * t.g,
        t.f * t.h,
    )
    _check_null(parts)
    return PhiForm(parts, triple=t)


def phi_from_gauss_pair(d: GaussPairData) -> PhiForm:
    """Build the null 1-form from paired Gauss maps (g1, g2) and factor h."""
    prod = d.g1 * d.g2
    parts = (
        ((ONE + prod) * 0.5) * d.h,
        ((ONE - prod) * 0.5j) * d.h,
        ((d.g1 - d.g2) * 0.5) * d.h,
        ((d.g1 + d.g2) * (-0.5j)) * d.h,
    )
    _check_null(parts)
    return PhiForm(parts)


def nullity_residual(phi: PhiForm, w: complex) -> float:
    """|sum phi_k(w)^2| / sum |phi_k(w)|^2, reporting 0/0 as 0."""
    vals = [p(w) for p in phi.parts]
    num = abs(complex(math.fsum((v * v).real for v in vals), math.fsum((v * v).imag for v in vals)))
    den = math.fsum(abs(v) ** 2 for v in vals)
    if den == 0.0:
        return 0.0
    return num / den


def conformal_factor(phi: PhiForm, w: complex) -> tuple[float, float]:
    """Return (E, reg_weight) at w.

    E = sum |phi_k(w)|^2 / 2, which equals <X_u, X_u> = <X_v, X_v> for the
    immersion with X_u - i X_v = phi.  The regularity weight is
    |f| (1 + |g|^2 + |h|^2) when the triple is known and sqrt(2 E)
    otherwise; both vanish exactly at branch points.
    """
    vals = [p(w) for p in phi.parts]
    energy = 0.5 * math.fsum(abs(v) ** 2 for v in vals)
    if phi.triple is not None:
        t = phi.triple
        reg = abs(t.f(w)) * (1.0 + abs(t.g(w)) ** 2 + abs(t.h(w)) ** 2)
    else:
        reg = math.sqrt(2.0 * energy)
    return energy, reg


def regularity_threshold(phi: PhiForm, w: complex) -> float:
    """Scale-aware cutoff below which the regularity weight counts as zero.

    Grows with |w|**k_max away from the unit circle and with |w|**k_min
    toward the puncture, so near-branch vertices are flagged at every
    radius without flagging healthy ones.  ``w`` may be an ndarray of
    points, which gives an array of cutoffs.
    """
    exps = [k for p in phi.parts for k, _ in p]
    if not exps:
        return 1e-6
    r = abs(w)
    if not isinstance(r, np.ndarray) and r == 0.0:
        return math.inf
    return 1e-6 * (1.0 + r ** max(exps) + r ** min(exps))
