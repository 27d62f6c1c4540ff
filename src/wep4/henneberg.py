"""Closed forms for a higher-order Henneberg-type minimal surface family in R4.

The family member picked by odd integers (m, n) and a complex weight lam is
generated by the Weierstrass data

    f = 2 w**(-m-n-2) (w**(2m+2n) - 1),    g = w**m,    h = lam w**n,

on the punctured plane.  Every integrand the data produce is a Laurent
polynomial with no exponent -1 term, so the null curve integrates termwise
to Laurent polynomials: the whole family exists in closed form.  lam = 0
collapses the fourth coordinate and reproduces (twice) the classical R3
Henneberg surface; m = n with real lam pins the fourth coordinate to a
multiple of the third.

A single two-term seed function Phi reproduces the g = w, h = lam w curves
with no integration step: f = Phi''' and the curve components are algebraic
combinations of Phi, Phi', Phi''.  The seed can be recovered pointwise from
the curve, giving a round-trippable integral-free representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .laurent import IDENTITY, ZERO, LaurentPoly, evaluate
from .weierstrass import WeierstrassTriple, phi_from_triple

__all__ = [
    "FamilyParams",
    "FamilyMember",
    "DegenerateParameterError",
    "family_member",
    "family_triple",
    "classic_henneberg_phi",
    "classic_henneberg_curve",
    "seed_phi",
    "integral_free_point",
    "recover_seed",
]


class DegenerateParameterError(ValueError):
    """lam**2 + 1 vanished where the inversion formulas divide by it."""


@dataclass(frozen=True)
class FamilyParams:
    """Family member selector: odd positive orders m, n and complex weight lam."""

    m: int
    n: int
    lam: complex

    def __post_init__(self):
        for name in ("m", "n"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1 or v % 2 == 0:
                raise ValueError(f"{name} must be a positive odd integer, got {v!r}")
        lam = complex(self.lam)
        if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
            raise ValueError("lam must be finite")
        object.__setattr__(self, "lam", lam)

    @property
    def lam_is_real(self) -> bool:
        return self.lam.imag == 0.0


def family_triple(p: FamilyParams) -> WeierstrassTriple:
    """Weierstrass data of the (m, n, lam) member, with f in expanded form."""
    f = LaurentPoly.monomial(-p.m - p.n - 2, 2.0) * LaurentPoly(
        {2 * p.m + 2 * p.n: 1.0, 0: -1.0}
    )
    g = LaurentPoly.monomial(p.m)
    h = LaurentPoly.monomial(p.n, p.lam)
    return WeierstrassTriple(f, g, h)


def _integrate_phi(phi: tuple[LaurentPoly, ...]) -> tuple[LaurentPoly, ...]:
    # No integrand of this family carries exponent -1 (parity for the first two
    # components, positivity for the last two); antiderivative raises if one does.
    return tuple(comp.antiderivative() for comp in phi)


@dataclass(frozen=True)
class FamilyMember:
    """One member's Laurent data, built once by family_member and handed to
    every consumer: the parameters, the (f, g, h) data, and the four
    components of the null form and of its curve.  The fixed g = w,
    h = lam w form and curve that only the integral-free audit reads are
    built on first use."""

    params: FamilyParams
    triple: WeierstrassTriple
    phi: tuple[LaurentPoly, ...]
    curve: tuple[LaurentPoly, ...]

    @cached_property
    def gh_phi(self) -> tuple[LaurentPoly, ...]:
        """Null form of the same f with the low-order data g = w, h = lam w."""
        h = LaurentPoly.monomial(1, self.params.lam)
        return phi_from_triple(WeierstrassTriple(self.triple.f, IDENTITY, h))

    @cached_property
    def gh_curve(self) -> tuple[LaurentPoly, ...]:
        """Curve of gh_phi.  Coincides with curve at m = n = 1.  The third
        component comes out as (2/(m+n)) (w**(m+n) + w**(-(m+n))): both terms
        positive, whatever the printed reference form suggests."""
        return _integrate_phi(self.gh_phi)


def family_member(p: FamilyParams) -> FamilyMember:
    """The member's record, with the null form and its curve built once."""
    triple = family_triple(p)
    phi = phi_from_triple(triple)
    return FamilyMember(p, triple, phi, _integrate_phi(phi))


def classic_henneberg_phi() -> tuple[LaurentPoly, ...]:
    """Null form of the classical R3 Henneberg surface, embedded in R4.

    Data g = w and 1-form factor (1 - w**-4); the fourth component is zero.
    The (m, n) = (1, 1), lam = 0 family member equals exactly twice this
    form because the family's f carries an extra factor 2.
    """
    w_form = LaurentPoly({0: 1.0, -4: -1.0})
    return phi_from_triple(WeierstrassTriple(w_form, IDENTITY, ZERO))


def classic_henneberg_curve() -> tuple[LaurentPoly, ...]:
    return _integrate_phi(classic_henneberg_phi())


def seed_phi(m: int, n: int) -> LaurentPoly:
    """Two-term seed whose third derivative is the family f.

    Phi = 2 / ((m+n-1)(m+n)(m+n+1)) * (w**(m+n+1) + w**(-(m+n)+1)).
    """
    FamilyParams(m, n, 0)  # the family's own order checks
    N = m + n
    c = 2.0 / ((N - 1) * N * (N + 1))
    return LaurentPoly({N + 1: c, -(N - 1): c})


def integral_free_point(seed: LaurentPoly, lam: complex, w):
    """Evaluate the curve directly from the seed function, no integration.

    Returns the complex 4-vector (k1, k2, k3, k4); the immersion point is
    its componentwise real part.  Corresponds to the data
    f = seed''', g = w, h = lam w.  w is a point, an ndarray of points, or
    IDENTITY, which gives the components as Laurent polynomials.
    """
    lam = complex(lam)
    d1 = seed.derivative()
    d2 = d1.derivative()
    p0, p1, p2 = (seed, d1, d2) if w is IDENTITY else evaluate((seed, d1, d2), w)
    a = 1.0 + lam * lam
    # distributed, so that the same lines serve numbers and polynomials
    radial = w * p1 - p0
    k3 = w * p2 - p1
    return (
        0.5 * p2 - 0.5 * a * w * w * p2 + a * radial,
        0.5j * p2 + 0.5j * a * w * w * p2 - 1j * a * radial,
        k3,
        lam * k3,
    )


def recover_seed(k, lam: complex, w):
    """Invert integral_free_point: recover the seed value from the curve.

    w and the components of k are points or ndarrays of points.  Requires
    lam**2 + 1 bounded away from 0 (lam near +-i is rejected).
    """
    lam = complex(lam)
    a = 1.0 + lam * lam
    if abs(a) < 1e-9:
        raise DegenerateParameterError("lam**2 + 1 ~ 0: inversion undefined")
    k1, k2, k3, k4 = k
    return (
        (a * w * w - 1.0) / (2.0 * a) * k1
        - 1j * (a * w * w + 1.0) / (2.0 * a) * k2
        - w / a * (k3 + lam * k4)
    )
