"""Pointwise differential geometry of the immersed surfaces.

Tangent vectors come straight from the 1-form (X_u = Re phi, X_v = -Im phi),
never from finite differences, so the first fundamental form carries no
discretization error.  E, the Gauss curvature and the normal plane are
closed forms in one pair of Laurent polynomials, a = g + ih and b = g - ih:
the generalized Gauss map lies on the quadric Q2 = CP1 x CP1 (Hoffman &
Osserman), and no rank test, orthogonalization or rescaling is needed.

Jets and frame scalars take one point or an ndarray of points.  At one
point the vectors have shape (4,) and the sums are exactly rounded (fsum);
over n points they are (n, 4) stacks, summed with compensated TwoSum
cascades (laurent.accurate_sum).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .henneberg import FamilyMember, FamilyParams
from .laurent import LaurentPoly, accurate_sum, evaluate
from .weierstrass import WeierstrassTriple

__all__ = [
    "SurfaceJet",
    "FrameScalars",
    "FormulaDegenerateError",
    "immersion_point",
    "surface_jet",
    "perp_vectors",
    "frame_scalars",
    "closed_form_normals",
    "conformal_fields",
    "normal_plane",
]


class FormulaDegenerateError(ValueError):
    """The closed-form normal expressions divide by a vanishing scalar here."""


@dataclass(frozen=True)
class SurfaceJet:
    """First-order data of the immersion at one point or at an array of them:
    the analytic tangents and the first fundamental form.

    Vectors have shape (4,) at one point and (n, 4) over n points; E, F and
    G are then floats, or arrays of shape (n,).
    """

    xu: np.ndarray
    xv: np.ndarray
    E: float | np.ndarray
    F: float | np.ndarray
    G: float | np.ndarray


@dataclass(frozen=True)
class FrameScalars:
    """Closed-form frame scalars for the m = n = 1, real-lam member.

    p = (quartic+1)(cross_minus+1)(cross_plus+1) * inv_r8 equals the squared
    norm of each tangent vector; q, with (1 - cross_minus) in place of
    (cross_minus + 1), equals the pairing of a tangent vector with the perp
    partner of the other one.  Each field is an array over an array of points.
    """

    p: float | np.ndarray
    q: float | np.ndarray
    quartic: float | np.ndarray
    cross_minus: float | np.ndarray
    cross_plus: float | np.ndarray
    inv_r8: float | np.ndarray


def _dot(a: np.ndarray, b: np.ndarray):
    """Inner product over the last axis.  The accurate sum keeps the
    signed-permutation cancellations exact."""
    return accurate_sum(x * y for x, y in zip(a.T, b.T))


def _scaled(c, vec: np.ndarray) -> np.ndarray:
    """Each vector of a stack times its own scalar."""
    return np.expand_dims(c, -1) * vec


def immersion_point(curve, w, axes=range(4)) -> np.ndarray:
    """Real part of the C4 curve's components: the immersion point in R4 (a
    stack of points over an array of w), or its coordinates on the axes."""
    return np.stack(evaluate([curve[i] for i in axes], w, real=True), axis=-1)


def surface_jet(member: FamilyMember, w) -> SurfaceJet:
    """Analytic tangents and the first fundamental form, from phi."""
    vals = np.stack(evaluate(member.phi, w), axis=-1)
    xu, xv = vals.real, -vals.imag
    return SurfaceJet(xu=xu, xv=xv, E=_dot(xu, xu), F=_dot(xu, xv), G=_dot(xv, xv))


_PERP = [1, 0, 3, 2]
_PERP_SIGN = np.array([-1.0, 1.0, -1.0, 1.0])


def perp_vectors(jet: SurfaceJet) -> tuple[np.ndarray, np.ndarray]:
    """Signed-permutation partners of the tangents.

    perp1 = (-xu2, xu1, -xu4, xu3) is orthogonal to xu and perp2, built the
    same way from xv, is orthogonal to xv; both exactly, term against term.
    """
    return jet.xu[..., _PERP] * _PERP_SIGN, jet.xv[..., _PERP] * _PERP_SIGN


def frame_scalars(params: FamilyParams, w) -> FrameScalars:
    """Closed-form p, q and their factor scalars at w (m = n = 1, real lam)."""
    if params.m != 1 or params.n != 1:
        raise ValueError("closed-form frame scalars exist only for m = n = 1")
    if not params.lam_is_real:
        raise ValueError("closed-form frame scalars require real lam")
    if np.any(w == 0):
        raise ValueError("frame scalars undefined at the puncture")
    lam = params.lam.real
    u, v = w.real, w.imag
    g1, g2, h1, h2 = u, v, u, v
    r2 = u * u + v * v
    quartic = r2**4 - 2.0 * r2**2 + 16.0 * u * u * v * v
    cross_minus = (-g1 + lam * h2) ** 2 + (g2 + lam * h1) ** 2
    cross_plus = (g1 + lam * h2) ** 2 + (-g2 + lam * h1) ** 2
    inv_r8 = r2**-4
    p = (quartic + 1.0) * (cross_minus + 1.0) * (cross_plus + 1.0) * inv_r8
    q = (quartic + 1.0) * (1.0 - cross_minus) * (cross_plus + 1.0) * inv_r8
    return FrameScalars(p, q, quartic, cross_minus, cross_plus, inv_r8)


def closed_form_normals(jet: SurfaceJet, scalars: FrameScalars) -> tuple[np.ndarray, np.ndarray]:
    """Unit normals straight from the closed-form scalar expressions.

    n1 is the weighted combination of xv and perp1, n2 of xu and perp2.
    Requires cross_minus bounded away from 0 (the formulas divide by it).
    """
    b = scalars.cross_minus
    if np.any(b <= 1e-12):
        raise FormulaDegenerateError("cross_minus ~ 0: closed-form normals undefined")
    perp1, perp2 = perp_vectors(jet)
    factor = np.sqrt(
        (b + 1.0)
        / (4.0 * (scalars.quartic + 1.0) * b * (scalars.cross_plus + 1.0) * scalars.inv_r8)
    )
    n1 = _scaled(factor, _scaled((1.0 - b) / (b + 1.0), jet.xv) + perp1)
    n2 = _scaled(factor, _scaled((b - 1.0) / (b + 1.0), jet.xu) + perp2)
    return n1, n2


def _split(triple: WeierstrassTriple) -> tuple[LaurentPoly, LaurentPoly]:
    """The CP1 x CP1 pair a = g + ih, b = g - ih as Laurent polynomials.

    g^2 + h^2 = ab, so nothing below forms g^2 + h^2 at a point: each
    coefficient of a and b (1 +- i lam where g and h share an exponent) is
    rounded once, here, and never cancelled pointwise.
    """
    ih = triple.h * 1j
    return triple.g + ih, triple.g - ih


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2


def conformal_fields(triple: WeierstrassTriple, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conformal factor E and Gauss curvature K at points w.

    With A = 1 + |a|^2 and B = 1 + |b|^2 for the pair (a, b) of _split,
    the generalized Gauss map lies on the quadric Q2 = CP1 x CP1 and
    (Hoffman & Osserman, Mem. AMS 236, 1980)

        E = |f|^2 A B / 4,    K = -2 ((|a'| / A)^2 + (|b'| / B)^2) / E.

    Every term is positive, so K <= 0 holds with no cancellation and no
    step size.  |a'| / A is squared as a ratio: |a'|^2 and A^2 would
    overflow long before A itself does.  K is not finite where
    f vanishes (the branch points); callers mask it where
    weierstrass.is_regular is False.
    """
    a, b = _split(triple)
    av, bv, fv, da, db = evaluate((a, b, triple.f, a.derivative(), b.derivative()), w)
    big_a, big_b = 1.0 + _abs2(av), 1.0 + _abs2(bv)
    energy = 0.25 * _abs2(fv) * big_a * big_b
    slope = (np.abs(da) / big_a) ** 2 + (np.abs(db) / big_b) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        curvature = -2.0 * slope / energy
    return energy, curvature


def _psi(triple: WeierstrassTriple, w: np.ndarray) -> np.ndarray:
    """psi = ((a + conj b) / 2, i (conj b - a) / 2, (a conj b - 1) / 2,
    -i (a conj b + 1) / 2) at w, with (a, b) of _split: null, orthogonal to
    phi and conj phi, and |psi|^2 = A B / 2 > 0 everywhere."""
    av, bv = evaluate(_split(triple), w)
    bc = np.conj(bv)
    ab = av * bc
    return np.stack([0.5 * (av + bc), 0.5j * (bc - av), 0.5 * (ab - 1.0), -0.5j * (ab + 1.0)],
                    axis=-1)


def normal_plane(triple: WeierstrassTriple, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit normals n1 = Re psi / |Re psi| and n2 = Im psi / |Im psi|.

    psi (see _psi) is null, so Re psi and Im psi are orthogonal and of
    equal length, and it is orthogonal to phi and conj phi, so they span the
    normal plane: at every point, branch points included, with no rank test.
    """
    psi = _psi(triple, w)
    return tuple(_scaled(1.0 / np.sqrt(_dot(n, n)), n) for n in (psi.real, psi.imag))
