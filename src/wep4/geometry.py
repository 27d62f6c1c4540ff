"""Pointwise differential geometry of the immersed surfaces.

Tangent vectors come straight from the 1-form (X_u = Re phi, X_v = -Im phi),
never from finite differences, so the first fundamental form and the frames
carry no discretization error.  The Gauss curvature is a closed form in the
Weierstrass data as well.

Jets, frame scalars and frames take one point or an ndarray of points.  At
one point the vectors have shape (4,) and the sums are exactly rounded
(fsum); over n points they are (n, 4) stacks, summed with compensated
TwoSum cascades (laurent.accurate_sum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .henneberg import FamilyMember, FamilyParams, MinimalCurve
from .laurent import accurate_sum
from .weierstrass import WeierstrassTriple, is_regular

__all__ = [
    "SurfaceJet",
    "FrameScalars",
    "NormalFrame",
    "DegenerateFrameError",
    "FormulaDegenerateError",
    "immersion_point",
    "surface_jet",
    "perp_vectors",
    "frame_scalars",
    "normal_frame",
    "closed_form_normals",
    "conformal_fields",
]


class DegenerateFrameError(ValueError):
    """The four frame candidate vectors do not span R4 at this point."""


class FormulaDegenerateError(ValueError):
    """The closed-form normal expressions divide by a vanishing scalar here."""


@dataclass(frozen=True)
class SurfaceJet:
    """First-order data of the immersion at one point or at an array of them.

    Vectors have shape (4,) at one point and (n, 4) over n points; E, F, G
    and regular are then floats and a bool, or arrays of shape (n,).
    """

    position: np.ndarray
    xu: np.ndarray
    xv: np.ndarray
    E: float | np.ndarray
    F: float | np.ndarray
    G: float | np.ndarray
    regular: bool | np.ndarray


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


@dataclass(frozen=True)
class NormalFrame:
    """Orthonormal tangent pair (e1, e2) and normal pair (n1, n2), each a
    vector or a stack of vectors like the jet's."""

    e1: np.ndarray
    e2: np.ndarray
    n1: np.ndarray
    n2: np.ndarray


def _dot(a: np.ndarray, b: np.ndarray):
    """Inner product over the last axis.  The accurate sum keeps the
    signed-permutation cancellations exact."""
    return accurate_sum(x * y for x, y in zip(a.T, b.T))


def _scaled(c, vec: np.ndarray) -> np.ndarray:
    """Each vector of a stack times its own scalar."""
    return np.expand_dims(c, -1) * vec


def immersion_point(curve: MinimalCurve, w) -> np.ndarray:
    """Real part of the C4 curve: the immersion point in R4 (a stack of
    points over an array of w)."""
    return np.stack([comp(w).real for comp in curve.parts], axis=-1)


def surface_jet(member: FamilyMember, w) -> SurfaceJet:
    """Position, analytic tangents, first fundamental form, is_regular flag."""
    position = immersion_point(member.curve, w)
    vals = np.stack([comp(w) for comp in member.phi.parts], axis=-1)
    xu, xv = vals.real, -vals.imag
    return SurfaceJet(
        position=position,
        xu=xu,
        xv=xv,
        E=_dot(xu, xu),
        F=_dot(xu, xv),
        G=_dot(xv, xv),
        regular=is_regular(member.triple, w),
    )


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


def _orthogonalize(vec: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    out = vec.astype(float)
    for _ in range(2):  # one re-orthogonalization pass tightens the Gram matrix
        for b in basis:
            out = out - _scaled(_dot(out, b), b)
    return out


def normal_frame(jet: SurfaceJet) -> NormalFrame:
    """Gram-Schmidt frame from (xu, xv, perp1, perp2).

    e1, e2 span the tangent plane, n1, n2 the normal plane.  Raises
    DegenerateFrameError when the four candidates are numerically rank
    deficient (the residual check is the rank test); over a stack of
    points, when that holds at any of them.
    """
    if not np.all(jet.regular):
        raise DegenerateFrameError("no frame at a non-regular point")
    perp1, perp2 = perp_vectors(jet)
    basis: list[np.ndarray] = []
    for vec in (jet.xu, jet.xv, perp1, perp2):
        resid = _orthogonalize(vec, basis)
        norm = np.sqrt(_dot(resid, resid))
        if np.any(norm <= 1e-10 * np.maximum(1.0, np.sqrt(_dot(vec, vec)))):
            raise DegenerateFrameError("frame candidates are rank deficient")
        basis.append(resid / np.expand_dims(norm, -1))
    return NormalFrame(*basis)


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


def conformal_fields(triple: WeierstrassTriple, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conformal factor E and Gauss curvature K at points w.

    With the lift F = (1/sqrt2, g, h, (g^2 + h^2)/sqrt2) of the generalized
    Gauss map, phi = f U F for a constant unitary U, so E = |f|^2 |F|^2 / 2
    and (Hoffman & Osserman, Mem. AMS 236, 1980)

        K = -4 |F ^ F'|^2 / (|F|^6 |f|^2) = -2 |F ^ F'|^2 / (|F|^4 E),

    where |F ^ F'|^2 = sum_{j<k} |F_j F'_k - F_k F'_j|^2 by Lagrange's
    identity.  A sum of squares, so K <= 0 holds with no cancellation and
    no step size.  F and F' are scaled by 1/|F| before the products, which
    keeps the intermediates in range at large |w|.  K is not finite where f
    vanishes (the branch points); callers mask it where
    weierstrass.is_regular is False.
    """
    f, g, h = triple.f(w), triple.g(w), triple.h(w)
    dg, dh = triple.g.derivative()(w), triple.h.derivative()(w)
    root_half = math.sqrt(0.5)
    lift = (np.full_like(f, root_half), g, h, root_half * (g * g + h * h))
    dlift = (np.zeros_like(f), dg, dh, 2.0 * root_half * (g * dg + h * dh))
    norm2 = sum(c.real**2 + c.imag**2 for c in lift)
    inv = 1.0 / np.sqrt(norm2)
    lift = [c * inv for c in lift]
    dlift = [c * inv for c in dlift]
    wedge = sum(
        np.abs(lift[j] * dlift[k] - lift[k] * dlift[j]) ** 2
        for j in range(4) for k in range(j + 1, 4)
    )
    f2 = f.real**2 + f.imag**2
    energy = 0.5 * f2 * norm2
    with np.errstate(divide="ignore", invalid="ignore"):
        curvature = -2.0 * wedge / energy
    return energy, curvature
