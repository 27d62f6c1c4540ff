"""Pointwise differential geometry of the immersed surfaces.

Tangent vectors come straight from the 1-form (X_u = Re phi, X_v = -Im phi),
never from finite differences, so the first fundamental form and the frames
carry no discretization error.  The Gauss curvature is a closed form in the
Weierstrass data as well.  Finite differences appear in exactly one place,
the harmonicity residual used as a minimality detector.

Jets, frame scalars and frames take one point or an ndarray of points.  At
one point the vectors have shape (4,) and the sums are exactly rounded
(fsum); over n points they are (n, 4) stacks, summed with compensated
TwoSum cascades (laurent.accurate_sum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .henneberg import FamilyParams, MinimalCurve
from .laurent import LaurentPoly, accurate_sum
from .weierstrass import PhiForm, WeierstrassTriple, conformal_factor, regularity_threshold

__all__ = [
    "SurfaceJet",
    "FrameScalars",
    "NormalFrame",
    "DegenerateFrameError",
    "FormulaDegenerateError",
    "UndefinedCurvatureError",
    "immersion_point",
    "surface_jet",
    "perp_vectors",
    "frame_scalars",
    "normal_frame",
    "closed_form_normals",
    "conformal_fields",
    "gauss_curvature",
    "coordinate_laplacian",
    "harmonicity_residual",
    "curvature_denominator_check",
]


class DegenerateFrameError(ValueError):
    """The four frame candidate vectors do not span R4 at this point."""


class FormulaDegenerateError(ValueError):
    """The closed-form normal expressions divide by a vanishing scalar here."""


class UndefinedCurvatureError(ValueError):
    """Gauss curvature requested at a non-regular (branch) point."""


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


def surface_jet(phi: PhiForm, curve: MinimalCurve, w) -> SurfaceJet:
    """Position, analytic tangents, first fundamental form, regularity flag."""
    position = immersion_point(curve, w)
    vals = np.stack([comp(w) for comp in phi.parts], axis=-1)
    xu, xv = vals.real, -vals.imag
    _, reg = conformal_factor(phi, w)
    return SurfaceJet(
        position=position,
        xu=xu,
        xv=xv,
        E=_dot(xu, xu),
        F=_dot(xu, xv),
        G=_dot(xv, xv),
        regular=reg > regularity_threshold(phi, w),
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


def conformal_fields(triple: WeierstrassTriple, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """Conformal factor E, regularity weight and Gauss curvature K at points w.

    With the lift F = (1/sqrt2, g, h, (g^2 + h^2)/sqrt2) of the generalized
    Gauss map, phi = f U F for a constant unitary U, so E = |f|^2 |F|^2 / 2
    and (Hoffman & Osserman, Mem. AMS 236, 1980)

        K = -4 |F ^ F'|^2 / (|F|^6 |f|^2) = -2 |F ^ F'|^2 / (|F|^4 E),

    where |F ^ F'|^2 = sum_{j<k} |F_j F'_k - F_k F'_j|^2 by Lagrange's
    identity.  A sum of squares, so K <= 0 holds with no cancellation and
    no step size.  F and F' are scaled by 1/|F| before the products, which
    keeps the intermediates in range at large |w|.  The regularity weight
    is |f| (1 + |g|^2 + |h|^2).  K is not finite where f vanishes (the
    branch points); callers mask it there.
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
    reg = np.sqrt(f2) * (1.0 + np.abs(g) ** 2 + np.abs(h) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        curvature = -2.0 * wedge / energy
    return energy, reg, curvature


def gauss_curvature(phi: PhiForm, w: complex) -> float:
    """Gauss curvature of the conformal metric E (du^2 + dv^2) at w.

    The closed form of conformal_fields at one point; needs the (f, g, h)
    data the form was built from.
    """
    if phi.triple is None:
        raise ValueError("closed-form curvature needs the (f, g, h) data of the form")
    energy, reg, curvature = conformal_fields(phi.triple, np.array([complex(w)]))
    if not (reg[0] > regularity_threshold(phi, w) and energy[0] > 0.0):
        raise UndefinedCurvatureError("curvature undefined at a non-regular point")
    return float(curvature[0])


def coordinate_laplacian(comp: LaurentPoly, w, h: float):
    """|Five-point Laplacian| of Re comp at w, step h, ring summed exactly.

    ``w`` may be an ndarray of points, which gives an array of residuals.
    """
    center = comp(w).real
    total = accurate_sum(comp(w + d).real for d in (h, -h, 1j * h, -1j * h)) - 4.0 * center
    return abs(total) / h**2


def harmonicity_residual(curve: MinimalCurve, w: complex, h: float) -> float:
    """Max over coordinates of the five-point Laplacian of Re X_k.

    Coordinates of a minimal immersion are harmonic, so the residual is pure
    O(h^2) truncation; a corrupted curve shows up orders of magnitude above
    that.  The stencil disc must stay clear of the puncture.
    """
    if abs(w) <= 2.0 * h:
        raise ValueError("stencil disc reaches the puncture")
    return max(coordinate_laplacian(comp, w, h) for comp in curve.parts)


def curvature_denominator_check() -> tuple[bool, str]:
    """Verify the octic identity inside the curvature denominator.

    The middle factor ((u^2+v^2)^2 - 1)^2 + (4uv)^2 = |w^4 - 1|^2 is compared
    with the reference octic in exact integer arithmetic on the grid
    {-4..4}^2; two polynomials of degree at most 8 in each variable that
    agree on 9 x 9 points are identical.  The full denominator is then
    sampled for strict positivity away from the branch points (where the
    middle factor legitimately vanishes), for both stated exponents of the
    trailing factor.
    """
    octic = {
        (8, 0): 1, (6, 2): 4, (4, 4): 6, (2, 6): 4, (0, 8): 1,
        (4, 0): -2, (0, 4): -2, (2, 2): 12, (0, 0): 1,
    }

    def middle(u, v):
        r = u * u + v * v
        return (r * r - 1) ** 2 + (4 * u * v) ** 2

    identity_ok = all(
        middle(u, v) == sum(c * u**i * v**j for (i, j), c in octic.items())
        for u in range(-4, 5) for v in range(-4, 5)
    )

    def denom(u: float, v: float, k: int) -> float:
        r = u * u + v * v
        return (r + 1.0) * middle(u, v) * (2.0 * r + 1.0) ** k

    branch = {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}
    grid = [x / 4.0 for x in range(-8, 9)]
    positive_ok = all(
        denom(u, v, k) == 0.0 if (u, v) in branch else denom(u, v, k) > 0.0
        for k in (1, 2) for u in grid for v in grid if (u, v) != (0.0, 0.0)
    )
    factored = "(u^2+v^2+1) * (((u^2+v^2)^2-1)^2 + (4uv)^2) * (2(u^2+v^2)+1)^k, k in {1, 2}"
    return identity_ok and positive_ok, factored
