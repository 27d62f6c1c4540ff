"""Jets, frames, curvature, harmonicity, and the denominator identity.

The general routes that the CP1 x CP1 closed forms replaced are kept here
as references: Gram-Schmidt on (xu, xv, perp1, perp2) for the normal plane
and the Lagrange wedge of the four-component lift for E and K.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from wep4.geometry import (
    FormulaDegenerateError,
    FrameScalars,
    _dot,
    _psi,
    _scaled,
    closed_form_normals,
    conformal_fields,
    frame_scalars,
    immersion_point,
    normal_plane,
    perp_vectors,
    surface_jet,
)
from wep4.henneberg import FamilyParams, family_member
from wep4.laurent import ONE, ZERO, LaurentPoly, accurate_sum
from wep4.mesh import PolarGrid, sample_grid
from wep4.verify import sample_regular
from wep4.weierstrass import WeierstrassTriple, is_regular

import exact
from test_weierstrass import conformal_factor

RNG = np.random.default_rng(31)
EPS = np.finfo(float).eps


class DegenerateFrameError(ValueError):
    """The four frame candidate vectors do not span R4 at this point."""


@dataclass(frozen=True)
class NormalFrame:
    """Orthonormal tangent pair (e1, e2) and normal pair (n1, n2), each a
    vector or a stack of vectors like the jet's."""

    e1: np.ndarray
    e2: np.ndarray
    n1: np.ndarray
    n2: np.ndarray


def _orthogonalize(vec: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    out = vec.astype(float)
    for _ in range(2):  # one re-orthogonalization pass tightens the Gram matrix
        for b in basis:
            out = out - _scaled(_dot(out, b), b)
    return out


def normal_frame(member, w) -> NormalFrame:
    """Reference: Gram-Schmidt frame from (xu, xv, perp1, perp2) of the
    member's jet at w.

    e1, e2 span the tangent plane, n1, n2 the normal plane.  Raises
    DegenerateFrameError at a point that is not is_regular, or when the four
    candidates are numerically rank deficient (the residual check is the
    rank test); over a stack of points, when that holds at any of them.
    """
    if not np.all(is_regular(member.triple, w)):
        raise DegenerateFrameError("no frame at a non-regular point")
    jet = surface_jet(member, w)
    perp1, perp2 = perp_vectors(jet)
    basis: list[np.ndarray] = []
    for vec in (jet.xu, jet.xv, perp1, perp2):
        resid = _orthogonalize(vec, basis)
        norm = np.sqrt(_dot(resid, resid))
        if np.any(norm <= 1e-10 * np.maximum(1.0, np.sqrt(_dot(vec, vec)))):
            raise DegenerateFrameError("frame candidates are rank deficient")
        basis.append(resid / np.expand_dims(norm, -1))
    return NormalFrame(*basis)


def wedge_fields(triple: WeierstrassTriple, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference E and K from the lift F = (1/sqrt2, g, h, (g^2 + h^2)/sqrt2)
    of the generalized Gauss map: phi = f U F for a constant unitary U, so
    E = |f|^2 |F|^2 / 2 and (Hoffman & Osserman, Mem. AMS 236, 1980)

        K = -2 |F ^ F'|^2 / (|F|^4 E),

    where |F ^ F'|^2 = sum_{j<k} |F_j F'_k - F_k F'_j|^2 by Lagrange's
    identity.  F and F' are scaled by 1/|F| before the products.  The
    fourth component forms g^2 + h^2 at each point, which cancels where
    g and h share an exponent and 1 + lam^2 ~ 0.
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


def _points(count, lo=0.45, hi=1.7):
    r = RNG.uniform(lo, hi, count)
    t = RNG.uniform(0, 2 * math.pi, count)
    return [complex(a * math.cos(b), a * math.sin(b)) for a, b in zip(r, t)]


def _regular_points(member, count, lo=0.45, hi=1.7):
    out = []
    while len(out) < count:
        for w in _points(count, lo, hi):
            jet = surface_jet(member, w)
            if is_regular(member.triple, w) and jet.E > 1e-3:
                out.append((w, jet))
                if len(out) == count:
                    break
    return out


def curvature_at(triple: WeierstrassTriple, w: complex) -> float:
    """K at one point: conformal_fields on a one-element array."""
    return float(conformal_fields(triple, np.array([complex(w)]))[1][0])


def test_immersion_point_values_at_one():
    assert np.allclose(
        immersion_point(family_member(FamilyParams(1, 1, 0)).curve, 1 + 0j), [0, 0, 2, 0]
    )
    for lam in (0.5, 1.0, 2.0):
        got = immersion_point(family_member(FamilyParams(1, 1, lam)).curve, 1 + 0j)
        assert np.allclose(got, [-4 / 3 * lam * lam, 0, 2, 2 * lam], atol=1e-14)


def test_immersion_point_at_one_for_complex_lam():
    # termwise integration puts y at -8/3 here (checked against quadrature
    # in the verification suite); the printed display says 4/3 instead and
    # the audit report carries that finding
    got = immersion_point(family_member(FamilyParams(1, 1, 1 + 1j)).curve, 1 + 0j)
    assert np.allclose(got, [0, -8 / 3, 2, 2], atol=1e-14)


def test_jet_branch_point_flagged():
    params = FamilyParams(1, 1, 0)
    member = family_member(params)
    jet = surface_jet(member, 1 + 0j)
    assert jet.E == 0.0 and not is_regular(member.triple, 1 + 0j)


def test_jet_conformality():
    params = FamilyParams(1, 1, 1.0)
    jet = surface_jet(family_member(params), 2 + 0j)
    assert abs(jet.E - jet.G) <= 1e-12 * jet.E
    assert abs(jet.F) <= 1e-12 * jet.E


def test_perp_vectors_identities():
    params = FamilyParams(1, 1, 1.0)
    member = family_member(params)
    for w, jet in _regular_points(member, 25):
        p1, p2 = perp_vectors(jet)
        assert math.fsum(p1 * p1) == math.fsum(jet.xu * jet.xu)
        assert math.fsum(p1 * jet.xu) == 0.0
        assert math.fsum(p2 * jet.xv) == 0.0
        q = math.fsum(jet.xu * p2)
        assert abs(q + math.fsum(jet.xv * p1)) <= 1e-12 * max(1.0, abs(q))


def test_frame_scalars_match_inner_products():
    for lam in (0.0, 1.0, 2.0):
        params = FamilyParams(1, 1, lam)
        member = family_member(params)
        for w, jet in _regular_points(member, 35):
            s = frame_scalars(params, w)
            p1, p2 = perp_vectors(jet)
            assert abs(s.p - jet.E) <= 1e-10 * s.p
            assert abs(s.q - math.fsum(jet.xu * p2)) <= 1e-10 * s.p
            assert abs(s.q + math.fsum(jet.xv * p1)) <= 1e-10 * s.p


def test_frame_scalars_inverse_radius_factor():
    s = frame_scalars(FamilyParams(1, 1, 1.0), 0.5 + 0.5j)
    r2 = 0.5
    assert s.inv_r8 == pytest.approx(r2**-4)
    assert s.inv_r8 > 0 and s.cross_minus >= 0 and s.cross_plus >= 0


def test_frame_scalars_preconditions():
    with pytest.raises(ValueError):
        frame_scalars(FamilyParams(1, 3, 1.0), 1 + 1j)
    with pytest.raises(ValueError):
        frame_scalars(FamilyParams(1, 1, 1j), 1 + 1j)
    with pytest.raises(ValueError):
        frame_scalars(FamilyParams(1, 1, 1.0), 0j)


def test_normal_frame_orthonormal():
    params = FamilyParams(1, 1, 1.0)
    member = family_member(params)
    jet = surface_jet(member, 1.5 + 0.5j)
    frame = normal_frame(member, 1.5 + 0.5j)
    planar = normal_plane(member.triple, 1.5 + 0.5j)
    tangents = [jet.xu / math.sqrt(jet.E), jet.xv / math.sqrt(jet.G)]
    for basis in (np.stack([frame.e1, frame.e2, frame.n1, frame.n2]),
                  np.stack(tangents + list(planar))):
        assert np.max(np.abs(basis @ basis.T - np.eye(4))) <= 1e-10
    for n in (frame.n1, frame.n2, *planar):
        assert abs(np.dot(n, jet.xu)) <= 1e-10 * math.sqrt(jet.E)
        assert abs(np.dot(n, jet.xv)) <= 1e-10 * math.sqrt(jet.E)


def test_normal_frame_rejects_non_regular():
    params = FamilyParams(1, 1, 0)
    member = family_member(params)
    for w in (1 + 0j, np.array([1.5 + 0.5j, 1 + 0j])):  # one point, or any in a stack
        with pytest.raises(DegenerateFrameError):
            normal_frame(member, w)
        # the closed form needs no tangent plane: a unit normal pair there too
        for n in normal_plane(member.triple, w):
            assert np.all(np.abs(_dot(n, n) - 1.0) <= 1e-15)


def test_stacked_jets_and_frames_match_one_point_calls():
    # over an array of points every field is the stack of the one-point
    # values: fsum at one point, compensated sums over the stack
    for lam in (0.0, 1.0, 2.0):
        params = FamilyParams(1, 1, lam)
        member = family_member(params)
        w = np.array([z for z, _ in _regular_points(member, 40)])
        jet, position = surface_jet(member, w), immersion_point(member.curve, w)
        s = frame_scalars(params, w)
        frame = normal_frame(member, w)
        planar = normal_plane(member.triple, w)
        normals = closed_form_normals(jet, s)
        assert jet.xu.shape == (40, 4) and jet.E.shape == (40,)
        assert is_regular(member.triple, w).all()
        for i, z in enumerate(w.tolist()):
            one = surface_jet(member, z)
            tol = {"rtol": 1e-14, "atol": 1e-14 * (1 + jet.E[i])}
            assert np.allclose(position[i], immersion_point(member.curve, z), **tol)
            for name in ("xu", "xv", "E", "F", "G"):
                assert np.allclose(getattr(jet, name)[i], getattr(one, name), **tol), name
            s1 = frame_scalars(params, z)
            for name in ("p", "q", "quartic", "cross_minus", "cross_plus", "inv_r8"):
                # numpy and Python round r2**4 apart by an ulp at times
                assert getattr(s, name)[i] == pytest.approx(getattr(s1, name), rel=1e-15)
            frame1 = normal_frame(member, z)
            for name in ("e1", "e2", "n1", "n2"):
                assert np.max(np.abs(getattr(frame, name)[i] - getattr(frame1, name))) <= 1e-14
            for n, n_one in zip(planar, normal_plane(member.triple, z)):
                assert np.max(np.abs(n[i] - n_one)) <= 1e-14
            for n, n_one in zip(normals, closed_form_normals(one, s1)):
                assert np.max(np.abs(n[i] - n_one)) <= 1e-14


def test_closed_form_normals_span_gs_normals():
    for lam in (0.0, 1.0, 2.0):
        params = FamilyParams(1, 1, lam)
        member = family_member(params)
        for w, jet in _regular_points(member, 30):
            s = frame_scalars(params, w)
            if s.cross_minus <= 1e-6:
                continue
            frame = normal_frame(member, w)
            planar = normal_plane(member.triple, w)
            n1, n2 = closed_form_normals(jet, s)
            for n in (n1, n2):
                assert abs(np.dot(n, n) - 1.0) <= 1e-10
                for p1, p2 in ((frame.n1, frame.n2), planar):
                    resid = n - np.dot(n, p1) * p1 - np.dot(n, p2) * p2
                    assert np.linalg.norm(resid) <= 1e-8
            assert abs(np.dot(n1, jet.xu)) <= 1e-8 * s.p
            assert abs(np.dot(n2, jet.xv)) <= 1e-8 * s.p


def test_closed_form_normals_degenerate_scalar_rejected():
    params = FamilyParams(1, 1, 1.0)
    jet = surface_jet(family_member(params), 1.5 + 0.5j)
    degenerate = FrameScalars(p=1.0, q=1.0, quartic=1.0, cross_minus=0.0,
                              cross_plus=1.0, inv_r8=1.0)
    with pytest.raises(FormulaDegenerateError):
        closed_form_normals(jet, degenerate)


def _projector(n1, n2):
    return n1[..., :, None] * n1[..., None, :] + n2[..., :, None] * n2[..., None, :]


def _random_members(count, seed=5):
    rng = np.random.default_rng(seed)
    return [(int(2 * rng.integers(16) + 1), int(2 * rng.integers(16) + 1),
             complex(*rng.normal(0.0, 1.5, 2))) for _ in range(count)]


# a = 0 identically at (1,1,i) and (15,15,i), where Gram-Schmidt raises
NORMAL_PLANE_MEMBERS = [(1, 1, 1j), (15, 15, 1j), (31, 31, 1 + 1j), (1, 1, -1j), (1, 1, 1.0),
                        (3, 5, 0.5 - 2j)] + _random_members(12)


@pytest.mark.parametrize("m, n, lam", NORMAL_PLANE_MEMBERS, ids=str)
def test_normal_plane_of_every_member(m, n, lam):
    member = family_member(FamilyParams(m, n, lam))
    w = sample_regular(np.random.default_rng(3), 48, member.triple)
    jet = surface_jet(member, w)
    n1, n2 = normal_plane(member.triple, w)
    tangents = [jet.xu / np.sqrt(jet.E)[:, None], jet.xv / np.sqrt(jet.G)[:, None]]
    basis = np.stack(tangents + [n1, n2], axis=1)
    assert np.max(np.abs(basis @ basis.transpose(0, 2, 1) - np.eye(4))) <= 1e-10
    # psi is null and orthogonal to phi and conj phi, relative to the sizes
    psi = _psi(member.triple, w)
    phi = np.stack([p(w) for p in member.phi], axis=1)
    size = np.sqrt(np.sum(np.abs(psi) ** 2, axis=1))
    assert np.max(np.abs(np.sum(psi * psi, axis=1)) / size**2) <= 1e-13
    for other in (phi, phi.conj()):
        pairing = np.abs(np.sum(psi * other, axis=1))
        assert np.max(pairing / (size * np.sqrt(np.sum(np.abs(other) ** 2, axis=1)))) <= 1e-13
    # the Gram-Schmidt reference spans the same plane wherever it does not raise
    planar = _projector(n1, n2)
    for i, z in enumerate(w.tolist()):
        try:
            frame = normal_frame(member, z)
        except DegenerateFrameError:
            continue
        assert np.max(np.abs(planar[i] - _projector(frame.n1, frame.n2))) <= 1e-13


def test_gauss_curvature_plane_is_zero():
    assert abs(curvature_at(WeierstrassTriple(ONE, ZERO, ZERO), 0.7 + 0.1j)) <= 1e-10


def test_gauss_curvature_flat_at_large_radius():
    assert abs(curvature_at(family_member(FamilyParams(1, 1, 0)).triple, 10 + 0j)) <= 1e-6


def test_gauss_curvature_nonpositive_at_samples():
    for m, n, lam in ((1, 1, 0), (1, 3, 1 + 1j), (3, 3, 0.5 - 2j)):
        member = family_member(FamilyParams(m, n, lam))
        for w, _ in _regular_points(member, 40):
            assert curvature_at(member.triple, w) <= 1e-8


def _fd_curvature(triple, w):
    """Reference K = -Laplacian(ln E) / (2 E): Richardson-refined five-point
    Laplacians at steps h and h/2, h = 1e-4 max(1, |w|), with exactly
    rounded sums.  Returns K and a bound on its own error: the refinement
    step |L_h - L_{h/2}| / 3 (truncation) plus 64 eps max|ln E| / (h/2)^2
    (roundoff), both divided by 2E."""
    h = 1e-4 * max(1.0, abs(w))
    log_e = lambda z: math.log(conformal_factor(triple, z)[0])
    center = log_e(w)

    def laplacian(step):
        ring = [log_e(w + d) for d in (step, -step, 1j * step, -1j * step)]
        return math.fsum(ring + [-4.0 * center]) / step**2, max(map(abs, ring + [center]))

    coarse, _ = laplacian(h)
    fine, size = laplacian(h / 2.0)
    two_e = 2.0 * conformal_factor(triple, w)[0]
    error = abs(coarse - fine) / 3.0 + 64.0 * 2.0**-52 * size / (h / 2.0) ** 2
    return -(4.0 * fine - coarse) / 3.0 / two_e, error / two_e


def test_closed_form_curvature_matches_finite_differences():
    grid_members = [(m, n, lam) for m, n in ((1, 1), (1, 3), (3, 1), (3, 3), (3, 5))
                    for lam in (0, 1, 1 + 1j, 0.5 - 2j)]
    worst = 0.0
    for m, n, lam in grid_members + [(5, 7, 0.3j)]:
        triple = family_member(FamilyParams(m, n, lam)).triple
        ws = np.array(_points(12, 0.45, 2.0))
        _, ks = conformal_fields(triple, ws)
        _, reg = conformal_factor(triple, ws)
        for w, k in zip(ws[reg > 1e-3], ks[reg > 1e-3]):
            k_fd, fd_error = _fd_curvature(triple, complex(w))
            assert k < 0.0
            assert abs(k - k_fd) <= fd_error, (m, n, lam, w)
            worst = max(worst, abs(k - k_fd) / abs(k))
    assert worst <= 1e-3


def test_scalar_curvature_is_the_array_closed_form():
    triple = family_member(FamilyParams(1, 3, 1 + 1j)).triple
    ws = np.array(_points(20))
    _, ks = conformal_fields(triple, ws)
    for w, k in zip(ws, ks):
        assert curvature_at(triple, complex(w)) == k


ACCEPTANCE_GRID = [(m, n, lam) for m, n in ((1, 1), (1, 3), (3, 1), (3, 3), (3, 5))
                   for lam in (0, 1, 1 + 1j, 0.5 - 2j)]


@pytest.mark.parametrize("m, n, lam", ACCEPTANCE_GRID, ids=str)
def test_split_fields_match_the_wedge_reference(m, n, lam):
    # on the README's 80 x 160 grid; near lam = +-i at m = n the wedge is the
    # inaccurate side, and the exact values below decide
    member = family_member(FamilyParams(m, n, lam))
    mesh = sample_grid(member, PolarGrid(0.5, 2.0, 80, 160))
    energy, curvature = conformal_fields(member.triple, mesh.grid.points())
    e_ref, k_ref = wedge_fields(member.triple, mesh.grid.points())
    assert np.max(np.abs(energy - e_ref) / e_ref) <= 2e-15
    reg = mesh.regular
    assert np.max(np.abs(curvature[reg] - k_ref[reg]) / np.abs(k_ref[reg])) <= 5e-15


EXACT_MEMBERS = [(1, 1, 1 + 1j), (3, 5, 0.5 - 2j), (15, 15, 1j), (15, 15, 0.0229 - 0.99974j)]


def _exact_draw(count=16):
    """Seeded points of 0.5 <= |w| <= 2.5.  Past the README grid's radius 2,
    the wedge's pointwise g^2 + h^2 leaves a residual of about eps |w|^(2m)
    that costs K about eps^2 |w|^(4m) relative: 1e-13 at |w| = 2, m = 15."""
    rng = np.random.default_rng(0)
    return rng.uniform(0.5, 2.5, count) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, count))


def _exact_ratios(fields, m, n, lam, slip=1.0):
    """Worst relative errors of E and K (K times slip) against the exact
    values, over the draw, in units of eps times exact.condition."""
    w = _exact_draw()
    energy, curvature = fields(family_member(FamilyParams(m, n, lam)).triple, w)
    worst_e = worst_k = 0.0
    for z, e, k in zip(w.tolist(), energy.tolist(), curvature.tolist()):
        e_exact, k_exact = exact.split_fields(m, n, lam, z)
        unit = EPS * exact.condition(m, n, lam, z)
        worst_e = max(worst_e, float(abs(Fraction(e) / e_exact - 1)) / unit)
        worst_k = max(worst_k, float(abs(Fraction(k * slip) / k_exact - 1)) / unit)
    return worst_e, worst_k


@pytest.mark.parametrize("m, n, lam", EXACT_MEMBERS, ids=str)
def test_split_fields_are_within_their_condition_of_the_exact_values(m, n, lam):
    # the two exact forms are one rational function: equal at every point
    for z in _exact_draw().tolist():
        assert exact.split_fields(m, n, lam, z) == exact.wedge_fields(m, n, lam, z)
    # measured worst 0.10 (E) and 0.13 (K) of the bound
    assert max(_exact_ratios(conformal_fields, m, n, lam)) <= 1.0
    # a 1 + 2^-40 slip in K is 4096 eps: past the bound at some point
    assert _exact_ratios(conformal_fields, m, n, lam, slip=1.0 + 2.0**-40)[1] > 1.0


@pytest.mark.parametrize("lam", [1j, 6.1e-17 + 1j], ids=str)
def test_wedge_reference_fails_the_exact_bound_near_lam_i(lam):
    # At lam = i exactly, g^2 + h^2 cancels to zero under correctly rounded
    # complex products; numpy's vectorized ones, which fuse multiply-adds
    # on x86-64, leave the residual.  Near i, h's own rounding leaves it.
    assert _exact_ratios(wedge_fields, 15, 15, lam)[1] > 1.0


def coordinate_laplacian(comp: LaurentPoly, w, h: float):
    """|Five-point Laplacian| of Re comp at w, step h, ring summed exactly:
    the reference for verify's harmonicity suite, which evaluates the same
    stencil in one stacked call.  ``w`` may be an ndarray of points, which
    gives an array of residuals.
    """
    center = comp(w).real
    total = accurate_sum(comp(w + d).real for d in (h, -h, 1j * h, -1j * h)) - 4.0 * center
    return abs(total) / h**2


def harmonicity_residual(curve, w: complex, h: float) -> float:
    """Reference: max over coordinates of the five-point Laplacian of Re X_k.

    Coordinates of a minimal immersion are harmonic, so the residual is pure
    O(h^2) truncation; a corrupted curve shows up orders of magnitude above
    that.  The stencil disc must stay clear of the puncture.
    """
    if abs(w) <= 2.0 * h:
        raise ValueError("stencil disc reaches the puncture")
    return max(coordinate_laplacian(comp, w, h) for comp in curve)


def test_harmonicity_residual_second_order():
    curve = family_member(FamilyParams(1, 1, 1 + 1j)).curve
    w = 1.3 + 0.7j
    res = harmonicity_residual(curve, w, 1e-3)
    scale = max(abs(comp(w)) for comp in curve)
    assert res <= 1e-6 * max(1.0, scale) * 100
    ratio = res / harmonicity_residual(curve, w, 5e-4)
    assert 3.5 <= ratio <= 4.5


def test_harmonicity_residual_detects_corruption():
    # Squaring a curve component keeps it holomorphic, hence harmonic: the
    # residual stays O(h^2).  A genuine corruption must break holomorphy,
    # e.g. squaring the real coordinate itself, whose Laplacian is
    # 2 |grad|^2 > 0; the same five-point stencil then saturates at that
    # value instead of vanishing.
    curve = family_member(FamilyParams(1, 1, 1 + 1j)).curve
    w, h = 1.3 + 0.7j, 1e-3
    clean = harmonicity_residual(curve, w, h)

    comp = curve[0]
    corrupted = lambda z: comp(z).real ** 2
    stencil = [corrupted(w + d) for d in (h, -h, 1j * h, -1j * h)]
    residual = abs(math.fsum(stencil + [-4.0 * corrupted(w)])) / h**2
    assert residual > 1e3 * clean

    still_holomorphic = (comp * comp,) + curve[1:]
    assert harmonicity_residual(still_holomorphic, w, h) <= 1e-3


def test_harmonicity_residual_respects_puncture():
    curve = family_member(FamilyParams(1, 1, 0)).curve
    with pytest.raises(ValueError):
        harmonicity_residual(curve, 0.001 + 0j, 1e-3)


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


def test_curvature_denominator_identity():
    ok, factored = curvature_denominator_check()
    assert ok
    assert "4uv" in factored


def test_curvature_denominator_sample_values():
    # middle factor at (u, v) = (1, 1): ((2)^2 - 1)^2 + 16 = 25, so the
    # k = 1 denominator is 3 * 25 * 5 = 375; at (1, 0) the factor vanishes
    mid = lambda u, v: ((u * u + v * v) ** 2 - 1) ** 2 + (4 * u * v) ** 2
    assert (1 + 1 + 1) * mid(1.0, 1.0) * (2 * 2 + 1) == 375
    assert mid(1.0, 0.0) == 0.0
