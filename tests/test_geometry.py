"""Jets, frames, curvature, harmonicity, and the denominator identity."""

import math

import numpy as np
import pytest

from wep4.geometry import (
    DegenerateFrameError,
    FormulaDegenerateError,
    FrameScalars,
    UndefinedCurvatureError,
    closed_form_normals,
    conformal_fields,
    curvature_denominator_check,
    frame_scalars,
    gauss_curvature,
    harmonicity_residual,
    immersion_point,
    normal_frame,
    perp_vectors,
    surface_jet,
)
from wep4.henneberg import FamilyParams, MinimalCurve, family_curve, family_phi
from wep4.laurent import ONE, ZERO
from wep4.weierstrass import WeierstrassTriple, conformal_factor, phi_from_triple

RNG = np.random.default_rng(31)


def _points(count, lo=0.45, hi=1.7):
    r = RNG.uniform(lo, hi, count)
    t = RNG.uniform(0, 2 * math.pi, count)
    return [complex(a * math.cos(b), a * math.sin(b)) for a, b in zip(r, t)]


def _regular_points(phi, curve, count, lo=0.45, hi=1.7):
    out = []
    while len(out) < count:
        for w in _points(count, lo, hi):
            jet = surface_jet(phi, curve, w)
            if jet.regular and jet.E > 1e-3:
                out.append((w, jet))
                if len(out) == count:
                    break
    return out


def test_immersion_point_values_at_one():
    assert np.allclose(
        immersion_point(family_curve(FamilyParams(1, 1, 0)), 1 + 0j), [0, 0, 2, 0]
    )
    for lam in (0.5, 1.0, 2.0):
        got = immersion_point(family_curve(FamilyParams(1, 1, lam)), 1 + 0j)
        assert np.allclose(got, [-4 / 3 * lam * lam, 0, 2, 2 * lam], atol=1e-14)


def test_immersion_point_at_one_for_complex_lam():
    # termwise integration puts y at -8/3 here (checked against quadrature
    # in the verification suite); the printed display says 4/3 instead and
    # the audit report carries that finding
    got = immersion_point(family_curve(FamilyParams(1, 1, 1 + 1j)), 1 + 0j)
    assert np.allclose(got, [0, -8 / 3, 2, 2], atol=1e-14)


def test_jet_branch_point_flagged():
    params = FamilyParams(1, 1, 0)
    jet = surface_jet(family_phi(params), family_curve(params), 1 + 0j)
    assert jet.E == 0.0 and not jet.regular


def test_jet_conformality():
    params = FamilyParams(1, 1, 1.0)
    jet = surface_jet(family_phi(params), family_curve(params), 2 + 0j)
    assert abs(jet.E - jet.G) <= 1e-12 * jet.E
    assert abs(jet.F) <= 1e-12 * jet.E


def test_perp_vectors_identities():
    params = FamilyParams(1, 1, 1.0)
    phi, curve = family_phi(params), family_curve(params)
    for w, jet in _regular_points(phi, curve, 25):
        p1, p2 = perp_vectors(jet)
        assert math.fsum(p1 * p1) == math.fsum(jet.xu * jet.xu)
        assert math.fsum(p1 * jet.xu) == 0.0
        assert math.fsum(p2 * jet.xv) == 0.0
        q = math.fsum(jet.xu * p2)
        assert abs(q + math.fsum(jet.xv * p1)) <= 1e-12 * max(1.0, abs(q))


def test_frame_scalars_match_inner_products():
    for lam in (0.0, 1.0, 2.0):
        params = FamilyParams(1, 1, lam)
        phi, curve = family_phi(params), family_curve(params)
        for w, jet in _regular_points(phi, curve, 35):
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
    phi, curve = family_phi(params), family_curve(params)
    jet = surface_jet(phi, curve, 1.5 + 0.5j)
    frame = normal_frame(jet)
    basis = np.stack([frame.e1, frame.e2, frame.n1, frame.n2])
    assert np.max(np.abs(basis @ basis.T - np.eye(4))) <= 1e-10
    for n in (frame.n1, frame.n2):
        assert abs(np.dot(n, jet.xu)) <= 1e-10 * math.sqrt(jet.E)
        assert abs(np.dot(n, jet.xv)) <= 1e-10 * math.sqrt(jet.E)


def test_normal_frame_rejects_non_regular():
    params = FamilyParams(1, 1, 0)
    phi, curve = family_phi(params), family_curve(params)
    for w in (1 + 0j, np.array([1.5 + 0.5j, 1 + 0j])):  # one point, or any in a stack
        with pytest.raises(DegenerateFrameError):
            normal_frame(surface_jet(phi, curve, w))


def test_stacked_jets_and_frames_match_one_point_calls():
    # over an array of points every field is the stack of the one-point
    # values: fsum at one point, compensated sums over the stack
    for lam in (0.0, 1.0, 2.0):
        params = FamilyParams(1, 1, lam)
        phi, curve = family_phi(params), family_curve(params)
        w = np.array([z for z, _ in _regular_points(phi, curve, 40)])
        jet = surface_jet(phi, curve, w)
        s = frame_scalars(params, w)
        frame = normal_frame(jet)
        normals = closed_form_normals(jet, s)
        assert jet.xu.shape == (40, 4) and jet.E.shape == (40,) and jet.regular.all()
        for i, z in enumerate(w.tolist()):
            one = surface_jet(phi, curve, z)
            for name in ("position", "xu", "xv", "E", "F", "G"):
                got, want = getattr(jet, name)[i], getattr(one, name)
                assert np.allclose(got, want, rtol=1e-14, atol=1e-14 * (1 + jet.E[i])), name
            s1 = frame_scalars(params, z)
            for name in ("p", "q", "quartic", "cross_minus", "cross_plus", "inv_r8"):
                # numpy and Python round r2**4 apart by an ulp at times
                assert getattr(s, name)[i] == pytest.approx(getattr(s1, name), rel=1e-15)
            frame1 = normal_frame(one)
            for name in ("e1", "e2", "n1", "n2"):
                assert np.max(np.abs(getattr(frame, name)[i] - getattr(frame1, name))) <= 1e-14
            for n, n_one in zip(normals, closed_form_normals(one, s1)):
                assert np.max(np.abs(n[i] - n_one)) <= 1e-14


def test_closed_form_normals_span_gs_normals():
    for lam in (0.0, 1.0, 2.0):
        params = FamilyParams(1, 1, lam)
        phi, curve = family_phi(params), family_curve(params)
        for w, jet in _regular_points(phi, curve, 30):
            s = frame_scalars(params, w)
            if s.cross_minus <= 1e-6:
                continue
            frame = normal_frame(jet)
            n1, n2 = closed_form_normals(jet, s)
            for n in (n1, n2):
                assert abs(np.dot(n, n) - 1.0) <= 1e-10
                resid = n - np.dot(n, frame.n1) * frame.n1 - np.dot(n, frame.n2) * frame.n2
                assert np.linalg.norm(resid) <= 1e-8
            assert abs(np.dot(n1, jet.xu)) <= 1e-8 * s.p
            assert abs(np.dot(n2, jet.xv)) <= 1e-8 * s.p


def test_closed_form_normals_degenerate_scalar_rejected():
    params = FamilyParams(1, 1, 1.0)
    jet = surface_jet(family_phi(params), family_curve(params), 1.5 + 0.5j)
    degenerate = FrameScalars(p=1.0, q=1.0, quartic=1.0, cross_minus=0.0,
                              cross_plus=1.0, inv_r8=1.0)
    with pytest.raises(FormulaDegenerateError):
        closed_form_normals(jet, degenerate)


def test_gauss_curvature_plane_is_zero():
    phi = phi_from_triple(WeierstrassTriple(ONE, ZERO, ZERO))
    assert abs(gauss_curvature(phi, 0.7 + 0.1j)) <= 1e-10


def test_gauss_curvature_flat_at_large_radius():
    phi = family_phi(FamilyParams(1, 1, 0))
    assert abs(gauss_curvature(phi, 10 + 0j)) <= 1e-6


def test_gauss_curvature_nonpositive_at_samples():
    for m, n, lam in ((1, 1, 0), (1, 3, 1 + 1j), (3, 3, 0.5 - 2j)):
        phi = family_phi(FamilyParams(m, n, lam))
        curve = family_curve(FamilyParams(m, n, lam))
        for w, _ in _regular_points(phi, curve, 40):
            assert gauss_curvature(phi, w) <= 1e-8


def test_gauss_curvature_rejects_branch_point():
    phi = family_phi(FamilyParams(1, 1, 0))
    with pytest.raises(UndefinedCurvatureError):
        gauss_curvature(phi, 1 + 0j)


def _fd_curvature(phi, w):
    """Reference K = -Laplacian(ln E) / (2 E): Richardson-refined five-point
    Laplacians at steps h and h/2, h = 1e-4 max(1, |w|), with exactly
    rounded sums.  Returns K and a bound on its own error: the refinement
    step |L_h - L_{h/2}| / 3 (truncation) plus 64 eps max|ln E| / (h/2)^2
    (roundoff), both divided by 2E."""
    h = 1e-4 * max(1.0, abs(w))
    log_e = lambda z: math.log(conformal_factor(phi, z)[0])
    center = log_e(w)

    def laplacian(step):
        ring = [log_e(w + d) for d in (step, -step, 1j * step, -1j * step)]
        return math.fsum(ring + [-4.0 * center]) / step**2, max(map(abs, ring + [center]))

    coarse, _ = laplacian(h)
    fine, size = laplacian(h / 2.0)
    two_e = 2.0 * conformal_factor(phi, w)[0]
    error = abs(coarse - fine) / 3.0 + 64.0 * 2.0**-52 * size / (h / 2.0) ** 2
    return -(4.0 * fine - coarse) / 3.0 / two_e, error / two_e


def test_closed_form_curvature_matches_finite_differences():
    grid_members = [(m, n, lam) for m, n in ((1, 1), (1, 3), (3, 1), (3, 3), (3, 5))
                    for lam in (0, 1, 1 + 1j, 0.5 - 2j)]
    worst = 0.0
    for m, n, lam in grid_members + [(5, 7, 0.3j)]:
        phi = family_phi(FamilyParams(m, n, lam))
        ws = np.array(_points(12, 0.45, 2.0))
        _, reg, ks = conformal_fields(phi.triple, ws)
        for w, k in zip(ws[reg > 1e-3], ks[reg > 1e-3]):
            k_fd, fd_error = _fd_curvature(phi, complex(w))
            assert k < 0.0
            assert abs(k - k_fd) <= fd_error, (m, n, lam, w)
            worst = max(worst, abs(k - k_fd) / abs(k))
    assert worst <= 1e-3


def test_scalar_curvature_is_the_array_closed_form():
    phi = family_phi(FamilyParams(1, 3, 1 + 1j))
    ws = np.array(_points(20))
    _, _, ks = conformal_fields(phi.triple, ws)
    for w, k in zip(ws, ks):
        assert gauss_curvature(phi, complex(w)) == k


def test_harmonicity_residual_second_order():
    curve = family_curve(FamilyParams(1, 1, 1 + 1j))
    w = 1.3 + 0.7j
    res = harmonicity_residual(curve, w, 1e-3)
    scale = max(abs(comp(w)) for comp in curve.parts)
    assert res <= 1e-6 * max(1.0, scale) * 100
    ratio = res / harmonicity_residual(curve, w, 5e-4)
    assert 3.5 <= ratio <= 4.5


def test_harmonicity_residual_detects_corruption():
    # Squaring a curve component keeps it holomorphic, hence harmonic: the
    # residual stays O(h^2).  A genuine corruption must break holomorphy,
    # e.g. squaring the real coordinate itself, whose Laplacian is
    # 2 |grad|^2 > 0; the same five-point stencil then saturates at that
    # value instead of vanishing.
    curve = family_curve(FamilyParams(1, 1, 1 + 1j))
    w, h = 1.3 + 0.7j, 1e-3
    clean = harmonicity_residual(curve, w, h)

    comp = curve.parts[0]
    corrupted = lambda z: comp(z).real ** 2
    stencil = [corrupted(w + d) for d in (h, -h, 1j * h, -1j * h)]
    residual = abs(math.fsum(stencil + [-4.0 * corrupted(w)])) / h**2
    assert residual > 1e3 * clean

    still_holomorphic = MinimalCurve((comp * comp,) + curve.parts[1:])
    assert harmonicity_residual(still_holomorphic, w, h) <= 1e-3


def test_harmonicity_residual_respects_puncture():
    curve = family_curve(FamilyParams(1, 1, 0))
    with pytest.raises(ValueError):
        harmonicity_residual(curve, 0.001 + 0j, 1e-3)


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
