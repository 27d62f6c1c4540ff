"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criterion 6e compares the verbatim general-lam Cartesian display with the
pipeline at real lam, componentwise, to 1e-12.  The display's second
coordinate carries two sign slips that survive real lam: with a = 1 + lam^2,
termwise integration of the second form component gives

    y = -v - (a/3) Im w^3 + Im(w^3)/(3 r^6) + a v/r^2,

while the display prints the last two terms with a minus sign.  The pipeline
side is confirmed independently (back-differentiation, segment quadrature,
the lam = 0 reduction), and fixtures stay verbatim, so the test pins the
display's y as the pipeline's y plus exactly twice the flipped terms, and
x, z, w as equal to the pipeline.  The audit report carries the same finding
as h11_general_cart / y DEVIATES.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from wep4.cli import main
from wep4.fixtures import fidelity_report, fixture_eval
from wep4.geometry import immersion_point
from wep4.henneberg import (
    FamilyParams,
    classic_henneberg_curve,
    family_member,
    integral_free_point,
    recover_seed,
    seed_phi,
)
from wep4.laurent import LaurentPoly
from wep4.mesh import PolarGrid, sample_grid
from wep4.verify import check_frames, check_harmonicity, check_nullity, quadrature_targets
from wep4.weierstrass import nullity_defect

from test_fixtures import display
from test_geometry import curvature_at, curvature_denominator_check

LAM_GRID = (0, 1, 1 + 1j, 0.5 - 2j)
MN_GRID = ((1, 1), (1, 3), (3, 1), (3, 3), (3, 5))
SEED = 42


def _announce(num: str, name: str) -> None:
    print(f"[acceptance] criterion {num} ({name}): PASS")


def _annulus(rng, count, lo=0.4, hi=1.8):
    r = rng.uniform(lo, hi, count)
    t = rng.uniform(0, 2 * math.pi, count)
    return r * np.exp(1j * t)


def _regular_annulus(rng, count):
    # radii kept away from the unit circle, where all branch points live
    half = count // 2
    r = np.concatenate([rng.uniform(0.4, 0.92, half), rng.uniform(1.08, 1.8, count - half)])
    t = rng.uniform(0, 2 * math.pi, count)
    return r * np.exp(1j * t)


def test_criterion_01_nullity():
    rng = np.random.default_rng(SEED)
    for m, n in MN_GRID:
        for lam in LAM_GRID:
            member = family_member(FamilyParams(m, n, lam))
            phi = member.phi
            assert nullity_defect(phi).is_zero, f"structural defect at {(m, n, lam)}"
            # gh_phi's g = w and h = lam w share an exponent, so its defect need
            # not be an exact zero (at lam = 0.1 it is not): verify's bound holds it
            gh = check_nullity(replace(member, phi=member.gh_phi), 100,
                               np.random.default_rng(SEED))
            assert gh.passed, (m, n, lam, gh.line())
            ws = _annulus(rng, 1000)
            vals = [comp(ws) for comp in phi]
            num = np.abs(sum(v * v for v in vals))
            den = sum(np.abs(v) ** 2 for v in vals)
            ratio = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
            assert float(np.max(ratio)) <= 1e-12
    _announce("01", "nullity")


def test_criterion_02_back_differentiation():
    for m, n in MN_GRID:
        for lam in LAM_GRID:
            p = FamilyParams(m, n, lam)
            member = family_member(p)
            phi, curve = member.phi, member.curve
            for x, comp in zip(curve, phi):
                assert x.derivative() == comp, f"inexact at {(m, n, lam)}"
    _announce("02", "back-differentiation, coefficient-exact")


def test_criterion_03_quadrature_cross_check():
    rng = np.random.default_rng(SEED)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    base = 1 + 0j
    for m, n in MN_GRID:
        for lam in LAM_GRID:
            p = FamilyParams(m, n, lam)
            member = family_member(p)
            phi, curve = member.phi, member.curve
            for z in quadrature_targets(rng, 20):
                t = (nodes + 1.0) / 2.0
                zs = base + t * (z - base)
                integral = np.array(
                    [(z - base) / 2.0 * np.sum(weights * comp(zs)) for comp in phi]
                )
                diff = np.array([comp(z) - comp(base) for comp in curve])
                rel = np.linalg.norm(integral - diff) / np.linalg.norm(diff)
                assert rel <= 1e-9
    _announce("03", "segment quadrature matches curve differences")


def test_criterion_04_conformality():
    rng = np.random.default_rng(SEED)
    for m, n in MN_GRID:
        for lam in LAM_GRID:
            p = FamilyParams(m, n, lam)
            member = family_member(p)
            phi, triple = member.phi, member.triple
            ws = _regular_annulus(rng, 1000)
            reg = np.abs(triple.f(ws)) * (
                1.0 + np.abs(triple.g(ws)) ** 2 + np.abs(triple.h(ws)) ** 2
            )
            assert float(np.min(reg)) > 1e-3  # all sample points are regular
            vals = [comp(ws) for comp in phi]
            xu = [v.real for v in vals]
            xv = [-v.imag for v in vals]
            e = sum(a * a for a in xu)
            g = sum(b * b for b in xv)
            f = sum(a * b for a, b in zip(xu, xv))
            assert float(np.max(np.abs(e - g) / e)) <= 1e-12
            assert float(np.max(np.abs(f) / e)) <= 1e-12
    _announce("04", "conformality E = G, F = 0")


def test_criterion_05_harmonicity_convergence():
    rng = np.random.default_rng(SEED)
    result = check_harmonicity(family_member(FamilyParams(1, 1, 1 + 1j)), rng)
    assert result.passed, result.detail
    result = check_harmonicity(family_member(FamilyParams(1, 3, 1 + 1j)), rng)
    assert result.passed, result.detail
    _announce("05", "harmonic coordinates, mean-value property to rounding")


def _matched_samples(rng, count):
    return [(float(r), float(t)) for r, t in
            zip(rng.uniform(0.5, 1.8, count), rng.uniform(0, 2 * math.pi, count))]


def test_criterion_06a_h11_cart_polar_agree():
    rng = np.random.default_rng(SEED)
    cart = display("h11_example_cart")
    polar = display("h11_example_polar")
    for r, t in _matched_samples(rng, 200):
        u, v = r * math.cos(t), r * math.sin(t)
        dev = np.max(np.abs(fixture_eval(cart, (u, v)) - fixture_eval(polar, (r, t))))
        assert dev <= 1e-10
    _announce("06a", "lowest-member displays: cart vs polar")


def test_criterion_06b_h13_cart_polar_agree():
    rng = np.random.default_rng(SEED)
    cart = display("h13_example_cart")
    polar = display("h13_example_polar")
    for r, t in _matched_samples(rng, 200):
        u, v = r * math.cos(t), r * math.sin(t)
        dev = np.max(np.abs(fixture_eval(cart, (u, v)) - fixture_eval(polar, (r, t))))
        assert dev <= 1e-10
    _announce("06b", "higher-member displays: cart vs polar")


def test_criterion_06c_h11_report_and_reference_value():
    rng = np.random.default_rng(SEED)
    samples = list(_annulus(rng, 100, lo=0.5, hi=1.7))
    report = fidelity_report(family_member(FamilyParams(1, 1, 1 + 1j)), samples)
    audited = {r.fixture_id for r in report.rows}
    assert {"h11_example_cart", "h11_example_polar"} <= audited
    expected = np.array([0.0, 4.0 / 3.0, 2.0, 2.0])
    for fid in ("h11_example_cart", "h11_example_polar"):
        coords = (1.0, 0.0)
        got = fixture_eval(display(fid), coords)
        assert np.max(np.abs(got - expected)) <= 1e-12
    _announce("06c", "report generated; displays reproduce (0, 4/3, 2, 2) at (1, 0)")


def test_criterion_06d_h13_z_deviates_by_factor_two():
    rng = np.random.default_rng(SEED)
    params = FamilyParams(1, 3, 1 + 1j)
    report = fidelity_report(family_member(params), list(_annulus(rng, 60, lo=0.5, hi=1.7)))
    assert report.row("h13_example_cart", "z").verdict == "DEVIATES"
    curve = family_member(params).curve
    cart = display("h13_example_cart")
    for w in _annulus(rng, 100, lo=0.5, hi=1.7):
        w = complex(w)
        pipe_z = immersion_point(curve, w)[2]
        fix_z = fixture_eval(cart, (w.real, w.imag))[2]
        assert abs(fix_z - 2.0 * pipe_z) <= 1e-10 * max(1.0, abs(pipe_z))
    _announce("06d", "higher-member z display = exactly 2x pipeline (reported)")


def test_criterion_06e_general_cart_display_matches_pipeline_at_real_lam():
    # x, z, w must equal the pipeline.  y must equal the pipeline plus the
    # slip: the display flips the signs of a*v/r^2 and Im(w^3)/(3 r^6), so
    # it differs from termwise integration by minus twice their sum.  Fails
    # if the pipeline's y changes, if the fixture is edited, or if any other
    # component drifts.
    rng = np.random.default_rng(SEED)
    worst = np.zeros(4)
    verdicts = {}
    for lam in (0.0, 1.0, 2.0):
        a = 1.0 + lam * lam
        params = FamilyParams(1, 1, lam)
        general = display("h11_general_cart", lam)
        curve = family_member(params).curve
        samples = [complex(w) for w in _annulus(rng, 100, lo=0.5, hi=1.7)]
        for w in samples:
            r2 = abs(w) ** 2
            slip = -2.0 * (a * w.imag / r2 + (w**3).imag / (3.0 * r2**3))
            dev = fixture_eval(general, (w.real, w.imag)) - immersion_point(curve, w)
            dev[1] -= slip
            worst = np.maximum(worst, np.abs(dev))
        report = fidelity_report(family_member(params), samples)
        verdicts[lam] = [report.row("h11_general_cart", c).verdict for c in "xyzw"]
    assert float(np.max(worst)) <= 1e-12, (
        "verbatim display is not the pipeline plus the two y sign slips at "
        f"real lam; per-component max residuals (x, y, z, w) = {worst}"
    )
    for lam, got in verdicts.items():
        assert got == ["PASS", "DEVIATES", "PASS", "PASS"], (lam, got)
    _announce("06e", "general cart display = pipeline at real lam, up to two y sign slips")


def test_criterion_07_frame_suite():
    rng = np.random.default_rng(SEED)
    for lam in (0.0, 1.0, 2.0):
        result = check_frames(family_member(FamilyParams(1, 1, lam)), rng)
        assert not result.skipped and result.passed, result.detail
    _announce("07", "frame scalars, Gram matrix, closed-form normal span")


def test_criterion_08_curvature():
    identity_ok, _ = curvature_denominator_check()
    assert identity_ok
    # the mixed octic coefficient must come out as -4 + 16 = 12
    mid = lambda u, v: ((u * u + v * v) ** 2 - 1) ** 2 + (4 * u * v) ** 2
    octic = lambda u, v: (u**8 + 4 * u**6 * v**2 + 6 * u**4 * v**4 + 4 * u**2 * v**6
                          + v**8 - 2 * u**4 - 2 * v**4 + 12 * u**2 * v**2 + 1)
    for u, v in ((1.0, 1.0), (0.5, -1.5), (2.0, 0.25)):
        assert mid(u, v) == pytest.approx(octic(u, v), rel=1e-15)

    rng = np.random.default_rng(SEED)
    per_config = 500 // (len(MN_GRID) * len(LAM_GRID))
    for m, n in MN_GRID:
        for lam in LAM_GRID:
            triple = family_member(FamilyParams(m, n, lam)).triple
            for w in _regular_annulus(rng, per_config):
                assert curvature_at(triple, complex(w)) <= 1e-8

    flat = curvature_at(family_member(FamilyParams(1, 1, 0)).triple, 10 + 0j)
    assert abs(flat) <= 1e-6
    _announce("08", "octic identity, K <= 0, asymptotic flatness")


def test_criterion_09_integral_free():
    d3 = seed_phi(1, 1).derivative().derivative().derivative()
    assert d3 == LaurentPoly({0: 2.0, -4: -2.0})

    rng = np.random.default_rng(SEED)
    curve = family_member(FamilyParams(1, 1, 0)).curve
    seed = seed_phi(1, 1)
    for w in _annulus(rng, 50, lo=0.5, hi=1.6):
        w = complex(w)
        k = integral_free_point(seed, 0.0, w)
        ref = [comp(w) for comp in curve]
        assert max(abs(a - b) for a, b in zip(k, ref)) <= 1e-12

    pairs = 0
    while pairs < 100:
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(1 + lam * lam) <= 1e-3:
            continue
        w = complex(_annulus(rng, 1, lo=0.5, hi=1.6)[0])
        k = integral_free_point(seed, lam, w)
        got = recover_seed(k, lam, w)
        assert abs(got - seed(w)) <= 1e-12 * max(1.0, abs(seed(w)))
        pairs += 1
    _announce("09", "seed derivative, pointwise curve, inversion round trip")


def test_criterion_10_reductions():
    for m, n in MN_GRID:
        curve = family_member(FamilyParams(m, n, 0)).curve
        assert curve[3].is_zero
    curve = family_member(FamilyParams(1, 1, 0)).curve
    classic = classic_henneberg_curve()
    for k in range(3):
        assert curve[k] == classic[k] * 2.0

    for m, lam in ((1, 0.5), (3, 2.0)):
        mesh = sample_grid(family_member(FamilyParams(m, m, lam)), PolarGrid(0.5, 1.6, 5, 8))
        z, w = mesh.columns(slice(None), ("z", "w"))
        assert np.all(np.abs(w - lam * z) <= 1e-10 * np.maximum(1.0, np.abs(z)))
    _announce("10", "planar reduction and w = lam z ties")


def test_criterion_11_mesh_determinism_and_branch_flags(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        obj = tmp_path / f"{tag}.obj"
        csv = tmp_path / f"{tag}.csv"
        argv = ["mesh", "--m", "1", "--n", "3", "--lambda", "1+1i",
                "--rmin", "0.5", "--rmax", "2", "--nr", "10", "--ntheta", "16"]
        assert main(argv + ["--project", "xyw", "--format", "obj", "--out", str(obj)]) == 0
        assert main(argv + ["--format", "csv", "--out", str(csv)]) == 0
        blobs.append((obj.read_bytes(), csv.read_bytes()))
    assert blobs[0] == blobs[1]

    for m, n, n_theta in ((1, 1, 4), (1, 3, 8)):
        mesh = sample_grid(family_member(FamilyParams(m, n, 0)), PolarGrid(0.5, 1.5, 3, n_theta))
        u, v = mesh.columns(slice(None), ("u", "v"))
        flagged = ~mesh.regular
        assert np.count_nonzero(flagged) == 2 * m + 2 * n  # the (2m+2n)-th roots of unity
        assert np.all(np.abs(np.hypot(u[flagged], v[flagged]) - 1.0) <= 1e-9)
    _announce("11", "byte-identical exports; branch vertices flagged")
