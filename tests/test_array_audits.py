"""The array-path audits against their one-point-at-a-time references.

`verify` and `report` evaluate each suite's samples as whole arrays.  The
scalar rules they replaced are kept here as the references: each walks its
samples one point at a time through the exact (fsum) scalar path, drawing
from the RNG exactly as the suites did.  Over the acceptance grid and the
benchmark's audit members, at two seeds, the array suites must keep every
verdict and check count, leave the RNG stream (and so every later suite's
line) untouched, and agree on the worst values to within stated bounds.
"""

import math

import numpy as np
import pytest

from wep4 import verify
from wep4.cli import main
from wep4.fixtures import (
    _fd_tangents,
    _fixture_coords,
    fidelity_report,
    fixture_eval,
    fixtures_for,
)
from wep4.geometry import (
    closed_form_normals,
    coordinate_laplacian,
    frame_scalars,
    immersion_point,
    normal_frame,
    perp_vectors,
    surface_jet,
)
from wep4.henneberg import FamilyParams, family_curve, family_phi
from wep4.verify import run_verify, sample_annulus, sample_regular
from wep4.weierstrass import conformal_factor, nullity_residual, regularity_threshold

LAM_GRID = (0, 1, 1 + 1j, 0.5 - 2j)
MN_GRID = ((1, 1), (1, 3), (3, 1), (3, 3), (3, 5))
# the benchmark's `audit` members, run at the CLI's 1000 samples; the rest
# of the acceptance grid at 300
AUDIT_MEMBERS = {(1, 1, 1 + 0j), (1, 1, 1 + 1j), (1, 3, 1 + 1j), (1, 1, 0j), (3, 5, 0.5 - 2j)}
MEMBERS = sorted({(m, n, complex(lam)) for m, n in MN_GRID for lam in LAM_GRID} | AUDIT_MEMBERS,
                 key=lambda t: (t[0], t[1], t[2].real, t[2].imag))
SEEDS = (42, 34)
VALUE_TOL = 1e-14
# Bound on |array - scalar| of a five-point residual, in units of
# (1 + max_k |X_k(w)|) / h^2: the two paths round the ring values differently
# in the last bits (measured up to 7.3 eps over the acceptance grid).
LAPLACIAN_NOISE = 16 * np.finfo(float).eps


# -- the scalar references -----------------------------------------------------

def scalar_sample_regular(rng, count, phi, r_lo=0.4, r_hi=1.8):
    """The one-point rule: draw batches of `count`, keep healthy points in order."""
    out = []
    while len(out) < count:
        for w in verify.sample_annulus(rng, count, r_lo, r_hi):
            w = complex(w)
            _, reg = conformal_factor(phi, w)
            if reg > 1e3 * regularity_threshold(phi, w):
                out.append(w)
                if len(out) == count:
                    break
    return np.array(out)


def scalar_nullity(phi, samples, rng):
    return max([0.0] + [nullity_residual(phi, complex(w)) for w in sample_annulus(rng, samples)])


def scalar_conformality(phi, curve, samples, rng):
    worst = 0.0
    for w in scalar_sample_regular(rng, samples, phi):
        jet = surface_jet(phi, curve, complex(w))
        worst = max(worst, abs(jet.E - jet.G) / jet.E, abs(jet.F) / jet.E)
    return worst


def scalar_harmonicity(curve, points, rng, h=1e-3):
    """(checked, orders out of [1.8, 2.2], coordinates within the evaluation
    noise of the floor) of the five-point stencil."""
    checked, bad, near_floor = 0, [], 0
    for w in sample_annulus(rng, points, r_lo=0.75, r_hi=1.6):
        w = complex(w)
        scale = 1.0 + max(abs(comp(w).real) for comp in curve.parts)
        floor = 1e-7 * scale
        for comp in curve.parts:
            res_h = coordinate_laplacian(comp, w, h)
            res_h2 = coordinate_laplacian(comp, w, h / 2.0)
            near_floor += (abs(res_h - floor) <= LAPLACIAN_NOISE * scale / h**2
                           or abs(res_h2 - floor) <= 4 * LAPLACIAN_NOISE * scale / h**2)
            if res_h < floor or res_h2 < floor:
                continue
            order = math.log2(res_h / res_h2)
            checked += 1
            if not 1.8 <= order <= 2.2:
                bad.append(order)
    return checked, bad, near_floor


def scalar_frames(params, phi, curve, points, rng):
    worst_pq = worst_gram = worst_span = 0.0
    for w in scalar_sample_regular(rng, points, phi):
        w = complex(w)
        jet = surface_jet(phi, curve, w)
        perp1, perp2 = perp_vectors(jet)
        s = frame_scalars(params, w)
        worst_pq = max(worst_pq, abs(s.p - jet.E) / s.p,
                       abs(s.q - float(np.dot(jet.xu, perp2))) / s.p,
                       abs(s.q + float(np.dot(jet.xv, perp1))) / s.p)
        frame = normal_frame(jet)
        basis = np.stack([frame.e1, frame.e2, frame.n1, frame.n2])
        worst_gram = max(worst_gram, float(np.max(np.abs(basis @ basis.T - np.eye(4)))))
        if s.cross_minus > 1e-6:
            for n in closed_form_normals(jet, s):
                resid = n - np.dot(n, frame.n1) * frame.n1 - np.dot(n, frame.n2) * frame.n2
                worst_span = max(worst_span, float(np.linalg.norm(resid)))
    return worst_pq, worst_gram, worst_span


def scalar_verify(params, samples, seed):
    """The suites' worst values and lines, replayed through the scalar rules."""
    rng = np.random.default_rng(seed)
    phi, curve = family_phi(params), family_curve(params)
    out = {"nullity": scalar_nullity(phi, samples, rng)}
    out["quadrature"] = verify.check_quadrature(params, rng).line()
    out["conformality"] = scalar_conformality(phi, curve, min(samples, 1000), rng)
    out["harmonicity"] = scalar_harmonicity(curve, 50, rng)
    if params.m == params.n == 1 and params.lam_is_real:
        out["frames"] = scalar_frames(params, phi, curve, 100, rng)
    out["integral_free"] = verify.check_integral_free(params, rng).line()
    out["reductions"] = verify.check_reductions(params).line()
    return out


def _detail(result, key):
    return float(result.detail.split(f"{key}=")[1].split()[0])


def _cases():
    for m, n, lam in MEMBERS:
        samples = 1000 if (m, n, lam) in AUDIT_MEMBERS else 300
        for seed in SEEDS:
            yield pytest.param(FamilyParams(m, n, lam), samples, seed,
                               id=f"{m}-{n}-{lam}-{samples}-{seed}")


# -- sampling ------------------------------------------------------------------

@pytest.mark.parametrize("m, n, lam", MEMBERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_sample_regular_keeps_the_scalar_rule_points_and_stream(m, n, lam, seed):
    phi = family_phi(FamilyParams(m, n, lam))
    for count, r_lo, r_hi in ((1000, 0.4, 1.8), (100, 0.95, 1.05)):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ref = scalar_sample_regular(ref_rng, count, phi, r_lo, r_hi)
        got = sample_regular(rng, count, phi, r_lo, r_hi)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sample_regular_cuts_where_the_scalar_rule_cuts(monkeypatch):
    # draws closing in on the branch point w = 1 of (1, 1, 0) across the
    # cutoff, then a batch clear of every branch point
    phi = family_phi(FamilyParams(1, 1, 0))
    near = 1.0 + np.geomspace(1e-9, 1e-1, 64) * np.exp(0.3j)
    clear = 1.5 * np.exp(1j * np.linspace(0.1, 6.0, 64))
    picked = []
    for rule in (scalar_sample_regular, sample_regular):
        batches = iter((near, clear))
        monkeypatch.setattr(verify, "sample_annulus", lambda *args: next(batches))
        picked.append(rule(None, 64, phi))
    assert np.array_equal(picked[0], picked[1])
    assert 0 < np.sum(np.isin(near, picked[1])) < 64


# -- verify --------------------------------------------------------------------

@pytest.mark.parametrize("params, samples, seed", list(_cases()))
def test_verify_suites_match_the_scalar_rules(params, samples, seed):
    results = {r.name: r for r in run_verify(params, samples, seed)}
    ref = scalar_verify(params, samples, seed)

    # suites whose code is unchanged see the same RNG stream: identical lines
    for name in ("quadrature", "integral_free", "reductions"):
        assert results[name].line() == ref[name]

    nullity = results["nullity"]
    assert nullity.passed and nullity.checks == samples + 1
    assert abs(_detail(nullity, "max_residual") - ref["nullity"]) <= VALUE_TOL

    conformality = results["conformality"]
    assert conformality.passed == (ref["conformality"] <= 1e-12)
    assert conformality.checks == 2 * min(samples, 1000)
    assert abs(_detail(conformality, "max_rel") - ref["conformality"]) <= VALUE_TOL

    # A coordinate is measured where its residual clears a floor; one whose
    # residual sits within the evaluation noise of that floor may be counted
    # by one path and not the other.  Every other coordinate counts alike.
    checked, bad, near_floor = ref["harmonicity"]
    harmonicity = results["harmonicity"]
    assert abs(harmonicity.checks - checked) <= near_floor
    assert harmonicity.passed == (not bad and checked > 0)

    frames = results["frames"]
    if "frames" not in ref:
        assert frames.skipped and frames.checks == 0
    else:
        pq, gram, span = ref["frames"]
        assert frames.passed == (pq <= 1e-10 and gram <= 1e-10 and span <= 1e-8)
        assert frames.checks == 600
        for key, want in (("pq", pq), ("gram", gram), ("span", span)):
            # printed to three digits: compare at that precision plus the bound
            assert abs(_detail(frames, key) - want) <= 0.006 * want + 1e-14


def test_nullity_residual_array_matches_scalar():
    for m, n, lam in AUDIT_MEMBERS:
        phi = family_phi(FamilyParams(m, n, lam))
        w = sample_annulus(np.random.default_rng(7), 500)
        got = nullity_residual(phi, w)
        ref = np.array([nullity_residual(phi, complex(z)) for z in w])
        assert got.shape == w.shape
        assert np.max(np.abs(got - ref)) <= VALUE_TOL


def test_coordinate_laplacian_array_matches_scalar():
    curve = family_curve(FamilyParams(3, 5, 0.5 - 2j))
    w = sample_annulus(np.random.default_rng(8), 200, r_lo=0.75, r_hi=1.6)
    for h in (1e-3, 5e-4):
        for comp in curve.parts:
            got = coordinate_laplacian(comp, w, h)
            ref = np.array([coordinate_laplacian(comp, complex(z), h) for z in w])
            scale = 1.0 + np.max(np.abs(immersion_point(curve, w)), axis=1)
            assert np.all(np.abs(got - ref) <= LAPLACIAN_NOISE * scale / h**2)


# -- report --------------------------------------------------------------------

def scalar_report_rows(params, samples):
    """(fixture, check, component) -> (max_abs_dev, scale), one point at a time."""
    phi, curve = family_phi(params), family_curve(params)
    rows = {}
    for fx in fixtures_for(params):
        dev = {c: np.zeros(4) for c in ("value", "tangent_u", "tangent_v")}
        scale = np.zeros(4)
        for w in samples:
            jet = surface_jet(phi, curve, w)
            ref = fixture_eval(fx, _fixture_coords(fx, w))
            if fx.kind == "position":
                pipe = immersion_point(curve, w)
                fd_u, fd_v = _fd_tangents(fx, w)
                dev["value"] = np.maximum(dev["value"], np.abs(ref - pipe))
                dev["tangent_u"] = np.maximum(dev["tangent_u"], np.abs(fd_u - jet.xu))
                dev["tangent_v"] = np.maximum(dev["tangent_v"], np.abs(fd_v - jet.xv))
                scale = np.maximum(scale, np.abs(pipe))
            else:
                tangent = jet.xu if fx.kind == "tangent_u" else jet.xv
                dev[fx.kind] = np.maximum(dev[fx.kind], np.abs(ref - tangent))
                scale = np.maximum(scale, np.abs(tangent))
        checks = ("value", "tangent_u", "tangent_v") if fx.kind == "position" else (fx.kind,)
        for check in checks:
            for i, comp in enumerate("xyzw"):
                rows[(fx.fixture_id, check, comp)] = (dev[check][i], scale[i])
    return rows


REPORT_MEMBERS = ((1, 1, 0), (1, 1, 1), (1, 1, 2), (1, 1, 1 + 1j), (1, 3, 1 + 1j))


@pytest.mark.parametrize("m, n, lam", REPORT_MEMBERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_report_rows_match_the_scalar_loop(m, n, lam, seed):
    params = FamilyParams(m, n, lam)
    points = sample_annulus(np.random.default_rng(seed), 200, r_lo=0.5, r_hi=1.7)
    samples = [complex(w) for w in points]
    report = fidelity_report(params, samples)
    ref = scalar_report_rows(params, samples)
    assert [(r.fixture_id, r.check, r.component) for r in report.rows] == list(ref)
    for r in report.rows:
        dev, scale = ref[(r.fixture_id, r.check, r.component)]
        assert abs(r.max_abs_dev - dev) <= 1e-13 * (1.0 + scale)
        assert r.verdict == ("PASS" if dev <= r.tolerance else "DEVIATES")


def test_report_stdout_is_byte_identical_across_runs(capsys):
    argv = ["report", "--m", "1", "--n", "1", "--lambda", "1", "--samples", "200"]
    outs = []
    for _ in range(2):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0].count("\n") == 1 + 4 * (3 + 3 + 1 + 1)
