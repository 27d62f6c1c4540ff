"""The array-path audits against their one-point-at-a-time references.

`verify` and `report` evaluate each suite's samples as whole arrays.  The
scalar rules they replaced are kept here as the references: each walks its
samples one point at a time through the exact (fsum) scalar path, drawing
from the suite's own stream exactly as the suite does.  Over the acceptance
grid and the benchmark's audit members, at two seeds, the array suites must
keep every verdict and check count, draw the same points, and agree on the
worst values to within stated bounds.
"""

import math

import numpy as np
import pytest

from wep4 import verify
from wep4.cli import main
from wep4.fixtures import (
    _fixture_coords,
    _tangents,
    fidelity_report,
    fixture_eval,
    fixtures_for,
)
from wep4.geometry import (
    closed_form_normals,
    frame_scalars,
    immersion_point,
    normal_plane,
    perp_vectors,
    surface_jet,
)
from wep4.henneberg import (
    FamilyParams,
    family_member,
    integral_free_point,
    recover_seed,
    seed_phi,
)
from wep4.laurent import accurate_sum
from wep4.verify import run_verify, sample_annulus, sample_regular
from wep4.weierstrass import is_regular, nullity_residual

LAM_GRID = (0, 1, 1 + 1j, 0.5 - 2j)
MN_GRID = ((1, 1), (1, 3), (3, 1), (3, 3), (3, 5))
# the benchmark's `audit` members, run at the CLI's 1000 samples; the rest
# of the acceptance grid at 300
AUDIT_MEMBERS = {(1, 1, 1 + 0j), (1, 1, 1 + 1j), (1, 3, 1 + 1j), (1, 1, 0j), (3, 5, 0.5 - 2j)}
MEMBERS = sorted({(m, n, complex(lam)) for m, n in MN_GRID for lam in LAM_GRID} | AUDIT_MEMBERS,
                 key=lambda t: (t[0], t[1], t[2].real, t[2].imag))
SEEDS = (42, 34)
VALUE_TOL = 1e-14
# Bound on |array - scalar| of harmonicity's max_eps_ratio, in its own units
# of eps (1 + env): the two paths round the centre and ring values
# differently in the last bits (measured up to 0.12 over the acceptance grid).
RING_NOISE = 0.5
# Bounds on |array - scalar| of integral_free's worst values: the pointwise
# curve error, in units of max(1, |curve|) (measured up to 1.4 eps over the
# acceptance grid), and the round-trip ratio, whose bound is 16 eps times the
# weighted terms (measured up to 0.035 of it).
POINT_NOISE = 4 * np.finfo(float).eps
ROUNDTRIP_NOISE = 2 / 16


# -- the scalar references -----------------------------------------------------

def scalar_sample_regular(rng, count, triple, r_lo=0.4, r_hi=1.8):
    """The one-point rule: draw batches of `count`, keep healthy points in order."""
    out = []
    while len(out) < count:
        for w in verify.sample_annulus(rng, count, r_lo, r_hi):
            w = complex(w)
            if is_regular(triple, w, verify.SAMPLE_MARGIN):
                out.append(w)
                if len(out) == count:
                    break
    return np.array(out)


def scalar_nullity(phi, samples, rng):
    return max([0.0] + [nullity_residual(phi, complex(w)) for w in sample_annulus(rng, samples)])


def scalar_conformality(member, samples, rng):
    worst = 0.0
    for w in scalar_sample_regular(rng, samples, member.triple):
        jet = surface_jet(member, complex(w))
        worst = max(worst, abs(jet.E - jet.G) / jet.E, abs(jet.F) / jet.E)
    return worst


def scalar_harmonicity(curve, points, rng):
    """(checks, worst |ring mean - centre| / (eps (1 + env))) of the ring
    rule, one point and one coordinate at a time, each ring summed by fsum."""
    size = verify._ring_points(curve)
    ring = np.exp(2j * math.pi * np.arange(size) / size)
    checks, worst = 0, 0.0
    for w in sample_annulus(rng, points, r_lo=0.75, r_hi=1.6):
        w = complex(w)
        rho = abs(w) / 4.0
        for comp in curve:
            mean = math.fsum(comp(w + rho * complex(z)).real for z in ring) / size
            env = max(comp.envelope(1.25 * abs(w)), comp.envelope(0.75 * abs(w)))
            worst = max(worst, abs(mean - comp(w).real) / (np.finfo(float).eps * (1.0 + env)))
            checks += 1
    return checks, worst


def scalar_frames(member, points, rng):
    worst_pq = worst_gram = worst_span = 0.0
    for w in scalar_sample_regular(rng, points, member.triple):
        w = complex(w)
        jet = surface_jet(member, w)
        perp1, perp2 = perp_vectors(jet)
        s = frame_scalars(member.params, w)
        worst_pq = max(worst_pq, abs(s.p - jet.E) / s.p,
                       abs(s.q - float(np.dot(jet.xu, perp2))) / s.p,
                       abs(s.q + float(np.dot(jet.xv, perp1))) / s.p)
        n1, n2 = normal_plane(member.triple, w)
        basis = np.stack([jet.xu / math.sqrt(jet.E), jet.xv / math.sqrt(jet.G), n1, n2])
        worst_gram = max(worst_gram, float(np.max(np.abs(basis @ basis.T - np.eye(4)))))
        if s.cross_minus > 1e-6:
            for n in closed_form_normals(jet, s):
                resid = n - np.dot(n, n1) * n1 - np.dot(n, n2) * n2
                worst_span = max(worst_span, float(np.linalg.norm(resid)))
    return worst_pq, worst_gram, worst_span


def scalar_integral_free(member, rng, points=25):
    """(verdict, point, roundtrip_ratio) of the seed route, one point at a
    time: the pointwise curve, its central difference at h = 1e-6 held to
    that stencil's own error bound, and the recover_seed round trip."""
    params = member.params
    seed = seed_phi(params.m, params.n)
    d3 = seed.derivative().derivative().derivative()
    seed_ulp = verify._max_coeff_ulp(d3, member.triple.f)
    target = member.gh_curve
    phi_low = member.gh_phi
    seed_derivs = (seed, seed.derivative(), seed.derivative().derivative())
    phi_curvature = [comp.derivative().derivative() for comp in phi_low]
    weight = 1.0 + abs(1.0 + params.lam * params.lam)
    h = 1e-6
    worst_point = worst_fd = worst_rt = 0.0
    can_invert = abs(1.0 + params.lam * params.lam) > 1e-3
    for w in sample_annulus(rng, points, r_lo=0.6, r_hi=1.5):
        w = complex(w)
        k = integral_free_point(seed, params.lam, w)
        ref = [comp(w) for comp in target]
        scale = max(1.0, max(abs(v) for v in ref))
        worst_point = max(worst_point, max(abs(a - b) for a, b in zip(k, ref)) / scale)
        kp = integral_free_point(seed, params.lam, w + h)
        km = integral_free_point(seed, params.lam, w - h)
        fd = [(a - b) / (2.0 * h) for a, b in zip(kp, km)]
        phiv = [comp(w) for comp in phi_low]
        r = abs(w) + h
        terms = weight * math.fsum(r**j * d.envelope(r) for j, d in enumerate(seed_derivs))
        bound = (16.0 * np.finfo(float).eps * terms / h
                 + h * h * max(p.envelope(r) for p in phi_curvature))
        worst_fd = max(worst_fd, max(abs(a - b) for a, b in zip(fd, phiv)) / bound)
        if can_invert:
            rt = recover_seed(k, params.lam, w)
            rt_bound = float(verify._roundtrip_bound(seed, params.lam, w))
            worst_rt = max(worst_rt, abs(rt - seed(w)) / rt_bound)
    ok = seed_ulp <= 1.0 and worst_point <= 1e-12 and worst_fd <= 1.0 and worst_rt <= 1.0
    return ok, worst_point, worst_rt


def scalar_verify(params, samples, seed):
    """The suites' worst values and lines, replayed through the scalar rules,
    each suite on child SUITES.index(name) of SeedSequence(seed)."""
    children = np.random.SeedSequence(seed).spawn(len(verify.SUITES))
    rng = dict(zip(verify.SUITES, map(np.random.default_rng, children)))
    member = family_member(params)
    out = {"nullity": scalar_nullity(member.phi, samples, rng["nullity"])}
    out["quadrature"] = verify.check_quadrature(member, rng["quadrature"]).line()
    out["conformality"] = scalar_conformality(member, min(samples, 1000), rng["conformality"])
    out["harmonicity"] = scalar_harmonicity(member.curve, verify.HARMONICITY_POINTS,
                                            rng["harmonicity"])
    if params.m == params.n == 1 and params.lam_is_real:
        out["frames"] = scalar_frames(member, verify.FRAME_POINTS, rng["frames"])
    out["integral_free"] = scalar_integral_free(member, rng["integral_free"])
    out["reductions"] = verify.check_reductions(member).line()
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
    triple = family_member(FamilyParams(m, n, lam)).triple
    for count, r_lo, r_hi in ((1000, 0.4, 1.8), (100, 0.95, 1.05)):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ref = scalar_sample_regular(ref_rng, count, triple, r_lo, r_hi)
        got = sample_regular(rng, count, triple, r_lo, r_hi)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sample_regular_cuts_where_the_scalar_rule_cuts(monkeypatch):
    # draws closing in on the branch point w = 1 of (1, 1, 0) across the
    # cutoff, then a batch clear of every branch point
    triple = family_member(FamilyParams(1, 1, 0)).triple
    near = 1.0 + np.geomspace(1e-9, 1e-1, 64) * np.exp(0.3j)
    clear = 1.5 * np.exp(1j * np.linspace(0.1, 6.0, 64))
    picked = []
    for rule in (scalar_sample_regular, sample_regular):
        batches = iter((near, clear))
        monkeypatch.setattr(verify, "sample_annulus", lambda *args: next(batches))
        picked.append(rule(None, 64, triple))
    assert np.array_equal(picked[0], picked[1])
    assert 0 < np.sum(np.isin(near, picked[1])) < 64


# -- verify --------------------------------------------------------------------

@pytest.mark.parametrize("params, samples, seed", list(_cases()))
def test_verify_suites_match_the_scalar_rules(params, samples, seed):
    results = {r.name: r for r in run_verify(family_member(params), samples, seed)}
    ref = scalar_verify(params, samples, seed)

    # suites whose code is unchanged see the same stream: identical lines
    for name in ("quadrature", "reductions"):
        assert results[name].line() == ref[name]

    passed, point, roundtrip = ref["integral_free"]
    integral_free = results["integral_free"]
    assert integral_free.passed and passed, integral_free.line()
    assert integral_free.checks == 9 + 2 * 25
    # printed to three digits: compare at that precision plus the bound
    assert abs(_detail(integral_free, "point") - point) <= 0.006 * point + POINT_NOISE
    assert (abs(_detail(integral_free, "roundtrip_ratio") - roundtrip)
            <= 0.006 * roundtrip + ROUNDTRIP_NOISE)

    nullity = results["nullity"]
    assert nullity.passed and nullity.checks == samples + 1
    assert abs(_detail(nullity, "max_residual") - ref["nullity"]) <= VALUE_TOL

    conformality = results["conformality"]
    assert conformality.passed == (ref["conformality"] <= 1e-12)
    assert conformality.checks == 2 * min(samples, 1000)
    assert abs(_detail(conformality, "max_rel") - ref["conformality"]) <= VALUE_TOL

    checks, worst = ref["harmonicity"]
    harmonicity = results["harmonicity"]
    assert harmonicity.checks == checks == 200
    assert harmonicity.passed == (worst <= 16.0)
    assert abs(_detail(harmonicity, "max_eps_ratio") - worst) <= RING_NOISE

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
        phi = family_member(FamilyParams(m, n, lam)).phi
        w = sample_annulus(np.random.default_rng(7), 500)
        got = nullity_residual(phi, w)
        ref = np.array([nullity_residual(phi, complex(z)) for z in w])
        assert got.shape == w.shape
        assert np.max(np.abs(got - ref)) <= VALUE_TOL


def separate_call_ring_defects(curve, w):
    """verify._ring_defects with each coordinate evaluated by its own call
    at the centres and at each ring point (points + 1 calls per coordinate,
    where the suite makes one)."""
    size = verify._ring_points(curve)
    ring = np.exp(2j * math.pi * np.arange(size) / size)
    rho = np.abs(w) / 4.0
    return np.stack([
        np.abs(accurate_sum([comp(w + rho * z).real for z in ring]) / size - comp(w).real)
        for comp in curve
    ], axis=-1)


def separate_call_harmonicity(curve, points, rng):
    """The suite's rule with separate calls for the defects and for each
    envelope radius: (checks, worst |mean - centre| / (eps (1 + env)))."""
    w = sample_annulus(rng, points, r_lo=0.75, r_hi=1.6)
    defects = separate_call_ring_defects(curve, w)
    env = np.stack([np.maximum(comp.envelope(1.25 * np.abs(w)), comp.envelope(0.75 * np.abs(w)))
                    for comp in curve], axis=-1)
    return defects.size, float(np.max(defects / (np.finfo(float).eps * (1.0 + env))))


@pytest.mark.parametrize("m, n, lam", MEMBERS)
def test_stacked_laplacians_equal_the_separate_calls_bit_for_bit(m, n, lam):
    # the ring defect mean - centre is rho^2 / 4 times the ring's discrete
    # Laplacian (the five-point stencil is its four-point case)
    curve = family_member(FamilyParams(m, n, lam)).curve
    w = sample_annulus(np.random.default_rng(5), 50, r_lo=0.75, r_hi=1.6)
    got = verify._ring_defects(curve, w, verify._ring_points(curve))
    ref = separate_call_ring_defects(curve, w)
    assert got.shape == ref.shape == (50, 4) and np.array_equal(got, ref)


@pytest.mark.parametrize("m, n, lam", MEMBERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_harmonicity_counts_equal_the_separate_call_rule(m, n, lam, seed):
    member = family_member(FamilyParams(m, n, lam))
    got = verify.check_harmonicity(member, np.random.default_rng(seed))
    checks, worst = separate_call_harmonicity(member.curve, verify.HARMONICITY_POINTS,
                                              np.random.default_rng(seed))
    assert got.checks == checks == 200
    assert got.passed == (worst <= 16.0)
    assert _detail(got, "max_eps_ratio") == float(f"{worst:.2f}")


# -- report --------------------------------------------------------------------

def scalar_report_rows(params, samples):
    """(fixture, check, component) -> (max_abs_dev, scale), one point at a time."""
    member = family_member(params)
    curve = member.curve
    rows = {}
    for fx in fixtures_for(params):
        dev = {c: np.zeros(4) for c in ("value", "tangent_u", "tangent_v")}
        scale = np.zeros(4)
        for w in samples:
            jet = surface_jet(member, w)
            ref = fixture_eval(fx, _fixture_coords(fx, w))
            if fx.kind == "position":
                pipe = immersion_point(curve, w)
                xu, xv = (t[0] for t in _tangents(fx, np.array([w])))
                dev["value"] = np.maximum(dev["value"], np.abs(ref - pipe))
                dev["tangent_u"] = np.maximum(dev["tangent_u"], np.abs(xu - jet.xu))
                dev["tangent_v"] = np.maximum(dev["tangent_v"], np.abs(xv - jet.xv))
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


def separate_call_fd_tangents(fx, w):
    """_tangents with the display called once per coordinate's complex step:
    Im fn(s + i h) / h is the difference quotient (fn(s + i h) - fn(s)) / (i h)
    of a display real on the real axis."""
    a, b = _fixture_coords(fx, w)
    h = 1e-100
    da = np.stack(fx.fn(a + 1j * h, b + 0j), axis=-1).imag / h
    db = np.stack(fx.fn(a + 0j, b + 1j * h), axis=-1).imag / h
    if fx.coords == "cart":
        return da, db
    r = a[:, None]
    cos, sin = np.real(w)[:, None] / r, np.imag(w)[:, None] / r
    return cos * da - sin / r * db, sin * da + cos / r * db


@pytest.mark.parametrize("m, n, lam", REPORT_MEMBERS)
def test_stacked_fd_tangents_equal_the_separate_calls_bit_for_bit(m, n, lam):
    points = sample_annulus(np.random.default_rng(3), 200, r_lo=0.5, r_hi=1.7)
    displays = [fx for fx in fixtures_for(FamilyParams(m, n, lam)) if fx.kind == "position"]
    assert displays
    for fx in displays:
        for w in (points, points[:1]):
            got, ref = _tangents(fx, w), separate_call_fd_tangents(fx, w)
            for a, b in zip(got, ref):
                assert a.shape == b.shape == w.shape + (4,) and np.array_equal(a, b)


@pytest.mark.parametrize("m, n, lam", REPORT_MEMBERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_report_rows_match_the_scalar_loop(m, n, lam, seed):
    params = FamilyParams(m, n, lam)
    points = sample_annulus(np.random.default_rng(seed), 200, r_lo=0.5, r_hi=1.7)
    samples = [complex(w) for w in points]
    report = fidelity_report(family_member(params), samples)
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
