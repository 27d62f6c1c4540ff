"""Verbatim displays: internal consistency, frozen values, audit verdicts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wep4 import fixtures
from wep4.fixtures import (
    Fixture,
    FixtureDomainError,
    fidelity_report,
    fixture_eval,
    fixtures_for,
)
from wep4.geometry import immersion_point
from wep4.henneberg import FamilyParams, family_member
from wep4.verify import sample_annulus

RNG = np.random.default_rng(5)
FIXTURE_IDS = (
    "h11_general_cart", "h11_real_cart", "h11_example_cart", "h11_example_polar",
    "h13_example_cart", "h13_example_polar", "h11_real_xu", "h11_real_xv",
)
EPS = np.finfo(float).eps
# Bound on |fixture_eval - fn on Python floats|, in units of eps times
# 1 + the component's largest magnitude on the circles through the points
# (32 angles each): Python floats and numpy round powers such as x**3
# differently in the last bit, and the displays' monomials cancel.  Measured
# up to 7.6 eps (h13_example_cart, one point at a time, 0.3 <= r <= 2.5,
# lam in [-3, 3]^2), and at most 2.4 eps for the other displays.
PYTHON_FLOAT_GAP = 64 * EPS


def _polar_samples(count, lo=0.5, hi=1.8):
    return [
        (r, t)
        for r, t in zip(RNG.uniform(lo, hi, count), RNG.uniform(0, 2 * math.pi, count))
    ]


def display(fixture_id: str, lam: complex = 1 + 1j) -> Fixture:
    """The display with this id among those fixtures_for picks for the member
    it describes: (1, 3) or (1, 1) at lam = 1 + i for the example displays,
    (1, 1) at lam's real part for the real-lam ones, (1, 1) at lam otherwise."""
    if "_example_" in fixture_id:
        params = FamilyParams(1, 3 if fixture_id.startswith("h13") else 1, 1 + 1j)
    else:
        params = FamilyParams(1, 1, complex(lam).real if "_real_" in fixture_id else lam)
    return next(fx for fx in fixtures_for(params) if fx.fixture_id == fixture_id)


def test_registry_round_trip():
    for fid in FIXTURE_IDS:
        assert display(fid, 1.0).fixture_id == fid


def test_domain_errors():
    with pytest.raises(FixtureDomainError):
        fixture_eval(display("h11_example_cart"), (0.0, 0.0))
    with pytest.raises(FixtureDomainError):
        fixture_eval(display("h11_example_polar"), (0.0, 1.0))
    # nan <= 0 is False, so non-finite points need their own test
    for point in ((math.nan, 0.0), (math.inf, 0.3), (0.3, -math.inf)):
        for fid in ("h11_example_polar", "h11_example_cart"):
            with pytest.raises(FixtureDomainError, match="non-finite"):
                fixture_eval(display(fid), point)


_RING = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)


def _coords(fx, r, t):
    return (r, t) if fx.coords == "polar" else (r * np.cos(t), r * np.sin(t))


@st.composite
def _fixture_and_points(draw):
    """Any display (random lam for the parametrized ones) and 1 to 40 random
    annulus points (r, theta)."""
    lam = complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    fx = display(draw(st.sampled_from(FIXTURE_IDS)), lam)
    count = draw(st.integers(1, 40))
    r = np.array(draw(st.lists(st.floats(0.3, 2.5), min_size=count, max_size=count)))
    t = np.array(draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=count, max_size=count)))
    return fx, r, t


@settings(max_examples=150, deadline=None)
@given(_fixture_and_points())
def test_array_call_is_the_one_point_call(case):
    fx, r, t = case
    a, b = _coords(fx, r, t)
    got = fixture_eval(fx, (a, b))
    assert got.shape == (r.size, 4)
    assert fixture_eval(fx, (a[:, None], b[:, None])).tobytes() == got.tobytes()
    for i in range(r.size):
        assert fixture_eval(fx, (float(a[i]), float(b[i]))).tobytes() == got[i].tobytes()
    # the independent reference: the display itself on Python floats
    python = np.array([fx.fn(float(x), float(y)) for x, y in zip(a, b)], dtype=float)
    ring = fixture_eval(fx, _coords(fx, r[:, None], _RING[None, :]))
    bound = PYTHON_FLOAT_GAP * (1.0 + np.max(np.abs(ring), axis=(0, 1)))
    assert np.all(np.abs(got - python) <= bound), (fx.fixture_id, np.abs(got - python) / bound)


@settings(max_examples=60, deadline=None)
@given(_fixture_and_points(), st.data())
def test_one_bad_point_makes_the_array_call_raise(case, data):
    fx, r, t = case
    a, b = (np.array(c, dtype=float) for c in _coords(fx, r, t))
    outside = (0.0, 0.0) if fx.coords == "cart" else (data.draw(st.sampled_from((0.0, -0.5))), 0.3)
    bad = data.draw(st.sampled_from(
        (outside, (math.nan, 0.3), (0.3, math.nan), (math.inf, 0.3), (0.3, -math.inf))))
    i = data.draw(st.integers(0, a.size - 1))
    a[i], b[i] = bad
    with pytest.raises(FixtureDomainError):
        fixture_eval(fx, (a, b))


def test_example_value_at_r1_theta0():
    # the much-quoted sample point: both displays give (0, 4/3, 2, 2)
    polar = fixture_eval(display("h11_example_polar"), (1.0, 0.0))
    cart = fixture_eval(display("h11_example_cart"), (1.0, 0.0))
    expected = np.array([0.0, 4.0 / 3.0, 2.0, 2.0])
    assert np.max(np.abs(polar - expected)) <= 1e-12
    assert np.max(np.abs(cart - expected)) <= 1e-12


def test_real_display_value_at_one():
    for lam in (0.5, 1.0, 2.0):
        got = fixture_eval(display("h11_real_cart", lam), (1.0, 0.0))
        expected = np.array([-4.0 / 3.0 * lam * lam, 0.0, 2.0, 2.0 * lam])
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_general_display_reduces_to_real_display():
    gen = display("h11_general_cart", 1.5)
    real = display("h11_real_cart", 1.5)
    for u, v in ((0.8, 0.3), (1.2, -0.9), (0.4, 1.3)):
        assert np.allclose(fixture_eval(gen, (u, v)), fixture_eval(real, (u, v)), atol=1e-13)


def test_h11_cart_polar_agree():
    cart = display("h11_example_cart")
    polar = display("h11_example_polar")
    for r, t in _polar_samples(200):
        u, v = r * math.cos(t), r * math.sin(t)
        assert np.max(np.abs(fixture_eval(cart, (u, v)) - fixture_eval(polar, (r, t)))) <= 1e-10


def test_h13_cart_polar_agree():
    cart = display("h13_example_cart")
    polar = display("h13_example_polar")
    for r, t in _polar_samples(200):
        u, v = r * math.cos(t), r * math.sin(t)
        assert np.max(np.abs(fixture_eval(cart, (u, v)) - fixture_eval(polar, (r, t)))) <= 1e-10


def test_fixtures_for_selects_by_member():
    ids = {f.fixture_id for f in fixtures_for(FamilyParams(1, 1, 1 + 1j))}
    assert ids == {"h11_general_cart", "h11_example_cart", "h11_example_polar"}
    ids = {f.fixture_id for f in fixtures_for(FamilyParams(1, 1, 0))}
    assert ids == {"h11_general_cart", "h11_real_cart", "h11_real_xu", "h11_real_xv"}
    ids = {f.fixture_id for f in fixtures_for(FamilyParams(1, 3, 1 + 1j))}
    assert ids == {"h13_example_cart", "h13_example_polar"}
    assert fixtures_for(FamilyParams(3, 5, 1.0)) == []


def _report(params, count=60):
    samples = [complex(r * math.cos(t), r * math.sin(t)) for r, t in _polar_samples(count)]
    return fidelity_report(family_member(params), samples)


def test_report_flags_y_and_passes_z_w_for_h11_displays():
    report = _report(FamilyParams(1, 1, 1 + 1j))
    for fid in ("h11_example_cart", "h11_example_polar", "h11_general_cart"):
        assert report.row(fid, "y").verdict == "DEVIATES"
        assert report.row(fid, "x").verdict == "DEVIATES"  # the alpha*beta term
        assert report.row(fid, "z").verdict == "PASS"
        assert report.row(fid, "w").verdict == "PASS"


def test_report_real_lam_x_passes_y_deviates():
    # with real lam the x display agrees with the pipeline; the y display
    # still carries two flipped reciprocal terms
    report = _report(FamilyParams(1, 1, 1.0))
    for fid in ("h11_general_cart", "h11_real_cart"):
        assert report.row(fid, "x").verdict == "PASS"
        assert report.row(fid, "y").verdict == "DEVIATES"
        assert report.row(fid, "z").verdict == "PASS"
        assert report.row(fid, "w").verdict == "PASS"


def test_report_h13_z_scale_finding():
    params = FamilyParams(1, 3, 1 + 1j)
    report = _report(params)
    assert report.row("h13_example_cart", "z").verdict == "DEVIATES"
    assert report.row("h13_example_cart", "w").verdict == "PASS"
    # the deviation is exactly a factor 2 on the third component
    curve = family_member(params).curve
    cart = display("h13_example_cart")
    for r, t in _polar_samples(50):
        w = complex(r * math.cos(t), r * math.sin(t))
        pipe_z = immersion_point(curve, w)[2]
        fix_z = fixture_eval(cart, (w.real, w.imag))[2]
        assert abs(fix_z - 2.0 * pipe_z) <= 1e-10 * max(1.0, abs(pipe_z))


def test_report_tangent_displays_at_lam_zero():
    report = _report(FamilyParams(1, 1, 0))
    # first component of the du display is clean at lam = 0, its second
    # component and both leading components of the dv display are not
    assert report.row("h11_real_xu", "x", "tangent_u").verdict == "PASS"
    assert report.row("h11_real_xu", "y", "tangent_u").verdict == "DEVIATES"
    assert report.row("h11_real_xu", "z", "tangent_u").verdict == "PASS"
    assert report.row("h11_real_xu", "w", "tangent_u").verdict == "PASS"
    assert report.row("h11_real_xv", "x", "tangent_v").verdict == "DEVIATES"
    assert report.row("h11_real_xv", "z", "tangent_v").verdict == "PASS"


def test_report_tangent_display_first_component_needs_lam():
    # the du display's first component carries sign slips only on its
    # lam^2 monomials, so it deviates once lam is nonzero
    report = _report(FamilyParams(1, 1, 1.0))
    assert report.row("h11_real_xu", "x", "tangent_u").verdict == "DEVIATES"


def test_report_csv_shape():
    report = _report(FamilyParams(1, 3, 1 + 1j), count=20)
    text = report.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "fixture,check,component,max_abs_dev,tolerance,verdict"
    # 2 position fixtures * 3 checks * 4 components
    assert len(lines) == 1 + 24
    assert report.verdict("h13_example_polar") == "DEVIATES"


# -- mutation guard --------------------------------------------------------------
# One term's sign flipped, written as the difference it makes: the
# -2uv(1 - 1/r^4) term of h11_example_cart's w, and the
# r^-2 (cos 2 theta + sin 2 theta) term of h13_example_polar's w.
_FLIPPED_TERM = {
    "h11_example_cart": lambda u, v: 4.0 * u * v * (1.0 - 1.0 / (u * u + v * v) ** 2),
    "h13_example_polar": lambda r, th: -2.0 * r**-2 * (np.cos(2 * th) + np.sin(2 * th)),
}


def _mutant(fx, mutation):
    if mutation == "flip":
        def fn(a, b):
            x, y, z, w = fx.fn(a, b)
            return x, y, z, w + _FLIPPED_TERM[fx.fixture_id](a, b)
    elif mutation == "scale":
        def fn(a, b):
            return tuple(c * (1.0 + 1e-6) for c in fx.fn(a, b))
    else:
        # a ripple of amplitude 1e-12 and slope 1e-8 along both coordinates,
        # relative to each component: the values stay inside their 1e-9
        # tolerance, and a 1e-5 tangent tolerance would miss it
        def fn(a, b):
            return tuple(c * (1.0 + 1e-8 * np.sin(1e4 * (a + b)) / 1e4) for c in fx.fn(a, b))
    return Fixture(fx.fixture_id, fx.coords, fx.kind, fn)


@pytest.mark.parametrize("seed", (42, 34))
@pytest.mark.parametrize("mutation", ("flip", "scale", "tangent"))
@pytest.mark.parametrize("fid, params", (
    ("h11_example_cart", FamilyParams(1, 1, 1 + 1j)),
    ("h13_example_polar", FamilyParams(1, 3, 1 + 1j)),
))
def test_report_flags_a_perturbed_display(monkeypatch, fid, params, mutation, seed):
    samples = sample_annulus(np.random.default_rng(seed), 200, r_lo=0.5, r_hi=1.7)
    clean = fidelity_report(family_member(params), samples)
    monkeypatch.setattr(fixtures, "fixtures_for", lambda p: [
        _mutant(fx, mutation) if fx.fixture_id == fid else fx for fx in fixtures_for(p)])
    report = fidelity_report(family_member(params), samples)
    assert clean.row(fid, "w").verdict == "PASS"
    perturbed = {"flip": {"value": "w"},
                 "scale": {"value": "xyzw", "tangent_u": "xyzw", "tangent_v": "xyzw"},
                 "tangent": {"tangent_u": "xyzw", "tangent_v": "xyzw"}}[mutation]
    for before, after in zip(clean.rows, report.rows):
        if after.fixture_id == fid and after.component in perturbed.get(after.check, ""):
            assert after.verdict == "DEVIATES", after
        elif after.fixture_id != fid or mutation != "flip":
            # a flipped term also moves its display's tangents
            assert after.verdict == before.verdict, after
