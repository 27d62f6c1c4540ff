"""Null-form construction, nullity, and the conformal factor."""

import math

import numpy as np
import pytest

from wep4.henneberg import FamilyParams, family_member, family_triple
from wep4.laurent import IDENTITY, ONE, ZERO, LaurentPoly, accurate_sum
from wep4.weierstrass import (
    WeierstrassTriple,
    is_regular,
    nullity_defect,
    nullity_residual,
    phi_from_triple,
)

RNG = np.random.default_rng(99)


def conformal_factor(t: WeierstrassTriple, w) -> tuple[float, float]:
    """Reference (E, reg_weight) at w from the (f, g, h) data t.

    E = sum |phi_k(w)|^2 / 2, summed from the components of t's null form
    phi, which equals <X_u, X_u> = <X_v, X_v> for the immersion with
    X_u - i X_v = phi; the regularity weight is |f| (1 + |g|^2 + |h|^2).
    The pipeline reads neither (geometry.conformal_fields takes E from the
    CP1 x CP1 pair a = g + ih, b = g - ih, and is_regular compares f with
    its envelope): both are the tests' independent reference.  ``w`` may be
    an ndarray.
    """
    energy = 0.5 * accurate_sum(abs(p(w)) ** 2 for p in phi_from_triple(t))
    reg = abs(t.f(w)) * (1.0 + abs(t.g(w)) ** 2 + abs(t.h(w)) ** 2)
    return energy, reg


def _annulus(count, lo=0.4, hi=1.8):
    r = RNG.uniform(lo, hi, count)
    t = RNG.uniform(0, 2 * math.pi, count)
    return [complex(a * math.cos(b), a * math.sin(b)) for a, b in zip(r, t)]


def test_phi_third_component_for_lowest_member():
    phi = family_member(FamilyParams(1, 1, 0)).phi
    assert phi[2] == LaurentPoly({1: 2.0, -3: -2.0})


def test_phi_nullity_is_structural():
    for lam in (0, 1, 1 + 1j, 0.5 - 2j):
        phi = family_member(FamilyParams(1, 1, lam)).phi
        assert nullity_defect(phi).is_zero
    assert not nullity_defect((ONE, ZERO, ZERO, ZERO)).is_zero
    assert nullity_defect((ONE, ONE * 1j, ZERO, ZERO)).is_zero  # 1 + (i)^2 = 0


def test_phi_for_plane():
    phi = phi_from_triple(WeierstrassTriple(ONE, ZERO, ZERO))
    assert phi == (
        LaurentPoly({0: 0.5}),
        LaurentPoly({0: 0.5j}),
        ZERO,
        ZERO,
    )


def test_nullity_residual_small_on_members():
    for m, n, lam in ((1, 1, 1 + 1j), (3, 5, 0.5 - 2j)):
        phi = family_member(FamilyParams(m, n, lam)).phi
        for w in _annulus(200):
            assert nullity_residual(phi, w) <= 1e-13


def test_nullity_residual_detects_corruption():
    phi = family_member(FamilyParams(1, 1, 1 + 1j)).phi
    corrupted = phi[:3] + (phi[3] * 2.0,)
    assert nullity_residual(corrupted, 0.9 + 0.4j) > 1e-3


def test_nullity_residual_zero_over_zero_reports_zero():
    zero_form = (ZERO, ZERO, ZERO, ZERO)
    assert nullity_residual(zero_form, 1 + 0j) == 0.0
    assert np.array_equal(nullity_residual(zero_form, np.array([1 + 0j, 2j])), [0.0, 0.0])


def test_is_regular_compares_f_with_its_envelope():
    # for the family the ratio is |w^(2N) - 1| / (1 + |w|^(2N)), N = m + n
    for m, n in ((1, 1), (1, 15), (7, 5)):
        t = family_triple(FamilyParams(m, n, 0.3 - 1j))
        big_n = m + n
        rng = np.random.default_rng(m + n)
        ws = rng.uniform(0.5, 2.0, 40) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 40))
        ratio = np.abs(ws ** (2 * big_n) - 1.0) / (1.0 + np.abs(ws) ** (2 * big_n))
        assert np.all(is_regular(t, ws, ratio * (1.0 - 1e-9)))
        assert not np.any(is_regular(t, ws, ratio * (1.0 + 1e-9)))
        for w, rho in zip(ws[:5].tolist(), ratio[:5].tolist()):
            assert is_regular(t, w, rho * (1.0 - 1e-9)) is True
            assert is_regular(t, w, rho * (1.0 + 1e-9)) is False


def test_is_regular_on_other_triples():
    # the classical Henneberg factor 1 - w^-4 vanishes at the fourth roots of unity
    t = WeierstrassTriple(LaurentPoly({0: 1.0, -4: -1.0}), IDENTITY, ZERO)
    roots = np.array([1, 1j, -1, -1j])
    assert not np.any(is_regular(t, roots))
    assert np.all(is_regular(t, roots * np.exp(0.01j)))
    # a constant f has no branch points; f = 0 is nowhere regular
    assert is_regular(WeierstrassTriple(ONE, ZERO, ZERO), 0.0) is True
    assert not np.any(is_regular(WeierstrassTriple(ZERO, ONE, ZERO), roots))


def test_conformal_factor_at_branch_point():
    t = family_triple(FamilyParams(1, 1, 0))
    energy, reg = conformal_factor(t, 1 + 0j)
    assert energy == 0.0 and reg == 0.0


def test_conformal_factor_plane():
    energy, reg = conformal_factor(WeierstrassTriple(ONE, ZERO, ZERO), 0.3 + 0.2j)
    # E = |1/2|^2 / 2 + |i/2|^2 / 2 = 1/4, the squared tangent norm
    assert energy == pytest.approx(0.25, abs=1e-15)
    assert reg == pytest.approx(1.0, abs=1e-15)


def test_real_lambda_metric_identity():
    # E = |f|^2 / 4 * (1 + (1 + lam^2) |w|^2)^2 for g = w, h = lam w, lam real
    for lam in (0.0, 1.0, 2.0):
        params = FamilyParams(1, 1, lam)
        t = family_triple(params)
        f = t.f
        for w in _annulus(100):
            energy, _ = conformal_factor(t, w)
            closed = abs(f(w)) ** 2 / 4.0 * (1 + (1 + lam * lam) * abs(w) ** 2) ** 2
            assert abs(energy - closed) <= 1e-12 * max(1.0, closed)


def test_reg_weight_energy_ratio():
    # reg^2 / (2E) = 2 (1+S)^2 / (1 + 2S + |g^2+h^2|^2) with S = |g|^2 + |h|^2;
    # the quotient (1+S)^2 / (1 + 2S + |g^2+h^2|^2) is >= 1, with equality
    # exactly when |g^2 + h^2| = S.
    cases = [
        (FamilyParams(1, 1, 1.0), True),   # real lam, m = n: equality holds
        (FamilyParams(1, 1, 1j * 0.7), False),  # imaginary lam: strict
    ]
    for params, equality in cases:
        t = family_triple(params)
        for w in _annulus(50):
            energy, reg = conformal_factor(t, w)
            s = abs(t.g(w)) ** 2 + abs(t.h(w)) ** 2
            gsq = abs((t.g * t.g + t.h * t.h)(w)) ** 2
            ratio = (1 + s) ** 2 / (1 + 2 * s + gsq)
            assert reg**2 / (2 * energy) == pytest.approx(2 * ratio, rel=1e-12)
            assert ratio >= 1.0 - 1e-12
            if equality:
                assert ratio == pytest.approx(1.0, abs=1e-12)
            else:
                assert ratio > 1.0 + 1e-6
