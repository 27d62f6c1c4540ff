"""Null-form construction, nullity, and the conformal factor."""

import math

import numpy as np
import pytest

from wep4.henneberg import FamilyParams, family_phi, family_triple
from wep4.laurent import IDENTITY, ONE, ZERO, LaurentPoly
from wep4.weierstrass import (
    PhiForm,
    WeierstrassTriple,
    conformal_factor,
    nullity_defect,
    nullity_residual,
    phi_from_triple,
)

RNG = np.random.default_rng(99)


def _annulus(count, lo=0.4, hi=1.8):
    r = RNG.uniform(lo, hi, count)
    t = RNG.uniform(0, 2 * math.pi, count)
    return [complex(a * math.cos(b), a * math.sin(b)) for a, b in zip(r, t)]


def test_phi_third_component_for_lowest_member():
    phi = family_phi(FamilyParams(1, 1, 0))
    assert phi.parts[2] == LaurentPoly({1: 2.0, -3: -2.0})


def test_phi_nullity_is_structural():
    for lam in (0, 1, 1 + 1j, 0.5 - 2j):
        phi = family_phi(FamilyParams(1, 1, lam))
        assert nullity_defect(phi.parts).is_zero


def test_phi_for_plane():
    phi = phi_from_triple(WeierstrassTriple(ONE, ZERO, ZERO))
    assert phi.parts == (
        LaurentPoly({0: 0.5}),
        LaurentPoly({0: 0.5j}),
        ZERO,
        ZERO,
    )


def test_nullity_residual_small_on_members():
    for m, n, lam in ((1, 1, 1 + 1j), (3, 5, 0.5 - 2j)):
        phi = family_phi(FamilyParams(m, n, lam))
        for w in _annulus(200):
            assert nullity_residual(phi, w) <= 1e-13


def test_nullity_residual_detects_corruption():
    phi = family_phi(FamilyParams(1, 1, 1 + 1j))
    parts = list(phi.parts)
    parts[3] = parts[3] * 2.0
    corrupted = PhiForm(tuple(parts))
    assert nullity_residual(corrupted, 0.9 + 0.4j) > 1e-3


def test_nullity_residual_zero_over_zero_reports_zero():
    zero_form = PhiForm((ZERO, ZERO, ZERO, ZERO))
    assert nullity_residual(zero_form, 1 + 0j) == 0.0
    assert np.array_equal(nullity_residual(zero_form, np.array([1 + 0j, 2j])), [0.0, 0.0])


def test_conformal_factor_needs_the_triple():
    bare = PhiForm(family_phi(FamilyParams(1, 1, 1.0)).parts)
    with pytest.raises(ValueError):
        conformal_factor(bare, 0.5 + 0.25j)


def test_conformal_factor_at_branch_point():
    phi = family_phi(FamilyParams(1, 1, 0))
    energy, reg = conformal_factor(phi, 1 + 0j)
    assert energy == 0.0 and reg == 0.0


def test_conformal_factor_plane():
    phi = phi_from_triple(WeierstrassTriple(ONE, ZERO, ZERO))
    energy, reg = conformal_factor(phi, 0.3 + 0.2j)
    # E = |1/2|^2 / 2 + |i/2|^2 / 2 = 1/4, the squared tangent norm
    assert energy == pytest.approx(0.25, abs=1e-15)
    assert reg == pytest.approx(1.0, abs=1e-15)


def test_real_lambda_metric_identity():
    # E = |f|^2 / 4 * (1 + (1 + lam^2) |w|^2)^2 for g = w, h = lam w, lam real
    for lam in (0.0, 1.0, 2.0):
        params = FamilyParams(1, 1, lam)
        phi = family_phi(params)
        f = family_triple(params).f
        for w in _annulus(100):
            energy, _ = conformal_factor(phi, w)
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
        phi = family_phi(params)
        t = family_triple(params)
        for w in _annulus(50):
            energy, reg = conformal_factor(phi, w)
            s = abs(t.g(w)) ** 2 + abs(t.h(w)) ** 2
            gsq = abs((t.g * t.g + t.h * t.h)(w)) ** 2
            ratio = (1 + s) ** 2 / (1 + 2 * s + gsq)
            assert reg**2 / (2 * energy) == pytest.approx(2 * ratio, rel=1e-12)
            assert ratio >= 1.0 - 1e-12
            if equality:
                assert ratio == pytest.approx(1.0, abs=1e-12)
            else:
                assert ratio > 1.0 + 1e-6
