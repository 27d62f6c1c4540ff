"""Family data, closed-form curves, reductions, and the integral-free route."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wep4.henneberg import (
    DegenerateParameterError,
    FamilyParams,
    classic_henneberg_curve,
    classic_henneberg_phi,
    family_member,
    family_triple,
    integral_free_point,
    recover_seed,
    seed_phi,
)
from wep4.laurent import IDENTITY, LaurentPoly
from wep4.verify import _max_coeff_ulp, check_nullity
from wep4.weierstrass import nullity_residual

LAM_GRID = (0, 1, 1 + 1j, 0.5 - 2j)
MN_GRID = ((1, 1), (1, 3), (3, 1), (3, 3), (3, 5))

RNG = np.random.default_rng(7)


def _points(count, lo=0.5, hi=1.6):
    r = RNG.uniform(lo, hi, count)
    t = RNG.uniform(0, 2 * math.pi, count)
    return [complex(a * math.cos(b), a * math.sin(b)) for a, b in zip(r, t)]


def test_family_triple_lowest_member():
    t = family_triple(FamilyParams(1, 1, 0.5))
    assert t.f == LaurentPoly({0: 2.0, -4: -2.0})
    assert t.g == LaurentPoly({1: 1.0})
    assert t.h == LaurentPoly({1: 0.5})


def test_family_triple_one_three():
    t = family_triple(FamilyParams(1, 3, 2j))
    assert t.f == LaurentPoly({2: 2.0, -6: -2.0})
    assert t.g == LaurentPoly({1: 1.0})
    assert t.h == LaurentPoly({3: 2j})


def test_params_reject_even_orders():
    with pytest.raises(ValueError):
        FamilyParams(2, 1, 0)
    with pytest.raises(ValueError):
        FamilyParams(1, 4, 0)
    with pytest.raises(ValueError):
        FamilyParams(-1, 1, 0)
    with pytest.raises(ValueError):
        FamilyParams(1, 1, complex("inf"))


def test_closed_form_denominators_never_vanish_for_odd_orders():
    # The closed forms of the family divide by these ten expressions.  For
    # positive odd m, n each one is >= 1 or odd (m - n - 1, n - m - 1), so
    # none can vanish and FamilyParams carries no guard for them; checked
    # exhaustively for small orders.
    for m in range(1, 100, 2):
        for n in range(1, 100, 2):
            denominators = (
                m + n - 1, 3 * m + n - 1, m + 3 * n - 1, m + n + 1,
                m - n - 1, n - m - 1, 2 * m + n - 1, n + 1, m + 2 * n - 1, m + 1,
            )
            assert all(d >= 1 or d % 2 == 1 for d in denominators), (m, n)
            FamilyParams(m, n, 0.5 - 2j)


def test_expanded_f_equals_two_term_form():
    # the expanded product form agrees with 2(w**(m+n-2) - w**(-(m+n+2)))
    # coefficient for coefficient, for all odd orders up to 9
    for m in range(1, 10, 2):
        for n in range(1, 10, 2):
            f = family_triple(FamilyParams(m, n, 1)).f
            assert f == LaurentPoly({m + n - 2: 2.0, -(m + n + 2): -2.0})


def test_family_curve_lowest_member_components():
    for lam in LAM_GRID:
        lam = complex(lam)
        curve = family_member(FamilyParams(1, 1, lam)).curve
        a = 1 + lam * lam
        assert curve[0] == LaurentPoly({1: 1.0, 3: -a / 3, -3: 1 / 3, -1: -a})
        assert curve[3] == LaurentPoly({2: lam, -2: lam})


def test_family_curve_one_three_third_component():
    curve = family_member(FamilyParams(1, 3, 1 + 1j)).curve
    assert curve[2] == LaurentPoly({4: 0.5, -4: 0.5})


def test_no_integrand_carries_exponent_minus_one():
    for m in range(1, 100, 2):
        for n in range(1, 100, 2):
            phi = family_member(FamilyParams(m, n, 1 + 1j)).phi
            for comp in phi:
                assert all(k != -1 for k, _ in comp)


def test_back_differentiation_exact_on_grid():
    for m, n in MN_GRID:
        for lam in LAM_GRID:
            member = family_member(FamilyParams(m, n, lam))
            phi, curve = member.phi, member.curve
            for x, p in zip(curve, phi):
                assert x.derivative() == p


def test_back_differentiation_sweep_within_one_ulp():
    # across all odd m, n <= 9 the divide/multiply pair stays within 1 ulp;
    # a handful of coefficient/divisor pairs prevent exactness in doubles
    for m in range(1, 10, 2):
        for n in range(1, 10, 2):
            for lam in LAM_GRID:
                member = family_member(FamilyParams(m, n, lam))
                phi, curve = member.phi, member.curve
                for x, p in zip(curve, phi):
                    back = x.derivative()
                    for k, c in p:
                        got = dict(back).get(k, 0j)
                        for a, b in ((c.real, got.real), (c.imag, got.imag)):
                            assert abs(a - b) <= math.ulp(max(abs(a), abs(b), 1.0))


def test_fixed_gh_matches_family_at_lowest_member():
    for lam in LAM_GRID:
        p = FamilyParams(1, 1, lam)
        member = family_member(p)
        assert member.gh_curve == member.curve


def test_fixed_gh_third_component_sign():
    # termwise antiderivative of f*w gives (2/(m+n)) (w**(m+n) + w**(-(m+n))):
    # both terms positive
    curve = family_member(FamilyParams(1, 3, 1 + 1j)).gh_curve
    assert curve[2] == LaurentPoly({4: 0.5, -4: 0.5})


def test_fixed_gh_first_component_one_three():
    # hand integration of f(1 - w^2)/2 at (m, n) = (1, 3), lam = 0
    curve = family_member(FamilyParams(1, 3, 0)).gh_curve
    assert curve[0] == LaurentPoly({3: 1 / 3, 5: -0.2, -5: 0.2, -3: -1 / 3})


def test_classic_phi_components():
    phi = classic_henneberg_phi()
    assert phi[2] == LaurentPoly({1: 1.0, -3: -1.0})
    assert phi[3].is_zero
    assert nullity_residual(phi, 1.3 + 0.2j) <= 1e-15
    # phi_from_triple builds the form unchecked: hold it to verify's bound
    holder = replace(family_member(FamilyParams(1, 1, 0)), phi=phi)
    assert check_nullity(holder, 100, np.random.default_rng(0)).passed


def test_family_is_twice_classic_at_lam_zero():
    curve = family_member(FamilyParams(1, 1, 0)).curve
    classic = classic_henneberg_curve()
    for k in range(3):
        assert curve[k] == classic[k] * 2.0
    assert curve[3].is_zero


def test_equal_orders_tie_fourth_to_third_component():
    for m in (1, 3, 5):
        for lam in (0.0, 1.0, 2.0, 0.5):
            curve = family_member(FamilyParams(m, m, lam)).curve
            assert curve[3] == curve[2] * lam


def test_seed_values():
    assert seed_phi(1, 1) == LaurentPoly({3: 1 / 3, -1: 1 / 3})
    assert seed_phi(1, 3) == LaurentPoly({5: 1 / 30, -3: 1 / 30})
    with pytest.raises(ValueError):
        seed_phi(2, 1)


def test_seed_third_derivative_is_f():
    d3 = seed_phi(1, 1).derivative().derivative().derivative()
    assert d3 == LaurentPoly({0: 2.0, -4: -2.0})


def test_seed_third_derivative_sweep_within_one_ulp():
    for m in range(1, 10, 2):
        for n in range(1, 10, 2):
            d3 = seed_phi(m, n).derivative().derivative().derivative()
            f = family_triple(FamilyParams(m, n, 0)).f
            for k, c in f:
                got = dict(d3).get(k, 0j)
                assert abs(got - c) <= math.ulp(abs(c))


def test_integral_free_matches_curve_at_lam_zero():
    curve = family_member(FamilyParams(1, 1, 0)).curve
    seed = seed_phi(1, 1)
    for w in _points(40):
        k = integral_free_point(seed, 0.0, w)
        ref = [comp(w) for comp in curve]
        assert max(abs(a - b) for a, b in zip(k, ref)) <= 1e-12


def test_integral_free_matches_fixed_gh_generally():
    for m, n in ((1, 3), (3, 3)):
        for lam in (1.0, 1 + 1j):
            curve = family_member(FamilyParams(m, n, lam)).gh_curve
            seed = seed_phi(m, n)
            for w in _points(20):
                k = integral_free_point(seed, lam, w)
                ref = [comp(w) for comp in curve]
                scale = max(1.0, max(abs(v) for v in ref))
                assert max(abs(a - b) for a, b in zip(k, ref)) <= 1e-12 * scale


def test_integral_free_fourth_over_third_is_lam():
    seed = seed_phi(1, 1)
    for lam in (0.7, 1 + 1j):
        for w in _points(10):
            k = integral_free_point(seed, lam, w)
            if abs(k[2]) > 1e-9:
                assert abs(k[3] / k[2] - lam) <= 1e-12


def test_integral_free_derivative_reproduces_form():
    # d/dw of the pointwise curve equals the 1-form built from (f, w, lam w)
    from wep4.weierstrass import WeierstrassTriple, phi_from_triple
    from wep4.laurent import IDENTITY

    lam = 0.5 - 2j
    seed = seed_phi(1, 1)
    f = family_triple(FamilyParams(1, 1, lam)).f
    phi = phi_from_triple(WeierstrassTriple(f, IDENTITY, LaurentPoly({1: lam})))
    h = 1e-6
    for w in _points(25, lo=0.7, hi=1.4):
        kp = integral_free_point(seed, lam, w + h)
        km = integral_free_point(seed, lam, w - h)
        for j, comp in enumerate(phi):
            fd = (kp[j] - km[j]) / (2 * h)
            assert abs(fd - comp(w)) <= 1e-8 * max(1.0, abs(comp(w)))


_odd_orders = st.integers(0, 49).map(lambda k: 2 * k + 1)
# parts that keep every coefficient product clear of underflow, where an ulp
# count stops measuring relative error
_parts = st.floats(-3.0, 3.0).filter(lambda x: x == 0 or abs(x) > 1e-100)
_nudges = st.floats(-1e-2, 1e-2).filter(lambda x: x == 0 or abs(x) > 1e-12)
_lams = st.one_of(
    st.builds(complex, _parts, _parts),
    st.builds(lambda sign, x, y: complex(x, sign + y), st.sampled_from([1.0, -1.0]),
              _nudges, _nudges),
    st.sampled_from([0.999j, 1j + 1e-9, 1e3, 100 - 100j]),
)
_annulus_points = st.tuples(st.floats(0.4, 1.8), st.floats(0.0, 2 * math.pi)).map(
    lambda rt: complex(rt[0] * math.cos(rt[1]), rt[0] * math.sin(rt[1])))


@settings(max_examples=60, deadline=None)
@given(_odd_orders, _odd_orders, _lams, st.lists(_annulus_points, min_size=1, max_size=6))
def test_integral_free_curve_is_exact_and_one_formula(m, n, lam, points):
    params = FamilyParams(m, n, lam)
    seed = seed_phi(m, n)
    curve = integral_free_point(seed, lam, IDENTITY)
    member = family_member(params)
    for k, x, p in zip(curve, member.gh_curve, member.gh_phi):
        assert _max_coeff_ulp(k, x) <= 4.0 and _max_coeff_ulp(k.derivative(), p) <= 4.0
    # the array call against one-point calls: numpy and Python round w**k
    # differently, by up to ~k eps of the terms the curve sums
    w = np.array(points)
    stacked = integral_free_point(seed, lam, w)
    derivs = (seed, seed.derivative(), seed.derivative().derivative())
    for i, z in enumerate(points):
        r = abs(z)
        terms = (1.0 + abs(1.0 + lam * lam)) * (1.0 + abs(lam)) * math.fsum(
            r**j * d.envelope(r) for j, d in enumerate(derivs))
        tol = 4.0 * (m + n) * np.finfo(float).eps * terms
        for got, want in zip(stacked, integral_free_point(seed, lam, z)):
            assert abs(got[i] - want) <= tol


def test_recover_seed_round_trip():
    seed = seed_phi(1, 1)
    k = integral_free_point(seed, 1.0, 2 + 0j)
    assert abs(recover_seed(k, 1.0, 2 + 0j) - seed(2 + 0j)) <= 1e-12 * abs(seed(2 + 0j))


def test_recover_seed_rejects_lam_near_i():
    with pytest.raises(DegenerateParameterError):
        recover_seed((0, 0, 0, 0), 1j, 1 + 0j)


def test_recover_seed_constant_seed():
    const = LaurentPoly({0: 3 - 2j})
    for lam in (0.0, 1.0, 2j + 0.1):
        k = integral_free_point(const, lam, 0.8 + 0.3j)
        assert abs(recover_seed(k, lam, 0.8 + 0.3j) - (3 - 2j)) <= 1e-12
