"""Laurent algebra: frozen examples, calculus rules, and generative properties."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wep4.geometry import _split
from wep4.henneberg import FamilyParams, family_member, seed_phi
from wep4.laurent import (
    IDENTITY,
    ONE,
    ZERO,
    LaurentDomainError,
    LaurentPoly,
    NonIntegrableTermError,
    accurate_sum,
    evaluate,
)

LAM_GRID = (0, 1, 1 + 1j, 0.5 - 2j)
MN_GRID = ((1, 1), (1, 3), (3, 1), (3, 3), (3, 5))


def test_canonical_form_drops_zero_coefficients():
    p = LaurentPoly({3: 0.0, 1: 2.0, -2: 0j})
    assert dict(p) == {1: 2.0}
    assert LaurentPoly({0: 1.0}) == ONE
    assert LaurentPoly() == ZERO and ZERO.is_zero


def test_constructor_rejects_non_finite():
    with pytest.raises(ValueError):
        LaurentPoly({0: float("inf")})
    with pytest.raises(ValueError):
        LaurentPoly({0: complex(0, float("nan"))})


def test_eval_identity_monomial():
    assert IDENTITY(2 + 0j) == 2 + 0j


def test_eval_zero_at_fourth_root_of_unity():
    # f = 2(1 - w**-4) vanishes at the fourth roots of unity
    f = LaurentPoly({0: 2.0, -4: -2.0})
    assert f(1 + 0j) == 0j
    assert abs(f(1j)) < 1e-15


def test_eval_at_puncture_raises():
    with pytest.raises(LaurentDomainError):
        LaurentPoly({-1: 1.0})(0j)
    with pytest.raises(LaurentDomainError):
        LaurentPoly({-1: 1.0})(np.zeros(3, dtype=complex))


def test_eval_at_zero_without_negative_exponents():
    p = LaurentPoly({0: 3.0, 2: 5.0})
    assert p(0j) == 3 + 0j


def test_eval_array_matches_scalar():
    p = LaurentPoly({-3: 1 - 2j, 0: 0.5, 4: 2j})
    ws = np.array([0.3 + 0.1j, 1.5 - 2j, -0.7 + 0.2j])
    vec = p(ws)
    for w, got in zip(ws, vec):
        assert abs(got - p(complex(w))) <= 1e-14 * max(1.0, abs(got))


def test_derivative_of_two_term_seed():
    seed = LaurentPoly({3: 1 / 3, -1: 1 / 3})
    assert seed.derivative() == LaurentPoly({2: 1.0, -2: -1 / 3})


def test_derivative_kills_constants():
    assert LaurentPoly({0: 5.0}).derivative() == ZERO


def test_triple_derivative_of_seed_is_family_f():
    seed = LaurentPoly({3: 1 / 3, -1: 1 / 3})
    d3 = seed.derivative().derivative().derivative()
    assert d3 == LaurentPoly({0: 2.0, -4: -2.0})


def test_antiderivative_monomial():
    assert LaurentPoly({3: 1.0}).antiderivative() == LaurentPoly({4: 0.25})


def test_antiderivative_of_third_component_integrand():
    # f * w for the lowest family member integrates to w**2 + w**-2
    integrand = LaurentPoly({0: 2.0, -4: -2.0}) * IDENTITY
    assert integrand == LaurentPoly({1: 2.0, -3: -2.0})
    assert integrand.antiderivative() == LaurentPoly({2: 1.0, -2: 1.0})


def test_antiderivative_rejects_log_term():
    with pytest.raises(NonIntegrableTermError):
        LaurentPoly({-1: 3.0}).antiderivative()


def test_mul_monomials():
    assert IDENTITY * LaurentPoly({-1: 1.0}) == ONE


def test_mul_expands_family_f():
    # 2 w**-6 (w**8 - 1) at (m, n) = (1, 3): equals 2(w**2 - w**-6)
    prod = LaurentPoly({-6: 2.0}) * LaurentPoly({8: 1.0, 0: -1.0})
    assert prod == LaurentPoly({2: 2.0, -6: -2.0})


def test_add_cancels_scaled_copy():
    p = LaurentPoly({2: 1.5, -1: 3j})
    assert p + p * (-1.0) == ZERO


def test_fsum_evaluation_cancels_exactly():
    # the lowest-member first component at w = 1 sums to exactly zero
    p = LaurentPoly({1: 1.0, 3: -1 / 3, -3: 1 / 3, -1: -1.0})
    assert p(1 + 0j) == 0j


def test_array_evaluation_is_compensated():
    # plain summation loses the middle term: (1e16 + 1) - 1e16 == 0
    p = LaurentPoly({2: 1e16, 1: 1.0, 0: -1e16})
    ones = np.ones(3, dtype=complex)
    assert np.array_equal(p(ones), ones)
    # exact cancellations come out as true zeros, as on the scalar path
    q = LaurentPoly({1: 1.0, 3: -1 / 3, -3: 1 / 3, -1: -1.0})
    assert np.array_equal(q(np.array([1 + 0j, -1 + 0j])), np.zeros(2, dtype=complex))


def _member_polys(m, n, lam) -> list[LaurentPoly]:
    """Every polynomial the grid path evaluates at one set of points: the
    curve, the 1-form, the data, the pair (a, b) and its derivatives."""
    member = family_member(FamilyParams(m, n, lam))
    triple = member.triple
    a, b = _split(triple)
    return [*member.curve, *member.phi, triple.f, triple.g, triple.h,
            a, b, a.derivative(), b.derivative()]


def _block(size: int, seed: int = 5) -> np.ndarray:
    """size points in the annulus 0.3 <= |w| <= 3."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.3, 3.0, size) * np.exp(1j * rng.uniform(-np.pi, np.pi, size))


@pytest.mark.parametrize("lam", LAM_GRID, ids=str)
@pytest.mark.parametrize("m, n", MN_GRID, ids=str)
def test_evaluate_shares_powers_without_changing_a_bit(m, n, lam):
    polys = _member_polys(m, n, lam)
    w = _block(1024)
    # the sum of c * w**k term by term, each polynomial on its own
    alone = [accurate_sum(c * w**k for k, c in p) if not p.is_zero else np.zeros_like(w) for p in polys]
    values, reals = evaluate(polys, w), evaluate(polys, w, real=True)
    for value, real, one, call in zip(values, reals, alone, (p(w) for p in polys)):
        assert value.dtype == complex and real.dtype == float
        assert np.array_equal(value.view(float), one.view(float))
        assert np.array_equal(value.view(float), call.view(float))
        assert np.array_equal(real, call.real)


def test_array_values_do_not_depend_on_the_array_size():
    # numpy computes c * w**k in the temporary w**k, as w**k * c, once that
    # temporary is 256 kB or more, and that product rounds differently.
    # The powers are shared, never temporaries, so a block of 20,000 points
    # gives the bits of the same points taken 1,024 at a time.
    w = _block(20_000)
    for p in _member_polys(3, 5, 0.5 - 2j)[:4]:
        blocks = np.concatenate([p(w[s:s + 1024]) for s in range(0, w.size, 1024)])
        assert np.array_equal(p(w).view(float), blocks.view(float))


def _tuples(m, n, lam) -> list[tuple]:
    """The tuples verify and report evaluate together at one set of points:
    the 1-form, the curve, the pair (a, b) and the seed with its first two
    derivatives."""
    member = family_member(FamilyParams(m, n, lam))
    seed = seed_phi(m, n)
    d1 = seed.derivative()
    return [member.phi, member.curve, _split(member.triple), (seed, d1, d1.derivative())]


@pytest.mark.parametrize("lam", LAM_GRID, ids=str)
@pytest.mark.parametrize("m, n", MN_GRID, ids=str)
def test_a_tuple_gives_each_polynomial_the_bits_it_has_alone(m, n, lam):
    # 1,000 annulus points, the (targets, nodes) shape of the quadrature
    # suite, and 20,000 points, past numpy's 256 kB in-place temporaries
    blocks = (_block(1000), _block(20 * 64, seed=6).reshape(20, 64), _block(20_000, seed=7))
    for polys in _tuples(m, n, lam):
        for w in blocks:
            values, reals = evaluate(polys, w), evaluate(polys, w, real=True)
            for p, value, real in zip(polys, values, reals):
                alone = p(w)
                assert value.shape == real.shape == w.shape
                assert value.tobytes() == alone.tobytes()
                assert real.tobytes() == alone.real.tobytes()
        for z in _block(8, seed=8).tolist():
            alone = [p(z) for p in polys]
            assert np.array(evaluate(polys, z)).tobytes() == np.array(alone).tobytes()
            reals = np.array(evaluate(polys, z, real=True))
            assert reals.tobytes() == np.array([v.real for v in alone]).tobytes()


def test_evaluate_holds_the_power_table_and_a_fixed_number_of_arrays():
    # the cascade takes a polynomial's terms one at a time: a listed cascade
    # held the terms of the largest component (6 here) on top of these
    phi = family_member(FamilyParams(3, 5, 0.5 - 2j)).phi
    w = _block(100_000)
    exponents = {k for p in phi for k, _ in p}
    assert max(len(dict(p)) for p in phi) == 6
    tracemalloc.start()
    try:
        values = evaluate(phi, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(values) == 4
    # the power table, the four values, and six arrays of the cascade (five
    # where numpy reuses temporaries in place), with 1 MB to spare
    assert peak <= (len(exponents) + len(phi) + 6) * w.nbytes + 2**20


def test_evaluate_raises_at_the_puncture_exactly_when_a_call_does():
    polys = [LaurentPoly({0: 3.0, 2: 5.0}), LaurentPoly({-1: 1.0, 1: 2j}), ZERO, ONE]
    for w in (np.array([0.5 + 0j, 0j]), np.array([0.5 + 0j, 1j])):
        for chosen in ([0], [1], [2, 3], [0, 2, 3], [0, 1], [3, 1]):
            group = [polys[i] for i in chosen]
            calls_raise = False
            for p in group:
                try:
                    p(w)
                except LaurentDomainError:
                    calls_raise = True
            assert calls_raise == (0 in w and any(k < 0 for p in group for k, _ in p))
            for real in (False, True):
                if calls_raise:
                    with pytest.raises(LaurentDomainError):
                        evaluate(group, w, real=real)
                else:
                    evaluate(group, w, real=real)
    assert evaluate([], np.zeros(3, dtype=complex)) == []


def test_evaluate_gives_zeros_for_the_zero_polynomial():
    w = _block(7)
    zero, one = evaluate([ZERO, ONE], w)
    assert zero.dtype == complex and np.array_equal(zero, np.zeros(7))
    assert np.array_equal(one, np.ones(7))
    (real,) = evaluate([ZERO], w, real=True)
    assert real.dtype == float and np.array_equal(real, np.zeros(7))
    assert np.array_equal(ZERO(w), np.zeros(7, dtype=complex))
    assert evaluate([ZERO], np.zeros((2, 3), dtype=complex))[0].shape == (2, 3)


def test_envelope_bounds_value():
    p = LaurentPoly({2: 3.0, -1: -4j})
    r = 1.7
    assert abs(p(complex(r, 0))) <= p.envelope(r) + 1e-12


def test_envelope_counts_a_subnormal_coefficient_as_the_smallest_normal():
    # a subnormal coefficient's rounding error is absolute, 2^-1074 = eps 2^-1022
    tiny = 2.0**-1022
    assert LaurentPoly({0: 1e-310j}).envelope(1.0) == tiny
    assert LaurentPoly({1: 5e-324, -2: 1.0}).envelope(2.0) == 2 * tiny + 0.25
    assert LaurentPoly({0: 3 * tiny}).envelope(1.0) == 3 * tiny
    assert np.array_equal(LaurentPoly({1: 1e-320}).envelope(np.array([1.0, 4.0])),
                          [tiny, 4 * tiny])


def test_eval_distributes_at_seeded_points():
    rng = np.random.default_rng(42)
    p = LaurentPoly({-4: 2.0, -1: -1 + 3j, 0: 0.25, 3: 5j, 6: -2.5})
    q = LaurentPoly({-3: 1j, 2: 4.0, 5: -0.75 + 0.5j})
    r = rng.uniform(0.4, 1.8, 1000)
    t = rng.uniform(0, 2 * math.pi, 1000)
    for a, b in zip(r, t):
        w = complex(a * math.cos(b), a * math.sin(b))
        env = 1.0 + p.envelope(abs(w)) * q.envelope(abs(w))
        assert abs((p + q)(w) - (p(w) + q(w))) <= 1e-13 * env
        assert abs((p * q)(w) - p(w) * q(w)) <= 1e-13 * env
        assert abs((p * 2.5j)(w) - 2.5j * p(w)) <= 1e-13 * env


@st.composite
def laurent_polys(draw, max_terms=6):
    exps = draw(st.lists(st.integers(-8, 8), max_size=max_terms, unique=True))
    terms = {}
    for k in exps:
        re = draw(st.floats(-8, 8, allow_nan=False, allow_infinity=False))
        im = draw(st.floats(-8, 8, allow_nan=False, allow_infinity=False))
        terms[k] = complex(re, im)
    return LaurentPoly(terms)


_points = st.tuples(
    st.floats(0.4, 1.8), st.floats(0.0, 2 * math.pi)
).map(lambda rt: complex(rt[0] * math.cos(rt[1]), rt[0] * math.sin(rt[1])))


@settings(max_examples=150, deadline=None)
@given(laurent_polys(), laurent_polys(), _points)
def test_eval_distributes_over_arithmetic(p, q, w):
    env = p.envelope(abs(w)) * q.envelope(abs(w)) + p.envelope(abs(w)) + q.envelope(abs(w))
    tol = 1e-13 * (1.0 + env)
    assert abs((p + q)(w) - (p(w) + q(w))) <= tol
    assert abs((p * q)(w) - p(w) * q(w)) <= tol


@settings(max_examples=150, deadline=None)
@given(laurent_polys())
def test_antiderivative_roundtrip_within_two_ulp(p):
    # Exactness holds on the family's coefficient set (asserted elsewhere);
    # for arbitrary doubles the divide/multiply pair can land a couple of
    # ulp off (two roundings).
    if -1 in dict(p):
        p = p + LaurentPoly({-1: -dict(p)[-1]})
    back = p.antiderivative().derivative()
    for k, c in p:
        got = dict(back).get(k, 0j)
        for a, b in ((c.real, got.real), (c.imag, got.imag)):
            assert abs(a - b) <= 2 * math.ulp(max(abs(a), abs(b), 1e-300))


@settings(max_examples=100, deadline=None)
@given(laurent_polys(), _points)
def test_derivative_matches_finite_difference(p, w):
    h = 1e-6
    fd = (p(w + h) - p(w - h)) / (2 * h)
    exact = p.derivative()(w)
    scale = 1.0 + p.envelope(abs(w) + h) / min(abs(w) - h, 1.0) ** 2
    assert abs(fd - exact) <= 1e-6 * scale
