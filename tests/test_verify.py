"""The verification suite layer the CLI builds on."""

import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from wep4 import verify
from wep4.henneberg import (
    FamilyParams,
    family_member,
    integral_free_point,
    recover_seed,
    seed_phi,
)
from wep4.verify import (
    check_back_differentiation,
    check_frames,
    check_integral_free,
    check_reductions,
    quadrature_targets,
    run_verify,
    sample_annulus,
    sample_regular,
)
from wep4.laurent import IDENTITY, LaurentPoly, evaluate


def test_run_verify_all_suites_pass():
    results = run_verify(family_member(FamilyParams(1, 1, 1 + 1j)), samples=150, seed=42)
    names = [r.name for r in results]
    assert names == [
        "nullity", "back_differentiation", "quadrature", "conformality",
        "harmonicity", "frames", "integral_free", "reductions",
    ]
    for r in results:
        assert r.skipped or r.passed, r.line()
    # frames and reductions do not apply to a complex nonzero lam
    assert results[5].skipped and results[7].skipped


def test_suites_applicable_at_lam_zero():
    results = run_verify(family_member(FamilyParams(1, 1, 0)), samples=100, seed=1)
    by_name = {r.name: r for r in results}
    assert not by_name["frames"].skipped and by_name["frames"].passed
    assert not by_name["reductions"].skipped and by_name["reductions"].passed


@pytest.mark.parametrize("params", [FamilyParams(1, 1, 1), FamilyParams(3, 5, 0.5 - 2j)],
                         ids=["1-1-1", "3-5-0.5-2i"])
@pytest.mark.parametrize("seed", (42, 34))
@pytest.mark.parametrize("suite", ("nullity", "quadrature", "conformality", "harmonicity",
                                   "frames", "integral_free"))
def test_a_suite_that_draws_nothing_moves_no_other_line(params, seed, suite, monkeypatch):
    # each sampled suite draws from its own stream, so a suite that SKIPs
    # without drawing leaves every other suite's line as it was
    full = [r.line() for r in run_verify(family_member(params), 300, seed)]
    monkeypatch.setattr(verify, f"check_{suite}",
                        lambda *args: verify.SuiteResult(suite, True, 0, "stub", skipped=True))
    stubbed = [r.line() for r in run_verify(family_member(params), 300, seed)]
    at = [line.split(":")[0] for line in full].index(suite)
    assert stubbed[at] == f"{suite}: SKIP (0 checks) stub"
    assert stubbed[:at] + stubbed[at + 1:] == full[:at] + full[at + 1:]


@pytest.mark.parametrize("m, n, lam", [(1, 1, 1), (1, 3, 1 + 1j), (3, 5, 0.5 - 2j), (1, 1, 0)])
def test_run_verify_audits_a_slipped_member(m, n, lam):
    # the top coefficient of phi_1 off by 2^-40 of itself, the curve kept:
    # the form is no longer null, so nullity FAILs
    member = family_member(FamilyParams(m, n, lam))
    first = dict(member.phi[0])
    top = max(first)
    slipped = LaurentPoly({**first, top: first[top] * (1 + 2.0**-40)})
    failed = []
    with np.errstate(over="raise", divide="raise", invalid="raise"):  # as the command line runs
        for audited in (member, replace(member, phi=(slipped, *member.phi[1:]))):
            failed.append({r.name for r in run_verify(audited, 1000, 42)
                           if not r.skipped and not r.passed})
    assert failed[0] == set() and "nullity" in failed[1], failed


def test_result_lines_render_status():
    res = check_back_differentiation(family_member(FamilyParams(3, 5, 0.5 - 2j)))
    assert res.passed and "back_differentiation: PASS" in res.line()
    skip = check_frames(family_member(FamilyParams(1, 3, 1.0)), np.random.default_rng(0))
    assert skip.skipped and "SKIP" in skip.line()
    notapp = check_reductions(family_member(FamilyParams(1, 3, 1 + 1j)))
    assert notapp.skipped


def test_sampling_helpers_are_seeded():
    a = sample_annulus(np.random.default_rng(9), 50)
    b = sample_annulus(np.random.default_rng(9), 50)
    assert np.array_equal(a, b)
    assert np.all((np.abs(a) >= 0.4) & (np.abs(a) <= 1.8))
    targets = quadrature_targets(np.random.default_rng(3), 10)
    assert len(targets) == 10
    for z in targets:
        assert abs(z - 1.0) >= 0.3


def test_gauss_legendre_rule_is_built_once_and_shared_read_only():
    member = family_member(FamilyParams(1, 1, 1))
    nodes = verify._quadrature_nodes(member.curve)
    xs, wts = verify._gauss_legendre(nodes)
    builds = verify._gauss_legendre.cache_info().misses
    assert verify._gauss_legendre(nodes)[0] is xs
    assert verify.check_quadrature(member, np.random.default_rng(0)).passed
    assert verify._gauss_legendre.cache_info().misses == builds
    with pytest.raises(ValueError):
        xs[0] = 0.0
    with pytest.raises(ValueError):
        wts[0] = 0.0


@pytest.mark.parametrize("nodes", [32, 64, 256, 1024, 2048])
def test_gauss_legendre_rule_integrates_every_legendre_moment(nodes):
    # sum w_i P_j(x_i) = 2 delta_j0 for j < 2n, P_j by the same recurrence;
    # fsum leaves only the rule's error and the products' rounding
    xs, wts = verify._gauss_legendre(nodes)
    eps = np.finfo(float).eps
    assert abs(math.fsum(wts) - 2.0) <= 8 * eps
    prev, p = np.ones_like(xs), xs  # P_{j-1}, P_j
    for j in range(1, 2 * nodes):
        assert abs(math.fsum(wts * p)) <= 8 * eps, j
        prev, p = p, ((2 * j + 1) * xs * p - j * prev) / (j + 1)


def test_gauss_legendre_rule_agrees_with_numpy_up_to_100_nodes():
    eps = np.finfo(float).eps
    for nodes in range(1, 101):
        xs, wts = verify._gauss_legendre(nodes)
        ref_xs, ref_wts = np.polynomial.legendre.leggauss(nodes)
        assert np.max(np.abs(xs - ref_xs)) <= 2 * eps, nodes
        assert np.max(np.abs(wts / ref_wts - 1.0)) <= 1e-11, nodes
        if nodes % 2:
            assert xs[nodes // 2] == 0.0


def test_verify_does_not_load_numpy_polynomial():
    # numpy.polynomial is imported by this test process, so look from a fresh one
    code = ("import sys; from wep4.cli import main; "
            "assert main(['verify', '--m=3', '--n=5', '--samples=50']) == 0; "
            "print('numpy.polynomial' in sys.modules)")
    src = os.path.dirname(os.path.dirname(verify.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "False", out


@pytest.mark.parametrize("m, n, nodes, ring", [
    (1, 1, 32, 32), (1, 3, 32, 35), (3, 5, 64, 41), (31, 31, 256, 124), (99, 99, 1024, 396),
])
def test_rule_sizes_follow_the_exponents(m, n, nodes, ring):
    curve = family_member(FamilyParams(m, n, 1 + 1j)).curve
    assert verify._quadrature_nodes(curve) == nodes
    assert verify._ring_points(curve) == ring


@pytest.mark.parametrize("m, n, lam", [(1, 1, 1 + 1j), (7, 11, 0.97j), (31, 31, 1 + 1j)])
def test_quadrature_fails_any_phi_coefficient_scaled_by_1e_9(m, n, lam):
    member = family_member(FamilyParams(m, n, lam))
    parts = member.phi
    for j, part in enumerate(parts):
        for k, c in part:
            nudged = LaurentPoly({**dict(part), k: c * (1 + 1e-9)})
            phi = parts[:j] + (nudged,) + parts[j + 1:]
            res = verify.check_quadrature(replace(member, phi=phi), np.random.default_rng(42))
            assert not res.passed, (j, k, res.line())


@pytest.mark.parametrize("m, n", [(1, 13), (1, 11), (3, 7), (1, 9)])
def test_quadrature_rule_follows_phi_lowest_power_at_lam_zero(m, n):
    # no h^2 term raises the curve's top exponent at lam = 0, so phi's
    # w^-(m+n+2) term sizes the rule; 32 nodes FAILed these members
    member = family_member(FamilyParams(m, n, 0))
    assert verify._quadrature_nodes(member.curve) == 64
    for seed in range(20):
        res = verify.check_quadrature(member, np.random.default_rng(seed))
        assert res.passed, (seed, res.line())


@pytest.mark.parametrize("m, n, lam", [(1, 1, 0.1), (3, 5, 0.5 - 2j)])
def test_nullity_fails_any_phi_coefficient_scaled_by_1_plus_2_to_the_minus_40(m, n, lam):
    # 2^-40 is mostly below the pointwise residual's 1e-12, so the
    # coefficient bound must see it
    member = family_member(FamilyParams(m, n, lam))
    assert verify.check_nullity(member, 10, np.random.default_rng(0)).passed
    unseen_pointwise = 0
    for j, part in enumerate(member.phi):
        for k, c in part:
            nudged = LaurentPoly({**dict(part), k: c * (1 + 2.0**-40)})
            phi = member.phi[:j] + (nudged,) + member.phi[j + 1:]
            res = verify.check_nullity(replace(member, phi=phi), 10, np.random.default_rng(0))
            assert not res.passed, (j, k, res.line())
            unseen_pointwise += _detail(res, "max_residual") <= 1e-12
    assert unseen_pointwise > 0


def _slipped_evaluate(j):
    """laurent.evaluate with the non-harmonic 1e-12 |w|^2 added to the j-th
    value: in check_harmonicity, whose one call evaluates the curve, the j-th
    coordinate."""
    def slipped(polys, w, real=False):
        values = evaluate(polys, w, real)
        values[j] = values[j] + 1e-12 * np.abs(w) ** 2
        return values
    return slipped


@pytest.mark.parametrize("m, n, lam", [(1, 1, 1 + 1j), (1, 3, 1 + 1j), (3, 5, 0.5 - 2j)])
@pytest.mark.parametrize("seed", (42, 34))
def test_harmonicity_fails_a_1e_12_non_harmonic_slip(m, n, lam, seed, monkeypatch):
    member = family_member(FamilyParams(m, n, lam))
    assert verify.check_harmonicity(member, np.random.default_rng(seed)).passed
    for j in range(4):
        monkeypatch.setattr(verify, "evaluate", _slipped_evaluate(j))
        res = verify.check_harmonicity(member, np.random.default_rng(seed))
        assert not res.passed, (j, res.line())


def test_sample_regular_avoids_branch_ring():
    triple = family_member(FamilyParams(1, 1, 0)).triple
    pts = sample_regular(np.random.default_rng(11), 60, triple)
    from test_weierstrass import conformal_factor

    for w in pts:
        _, reg = conformal_factor(triple, complex(w))
        assert reg > 1e-3


@pytest.mark.parametrize("lam, seed", [(2, 32), (2, 34), (2, 50), (2, 71), (2, 83), (2, 91), (1, 91)])
def test_integral_free_bound_clears_roundoff(lam, seed):
    # an h = 1e-6 central difference of the seed route read ~2e-9 at these seeds
    results = run_verify(family_member(FamilyParams(1, 1, lam)), samples=1000, seed=seed)
    for r in results:
        assert r.skipped or r.passed, r.line()


def _detail(result, key):
    return float(re.search(rf"{key}=(\S+)", result.detail).group(1))


def test_integral_free_detects_perturbed_form():
    member = family_member(FamilyParams(1, 1, 2))
    original = member.gh_phi
    member.gh_curve  # built from the true form before the form is swapped
    perturbed = tuple(q * (1 + 1e-6) for q in original)
    object.__setattr__(member, "gh_phi", perturbed)
    res = check_integral_free(member, np.random.default_rng(34))
    assert not res.passed
    assert _detail(res, "derivative_ulp") > 4.0


def _k1_radial_sign_slip(seed, lam, w):
    k1, k2, k3, k4 = integral_free_point(seed, lam, w)
    d1 = seed.derivative()
    p0, p1 = (seed, d1) if w is IDENTITY else (seed(w), d1(w))
    return k1 - 2.0 * (1.0 + lam * lam) * (w * p1 - p0), k2, k3, k4


def _seed_coefficient_nudged(exponent_rank):
    def seed(m, n):
        terms = dict(seed_phi(m, n))
        k = sorted(terms)[exponent_rank]
        return LaurentPoly({**terms, k: terms[k] * (1 + 1e-12)})
    return seed


def _inversion_nudged(k, lam, w):
    return recover_seed(k, lam, w) * (1 + 1e-9)


@pytest.mark.parametrize("name, mutant", [
    ("integral_free_point", _k1_radial_sign_slip),
    ("seed_phi", _seed_coefficient_nudged(0)),
    ("seed_phi", _seed_coefficient_nudged(-1)),
    ("recover_seed", _inversion_nudged),
])
@pytest.mark.parametrize("m, n, lam", [(1, 1, 1 + 1j), (7, 11, 0.97j), (3, 5, 0.5 - 2j)])
def test_integral_free_fails_mutated_routes(name, mutant, m, n, lam, monkeypatch):
    monkeypatch.setattr(verify, name, mutant)
    member = family_member(FamilyParams(m, n, lam))
    for seed in (42, 34):
        res = check_integral_free(member, np.random.default_rng(seed))
        assert not res.passed, res.line()


def test_integral_free_round_trip_holds_near_lam_i():
    # recover_seed divides by 1 + lam^2, so its roundoff grows near lam = +-i
    res = check_integral_free(family_member(FamilyParams(7, 11, 0.97j)), np.random.default_rng(42))
    assert res.passed, res.line()
    for m in range(1, 16, 2):
        for n in range(1, 16, 2):
            for lam in (0.97j, 0.999j, 1.02j, -0.97j):
                for seed in range(2):
                    member = family_member(FamilyParams(m, n, lam))
                    res = check_integral_free(member, np.random.default_rng(seed))
                    assert res.passed, (m, n, lam, seed, res.line())
