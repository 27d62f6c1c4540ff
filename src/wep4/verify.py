"""Seeded verification suites over one family member.

Each suite checks one structural property of the pipeline (nullity,
conformality, harmonic coordinates, the exactness of back-differentiation,
quadrature consistency, frame identities, the integral-free route, and the
degenerate-parameter reductions), coefficient identities exactly and
sampled ones as one array of points drawn from the suite's own stream,
and reports a pass/fail verdict with a worst-case error.  The command line
`verify` subcommand runs every suite applicable to the requested member;
the tests drive the same functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .geometry import (
    closed_form_normals,
    frame_scalars,
    normal_plane,
    perp_vectors,
    surface_jet,
)
from .henneberg import (
    FamilyMember,
    classic_henneberg_curve,
    integral_free_point,
    recover_seed,
    seed_phi,
)
from .laurent import IDENTITY, LaurentPoly, accurate_sum, evaluate
from .weierstrass import WeierstrassTriple, is_regular, nullity_defect, nullity_residual

__all__ = [
    "SuiteResult",
    "sample_annulus",
    "sample_regular",
    "quadrature_targets",
    "check_nullity",
    "check_back_differentiation",
    "check_quadrature",
    "check_conformality",
    "check_harmonicity",
    "check_frames",
    "check_integral_free",
    "check_reductions",
    "run_verify",
]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checks: int
    detail: str
    skipped: bool = False

    def line(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        return f"{self.name}: {status} ({self.checks} checks) {self.detail}"


# -- sampling ------------------------------------------------------------------

# Output order; a suite's place picks its random stream, so new suites go last.
SUITES = ("nullity", "back_differentiation", "quadrature", "conformality", "harmonicity",
          "frames", "integral_free", "reductions")
# is_regular tolerance of the sampled suites, a distance in units of 1/N that
# keeps every sample clear of the branch points and their degenerate metric.
SAMPLE_MARGIN = 1e-4
# Sizes of the fixed-size suites; quadrature nodes and harmonicity rings
# are sized by the member's exponents (_quadrature_nodes, _ring_points).
QUADRATURE_TARGETS = 20
HARMONICITY_POINTS = 50
FRAME_POINTS = 100
INTEGRAL_FREE_POINTS = 25
EPS = np.finfo(float).eps


def sample_annulus(rng: np.random.Generator, count: int,
                   r_lo: float = 0.4, r_hi: float = 1.8) -> np.ndarray:
    r = rng.uniform(r_lo, r_hi, count)
    t = rng.uniform(0.0, 2.0 * math.pi, count)
    return r * np.exp(1j * t)


def _rejection_sample(draw, keep, count: int) -> np.ndarray:
    """The first `count` points where keep holds, in draw order, from
    batches of `count` that draw() returns whole."""
    kept: list[np.ndarray] = []
    found = 0
    while found < count:
        w = draw()
        kept.append(w[keep(w)][: count - found])
        found += kept[-1].size
    return np.concatenate(kept)


def sample_regular(rng: np.random.Generator, count: int, triple: WeierstrassTriple,
                   r_lo: float = 0.4, r_hi: float = 1.8) -> np.ndarray:
    """Annulus samples kept only where is_regular holds with SAMPLE_MARGIN."""
    return _rejection_sample(lambda: sample_annulus(rng, count, r_lo, r_hi),
                             lambda w: is_regular(triple, w, SAMPLE_MARGIN), count)


def _segment_origin_distance(z: np.ndarray) -> np.ndarray:
    """Distance from 0 to each segment [1, z]."""
    d = z - 1.0
    denom = np.abs(d) ** 2
    t = np.clip(-d.real / np.where(denom > 0.0, denom, 1.0), 0.0, 1.0)
    return np.abs(1.0 + t * d)


def quadrature_targets(rng: np.random.Generator, count: int) -> np.ndarray:
    """Targets whose segment from the base point 1 stays clear of the
    puncture, as an array drawn in batches of `count`."""
    return _rejection_sample(
        lambda: rng.uniform(0.6, 1.6, count) * np.exp(1j * rng.uniform(-1.5, 1.5, count)),
        lambda z: (_segment_origin_distance(z) >= 0.45) & (np.abs(z - 1.0) >= 0.3), count)


# -- suites --------------------------------------------------------------------

def _worst(*errors) -> float:
    """Largest magnitude in arrays of errors; 0 when they are empty."""
    return max(float(np.max(np.abs(e), initial=0.0)) for e in errors)


def check_nullity(member: FamilyMember, samples: int, rng: np.random.Generator) -> SuiteResult:
    """sum_k phi_k^2, coefficient by coefficient and then pointwise.

    The exact form is null, and so is the float one in exact arithmetic with
    lam^2 as rounded, except where m = n: there 1 + lam^2 is rounded once
    more, which moves the defect's coefficient at exponent e by at most
    u S_e (u = eps/2), S_e = sum |c_i c_j| over the products landing on e.
    Each product errs by sqrt(5) u |c_i c_j|, and summing at most T of them,
    T the form's number of terms, by (T - 1) u S_e: each coefficient is held
    to (T + 3) u S_e.  S_e is nullity_defect of the coefficients' magnitudes,
    each at least 2^-1022 as in envelope; a product that underflows adds up
    to sqrt(2) 2^-1074, so T 2^-1073 more.
    """
    phi = member.phi
    terms = sum(1 for p in phi for _ in p)
    size = dict(nullity_defect([LaurentPoly({k: max(abs(c), 2.0**-1022) for k, c in p})
                                for p in phi]))
    defect = max((abs(c) / ((terms + 3) * (EPS / 2 * size.get(k, 0.0).real + 2.0**-1073))
                  for k, c in nullity_defect(phi)), default=0.0)
    worst = _worst(nullity_residual(phi, sample_annulus(rng, samples)))
    return SuiteResult("nullity", defect <= 1.0 and worst <= 1e-12, samples + 1,
                       f"defect_ratio={defect:.2g} max_residual={worst:.3e}")


def _max_coeff_ulp(a: LaurentPoly, b: LaurentPoly) -> float:
    """Worst componentwise distance between coefficients, in ulps."""
    ta, tb = dict(a), dict(b)
    worst = 0.0
    for k in ta.keys() | tb.keys():
        ca, cb = ta.get(k, 0j), tb.get(k, 0j)
        for x, y in ((ca.real, cb.real), (ca.imag, cb.imag)):
            if x == y:
                continue
            worst = max(worst, abs(x - y) / math.ulp(max(abs(x), abs(y))))
    return worst


def check_back_differentiation(member: FamilyMember) -> SuiteResult:
    phi, curve = member.phi, member.curve
    exact = all(x.derivative() == p for x, p in zip(curve, phi))
    worst = max(_max_coeff_ulp(x.derivative(), p) for x, p in zip(curve, phi))
    # Exact on the verification grids; <= 1 ulp holds while the parts of lam
    # and lam**2 are normal doubles.  A subnormal part breaks it: (1, 9, 1e-310)
    # reads max_ulp=4.  An exact oracle is ROADMAP.md's item 5.
    return SuiteResult(
        "back_differentiation", worst <= 1.0, 4,
        f"exact={exact} max_ulp={worst:g}",
    )


@cache
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], computed once
    per count and read-only, since every caller shares them.

    The classical O(n^2) construction, which Hale & Townsend (SIAM J. Sci.
    Comput. 35, 2013) refine: Newton's method on P_n from Tricomi's initial
    guesses on the positive half, with P_n and P_n' from Bonnet's three-term
    recurrence, until every step is below eps (at most 4 steps at 1 to
    1,099 nodes and at 2,048 to 8,192; the loop stops at 8); then
    w = 2/((1-x^2) P_n'(x)^2), and the half is mirrored.  For odd n the
    middle node is 0 exactly.  The moment residuals |sum w_i - 2| and
    |sum w_i P_j(x_i)|, 1 <= j < 2n, measure <= 4.1 eps at 32 to 4,096
    nodes.
    """
    k = np.arange(1, (nodes + 1) // 2 + 1)
    x = (1 - (nodes - 1) / (8 * nodes**3)) * np.cos(np.pi * (4 * k - 1) / (4 * nodes + 2))
    odd = nodes % 2
    if odd:
        x[-1] = 0.0
    # P_n' = n (P_{n-1} - x P_n) / (1 - x^2), with 1 - x^2 as (1 - x)(1 + x),
    # which keeps its relative accuracy next to 1
    for _ in range(8):
        prev, p = np.ones_like(x), x  # P_{j-1}(x), P_j(x), up to j = nodes
        for j in range(2, nodes + 1):
            prev, p = p, ((2 * j - 1) * x * p - (j - 1) * prev) / j
        step = p * (1 - x) * (1 + x) / (nodes * (prev - x * p))
        x = x - step
        if np.max(np.abs(step)) <= EPS:
            break
    # P_n' of the last step, which moved no node by more than eps
    w = 2 * (1 - x) * (1 + x) / (nodes * (prev - x * p)) ** 2
    xs = np.concatenate((-x[: len(x) - odd], x[::-1]))
    wts = np.concatenate((w[: len(w) - odd], w[::-1]))
    xs.flags.writeable = wts.flags.writeable = False
    return xs, wts


def _quadrature_nodes(curve) -> int:
    """At least 32 nodes, and a power of two >= 2K for the curve's largest
    |exponent| K and >= k + 26 for phi's lowest exponent -k (the curve's,
    less one), which check_quadrature derives."""
    exponents = [k for part in curve for k, _ in part]
    need = max(2 * max(map(abs, exponents)), 27 - min(exponents))
    return max(32, 1 << (need - 1).bit_length())


def check_quadrature(member: FamilyMember, rng: np.random.Generator) -> SuiteResult:
    """Gauss-Legendre quadrature of the 1-form from the base point 1 against
    curve differences, per component; one array evaluation of the form (all
    targets and nodes) and one of the curve (targets and base).

    With n >= 2K nodes the rule is exact for phi's positive powers.  A term
    w^-k is analytic inside the Bernstein ellipse of parameter 2 about the
    segment, whose image stays over near/4 from the pole w = 0 for every
    target (0.26 near at |z| = 0.6, arg z = +-1.5), so the rule errs on it by
    at most |z-1|/2 (64/15) 4^k near^-k 4^-n / 3 (Trefethen, ATAP, Thm 19.3),
    below eps |z-1| near^-k once n >= k + 26.  The rule itself is accurate
    (moment residuals <= 4.1 eps, see _gauss_legendre), so the error is the
    rounding of the sum and of the curve difference.  Recursive
    summation of the n terms w_i phi(z_i) errs by at most (n-1) eps times
    their magnitudes, which sum to at most 2 max(env_phi(near), env_phi(far))
    (an envelope is convex in log r, so an end of the segment bounds it);
    the curve difference errs by about eps (env_X(|z|) + env_X(1)).  So each
    component is held to n eps S, with
    S = |z-1| max(env_phi(near), env_phi(far)) + env_X(|z|) + env_X(1).
    """
    phi, curve = member.phi, member.curve
    nodes = _quadrature_nodes(curve)
    xs, wts = _gauss_legendre(nodes)
    base = 1 + 0j
    z = quadrature_targets(rng, QUADRATURE_TARGETS)
    zs = base + ((xs + 1.0) / 2.0)[None, :] * (z - base)[:, None]
    ends = np.append(z, base)
    near = _segment_origin_distance(z)
    radii = np.stack([near, np.maximum(np.abs(z), 1.0)])
    err, size = [], []
    for p, x, at_nodes, at_ends in zip(phi, curve, evaluate(phi, zs), evaluate(curve, ends)):
        env_ends = x.envelope(np.abs(ends))
        err.append(np.abs((z - base) / 2.0 * np.sum(wts * at_nodes, axis=1)
                          - (at_ends[:-1] - at_ends[-1])))
        size.append(np.abs(z - base) * np.max(p.envelope(radii), axis=0)
                    + env_ends[:-1] + env_ends[-1])
    err, size = np.array(err), np.array(size)
    # a zero component gives zero on both sides and S = 0; EPS S may underflow
    worst = float(np.max(np.divide(err, size, out=np.zeros_like(err), where=size > 0))) / EPS
    return SuiteResult("quadrature", worst <= nodes, err.size,
                       f"nodes={nodes} max_eps_ratio={worst:.2f}")


def check_conformality(member: FamilyMember, samples: int, rng: np.random.Generator) -> SuiteResult:
    jet = surface_jet(member, sample_regular(rng, samples, member.triple))
    worst = _worst((jet.E - jet.G) / jet.E, jet.F / jet.E)
    return SuiteResult("conformality", worst <= 1e-12, 2 * samples, f"max_rel={worst:.3e}")


def _ring_points(curve) -> int:
    """Points M of a ring |w - w0| = |w0|/4 whose trapezoid mean is exact for
    every term of the curve, to 2^-53 of its size: M > K+, the largest
    exponent, and the j = M term of w^-k's expansion in (w - w0)/w0,
    4^-M C(M+k-1, k-1), is below 2^-53 at the largest negative exponent K-."""
    exponents = [k for part in curve for k, _ in part]
    top, low = max(exponents), -min(exponents)
    m = top + 1
    while math.comb(m + low - 1, low - 1) * 2**53 > 4**m:
        m += 1
    return m


def _ring_defects(curve, w: np.ndarray, size: int) -> np.ndarray:
    """|trapezoid mean of Re X_k on the ring - Re X_k(w0)|, (points, coordinates);
    the coordinates are evaluated together over the centres and rings stacked."""
    ring = np.exp(2j * math.pi * np.arange(size) / size)
    pts = np.concatenate([w[None, :], w + (np.abs(w) / 4.0) * ring[:, None]])
    vals = np.stack(evaluate(curve, pts, real=True), axis=-1)
    return np.abs(accurate_sum(vals[1:]) / size - vals[0])


def check_harmonicity(member: FamilyMember, rng: np.random.Generator) -> SuiteResult:
    """Mean-value property of every coordinate Re X_k at every centre w0.

    The trapezoid mean on |w - w0| = |w0|/4 is exact for the curve's terms
    (Trefethen & Weideman, SIAM Rev. 56, 2014), so only rounding is left:
    each defect is held to 16 eps (1 + env), env the coordinate's envelope
    at the ring's outer or inner radius, whichever is larger.
    """
    w = sample_annulus(rng, HARMONICITY_POINTS, r_lo=0.75, r_hi=1.6)
    size = _ring_points(member.curve)
    defects = _ring_defects(member.curve, w, size)
    radii = np.stack([1.25 * np.abs(w), 0.75 * np.abs(w)])
    env = np.stack([np.max(comp.envelope(radii), axis=0) for comp in member.curve], axis=-1)
    worst = _worst(defects / (EPS * (1.0 + env)))
    return SuiteResult("harmonicity", worst <= 16.0, defects.size,
                       f"ring_points={size} max_eps_ratio={worst:.2f}")


def check_frames(member: FamilyMember, rng: np.random.Generator) -> SuiteResult:
    """Closed-form p, q and normals against direct inner products and the
    normal plane of psi, for the m = n = 1 real-lam member, whose normals'
    divisor cross_minus = (1 + lam^2)|w|^2 is >= 0.16 on sample_regular's annulus."""
    params = member.params
    if params.m != 1 or params.n != 1 or not params.lam_is_real:
        return SuiteResult("frames", True, 0, "not applicable here", skipped=True)
    w = sample_regular(rng, FRAME_POINTS, member.triple)
    jet = surface_jet(member, w)
    perp1, perp2 = perp_vectors(jet)
    s = frame_scalars(params, w)
    q_direct = np.sum(jet.xu * perp2, axis=1)
    q_mirror = -np.sum(jet.xv * perp1, axis=1)
    worst_pq = _worst((s.p - jet.E) / s.p, (s.q - q_direct) / s.p, (s.q - q_mirror) / s.p)
    n1, n2 = normal_plane(member.triple, w)
    e1, e2 = jet.xu / np.sqrt(jet.E)[:, None], jet.xv / np.sqrt(jet.G)[:, None]
    basis = np.stack([e1, e2, n1, n2], axis=1)
    worst_gram = _worst(basis @ basis.transpose(0, 2, 1) - np.eye(4))
    normals = closed_form_normals(jet, s)
    worst_span = _worst(*(
        np.linalg.norm(n - np.sum(n * n1, axis=1, keepdims=True) * n1
                       - np.sum(n * n2, axis=1, keepdims=True) * n2, axis=1)
        for n in normals
    ))
    ok = worst_pq <= 1e-10 and worst_gram <= 1e-10 and worst_span <= 1e-8
    return SuiteResult(
        "frames", ok, 6 * FRAME_POINTS,
        f"pq={worst_pq:.2e} gram={worst_gram:.2e} span={worst_span:.2e}",
    )


def _roundtrip_bound(seed: LaurentPoly, lam: complex, w: np.ndarray) -> np.ndarray:
    """Roundoff bound of the recover_seed round trip: 16 eps times the terms
    each k_j sums, weighted by k_j's coefficient in recover_seed."""
    a = 1.0 + lam * lam
    r = np.abs(w)
    d1 = seed.derivative()
    p0, p1, p2 = map(np.abs, evaluate((seed, d1, d1.derivative()), w))
    k12 = 0.5 * (1.0 + abs(a) * r * r) * p2 + abs(a) * (r * p1 + p0)  # k1's and k2's terms
    k34 = (1.0 + abs(lam) ** 2) * (r * p2 + p1)  # k3's, plus lam times k4's
    weighted = (np.abs(a * w * w - 1.0) + np.abs(a * w * w + 1.0)) / 2.0 * k12 + r * k34
    return 16.0 * EPS * weighted / abs(a)


def check_integral_free(member: FamilyMember, rng: np.random.Generator) -> SuiteResult:
    """The seed route, exactly and then pointwise in one array pass.

    The route fixes g = w, h = lam w, so it is held to the member's gh_curve
    and gh_phi.  Exact, in coefficient ulps: seed''' against f, and the
    seed-built curve (integral_free_point at IDENTITY) and its derivative
    against those two.  Pointwise: the evaluated curve relative to
    max(1, |curve|) and, where lam^2 + 1 is clear of 0, the recover_seed
    round trip as a fraction of its roundoff bound.
    """
    params = member.params
    seed = seed_phi(params.m, params.n)
    lam = params.lam
    seed_ulp = _max_coeff_ulp(seed.derivative().derivative().derivative(), member.triple.f)
    target, phi = member.gh_curve, member.gh_phi
    curve = integral_free_point(seed, lam, IDENTITY)
    curve_ulp = max(map(_max_coeff_ulp, curve, target))
    derivative_ulp = max(_max_coeff_ulp(k.derivative(), p) for k, p in zip(curve, phi))

    w = sample_annulus(rng, INTEGRAL_FREE_POINTS, r_lo=0.6, r_hi=1.5)
    k = np.stack(integral_free_point(seed, lam, w))
    ref = np.stack(evaluate(target, w))
    worst_point = _worst((k - ref) / np.maximum(1.0, np.abs(ref).max(axis=0)))
    can_invert = abs(1.0 + lam * lam) > 1e-3
    worst_rt = 0.0
    if can_invert:
        worst_rt = _worst((recover_seed(k, lam, w) - seed(w)) / _roundtrip_bound(seed, lam, w))
    # <= 3 ulps over odd orders up to 99, lam near +-i included, while lam and
    # lam**2 have normal parts: (13, 3, 3.589e-262-1.566e-47i) reads
    # derivative_ulp=11 (an exact oracle is ROADMAP.md's item 5)
    ok = (seed_ulp <= 1.0 and curve_ulp <= 4.0 and derivative_ulp <= 4.0
          and worst_point <= 1e-12 and worst_rt <= 1.0)
    return SuiteResult(
        "integral_free", ok, 9 + INTEGRAL_FREE_POINTS * (1 + can_invert),
        f"seed_ulp={seed_ulp:g} curve_ulp={curve_ulp:g} derivative_ulp={derivative_ulp:g} "
        f"point={worst_point:.2e} roundtrip_ratio={worst_rt:.2e}",
    )


def check_reductions(member: FamilyMember) -> SuiteResult:
    """Degenerate-parameter geometry: lam = 0 planarity, m = n proportionality."""
    params, curve = member.params, member.curve
    found = {}  # note -> passed
    if params.lam == 0:
        found[f"w_component_zero={curve[3].is_zero}"] = curve[3].is_zero
        if (params.m, params.n) == (1, 1):
            match = tuple(2.0 * comp for comp in classic_henneberg_curve()[:3]) == curve[:3]
            found[f"double_classic={match}"] = match
    if params.m == params.n and params.lam_is_real:
        worst = _max_coeff_ulp(curve[3], curve[2] * params.lam)
        found[f"w_eq_lam_z_ulp={worst:g}"] = worst <= 1.0
    if not found:
        return SuiteResult("reductions", True, 0, "not applicable here", skipped=True)
    return SuiteResult("reductions", all(found.values()), len(found), " ".join(found))


def run_verify(member: FamilyMember, samples: int, seed: int) -> list[SuiteResult]:
    """Every suite applicable to the member, on the record as it is given:
    one that family_member built, or one changed with dataclasses.replace.
    Suite SUITES[i] draws from child i of SeedSequence(seed), so its points
    depend only on the seed and the suite, never on which suites ran."""
    children = np.random.SeedSequence(seed).spawn(len(SUITES))
    rng = dict(zip(SUITES, map(np.random.default_rng, children)))
    return [
        check_nullity(member, samples, rng["nullity"]),
        check_back_differentiation(member),
        check_quadrature(member, rng["quadrature"]),
        check_conformality(member, min(samples, 1000), rng["conformality"]),
        check_harmonicity(member, rng["harmonicity"]),
        check_frames(member, rng["frames"]),
        check_integral_free(member, rng["integral_free"]),
        check_reductions(member),
    ]
