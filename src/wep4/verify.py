"""Seeded verification suites over one family member.

Each suite checks one structural property of the pipeline (nullity,
conformality, harmonic coordinates, the exactness of back-differentiation,
quadrature consistency, frame identities, the integral-free round trip,
and the degenerate-parameter reductions) and reports a pass/fail verdict
with a worst-case error.  The command line `verify` subcommand runs every
suite applicable to the requested member; the test suite drives the same
functions over a grid of members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    closed_form_normals,
    conformal_fields,
    coordinate_laplacian,
    frame_scalars,
    immersion_point,
    normal_frame,
    perp_vectors,
    surface_jet,
)
from .henneberg import (
    FamilyParams,
    classic_henneberg_curve,
    family_curve,
    family_phi,
    family_triple,
    integral_free_point,
    recover_seed,
    seed_phi,
)
from .laurent import LaurentPoly
from .weierstrass import (
    WeierstrassTriple,
    nullity_defect,
    nullity_residual,
    phi_from_triple,
    regularity_threshold,
)

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

def sample_annulus(rng: np.random.Generator, count: int,
                   r_lo: float = 0.4, r_hi: float = 1.8) -> np.ndarray:
    r = rng.uniform(r_lo, r_hi, count)
    t = rng.uniform(0.0, 2.0 * math.pi, count)
    return r * np.exp(1j * t)


def sample_regular(rng: np.random.Generator, count: int, phi,
                   r_lo: float = 0.4, r_hi: float = 1.8) -> np.ndarray:
    """Annulus samples kept only where the regularity weight is healthy.

    Draws batches of `count` points until `count` have passed, keeping the
    first ones in draw order; every batch is drawn whole.
    """
    kept: list[np.ndarray] = []
    found = 0
    while found < count:
        w = sample_annulus(rng, count, r_lo, r_hi)
        _, reg, _ = conformal_fields(phi.triple, w)
        healthy = w[reg > 1e3 * regularity_threshold(phi, w)][: count - found]
        kept.append(healthy)
        found += healthy.size
    return np.concatenate(kept)


def _segment_origin_distance(z: complex) -> float:
    # distance from 0 to the segment [1, z]
    a, b = 1 + 0j, z
    d = b - a
    denom = abs(d) ** 2
    if denom == 0.0:
        return abs(a)
    t = max(0.0, min(1.0, (-(a.conjugate() * d).real) / denom))
    return abs(a + t * d)


def quadrature_targets(rng: np.random.Generator, count: int) -> list[complex]:
    """Targets whose segment from the base point 1 stays clear of the puncture."""
    out: list[complex] = []
    while len(out) < count:
        w = complex(rng.uniform(0.6, 1.6) * np.exp(1j * rng.uniform(-1.5, 1.5)))
        if _segment_origin_distance(w) >= 0.45 and abs(w - 1.0) >= 0.3:
            out.append(w)
    return out


# -- suites --------------------------------------------------------------------

def _worst(*errors) -> float:
    """Largest magnitude in arrays of errors; 0 when they are empty."""
    return max(float(np.max(np.abs(e), initial=0.0)) for e in errors)


def check_nullity(params: FamilyParams, samples: int, rng: np.random.Generator) -> SuiteResult:
    phi = family_phi(params)
    defect = nullity_defect(phi.parts)
    structural = defect.is_zero
    worst = _worst(nullity_residual(phi, sample_annulus(rng, samples)))
    ok = structural and worst <= 1e-12
    return SuiteResult(
        "nullity", ok, samples + 1,
        f"structural_zero={structural} max_residual={worst:.3e}",
    )


def _max_coeff_ulp(a: LaurentPoly, b: LaurentPoly) -> float:
    """Worst componentwise distance between coefficients, in ulps."""
    worst = 0.0
    for k in set(dict(iter(a))) | set(dict(iter(b))):
        ca = a.terms.get(k, 0j)
        cb = b.terms.get(k, 0j)
        for x, y in ((ca.real, cb.real), (ca.imag, cb.imag)):
            if x == y:
                continue
            worst = max(worst, abs(x - y) / (math.ulp(max(abs(x), abs(y))) or 1.0))
    return worst


def check_back_differentiation(params: FamilyParams) -> SuiteResult:
    phi = family_phi(params)
    curve = family_curve(params)
    exact = all(x.derivative() == p for x, p in zip(curve.parts, phi.parts))
    worst = max(
        _max_coeff_ulp(x.derivative(), p) for x, p in zip(curve.parts, phi.parts)
    )
    # Exact on the verification grids; <= 1 ulp is the attainable bound for
    # arbitrary coefficient/divisor pairs in doubles.
    return SuiteResult(
        "back_differentiation", worst <= 1.0, 4,
        f"exact={exact} max_ulp={worst:g}",
    )


def check_quadrature(params: FamilyParams, rng: np.random.Generator,
                     targets: int = 20, nodes: int = 64) -> SuiteResult:
    """Gauss-Legendre quadrature of the 1-form from the base point 1 against
    curve differences; one array evaluation per component for all targets."""
    phi = family_phi(params)
    curve = family_curve(params)
    xs, wts = np.polynomial.legendre.leggauss(nodes)
    base = 1 + 0j
    z = np.array(quadrature_targets(rng, targets))
    zs = base + ((xs + 1.0) / 2.0)[None, :] * (z - base)[:, None]
    integral = np.stack(
        [(z - base) / 2.0 * np.sum(wts * comp(zs), axis=1) for comp in phi.parts], axis=1
    )
    diff = np.stack([comp(z) - comp(base) for comp in curve.parts], axis=1)
    err = np.linalg.norm(integral - diff, axis=1) / np.maximum(np.linalg.norm(diff, axis=1), 1e-30)
    worst = float(np.max(err))
    return SuiteResult("quadrature", worst <= 1e-9, targets, f"max_rel_err={worst:.3e}")


def check_conformality(params: FamilyParams, samples: int, rng: np.random.Generator) -> SuiteResult:
    phi = family_phi(params)
    jet = surface_jet(phi, family_curve(params), sample_regular(rng, samples, phi))
    worst = _worst((jet.E - jet.G) / jet.E, jet.F / jet.E)
    return SuiteResult("conformality", worst <= 1e-12, 2 * samples, f"max_rel={worst:.3e}")


def check_harmonicity(params: FamilyParams, points: int, rng: np.random.Generator,
                      h: float = 1e-3) -> SuiteResult:
    """Five-point Laplacian of each coordinate converges at order ~2.

    The order is only measurable where the truncation term clears the FD
    roundoff noise (~eps * scale / h^2); coordinates whose residual sits at
    that floor are already harmonic to working precision and are skipped.
    """
    curve = family_curve(params)
    lo, hi = 1.8, 2.2
    w = sample_annulus(rng, points, r_lo=0.75, r_hi=1.6)
    # (points, coordinates) arrays; a failure reports the last order out of
    # range, taken point by point
    floor = 1e-7 * (1.0 + np.max(np.abs(immersion_point(curve, w)), axis=1, keepdims=True))
    res_h, res_h2 = (np.stack([coordinate_laplacian(comp, w, step) for comp in curve.parts],
                              axis=-1) for step in (h, h / 2.0))
    measurable = (res_h >= floor) & (res_h2 >= floor)
    orders = np.log2(res_h[measurable] / res_h2[measurable])
    outside = orders[(orders < lo) | (orders > hi)]
    checked = int(orders.size)
    ok = outside.size == 0 and checked > 0
    worst_order = outside[-1] if outside.size else 2.0
    detail = (f"{checked} measurable orders within [{lo}, {hi}]"
              if ok else f"order {worst_order:.3f} out of range")
    return SuiteResult("harmonicity", ok, checked, detail)


def check_frames(params: FamilyParams, points: int, rng: np.random.Generator) -> SuiteResult:
    """Closed-form p, q and normals against direct inner products and
    Gram-Schmidt, for the m = n = 1 real-lam member."""
    if params.m != 1 or params.n != 1 or not params.lam_is_real:
        return SuiteResult("frames", True, 0, "not applicable here", skipped=True)
    phi = family_phi(params)
    curve = family_curve(params)
    w = sample_regular(rng, points, phi)
    jet = surface_jet(phi, curve, w)
    perp1, perp2 = perp_vectors(jet)
    s = frame_scalars(params, w)
    q_direct = np.sum(jet.xu * perp2, axis=1)
    q_mirror = -np.sum(jet.xv * perp1, axis=1)
    worst_pq = _worst((s.p - jet.E) / s.p, (s.q - q_direct) / s.p, (s.q - q_mirror) / s.p)
    frame = normal_frame(jet)
    basis = np.stack([frame.e1, frame.e2, frame.n1, frame.n2], axis=1)
    worst_gram = _worst(basis @ basis.transpose(0, 2, 1) - np.eye(4))
    # the closed forms divide by cross_minus: check them where it is clear of 0
    keep = s.cross_minus > 1e-6
    n1, n2 = frame.n1[keep], frame.n2[keep]
    normals = closed_form_normals(surface_jet(phi, curve, w[keep]), frame_scalars(params, w[keep]))
    worst_span = _worst(*(
        np.linalg.norm(n - np.sum(n * n1, axis=1, keepdims=True) * n1
                       - np.sum(n * n2, axis=1, keepdims=True) * n2, axis=1)
        for n in normals
    ))
    ok = worst_pq <= 1e-10 and worst_gram <= 1e-10 and worst_span <= 1e-8
    return SuiteResult(
        "frames", ok, 6 * points,
        f"pq={worst_pq:.2e} gram={worst_gram:.2e} span={worst_span:.2e}",
    )


def check_integral_free(params: FamilyParams, rng: np.random.Generator,
                        points: int = 25) -> SuiteResult:
    """Seed consistency and the pointwise inversion round trip.

    The seed route fixes g = w, h = lam w, so the curve comparison is run
    against the matching low-order data (family_curve itself at m = n = 1).
    The central difference of the pointwise curve (step h) must reproduce
    the 1-form within its own error, reported as the fraction fd_ratio of
    16 eps S / h (roundoff; S = (1 + |1 + lam^2|) sum_j |w|^j env(seed^(j))
    bounds the terms the curve sums) plus h^2 env(phi'') (truncation).
    """
    from .henneberg import fixed_gh_curve

    seed = seed_phi(params.m, params.n)
    f_expected = family_triple(params).f
    d3 = seed.derivative().derivative().derivative()
    seed_ulp = _max_coeff_ulp(d3, f_expected)

    target = fixed_gh_curve(params)
    phi_low = phi_from_triple(
        WeierstrassTriple(f_expected, LaurentPoly.monomial(1), LaurentPoly.monomial(1, params.lam))
    )
    seed_derivs = (seed, seed.derivative(), seed.derivative().derivative())
    phi_curvature = [comp.derivative().derivative() for comp in phi_low.parts]
    weight = 1.0 + abs(1.0 + params.lam * params.lam)
    h = 1e-6
    worst_point = 0.0
    worst_fd = 0.0
    worst_rt = 0.0
    can_invert = abs(1.0 + params.lam * params.lam) > 1e-3
    for w in sample_annulus(rng, points, r_lo=0.6, r_hi=1.5):
        w = complex(w)
        k = integral_free_point(seed, params.lam, w)
        ref = [comp(w) for comp in target.parts]
        scale = max(1.0, max(abs(v) for v in ref))
        worst_point = max(worst_point, max(abs(a - b) for a, b in zip(k, ref)) / scale)
        # d/dw of the pointwise curve must reproduce the 1-form
        kp = integral_free_point(seed, params.lam, w + h)
        km = integral_free_point(seed, params.lam, w - h)
        fd = [(a - b) / (2.0 * h) for a, b in zip(kp, km)]
        phiv = [comp(w) for comp in phi_low.parts]
        r = abs(w) + h
        terms = weight * math.fsum(r**j * d.envelope(r) for j, d in enumerate(seed_derivs))
        bound = 16.0 * np.finfo(float).eps * terms / h + h * h * max(p.envelope(r) for p in phi_curvature)
        worst_fd = max(worst_fd, max(abs(a - b) for a, b in zip(fd, phiv)) / bound)
        if can_invert:
            rt = recover_seed(k, params.lam, w)
            worst_rt = max(worst_rt, abs(rt - seed(w)) / max(1.0, abs(seed(w))))
    ok = seed_ulp <= 1.0 and worst_point <= 1e-12 and worst_fd <= 1.0 and (
        not can_invert or worst_rt <= 1e-12
    )
    return SuiteResult(
        "integral_free", ok, 3 * points + 1,
        f"seed_ulp={seed_ulp:g} point={worst_point:.2e} fd_ratio={worst_fd:.2e} "
        f"roundtrip={worst_rt:.2e}",
    )


def check_reductions(params: FamilyParams) -> SuiteResult:
    """Degenerate-parameter geometry: lam = 0 planarity, m = n proportionality."""
    curve = family_curve(params)
    checks = 0
    ok = True
    notes = []
    if params.lam == 0:
        checks += 1
        ok &= curve.parts[3].is_zero
        notes.append(f"w_component_zero={curve.parts[3].is_zero}")
        if (params.m, params.n) == (1, 1):
            classic = classic_henneberg_curve()
            doubled = tuple(2.0 * comp for comp in classic.parts[:3])
            match = doubled == curve.parts[:3]
            checks += 1
            ok &= match
            notes.append(f"double_classic={match}")
    if params.m == params.n and params.lam_is_real:
        scaled = curve.parts[2] * params.lam
        worst = _max_coeff_ulp(curve.parts[3], scaled)
        checks += 1
        ok &= worst <= 1.0
        notes.append(f"w_eq_lam_z_ulp={worst:g}")
    if checks == 0:
        return SuiteResult("reductions", True, 0, "not applicable here", skipped=True)
    return SuiteResult("reductions", ok, checks, " ".join(notes))


def run_verify(params: FamilyParams, samples: int, seed: int) -> list[SuiteResult]:
    """Every suite applicable to this member, with one seeded RNG stream."""
    rng = np.random.default_rng(seed)
    results = [
        check_nullity(params, samples, rng),
        check_back_differentiation(params),
        check_quadrature(params, rng),
        check_conformality(params, min(samples, 1000), rng),
        check_harmonicity(params, 50, rng),
        check_frames(params, 100, rng),
        check_integral_free(params, rng),
        check_reductions(params),
    ]
    return results
