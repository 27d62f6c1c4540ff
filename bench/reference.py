"""Independent closed forms for the (m, n, lam) family, written for the benchmark.

Nothing here imports `wep4`.  The Weierstrass data

    f = 2 w**(-m-n-2) (w**(2m+2n) - 1),   g = w**m,   h = lam w**n

are expanded as plain exponent -> coefficient dicts, the null 1-form and its
termwise antiderivative are built from them, and every quantity the checks
need is evaluated with numpy over whole arrays of points:

- positions      Re of the antiderivative of phi;
- energy         E = |f|**2 |F|**2 / 2 with F = (1/sqrt2, g, h, (g**2+h**2)/sqrt2);
- curvature      K = -4 (|F|**2 |F'|**2 - |<F', F>|**2) / (|F|**6 |f|**2)
                 (Hoffman-Osserman; no step size, exact to rounding);
- branch points  the (2m+2n)-th roots of unity, where f vanishes.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)


def _clean(terms: dict) -> dict:
    return {k: c for k, c in sorted(terms.items()) if c != 0}


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0j) + x * y
    return _clean(out)


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0j) + c
    return _clean(out)


def poly_scale(a: dict, c: complex) -> dict:
    return _clean({k: c * v for k, v in a.items()})


def poly_integrate(a: dict) -> dict:
    if -1 in a:
        raise ValueError("exponent -1 has no Laurent antiderivative")
    return {k + 1: c / (k + 1) for k, c in a.items()}


def poly_eval(a: dict, w: np.ndarray) -> np.ndarray:
    out = np.zeros(np.shape(w), dtype=complex)
    for k, c in a.items():
        out += c * w**k
    return out


def poly_envelope(a: dict, r: np.ndarray) -> np.ndarray:
    """sum |c_k| r**k: the scale of a value's rounding error."""
    out = np.zeros(np.shape(r), dtype=float)
    for k, c in a.items():
        out += abs(c) * r**k
    return out


class Member:
    """Closed forms of one family member, built coefficient by coefficient."""

    def __init__(self, m: int, n: int, lam: complex):
        self.m, self.n, self.lam = m, n, complex(lam)
        big = m + n
        one = {0: 1 + 0j}
        self.f = {big - 2: 2 + 0j, -big - 2: -2 + 0j}
        self.g = {m: 1 + 0j}
        self.h = _clean({n: self.lam})
        sq = poly_add(poly_mul(self.g, self.g), poly_mul(self.h, self.h))
        self.phi = (
            poly_scale(poly_mul(self.f, poly_add(one, poly_scale(sq, -1))), 0.5),
            poly_scale(poly_mul(self.f, poly_add(one, sq)), 0.5j),
            poly_mul(self.f, self.g),
            poly_mul(self.f, self.h),
        )
        self.curve = tuple(poly_integrate(p) for p in self.phi)
        c = 2.0 / ((big - 1) * big * (big + 1))
        self.seed = {big + 1: c + 0j, -(big - 1): c + 0j}

    def positions(self, w: np.ndarray) -> np.ndarray:
        """(len(w), 4) immersion points Re X(w)."""
        return np.stack([poly_eval(p, w).real for p in self.curve], axis=-1)

    def position_envelope(self, r: np.ndarray) -> np.ndarray:
        return np.stack([poly_envelope(p, r) for p in self.curve], axis=-1)

    def _gauss_lift(self, w: np.ndarray):
        m, n, lam = self.m, self.n, self.lam
        g, dg = w**m, m * w ** (m - 1)
        h, dh = lam * w**n, lam * n * w ** (n - 1)
        lift = (np.full_like(w, 1.0 / SQRT2), g, h, (g * g + h * h) / SQRT2)
        dlift = (np.zeros_like(w), dg, dh, SQRT2 * (g * dg + h * dh))
        return lift, dlift

    def energy(self, w: np.ndarray) -> np.ndarray:
        lift, _ = self._gauss_lift(w)
        norm2 = sum(np.abs(c) ** 2 for c in lift)
        return 0.5 * np.abs(poly_eval(self.f, w)) ** 2 * norm2

    def energy_envelope(self, r: np.ndarray) -> np.ndarray:
        """Scale of E's rounding error: half the sum of squared phi envelopes."""
        return 0.5 * sum(poly_envelope(p, r) ** 2 for p in self.phi)

    def curvature(self, w: np.ndarray) -> np.ndarray:
        lift, dlift = self._gauss_lift(w)
        norm2 = sum(np.abs(c) ** 2 for c in lift)
        dnorm2 = sum(np.abs(c) ** 2 for c in dlift)
        pair = sum(d * np.conj(c) for d, c in zip(dlift, lift))
        f2 = np.abs(poly_eval(self.f, w)) ** 2
        return -4.0 * (norm2 * dnorm2 - np.abs(pair) ** 2) / (norm2**3 * f2)

    def on_branch_set(self, w: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """True where w is a (2m+2n)-th root of unity, to rounding."""
        return np.abs(w ** (2 * (self.m + self.n)) - 1.0) <= tol


def seeded_annulus(seed: int, count: int, r_lo: float, r_hi: float) -> np.ndarray:
    """The points `wep4 report --seed S --samples N` audits (0.5 <= r <= 1.7)."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(r_lo, r_hi, count)
    t = rng.uniform(0.0, 2.0 * math.pi, count)
    return r * np.exp(1j * t)


def general_cart_y_slip(lam: float, w: np.ndarray) -> float:
    """Max |2 (a v / r**2 + Im(w**3) / (3 r**6))|, a = 1 + lam**2: the gap
    between the printed general-lam y display and termwise integration."""
    a = 1.0 + lam * lam
    r2 = w.real**2 + w.imag**2
    cube_im = 3.0 * w.real**2 * w.imag - w.imag**3
    return float(np.max(np.abs(2.0 * (a * w.imag / r2 + cube_im / (3.0 * r2**3)))))
