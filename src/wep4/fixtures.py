"""Verbatim reference parametrizations and the fidelity audit against them.

The evaluators below transcribe the printed closed-form displays for two
family members character for character, with no corrections applied.  Some
of those displays are known to carry sign or scale slips relative to
termwise integration of the very data they came from; keeping them verbatim
is the point, because the audit in fidelity_report documents exactly where
each display and the algebra pipeline disagree.  The pipeline (data -> null
form -> antiderivative) is the authoritative side of every comparison.

Fixture identifiers are stable strings used by the command line interface:

    h11_general_cart   (1,1) member, general complex lam, Cartesian
    h11_real_cart      (1,1) member, real lam, Cartesian
    h11_example_cart   (1,1) member at lam = 1+i, Cartesian
    h11_example_polar  (1,1) member at lam = 1+i, polar
    h13_example_cart   (1,3) member at lam = 1+i, Cartesian
    h13_example_polar  (1,3) member at lam = 1+i, polar
    h11_real_xu        (1,1) member, real lam, du-tangent expansion
    h11_real_xv        (1,1) member, real lam, dv-tangent expansion
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import surface_jet
from .henneberg import FamilyParams, family_curve, family_phi

__all__ = [
    "Fixture",
    "FixtureDomainError",
    "FidelityRow",
    "FidelityReport",
    "fixture",
    "fixtures_for",
    "fixture_eval",
    "fidelity_report",
]

_EXAMPLE_LAM = 1 + 1j


class FixtureDomainError(ValueError):
    """Fixture evaluated at the origin (Cartesian) or at r <= 0 (polar)."""


@dataclass(frozen=True)
class Fixture:
    """One printed display: id, coordinate convention, and what it encodes.

    kind is "position" for immersion displays and "tangent_u"/"tangent_v"
    for the first-derivative expansions.
    """

    fixture_id: str
    coords: str  # "cart" | "polar"
    kind: str
    fn: Callable[[float, float], tuple[float, float, float, float]] = field(repr=False)


def fixture_eval(fx: Fixture, coords: tuple[float, float]) -> np.ndarray:
    """Literal evaluation of the transcribed display at (u, v) or (r, theta)."""
    a, b = float(coords[0]), float(coords[1])
    if fx.coords == "cart" and a == 0.0 and b == 0.0:
        raise FixtureDomainError("Cartesian display undefined at the origin")
    if fx.coords == "polar" and a <= 0.0:
        raise FixtureDomainError("polar display requires r > 0")
    return np.array(fx.fn(a, b), dtype=float)


# -- (1,1) member, general complex lam, Cartesian ---------------------------

def _h11_general_cart(lam: complex) -> Fixture:
    al, be = lam.real, lam.imag
    a = 1.0 + al * al - be * be
    b2 = 2.0 * al * be

    def fn(u: float, v: float):
        r2 = u * u + v * v
        cube_re = u**3 - 3.0 * u * v * v
        cube_im = 3.0 * u * u * v - v**3
        x = (u - a / 3.0 * cube_re - a * u / r2 + cube_re / (3.0 * r2**3)
             + b2 / 3.0 * cube_im + b2 * v / r2)
        y = (-v - a / 3.0 * cube_im - a * v / r2 - cube_im / (3.0 * r2**3)
             - b2 / 3.0 * cube_re + b2 * u / r2)
        z = (u * u - v * v) * (1.0 + 1.0 / r2**2)
        w = (al * (u * u - v * v) * (1.0 + 1.0 / r2**2)
             - 2.0 * be * u * v * (1.0 - 1.0 / r2**2))
        return x, y, z, w

    return Fixture("h11_general_cart", "cart", "position", fn)


# -- (1,1) member, real lam, Cartesian ---------------------------------------

def _h11_real_cart(lam: float) -> Fixture:
    a = 1.0 + lam * lam

    def fn(u: float, v: float):
        r2 = u * u + v * v
        cube_re = u**3 - 3.0 * u * v * v
        cube_im = 3.0 * u * u * v - v**3
        x = u - a / 3.0 * cube_re + cube_re / (3.0 * r2**3) - a * u / r2
        y = -v - a / 3.0 * cube_im - cube_im / (3.0 * r2**3) - a * v / r2
        z = u * u - v * v + (u * u - v * v) / r2**2
        w = lam * (u * u - v * v + (u * u - v * v) / r2**2)
        return x, y, z, w

    return Fixture("h11_real_cart", "cart", "position", fn)


# -- (1,1) member at lam = 1+i ------------------------------------------------

def _h11_example_cart() -> Fixture:
    def fn(u: float, v: float):
        r2 = u * u + v * v
        cube_re = u**3 - 3.0 * u * v * v
        cube_im = 3.0 * u * u * v - v**3
        x = (u - cube_re / 3.0 - u / r2 + cube_re / (3.0 * r2**3)
             + 2.0 / 3.0 * cube_im + 2.0 * v / r2)
        y = (-v - cube_im / 3.0 - v / r2 - cube_im / (3.0 * r2**3)
             - 2.0 / 3.0 * cube_re + 2.0 * u / r2)
        z = (u * u - v * v) * (1.0 + 1.0 / r2**2)
        w = ((u * u - v * v) * (1.0 + 1.0 / r2**2)
             - 2.0 * u * v * (1.0 - 1.0 / r2**2))
        return x, y, z, w

    return Fixture("h11_example_cart", "cart", "position", fn)


def _h11_example_polar() -> Fixture:
    def fn(r: float, th: float):
        x = ((r - 1.0 / r) * math.cos(th) + 2.0 / r * math.sin(th)
             - (r**3 - r**-3) / 3.0 * math.cos(3 * th)
             + 2.0 / 3.0 * r**3 * math.sin(3 * th))
        y = (-(r + 1.0 / r) * math.sin(th) + 2.0 / r * math.cos(th)
             - (r**3 + r**-3) / 3.0 * math.sin(3 * th)
             - 2.0 / 3.0 * r**3 * math.cos(3 * th))
        z = (r * r + r**-2) * math.cos(2 * th)
        w = (r * r + r**-2) * math.cos(2 * th) - (r * r - r**-2) * math.sin(2 * th)
        return x, y, z, w

    return Fixture("h11_example_polar", "polar", "position", fn)


# -- (1,3) member at lam = 1+i ------------------------------------------------

def _h13_example_cart() -> Fixture:
    def fn(u: float, v: float):
        r2 = u * u + v * v
        x = ((u**3 - 3 * u * v**2) / 3.0
             - (u**7 - 21 * u**5 * v**2 + 35 * u**3 * v**4 - 7 * u * v**6) / 7.0
             + 2.0 / 9.0 * (9 * u**8 * v - 84 * u**6 * v**3 + 126 * u**4 * v**5
                            - 36 * u**2 * v**7 + v**9)
             + (u**5 - 10 * u**3 * v**2 + 5 * u * v**4) / (5.0 * r2**5)
             - (u**3 - 3 * u * v**2) / (3.0 * r2**3)
             - 2.0 * v)
        y = (-(3 * u**2 * v - v**3) / 3.0
             - (7 * u**6 * v - 35 * u**4 * v**3 + 21 * u**2 * v**5 - v**7) / 7.0
             - 2.0 / 9.0 * (u**9 - 36 * u**7 * v**2 + 126 * u**5 * v**4
                            - 84 * u**3 * v**6 + 9 * u * v**8)
             - (5 * u**4 * v - 10 * u**2 * v**3 + v**5) / (5.0 * r2**5)
             - (3 * u**2 * v - v**3) / (3.0 * r2**3)
             + 2.0 * u)
        z = (u**4 - 6 * u**2 * v**2 + v**4) * (1.0 + 1.0 / r2**4)
        w = ((u**6 - 15 * u**4 * v**2 + 15 * u**2 * v**4 - v**6) / 3.0
             - (6 * u**5 * v - 20 * u**3 * v**3 + 6 * u * v**5) / 3.0
             + (u * u - v * v + 2 * u * v) / r2**2)
        return x, y, z, w

    return Fixture("h13_example_cart", "cart", "position", fn)


def _h13_example_polar() -> Fixture:
    def fn(r: float, th: float):
        x = ((r**3 - r**-3) / 3.0 * math.cos(3 * th)
             - r**7 / 7.0 * math.cos(7 * th)
             + 2.0 * r**9 / 9.0 * math.sin(9 * th)
             + 1.0 / (5.0 * r**5) * math.cos(5 * th)
             - 2.0 * r * math.sin(th))
        y = (-(r**3 + r**-3) / 3.0 * math.sin(3 * th)
             - r**7 / 7.0 * math.sin(7 * th)
             - 2.0 * r**9 / 9.0 * math.cos(9 * th)
             - 1.0 / (5.0 * r**5) * math.sin(5 * th)
             + 2.0 * r * math.cos(th))
        z = (r**4 + r**-4) * math.cos(4 * th)
        w = (r**6 / 3.0 * (math.cos(6 * th) - math.sin(6 * th))
             + r**-2 * (math.cos(2 * th) + math.sin(2 * th)))
        return x, y, z, w

    return Fixture("h13_example_polar", "polar", "position", fn)


# -- (1,1) member, real lam, tangent expansions ------------------------------
# The displays substitute g = g1 + i g2, h = lam (h1 + i h2) with
# g1 = h1 = u and g2 = h2 = v; they are transcribed with that substitution
# applied and nothing else (the stray "6 u^2 v" monomials included).

def _h11_real_xu(lam: float) -> Fixture:
    L2 = lam * lam

    def fn(u: float, v: float):
        g1, g2, h1, h2 = u, v, u, v
        r8 = (u * u + v * v) ** 4
        x1 = (g2**2 - g1**2 - L2 * h1**2 + L2 * h2**2 + 1.0
              + (u**4 * g1**2 - u**4 * g2**2 + v**4 * g1**2 - v**4 * g2**2
                 + 6 * u**2 * v**2 - u**4 - v**4
                 - 6 * u**2 * v**2 * g1**2 + 6 * u**2 * v**2 * g2**2
                 + u**4 * L2 * h1**2 + v**4 * L2 * h1**2
                 + u**4 * L2 * h2**2 + v**4 * L2 * h2**2
                 - 8 * u * v**3 * g1 * g2 + 8 * u**3 * v * g1 * g2
                 - 6 * u**2 * v**2 * L2 * h1**2 + 6 * u**2 * v**2 * L2 * h2**2
                 - 8 * u * v**3 * L2 * h1 * h2 + 8 * u**3 * v * L2 * h1 * h2) / r8)
        x2 = (-2 * g1 * g2 - 2 * L2 * h1 * h2
              + 2.0 / r8 * (2 * u * v**3 - 2 * u**3 * v
                            + u**4 * g1 * g2 + v**4 * g1 * g2
                            + 2 * u * v**3 * g1**2 + 2 * u * v**3 * g2**2
                            - 2 * u**3 * v * g1**2 - 2 * u**3 * v * g2**2
                            + 6 * u**2 * v * g1 * g2
                            + u**4 * L2 * h1 * h2 + v**4 * L2 * h1 * h2
                            + 2 * u * v**3 * L2 * h1**2 + 2 * u * v**3 * L2 * h2**2
                            - 2 * u**3 * v * L2 * h1**2 - 2 * u**3 * v * L2 * h2**2
                            - 6 * u**2 * v * L2 * h1 * h2))
        x3 = 2 * g1 - 2.0 / r8 * (u**4 * g1 + v**4 * g1 - 6 * u**2 * v**2 * g1
                                  - 4 * u * v**3 * g2 + 4 * u**3 * v * g2)
        x4 = 2 * lam * h1 - 2.0 * lam / r8 * (u**4 * h1 + v**4 * h1
                                              - 6 * u**2 * v**2 * h1
                                              - 4 * u * v**3 * h2 + 4 * u**3 * v * h2)
        return x1, x2, x3, x4

    return Fixture("h11_real_xu", "cart", "tangent_u", fn)


def _h11_real_xv(lam: float) -> Fixture:
    L2 = lam * lam

    def fn(u: float, v: float):
        g1, g2, h1, h2 = u, v, u, v
        r8 = (u * u + v * v) ** 4
        x1 = (2 * g1 * g2 + 2 * L2 * h1 * h2
              - 2.0 / r8 * (-2 * u * v**3 + 2 * u**3 * v
                            + u**4 * g1 * g2 + v**4 * g1 * g2
                            + 2 * u * v**3 * g1**2 + 2 * u * v**3 * g2**2
                            - 2 * u**3 * v * g1**2 - 2 * u**3 * v * g2**2
                            + 6 * u**2 * v * g1 * g2
                            + u**4 * L2 * h1 * h2 + v**4 * L2 * h1 * h2
                            + 2 * u * v**3 * L2 * h1**2 + 2 * u * v**3 * L2 * h2**2
                            - 2 * u**3 * v * L2 * h1**2 - 2 * u**3 * v * L2 * h2**2
                            - 6 * u**2 * v * L2 * h1 * h2))
        x2 = (-g1**2 + g2**2 - L2 * h1**2 + L2 * h2**2 - 1.0
              + (u**4 * g1**2 + u**4 * g2**2 + v**4 * g1**2 + v**4 * g2**2
                 + 6 * u**2 * v**2 * g1**2 + 6 * u**2 * v**2 * g2**2
                 + u**4 * L2 * h1**2 + u**4 * L2 * h2**2
                 + v**4 * L2 * h1**2 + v**4 * L2 * h2**2
                 - 8 * u * v**3 * g1 * g2 + 8 * u**3 * v * g1 * g2
                 - 6 * u**2 * v**2 * L2 * h1**2 + 6 * u**2 * v**2 * L2 * h2**2
                 - 8 * u * v**3 * L2 * h1 * h2 + 8 * u**3 * v * L2 * h1 * h2) / r8)
        x3 = -2 * g2 + 2.0 / r8 * (u**4 * g2 + v**4 * g2 - 6 * u**2 * v**2 * g2
                                   + 4 * u * v**3 * g1 - 4 * u**3 * v * g1)
        x4 = -2 * lam * h2 + 2.0 * lam / r8 * (u**4 * h2 + v**4 * h2
                                               - 6 * u**2 * v**2 * h2
                                               + 4 * u * v**3 * h1 - 4 * u**3 * v * h1)
        return x1, x2, x3, x4

    return Fixture("h11_real_xv", "cart", "tangent_v", fn)


def fixture(fixture_id: str, lam: complex = _EXAMPLE_LAM) -> Fixture:
    """Look up one fixture by its stable id; lam feeds the parametrized ones."""
    lam = complex(lam)
    table: dict[str, Callable[[], Fixture]] = {
        "h11_general_cart": lambda: _h11_general_cart(lam),
        "h11_real_cart": lambda: _h11_real_cart(lam.real),
        "h11_example_cart": _h11_example_cart,
        "h11_example_polar": _h11_example_polar,
        "h13_example_cart": _h13_example_cart,
        "h13_example_polar": _h13_example_polar,
        "h11_real_xu": lambda: _h11_real_xu(lam.real),
        "h11_real_xv": lambda: _h11_real_xv(lam.real),
    }
    try:
        return table[fixture_id]()
    except KeyError:
        raise KeyError(f"unknown fixture id {fixture_id!r}") from None


def fixtures_for(params: FamilyParams) -> list[Fixture]:
    """Displays that claim to describe the given family member."""
    out: list[Fixture] = []
    lam = params.lam
    real = params.lam_is_real
    if (params.m, params.n) == (1, 1):
        out.append(_h11_general_cart(lam))
        if real:
            out.append(_h11_real_cart(lam.real))
            out.append(_h11_real_xu(lam.real))
            out.append(_h11_real_xv(lam.real))
        if lam == _EXAMPLE_LAM:
            out.append(_h11_example_cart())
            out.append(_h11_example_polar())
    if (params.m, params.n) == (1, 3) and lam == _EXAMPLE_LAM:
        out.append(_h13_example_cart())
        out.append(_h13_example_polar())
    return out


# -- fidelity audit -----------------------------------------------------------

_COMPONENTS = ("x", "y", "z", "w")
_FD_STEP = 1e-6


@dataclass(frozen=True)
class FidelityRow:
    """One audited check: one component of a display against the pipeline."""

    fixture_id: str
    check: str  # "value" | "tangent_u" | "tangent_v"
    component: str  # "x" | "y" | "z" | "w"
    max_abs_dev: float
    tolerance: float
    verdict: str  # "PASS" | "DEVIATES"


@dataclass(frozen=True)
class FidelityReport:
    params: FamilyParams
    rows: tuple[FidelityRow, ...]

    def row(self, fixture_id: str, component: str, check: str = "value") -> FidelityRow:
        for r in self.rows:
            if r.fixture_id == fixture_id and r.check == check and r.component == component:
                return r
        raise KeyError(f"no row for ({fixture_id}, {check}, {component})")

    def verdict(self, fixture_id: str, check: str = "value") -> str:
        """PASS only if every component of the display passes the check."""
        rows = [r for r in self.rows if r.fixture_id == fixture_id and r.check == check]
        if not rows:
            raise KeyError(f"no rows for ({fixture_id}, {check})")
        return "PASS" if all(r.verdict == "PASS" for r in rows) else "DEVIATES"

    def to_csv(self) -> str:
        lines = ["fixture,check,component,max_abs_dev,tolerance,verdict"]
        for r in self.rows:
            lines.append(
                f"{r.fixture_id},{r.check},{r.component},{r.max_abs_dev:.6e},"
                f"{r.tolerance:.6e},{r.verdict}"
            )
        return "\n".join(lines) + "\n"


def _fixture_coords(fx: Fixture, w: complex) -> tuple[float, float]:
    if fx.coords == "polar":
        return abs(w), math.atan2(w.imag, w.real)
    return w.real, w.imag


def _fd_tangents(fx: Fixture, w: complex) -> tuple[np.ndarray, np.ndarray]:
    h = _FD_STEP * max(1.0, abs(w))

    def val(z: complex) -> np.ndarray:
        return fixture_eval(fx, _fixture_coords(fx, z))

    du = (val(w + h) - val(w - h)) / (2.0 * h)
    dv = (val(w + 1j * h) - val(w - 1j * h)) / (2.0 * h)
    return du, dv


def _column_max(values: np.ndarray) -> np.ndarray:
    """Largest magnitude per component over the samples (0 with none)."""
    return np.max(np.abs(values), axis=0, initial=0.0)


def _verdict_rows(fixture_id, check, devs, scales, tol_rel) -> list[FidelityRow]:
    rows = []
    for i, name in enumerate(_COMPONENTS):
        tol = tol_rel * (1.0 + float(scales[i]))
        dev = float(devs[i])
        rows.append(
            FidelityRow(
                fixture_id=fixture_id,
                check=check,
                component=name,
                max_abs_dev=dev,
                tolerance=tol,
                verdict="PASS" if dev <= tol else "DEVIATES",
            )
        )
    return rows


def fidelity_report(params: FamilyParams, samples) -> FidelityReport:
    """Audit every applicable display against the pipeline at the samples.

    Position displays are compared against Re(curve) directly and, through
    central differences, against the analytic tangents; tangent displays are
    compared against the analytic tangents componentwise.  A DEVIATES
    verdict is an audit finding about the display, not a pipeline failure.
    The pipeline side is evaluated at all samples at once; the displays are
    evaluated one point at a time, verbatim.
    """
    w = np.asarray(samples, dtype=complex).reshape(-1)
    jet = surface_jet(family_phi(params), family_curve(params), w)
    points = w.tolist()
    rows: list[FidelityRow] = []
    for fx in fixtures_for(params):
        ref = np.array([fixture_eval(fx, _fixture_coords(fx, z)) for z in points]).reshape(-1, 4)
        if fx.kind == "position":
            fd = np.array([_fd_tangents(fx, z) for z in points]).reshape(-1, 2, 4)
            scale = _column_max(jet.position)
            rows += _verdict_rows(fx.fixture_id, "value", _column_max(ref - jet.position),
                                  scale, 1e-9)
            rows += _verdict_rows(fx.fixture_id, "tangent_u", _column_max(fd[:, 0] - jet.xu),
                                  scale, 1e-5)
            rows += _verdict_rows(fx.fixture_id, "tangent_v", _column_max(fd[:, 1] - jet.xv),
                                  scale, 1e-5)
        else:
            tangent = jet.xu if fx.kind == "tangent_u" else jet.xv
            rows += _verdict_rows(fx.fixture_id, fx.kind, _column_max(ref - tangent),
                                  _column_max(tangent), 1e-9)
    return FidelityReport(params=params, rows=tuple(rows))
