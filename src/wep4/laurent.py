"""Sparse Laurent polynomial algebra over complex coefficients.

All holomorphic data in this package (Weierstrass triples, the null-curve
1-form, its closed-form antiderivatives) are finite Laurent polynomials in
one complex variable, stored sparsely as exponent -> coefficient maps.
Keeping the algebra exact at the coefficient level is what lets the rest of
the package check closed forms by structural equality instead of sampling.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "LaurentPoly",
    "LaurentDomainError",
    "NonFiniteCoefficientError",
    "NonIntegrableTermError",
    "ZERO",
    "ONE",
    "IDENTITY",
    "accurate_sum",
    "evaluate",
]


class LaurentDomainError(ZeroDivisionError):
    """A polynomial with negative exponents was evaluated at the puncture 0."""


class NonFiniteCoefficientError(ValueError):
    """A coefficient is infinite or NaN, for example after an overflow."""


class NonIntegrableTermError(ValueError):
    """An antiderivative was requested for an exponent -1 term.

    Integrating w**-1 produces a logarithm, which is not representable in
    this algebra.
    """


def accurate_sum(values: Iterable):
    """Sum real or complex scalars exactly rounded, or arrays elementwise.

    Scalars go through math.fsum (componentwise for complex values), so
    algebraic cancellations come out as true zeros.  Arrays (an ndarray
    first value) go through a cascade of error-free TwoSum steps (Ogita,
    Rump & Oishi's Sum2), taken one term at a time: each step's rounding
    error is recovered exactly and added back at the end, which makes exact
    cancellations zeros there too.  Complex addition is componentwise, so
    TwoSum holds on complex arrays as is.
    """
    terms = iter(values)
    total = next(terms, 0.0)
    if not isinstance(total, np.ndarray):
        vals = [total, *terms]
        if any(isinstance(v, complex) for v in vals):
            return complex(math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals))
        return math.fsum(vals)
    error = 0.0
    for term in terms:
        s = total + term
        z = s - total
        error = error + ((total - (s - z)) + (term - z))
        total = s
    return total + error


class LaurentPoly:
    """Immutable sparse Laurent polynomial with complex double coefficients.

    Coefficients with exact value 0 are dropped on construction, so ``==``
    is structural equality of the canonical form.  Scalar evaluation uses
    exactly rounded (fsum) accumulation so that algebraic cancellations
    come out as true zeros; ndarray evaluation is the vectorized bulk path,
    compensated so that exact cancellations come out as zeros there too.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, complex] | None = None):
        clean: dict[int, complex] = {}
        if terms:
            for k in sorted(terms):
                c = complex(terms[k])
                if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                    raise NonFiniteCoefficientError(f"non-finite coefficient at exponent {k}")
                if c != 0:
                    clean[int(k)] = c
        self._terms = clean

    @classmethod
    def monomial(cls, exponent: int, coeff: complex = 1.0) -> "LaurentPoly":
        return cls({exponent: coeff})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __iter__(self):
        return iter(self._terms.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly({self._terms!r})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0.0) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            out: dict[int, complex] = {}
            for k, a in self._terms.items():
                for j, b in other._terms.items():
                    e = k + j
                    out[e] = out.get(e, 0.0) + a * b
            return LaurentPoly(out)
        c = complex(other)
        return LaurentPoly({k: c * v for k, v in self._terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    # -- calculus -----------------------------------------------------------

    def derivative(self) -> "LaurentPoly":
        """Termwise derivative; constant terms vanish."""
        return LaurentPoly({k - 1: k * c for k, c in self._terms.items() if k != 0})

    def antiderivative(self) -> "LaurentPoly":
        """Termwise antiderivative with integration constant 0.

        Raises NonIntegrableTermError if an exponent -1 term is present.
        """
        if -1 in self._terms:
            raise NonIntegrableTermError(
                "exponent -1 integrates to a logarithm, not a Laurent polynomial"
            )
        return LaurentPoly({k + 1: c / (k + 1) for k, c in self._terms.items()})

    # -- evaluation ----------------------------------------------------------

    def __call__(self, w):
        """Evaluate at a complex scalar or at an ndarray of complex points.

        Scalar evaluation accumulates with fsum (exactly rounded sum of the
        term values); an ndarray goes to evaluate, which sums the same terms
        with a cascade of error-free TwoSum steps (see accurate_sum).
        Evaluation at 0 raises LaurentDomainError when negative exponents are
        present.
        """
        if isinstance(w, np.ndarray):
            return evaluate((self,), w)[0]
        w = complex(w)
        if not self._terms:
            return 0j
        if w == 0 and min(self._terms) < 0:
            raise LaurentDomainError("evaluation at the puncture w = 0")
        return accurate_sum(c * w**k for k, c in self._terms.items())

    def envelope(self, radius):
        """Upper bound sum(|c_k| * radius**k) on |self| at that radius, a scale
        for error tolerances; ``radius`` may be an ndarray, whose shape the
        result keeps (zeros for the zero polynomial).  |c_k| counts as at least
        2^-1022, as a subnormal's rounding error is absolute, eps 2^-1022."""
        if not self._terms:
            return 0.0 * radius
        return accurate_sum(max(abs(c), 2.0**-1022) * radius**k for k, c in self._terms.items())


def evaluate(polys, w, real: bool = False) -> list:
    """Several polynomials at one set of points w, a complex scalar or an ndarray.

    At a scalar each polynomial takes its own exact fsum path (__call__).
    Over an ndarray each power w**k is computed once for all of them, never
    as a temporary that numpy could reuse in place (from 256 kB), which
    rounds c * w**k differently; each value is the accurate_sum of its terms,
    streamed, so it has the bits of its polynomial alone at any array length.
    real=True gives the real parts, over an ndarray summed from the terms'
    real parts: TwoSum is componentwise, so that is the real part of the
    complex sum, bit for bit.  Raises LaurentDomainError if w is or holds 0
    and a polynomial has negative exponents.
    """
    if not isinstance(w, np.ndarray):
        return [p(w).real if real else p(w) for p in polys]
    w = w.astype(complex, copy=False)
    exponents = {k for p in polys for k in p._terms}
    if exponents and min(exponents) < 0 and np.any(w == 0):
        raise LaurentDomainError("evaluation at the puncture w = 0")
    powers = {k: w**k for k in exponents}
    values = []
    for p in polys:
        terms = (c * powers[k] for k, c in p._terms.items())
        if real:
            terms = (t.real for t in terms)
        values.append(accurate_sum(terms) if p._terms
                      else np.zeros(w.shape, float if real else complex))
    return values


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1.0})
IDENTITY = LaurentPoly({1: 1.0})
