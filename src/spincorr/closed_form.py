"""Closed-form joint spin-correlation probabilities for both setups.

Everything here evaluates printed closed-form expressions directly; the
independent numeric check lives in :mod:`spincorr.oracle`.  Each printed
quantity is one function keyed by :class:`CorrelationModel`: ``intensity``
F, ``norm`` N, ``joint``/``joint_probability`` F/N and ``marginal``.  The
joint probability of finding the emerging spins along directions chi1,
chi2 is F/N, where N sums F over the four angle pairs (chi1, chi2),
(chi1+pi, chi2), (chi1, chi2+pi), (chi1+pi, chi2+pi).

Both printed intensities are first harmonics in each full angle.  They
are evaluated as

    f = k0 + k1 sin chi1 + k2 sin chi2 + kc cos chi1 cos chi2 + ks sin chi1 sin chi2,

with five weights per speed, so an outer grid of n x n angle pairs takes
4n trigonometric calls and a few passes over the n x n result.  The values
equal the printed half-angle forms up to roundoff.  The marginal of
particle i is 1/2 + 2 k_i sin(chi_i) / N for both models.

The unpolarized law is reported verbatim even where it strays outside
[0, 1]: it goes negative for beta above about 0.52988, the root of
2 - 8 beta^2 + 2 beta^4 + 4 beta^6, first at (chi1, chi2) = (0, pi).  The
``in_range`` flag records it and nothing is clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .kinematics import Speed


class CorrelationModel(Enum):
    POLARIZED = "polarized"
    UNPOLARIZED = "unpolarized"


@dataclass(frozen=True)
class CoefficientSet:
    """Speed-dependent weights of the polarized amplitude template.

    ``a`` multiplies cos((chi1+chi2)/2) and ``b`` sin((chi1-chi2)/2) in the
    real bracket; ``c`` and ``d`` multiply sin((chi1+chi2)/2) and
    cos((chi1-chi2)/2) in the imaginary bracket.
    """

    rho: float
    a: float
    b: float
    c: float
    d: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class JointProbability:
    value: float
    in_range: bool

    @classmethod
    def of(cls, value: float) -> "JointProbability":
        v = float(value)
        return cls(value=v, in_range=bool(0.0 <= v <= 1.0))


def coefficients(speed: Speed) -> CoefficientSet:
    """Evaluate the four polarized template weights at the given speed."""
    b = speed.beta
    r = speed.rho
    return CoefficientSet(
        rho=r,
        a=1.0 - r * r * (1.0 - r) + 2.0 * b * b * (1.0 - r * r) ** 2,
        b=r * (1.0 + r) + 8.0 * b * b * r * r,
        c=1.0 + r * r * (1.0 - r) + 2.0 * b * (1.0 - r**4),
        d=r * (1.0 + r),
    )


def _harmonic(weights, chi1, chi2):
    """k0 + k1 s1 + k2 s2 + kc c1 c2 + ks s1 s2 with ci, si = cos, sin(chi_i); broadcasts.

    Trig is taken once per angle, not per pair, and an outer grid is built
    in place with one temporary of the result's size.
    """
    k0, k1, k2, kc, ks = weights
    c1, s1 = np.cos(chi1), np.sin(chi1)
    c2, s2 = np.cos(chi2), np.sin(chi2)
    out = (kc * c1) * c2
    out += (ks * s1 + k2) * s2
    out += k0 + k1 * s1
    return out


def _template_weights(model: CorrelationModel, coeffs):
    """Harmonic weights (k0, k1, k2, kc, ks) of a template with the given coefficients.

    ``coeffs`` is (a, b, c, d) for the polarized two-bracket template and
    (w_sin, w_cos, w_const) for the unpolarized one.  Polarized: with
    sigma, delta = (chi1 +- chi2) / 2 the squared brackets
    (a cos sigma + b sin delta)^2 + (c sin sigma + d cos delta)^2 expand to
    N/4 + ab (sin chi1 - sin chi2) + cd (sin chi1 + sin chi2)
    + (a^2 - c^2)/2 cos(chi1 + chi2) + (d^2 - b^2)/2 cos(chi1 - chi2).
    Unpolarized: sin^2 delta and cos^2 sigma expand the same way.
    """
    if model is CorrelationModel.POLARIZED:
        a, b, c, d = coeffs
        a2, b2, c2, d2 = a**2, b**2, c**2, d**2
        ab, cd = a * b, c * d
        return (
            0.5 * (a2 + b2 + c2 + d2), ab + cd, cd - ab, 0.5 * (a2 - b2 - c2 + d2), 0.5 * (c2 + d2 - a2 - b2)
        )
    if model is CorrelationModel.UNPOLARIZED:
        w_sin, w_cos, w_const = coeffs
        return (0.5 * (w_sin + w_cos) + w_const, 0.0, 0.0, 0.5 * (w_cos - w_sin), -0.5 * (w_sin + w_cos))
    raise ValueError(f"unknown model {model!r}")


def _weights(model: CorrelationModel, speed: Speed):
    """Harmonic weights of the model's intensity F at this speed, and its printed normalization N.

    Polarized N = 2(a^2 + b^2 + c^2 + d^2).  Unpolarized
    N = 8(2 - 3 beta^2 + beta^4 + beta^6), positive on [0, 1]: 16 at rest,
    8 at beta = 1 and least, about 5.853, at beta^2 = (sqrt(10) - 1)/3
    (beta about 0.849).
    """
    if model is CorrelationModel.POLARIZED:
        cs = coefficients(speed)
        return _template_weights(model, cs.as_tuple()), 2.0 * (cs.a**2 + cs.b**2 + cs.c**2 + cs.d**2)
    if model is CorrelationModel.UNPOLARIZED:
        b2 = speed.beta * speed.beta
        return (
            _template_weights(model, unpolarized_coefficients(speed)),
            8.0 * (2.0 - 3.0 * b2 + b2 * b2 + b2 * b2 * b2),
        )
    raise ValueError(f"unknown model {model!r}")


def template_value(model: CorrelationModel, coeffs, chi1, chi2):
    """Evaluate the model's template with the given coefficients; broadcasts over angles.

    ``coeffs`` is (a, b, c, d) for the polarized template and
    (w_sin, w_cos, w_const) for the unpolarized one.
    """
    return _harmonic(_template_weights(model, coeffs), chi1, chi2)


def unpolarized_coefficients(speed: Speed) -> tuple[float, float, float]:
    """Weights (sin^2 term, cos^2 term, constant) of the unpolarized intensity."""
    b2 = speed.beta * speed.beta
    b4 = b2 * b2
    return (
        2.0 * b4 * (1.0 + 2.0 * b2) - 3.0 * (1.0 + b2),
        1.0 + b2 + 2.0 * b4,
        5.0 * (1.0 - b2),
    )


def intensity(model: CorrelationModel, speed: Speed, chi1, chi2):
    """Unnormalized joint intensity F of either model; broadcasts over angles (radians).

    Polarized: the sum of the squared real and imaginary template brackets
    a cos((chi1+chi2)/2) + b sin((chi1-chi2)/2) and
    c sin((chi1+chi2)/2) + d cos((chi1-chi2)/2).  Unpolarized, verbatim:
    w_sin sin^2((chi1-chi2)/2) + w_cos cos^2((chi1+chi2)/2) + w_const, whose
    sin^2 weight is negative for every beta, so it is not positive definite.
    """
    return _harmonic(_weights(model, speed)[0], chi1, chi2)


def norm(model: CorrelationModel, speed: Speed) -> float:
    """Printed normalization N of either model: the four-pair sum of :func:`intensity`."""
    return _weights(model, speed)[1]


def joint(model: CorrelationModel, speed: Speed, chi1, chi2):
    """Raw joint probability value for either model; broadcasts over angles."""
    weights, norm = _weights(model, speed)
    return _harmonic([w / norm for w in weights], chi1, chi2)


def marginal(model: CorrelationModel, speed: Speed, which: int, chi):
    """Single-spin probability of particle ``which`` for either model; broadcasts over angles.

    Equals the defining sum p(chi1, chi2) + p(chi1, chi2 + pi) for particle
    1 (and its mirror for particle 2) at any partner angle.  The unpolarized
    sin weights are zero, so its marginals are exactly one half.
    """
    if which not in (1, 2):
        raise ValueError(f"particle index must be 1 or 2, got {which!r}")
    weights, n = _weights(model, speed)
    return 0.5 + 2.0 * weights[which] * np.sin(chi) / n


def joint_probability(model: CorrelationModel, speed: Speed, chi1: float, chi2: float) -> JointProbability:
    """Typed scalar wrapper around :func:`joint`, reported verbatim.

    Polarized values lie in [0, 1] up to roundoff: both brackets vanish
    together on a curve of (beta, chi1, chi2), for example at beta = 0.75526,
    (chi1, chi2) = (264.6, 99.1) degrees, and close to it the harmonic sum
    can round to about -1e-16.  Unpolarized values leave [0, 1] at large
    beta.  ``in_range`` flags both; nothing is clamped or renormalized.
    """
    return JointProbability.of(joint(model, speed, chi1, chi2))


# Three angles are the fewest that fix a first harmonic.
PROBES = np.array([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
PROBES.setflags(write=False)


def harmonic_matrix(table, grid):
    """The 3 x 3 matrix A with table[i, j] = n(grid[i])^T A n(grid[j]), n = (1, cos, sin).

    ``grid`` holds at least three equispaced angles covering the full
    circle; the fold is exact when the table is a first harmonic in each
    angle, as every law here is.
    """
    fourier = np.array([np.ones_like(grid), 2.0 * np.cos(grid), 2.0 * np.sin(grid)]) / grid.size
    return fourier @ table @ fourier.T


FOUR_PAIR_SHIFTS = ((0.0, 0.0), (math.pi, 0.0), (0.0, math.pi), (math.pi, math.pi))


def four_pair_sum(fn, chi1, chi2):
    """Sum fn over the four normalization angle pairs starting at (chi1, chi2)."""
    return sum(fn(chi1 + d1, chi2 + d2) for d1, d2 in FOUR_PAIR_SHIFTS)
