"""Closed-form joint spin-correlation probabilities for both setups.

Everything here evaluates printed closed-form expressions directly; the
independent numeric check lives in :mod:`spincorr.oracle`.  Each printed
quantity is one function keyed by :class:`CorrelationModel`: ``intensity``
F, ``norm`` N, ``joint``/``joint_probability`` F/N and ``marginal``.  The
joint probability of finding the emerging spins along directions chi1,
chi2 is F/N, where N sums F over the four angle pairs (chi1, chi2),
(chi1+pi, chi2), (chi1, chi2+pi), (chi1+pi, chi2+pi).

Both printed intensities are first harmonics in each full angle:
n(chi1)^T F n(chi2) with n = (1, cos, sin) and one 3 x 3 matrix F per
speed.  :func:`harmonic` builds F and N for one speed or an array of
speeds, and :func:`law` is the one angle evaluator, for F, for F/N and for
any matrix :func:`harmonic_matrix` folds from a table.  An n x n grid
takes 4n trig calls, and the values equal the printed half-angle forms up
to roundoff.  The marginal of particle i is 1/2 + 2 k_i sin(chi_i) / N,
with k_1 = F[2][0] and k_2 = F[0][2].

The unpolarized law is reported verbatim even where it strays outside
[0, 1]: it goes negative for beta above about 0.52988, the root of
2 - 8 beta^2 + 2 beta^4 + 4 beta^6, first at (chi1, chi2) = (0, pi).  The
``in_range`` flag records it and nothing is clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .kinematics import Speed, rho


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


#: Roundoff (four ulps of 1) by which a joint value may leave [0, 1] and stay in range.
RANGE_SLACK = 4.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class JointProbability:
    value: float
    in_range: bool

    @classmethod
    def of(cls, value: float) -> "JointProbability":
        v = float(value)
        return cls(value=v, in_range=bool(-RANGE_SLACK <= v <= 1.0 + RANGE_SLACK))


def template_coefficients(model: CorrelationModel, beta):
    """The model's printed template coefficients at speed beta; elementwise over an array of speeds.

    Polarized (a, b, c, d), as in :class:`CoefficientSet`; unpolarized
    (w_sin, w_cos, w_const), the weights of its sin^2 term, cos^2 term and
    constant.
    """
    if model is CorrelationModel.POLARIZED:
        r = rho(beta)
        return (
            1.0 - r * r * (1.0 - r) + 2.0 * beta * beta * (1.0 - r * r) ** 2,
            r * (1.0 + r) + 8.0 * beta * beta * r * r,
            1.0 + r * r * (1.0 - r) + 2.0 * beta * (1.0 - r**4),
            r * (1.0 + r),
        )
    if model is CorrelationModel.UNPOLARIZED:
        b2 = beta * beta
        b4 = b2 * b2
        return (2.0 * b4 * (1.0 + 2.0 * b2) - 3.0 * (1.0 + b2), 1.0 + b2 + 2.0 * b4, 5.0 * (1.0 - b2))
    raise ValueError(f"unknown model {model!r}")


def coefficients(speed: Speed) -> CoefficientSet:
    """Evaluate the four polarized template weights at the given speed."""
    return CoefficientSet(speed.rho, *template_coefficients(CorrelationModel.POLARIZED, speed.beta))


def template_matrix(model: CorrelationModel, coeffs):
    """The 3 x 3 harmonic matrix of the model's template with the given coefficients.

    ``coeffs`` is (a, b, c, d) for the polarized two-bracket template and
    (w_sin, w_cos, w_const) for the unpolarized one; the entries broadcast
    like the coefficients.  Polarized: with sigma, delta = (chi1 +- chi2) / 2
    the squared brackets
    (a cos sigma + b sin delta)^2 + (c sin sigma + d cos delta)^2 expand to
    N/4 + ab (sin chi1 - sin chi2) + cd (sin chi1 + sin chi2)
    + (a^2 - c^2)/2 cos(chi1 + chi2) + (d^2 - b^2)/2 cos(chi1 - chi2).
    Unpolarized: sin^2 delta and cos^2 sigma expand the same way.
    """
    if model is CorrelationModel.POLARIZED:
        a, b, c, d = coeffs
        a2, b2, c2, d2 = a**2, b**2, c**2, d**2
        ab, cd = a * b, c * d
        k0, k1, k2 = 0.5 * (a2 + b2 + c2 + d2), ab + cd, cd - ab
        kc, ks = 0.5 * (a2 - b2 - c2 + d2), 0.5 * (c2 + d2 - a2 - b2)
    elif model is CorrelationModel.UNPOLARIZED:
        w_sin, w_cos, w_const = coeffs
        k0, k1, k2 = 0.5 * (w_sin + w_cos) + w_const, 0.0, 0.0
        kc, ks = 0.5 * (w_cos - w_sin), -0.5 * (w_sin + w_cos)
    else:
        raise ValueError(f"unknown model {model!r}")
    return ((k0, 0.0, k2), (0.0, kc, 0.0), (k1, 0.0, ks))


def law(a, chi1, chi2):
    """n(chi1)^T a n(chi2) with n = (1, cos, sin), for any 3 x 3 matrix ``a``; broadcasts.

    ``a`` may be an ndarray, and its entries arrays that broadcast against
    the angles.  Trig is taken once per angle, not per pair, and an outer
    grid is built in place with one temporary of the result's size.
    """
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    c1, s1 = np.cos(chi1), np.sin(chi1)
    c2, s2 = np.cos(chi2), np.sin(chi2)
    out = (a01 + a11 * c1 + a21 * s1) * c2
    out += (a02 + a12 * c1 + a22 * s1) * s2
    out += a00 + a10 * c1 + a20 * s1
    return out


class Harmonic(NamedTuple):
    """A model's intensity: its 3 x 3 harmonic matrix ``f`` and printed normalization ``n``."""

    f: tuple
    n: float

    def joint(self, chi1, chi2):
        f, n = self
        return law([(x / n, y / n, z / n) for x, y, z in f], chi1, chi2)

    def marginal(self, which: int, chi):
        if which not in (1, 2):
            raise ValueError(f"particle index must be 1 or 2, got {which!r}")
        return 0.5 + 2.0 * (self.f[2][0] if which == 1 else self.f[0][2]) * np.sin(chi) / self.n


def harmonic(model: CorrelationModel, beta) -> Harmonic:
    """The harmonic matrix F of the model's intensity at speed beta, and its printed N.

    F is a nested tuple whose entries, like N, are floats for one speed and
    arrays shaped like ``beta`` for an array of speeds.  A batched entry can
    differ from the per-speed one in its last bit, where numpy's vectorized
    power rounds a square apart from C pow.  Polarized
    N = 2(a^2 + b^2 + c^2 + d^2), which is 4 F[0][0] exactly.  Unpolarized
    N = 8(2 - 3 beta^2 + beta^4 + beta^6), positive on [0, 1]: 16 at rest,
    8 at beta = 1 and least, about 5.853, at beta^2 = (sqrt(10) - 1)/3
    (beta about 0.849).
    """
    f = template_matrix(model, template_coefficients(model, beta))
    if model is CorrelationModel.POLARIZED:
        return Harmonic(f, 4.0 * f[0][0])
    b2 = beta * beta
    return Harmonic(f, 8.0 * (2.0 - 3.0 * b2 + b2 * b2 + b2 * b2 * b2))


def intensity(model: CorrelationModel, speed: Speed, chi1, chi2):
    """Unnormalized joint intensity F of either model; broadcasts over angles (radians).

    Polarized: the sum of the squared real and imaginary template brackets
    a cos((chi1+chi2)/2) + b sin((chi1-chi2)/2) and
    c sin((chi1+chi2)/2) + d cos((chi1-chi2)/2).  Unpolarized, verbatim:
    w_sin sin^2((chi1-chi2)/2) + w_cos cos^2((chi1+chi2)/2) + w_const, whose
    sin^2 weight is negative for every beta, so it is not positive definite.
    """
    return law(harmonic(model, speed.beta).f, chi1, chi2)


def norm(model: CorrelationModel, speed: Speed) -> float:
    """Printed normalization N of either model: the four-pair sum of :func:`intensity`."""
    return harmonic(model, speed.beta).n


def joint(model: CorrelationModel, speed: Speed, chi1, chi2):
    """Raw joint probability value for either model; broadcasts over angles."""
    return harmonic(model, speed.beta).joint(chi1, chi2)


def marginal(model: CorrelationModel, speed: Speed, which: int, chi):
    """Single-spin probability of particle ``which`` for either model; broadcasts over angles.

    Equals the defining sum p(chi1, chi2) + p(chi1, chi2 + pi) for particle
    1 (and its mirror for particle 2) at any partner angle.  The unpolarized
    sin weights are zero, so its marginals are exactly one half.
    """
    return harmonic(model, speed.beta).marginal(which, chi)


def joint_probability(model: CorrelationModel, speed: Speed, chi1: float, chi2: float) -> JointProbability:
    """Typed scalar wrapper around :func:`joint`, reported verbatim.

    Polarized values lie in [0, 1] up to roundoff: both brackets vanish
    together on a curve of (beta, chi1, chi2), for example at beta = 0.75538,
    (chi1, chi2) = (264.41, 99.49) degrees, and close to it the harmonic sum
    can round to about -8e-17.  ``in_range`` allows ``RANGE_SLACK`` of
    roundoff either side, so only the unpolarized law, which leaves [0, 1]
    at large beta, is flagged; nothing is clamped or renormalized.
    """
    return JointProbability.of(joint(model, speed, chi1, chi2))


# Three angles are the fewest that fix a first harmonic.
PROBES = np.array([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
PROBES.setflags(write=False)


def harmonic_matrix(table, grid):
    """The 3 x 3 matrix A with table[i, j] = n(grid[i])^T A n(grid[j]), n = (1, cos, sin).

    ``grid`` holds at least three equispaced angles covering the full
    circle; the fold is exact when the table is a first harmonic in each
    angle, as every law here is, and :func:`law` evaluates the result.
    """
    fourier = np.array([np.ones_like(grid), 2.0 * np.cos(grid), 2.0 * np.sin(grid)]) / grid.size
    return fourier @ table @ fourier.T


FOUR_PAIR_SHIFTS = ((0.0, 0.0), (math.pi, 0.0), (0.0, math.pi), (math.pi, math.pi))


def four_pair_sum(fn, chi1, chi2):
    """Sum fn over the four normalization angle pairs starting at (chi1, chi2)."""
    return sum(fn(chi1 + d1, chi2 + d2) for d1, d2 in FOUR_PAIR_SHIFTS)
