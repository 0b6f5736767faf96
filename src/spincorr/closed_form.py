"""Closed-form joint spin-correlation probabilities for both setups.

Everything here evaluates printed closed-form expressions directly; the
independent numeric check lives in :mod:`spincorr.oracle`.  The joint
probability of finding the emerging spins along directions chi1, chi2 is a
normalized ratio F/N where the normalization sums F over the four angle
pairs (chi1, chi2), (chi1+pi, chi2), (chi1, chi2+pi), (chi1+pi, chi2+pi).

The printed forms are written in the half-sum and half-difference angles.
The joint intensities expand those with the angle-addition identities into
products of each angle's own half-angle cos and sin, grouped per axis, so an
outer grid of n x n angle pairs takes 4n trigonometric calls instead of
4n^2.  The values equal the printed forms up to roundoff.

The unpolarized law is reported verbatim even where it strays outside
[0, 1] (which happens for beta above roughly 0.75 in part of the angle
domain); the ``in_range`` flag records it and nothing is clamped.
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


def _half_angle(chi):
    """cos and sin of chi / 2, one pair per angle (not per angle pair)."""
    half = 0.5 * np.asarray(chi)
    return np.cos(half), np.sin(half)


def f_polarized(speed: Speed, chi1, chi2):
    """Unnormalized joint intensity for the polarized setup.

    Sum of the squared real and imaginary template brackets; accepts scalar
    or array angles (radians).  With Ci, Si = cos, sin(chi_i / 2) the real
    bracket a cos((chi1+chi2)/2) + b sin((chi1-chi2)/2) is
    (a C1 + b S1) C2 - (a S1 + b C1) S2, and the imaginary bracket
    c sin((chi1+chi2)/2) + d cos((chi1-chi2)/2) is
    (c S1 + d C1) C2 + (c C1 + d S1) S2.
    """
    cs = coefficients(speed)
    c1, s1 = _half_angle(chi1)
    c2, s2 = _half_angle(chi2)
    real_part = (cs.a * c1 + cs.b * s1) * c2 - (cs.a * s1 + cs.b * c1) * s2
    imag_part = (cs.c * s1 + cs.d * c1) * c2 + (cs.c * c1 + cs.d * s1) * s2
    return real_part**2 + imag_part**2


def n_polarized(speed: Speed) -> float:
    """Normalization 2(a^2 + b^2 + c^2 + d^2); the four-pair sum of f_polarized."""
    cs = coefficients(speed)
    return 2.0 * (cs.a**2 + cs.b**2 + cs.c**2 + cs.d**2)


def p_polarized(speed: Speed, chi1: float, chi2: float) -> JointProbability:
    """Joint probability for the polarized setup; always lands in [0, 1]."""
    return JointProbability.of(f_polarized(speed, chi1, chi2) / n_polarized(speed))


def marginal1_polarized(speed: Speed, chi1):
    """Single-spin probability for the first particle, polarized setup.

    Equals the defining sum p(chi1, chi2) + p(chi1, chi2 + pi) for any chi2.
    """
    cs = coefficients(speed)
    return 0.5 + 2.0 * (cs.a * cs.b + cs.c * cs.d) * np.sin(chi1) / n_polarized(speed)


def marginal2_polarized(speed: Speed, chi2):
    """Single-spin probability for the second particle, polarized setup."""
    cs = coefficients(speed)
    return 0.5 + 2.0 * (cs.c * cs.d - cs.a * cs.b) * np.sin(chi2) / n_polarized(speed)


def unpolarized_coefficients(speed: Speed) -> tuple[float, float, float]:
    """Weights (sin^2 term, cos^2 term, constant) of the unpolarized intensity."""
    b2 = speed.beta * speed.beta
    b4 = b2 * b2
    return (
        2.0 * b4 * (1.0 + 2.0 * b2) - 3.0 * (1.0 + b2),
        1.0 + b2 + 2.0 * b4,
        5.0 * (1.0 - b2),
    )


def f_unpolarized(speed: Speed, chi1, chi2):
    """Unnormalized joint intensity for the unpolarized setup (verbatim form).

    The sin^2 weight is negative for every beta, so this is not positive
    definite; see ``p_unpolarized``.  sin((chi1-chi2)/2) and
    cos((chi1+chi2)/2) are formed from the half-angle cos and sin of each
    angle, as in ``f_polarized``.
    """
    w_sin, w_cos, w_const = unpolarized_coefficients(speed)
    c1, s1 = _half_angle(chi1)
    c2, s2 = _half_angle(chi2)
    sin_half_diff = s1 * c2 - c1 * s2
    cos_half_sum = c1 * c2 - s1 * s2
    return w_sin * sin_half_diff**2 + w_cos * cos_half_sum**2 + w_const


def norm_unpolarized(speed: Speed) -> float:
    """Normalization 8(2 - 3 beta^2 + beta^4 + beta^6); minimum 8 at beta = 1."""
    b2 = speed.beta * speed.beta
    return 8.0 * (2.0 - 3.0 * b2 + b2 * b2 + b2 * b2 * b2)


def p_unpolarized(speed: Speed, chi1: float, chi2: float) -> JointProbability:
    """Joint probability for the unpolarized setup, reported verbatim.

    Out-of-range values (possible at large beta) are flagged via
    ``in_range`` and never clamped or renormalized.
    """
    return JointProbability.of(f_unpolarized(speed, chi1, chi2) / norm_unpolarized(speed))


def marginal_unpolarized(which: int = 1) -> float:
    """Single-spin probability for either particle in the unpolarized setup.

    Exactly one half, independent of speed and angle.
    """
    if which not in (1, 2):
        raise ValueError(f"particle index must be 1 or 2, got {which!r}")
    return 0.5


def joint(model: CorrelationModel, speed: Speed, chi1, chi2):
    """Raw joint probability value for either model; broadcasts over angles."""
    if model is CorrelationModel.POLARIZED:
        return f_polarized(speed, chi1, chi2) / n_polarized(speed)
    if model is CorrelationModel.UNPOLARIZED:
        return f_unpolarized(speed, chi1, chi2) / norm_unpolarized(speed)
    raise ValueError(f"unknown model {model!r}")


def marginal(model: CorrelationModel, speed: Speed, which: int, chi):
    """Raw single-spin probability for either model; broadcasts over angles."""
    if which not in (1, 2):
        raise ValueError(f"particle index must be 1 or 2, got {which!r}")
    if model is CorrelationModel.POLARIZED:
        fn = marginal1_polarized if which == 1 else marginal2_polarized
        return fn(speed, chi)
    if model is CorrelationModel.UNPOLARIZED:
        return np.broadcast_to(0.5, np.shape(chi)) if np.ndim(chi) else 0.5
    raise ValueError(f"unknown model {model!r}")


def joint_probability(model: CorrelationModel, speed: Speed, chi1: float, chi2: float) -> JointProbability:
    """Typed scalar wrapper around :func:`joint`."""
    return JointProbability.of(joint(model, speed, chi1, chi2))


FOUR_PAIR_SHIFTS = ((0.0, 0.0), (math.pi, 0.0), (0.0, math.pi), (math.pi, math.pi))


def four_pair_sum(fn, chi1, chi2):
    """Sum fn over the four normalization angle pairs starting at (chi1, chi2)."""
    return sum(fn(chi1 + d1, chi2 + d2) for d1, d2 in FOUR_PAIR_SHIFTS)
