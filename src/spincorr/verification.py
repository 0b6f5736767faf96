"""Verification battery: anchors, internal identities, oracle template reads, cross checks.

The battery separates two kinds of outcomes on purpose:

* internal identities (four-pair sums and marginals, read from one
  harmonic matrix per model for all sampled speeds at once, and
  template-read residuals) are hard requirements; any failure is fatal
  for the ``verify`` command;
* gaps between computed CHSH values and the published reference figures,
  and fitted-versus-closed-form coefficient verdicts, are informational.
  They are printed side by side and never asserted.

The reports are plain dataclasses, which :mod:`spincorr.cli` writes field by field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import closed_form as cf
from .chsh import AngleQuad, s_value
from .closed_form import CorrelationModel
from .kinematics import BETA_ORACLE_MAX, Speed
from .oracle import (
    ConsistencyReport,
    CrossOracleReport,
    DEFAULT_COEFF_TOLERANCE,
    TEMPLATE_RESIDUAL_TOLERANCE,
    consistency_report,
    cross_check_unpolarized,
)

IDENTITY_TOLERANCE = 1e-12
SAMPLES_PER_MODEL = 200
SAMPLE_SEED = 20260811
FIT_BETAS = (0.3, 0.6, 0.9)
IDENTITY_NAMES = (
    "polarized four-pair sum equals 1",
    "unpolarized four-pair sum equals 1",
    "polarized normalization equals brute four-pair sum",
    "unpolarized normalization equals brute four-pair sum",
    "polarized marginal 1 equals defining sum",
    "polarized marginal 2 equals defining sum",
    "unpolarized marginals equal one half",
)


@dataclass(frozen=True)
class ReferencePoint:
    """A published CHSH value at a quoted speed and angle quadruple."""

    model: CorrelationModel
    beta: float
    angles_deg: tuple[float, float, float, float]
    s_reference: float


REFERENCE_POINTS = (
    ReferencePoint(CorrelationModel.POLARIZED, 0.9, (0.0, 45.0, 69.0, 200.0), -1.311),
    ReferencePoint(CorrelationModel.UNPOLARIZED, 0.8, (0.0, 45.0, 210.0, 15.0), -1.167),
)


def reference_for(model: CorrelationModel, beta: float, angles_deg) -> ReferencePoint | None:
    for point in REFERENCE_POINTS:
        if (
            point.model is model
            and abs(point.beta - beta) < 1e-12
            and all(abs(a - b) < 1e-9 for a, b in zip(point.angles_deg, angles_deg))
        ):
            return point
    return None


@dataclass(frozen=True)
class AnchorReport:
    model: CorrelationModel
    beta: float
    angles_deg: tuple[float, float, float, float]
    s_computed: float
    s_reference: float
    gap: float
    terms: tuple[float, ...]


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    max_error: float
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", bool(self.max_error < self.tolerance))


@dataclass
class VerificationReport:
    anchors: list[AnchorReport] = field(default_factory=list)
    identities: list[IdentityCheck] = field(default_factory=list)
    consistency: list[ConsistencyReport] = field(default_factory=list)
    cross_oracle: list[CrossOracleReport] = field(default_factory=list)

    @property
    def identities_pass(self) -> bool:
        return all(check.passed for check in self.identities)

    @property
    def cross_oracle_agree(self) -> bool:
        return all(report.agree for report in self.cross_oracle)


def anchor_reports() -> list[AnchorReport]:
    """Evaluate both published reference points from the closed forms."""
    reports = []
    for point in REFERENCE_POINTS:
        result = s_value(
            point.model, Speed(point.beta), AngleQuad.from_degrees(*point.angles_deg)
        )
        reports.append(
            AnchorReport(
                model=point.model,
                beta=point.beta,
                angles_deg=point.angles_deg,
                s_computed=result.s_value,
                s_reference=point.s_reference,
                gap=abs(result.s_value - point.s_reference),
                terms=result.terms,
            )
        )
    return reports


def _sample_triples(count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    cols = rng.uniform(size=(count, 3))
    cols[:, 1:] *= 2.0 * math.pi  # beta stays in [0, 1); angles span [0, 2 pi)
    return cols


def identity_checks(
    samples: int = SAMPLES_PER_MODEL,
    seed: int = SAMPLE_SEED,
    tolerance: float = IDENTITY_TOLERANCE,
) -> list[IdentityCheck]:
    """Normalization and marginal identities over a deterministic sample set.

    Each model's harmonic matrix is built once for all sampled speeds, and
    each closed form is evaluated in one pass over a (4, samples) array of
    the normalization pairs (chi1, chi2), (chi1+pi, chi2), (chi1, chi2+pi),
    (chi1+pi, chi2+pi).
    """
    beta, chi1, chi2 = _sample_triples(samples, seed).T
    shift1, shift2 = np.array(cf.FOUR_PAIR_SHIFTS).T[:, :, np.newaxis]
    chi1s, chi2s = chi1 + shift1, chi2 + shift2
    pol_f = cf.harmonic(CorrelationModel.POLARIZED, beta)
    unp_f = cf.harmonic(CorrelationModel.UNPOLARIZED, beta)
    pol, unp = pol_f.joint(chi1s, chi2s), unp_f.joint(chi1s, chi2s)
    # Python's sum over the pair axis adds in the same order as cf.four_pair_sum.
    deviations = (
        sum(pol) - 1.0,
        sum(unp) - 1.0,
        sum(cf.law(pol_f.f, chi1s, chi2s)) - pol_f.n,
        sum(cf.law(unp_f.f, chi1s, chi2s)) - unp_f.n,
        pol[0] + pol[2] - pol_f.marginal(1, chi1),
        pol[0] + pol[1] - pol_f.marginal(2, chi2),
        np.concatenate((unp[0] + unp[2], unp[0] + unp[1], unp_f.marginal(1, chi1), unp_f.marginal(2, chi2)))
        - 0.5,
    )
    return [
        IdentityCheck(name, float(np.max(np.abs(dev), initial=0.0)), tolerance)
        for name, dev in zip(IDENTITY_NAMES, deviations)
    ]


def fit_checks(
    betas=FIT_BETAS,
    coeff_tolerance: float = DEFAULT_COEFF_TOLERANCE,
    residual_tolerance: float = TEMPLATE_RESIDUAL_TOLERANCE,
) -> tuple[list[IdentityCheck], list[ConsistencyReport]]:
    """Template fits per model and speed; residuals gate, coefficients inform."""
    checks: list[IdentityCheck] = []
    reports: list[ConsistencyReport] = []
    for beta in betas:
        speed = Speed(min(beta, BETA_ORACLE_MAX))
        for model in (CorrelationModel.POLARIZED, CorrelationModel.UNPOLARIZED):
            report = consistency_report(model, speed, tolerance=coeff_tolerance)
            reports.append(report)
            checks.append(
                IdentityCheck(
                    name=f"{model.value} template fit residual at beta={speed.beta:g}",
                    max_error=report.residual,
                    tolerance=residual_tolerance,
                )
            )
    return checks, reports


def cross_checks(betas=FIT_BETAS) -> list[CrossOracleReport]:
    return [cross_check_unpolarized(Speed(min(b, BETA_ORACLE_MAX))) for b in betas]


def run_verification(
    fit_betas=FIT_BETAS,
    coeff_tolerance: float = DEFAULT_COEFF_TOLERANCE,
) -> VerificationReport:
    """Full battery: anchors, identities, fits, cross checks."""
    report = VerificationReport()
    report.anchors = anchor_reports()
    report.identities = identity_checks()
    residual_checks, fit_reports = fit_checks(fit_betas, coeff_tolerance)
    report.identities.extend(residual_checks)
    report.consistency = fit_reports
    report.cross_oracle = cross_checks(fit_betas)
    return report
