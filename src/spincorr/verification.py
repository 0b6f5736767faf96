"""Verification battery: anchors, internal identities, oracle fits, cross checks.

The battery separates two kinds of outcomes on purpose:

* internal identities (normalization sums, marginal sums, fit residuals)
  are hard requirements; any failure is fatal for the ``verify`` command;
* gaps between computed CHSH values and the published reference figures,
  and fitted-versus-closed-form coefficient verdicts, are informational.
  They are printed side by side and never asserted.
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

    def to_dict(self) -> dict:
        return {
            "model": self.model.value,
            "beta": self.beta,
            "angles_deg": list(self.angles_deg),
            "s_computed": self.s_computed,
            "s_reference": self.s_reference,
            "gap": self.gap,
            "terms": list(self.terms),
        }


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.max_error < self.tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_error": self.max_error,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


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

    def to_dict(self) -> dict:
        return {
            "anchors": [a.to_dict() for a in self.anchors],
            "identities": [c.to_dict() for c in self.identities],
            "consistency": [r.to_dict() for r in self.consistency],
            "cross_oracle": [r.to_dict() for r in self.cross_oracle],
            "identities_pass": self.identities_pass,
            "cross_oracle_agree": self.cross_oracle_agree,
        }


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

    Each closed form is evaluated once per sample on the four normalization
    pairs (chi1, chi2), (chi1+pi, chi2), (chi1, chi2+pi), (chi1+pi, chi2+pi).
    """
    triples = _sample_triples(samples, seed)
    shift1, shift2 = np.array(cf.FOUR_PAIR_SHIFTS).T
    unp_marginal_error = max(abs(cf.marginal_unpolarized(w) - 0.5) for w in (1, 2))
    deviations = np.zeros((len(triples), len(IDENTITY_NAMES)))
    for row, (beta, chi1, chi2) in zip(deviations, triples):
        speed = Speed(beta)
        chi1s, chi2s = chi1 + shift1, chi2 + shift2
        pol = cf.joint(CorrelationModel.POLARIZED, speed, chi1s, chi2s)
        unp = cf.joint(CorrelationModel.UNPOLARIZED, speed, chi1s, chi2s)
        # Python's sum adds in the same order as cf.four_pair_sum.
        row[:] = (
            sum(pol) - 1.0,
            sum(unp) - 1.0,
            sum(cf.f_polarized(speed, chi1s, chi2s)) - cf.n_polarized(speed),
            sum(cf.f_unpolarized(speed, chi1s, chi2s)) - cf.norm_unpolarized(speed),
            pol[0] + pol[2] - cf.marginal1_polarized(speed, chi1),
            pol[0] + pol[1] - cf.marginal2_polarized(speed, chi2),
            max(abs(unp[0] + unp[2] - 0.5), abs(unp[0] + unp[1] - 0.5), unp_marginal_error),
        )
    errors = np.max(np.abs(deviations), axis=0, initial=0.0)
    return [IdentityCheck(name, float(err), tolerance) for name, err in zip(IDENTITY_NAMES, errors)]


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
