"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines and the informational tables (fitted-versus-closed-form
coefficients, computed-versus-published CHSH values).
"""

import json
import math
import time

import numpy as np
import pytest

from spincorr.chsh import AngleQuad, SearchSettings, beta_scan, s_value
from spincorr.cli import main
from spincorr.closed_form import (
    CorrelationModel,
    intensity,
    joint,
    marginal,
    norm,
    template_coefficients,
)
from spincorr.dirac import FourVector, slash
from spincorr.kinematics import Speed
from spincorr.oracle import (
    cross_check_unpolarized,
    fit_polarized,
    fit_unpolarized,
)

from reference import METRIC, four_pair_sum, gamma, trace_product

# Pre-build regression pins: six-term evaluation of the closed-form joint
# probabilities and marginals at the published angle quadruples, computed
# independently before this package existed (float64, confirmed to 40
# digits).  The published values are -1.311 and -1.167; the gap is
# reported, never asserted.
PINNED_S_POLARIZED_09 = -0.8085870561003567
PINNED_S_UNPOLARIZED_08 = -1.3063175651621299
PUBLISHED_S_POLARIZED_09 = -1.311
PUBLISHED_S_UNPOLARIZED_08 = -1.167

SAMPLE_SEED = 20260811
FIT_BETAS = (0.2, 0.5, 0.8)
CI_SETTINGS = SearchSettings(grid_step_deg=15.0)


def _report(number: int, passed: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number}: {status} - {detail} ({elapsed:.2f} s)")


def _samples(count: int = 200):
    rng = np.random.default_rng(SAMPLE_SEED)
    return zip(
        rng.uniform(0.0, 1.0, size=count),
        rng.uniform(0.0, 2.0 * math.pi, size=count),
        rng.uniform(0.0, 2.0 * math.pi, size=count),
    )


def test_criterion_1_normalization_identities():
    start = time.monotonic()
    worst_pair = 0.0
    worst_norm = 0.0
    for beta, chi1, chi2 in _samples():
        speed = Speed(beta)
        for model in CorrelationModel:
            total = four_pair_sum(lambda a, c: joint(model, speed, a, c), chi1, chi2)
            worst_pair = max(worst_pair, abs(total - 1.0))
            brute = four_pair_sum(lambda a, c: intensity(model, speed, a, c), chi1, chi2)
            worst_norm = max(worst_norm, abs(brute - norm(model, speed)) / norm(model, speed))
    elapsed = time.monotonic() - start
    passed = worst_pair < 1e-12 and worst_norm < 1e-12 and elapsed < 1.0
    _report(1, passed, f"four-pair sums (max {worst_pair:.2e}), "
                       f"normalizations vs brute force (max {worst_norm:.2e})", elapsed)
    assert worst_pair < 1e-12
    assert worst_norm < 1e-12
    assert elapsed < 1.0


def test_criterion_2_marginal_identities():
    start = time.monotonic()
    worst = 0.0
    exact_half = True
    for beta, chi1, chi2 in _samples():
        speed = Speed(beta)
        for model in CorrelationModel:
            p = lambda a, c: joint(model, speed, a, c)
            worst = max(
                worst,
                abs(p(chi1, chi2) + p(chi1, chi2 + math.pi) - marginal(model, speed, 1, chi1)),
                abs(p(chi1, chi2) + p(chi1 + math.pi, chi2) - marginal(model, speed, 2, chi2)),
            )
        unp = CorrelationModel.UNPOLARIZED
        exact_half = exact_half and marginal(unp, speed, 1, chi1) == marginal(unp, speed, 2, chi2) == 0.5
    elapsed = time.monotonic() - start
    passed = worst < 1e-12 and exact_half and elapsed < 1.0
    _report(2, passed, f"marginal closed forms vs defining sums (max {worst:.2e}), "
                       f"unpolarized marginals exactly 0.5", elapsed)
    assert worst < 1e-12
    assert exact_half
    assert elapsed < 1.0


def test_criterion_3_dirac_identity_suite():
    start = time.monotonic()
    eye = np.eye(4)
    worst_anti = 0.0
    for mu in range(4):
        for nu in range(4):
            anti = gamma(mu) @ gamma(nu) + gamma(nu) @ gamma(mu)
            worst_anti = max(worst_anti, float(np.max(np.abs(anti - 2.0 * METRIC[mu, nu] * eye))))
    rng = np.random.default_rng(SAMPLE_SEED)
    worst_slash = 0.0
    worst_trace = 0.0
    for _ in range(100):
        p = FourVector(*rng.uniform(-3.0, 3.0, size=4))
        q = FourVector(*rng.uniform(-3.0, 3.0, size=4))
        square = slash(p) @ slash(p)
        scale = max(1.0, abs(p.norm2()))
        worst_slash = max(worst_slash, float(np.max(np.abs(square - p.norm2() * eye))) / scale)
        tr = trace_product([slash(p), slash(q)])
        worst_trace = max(worst_trace, abs(tr - 4.0 * p.dot(q)) / max(1.0, abs(4.0 * p.dot(q))))
    elapsed = time.monotonic() - start
    passed = worst_anti < 1e-14 and worst_slash < 1e-12 and worst_trace < 1e-12 and elapsed < 1.0
    _report(3, passed, f"anticommutation (max {worst_anti:.1e}), slash^2 (max {worst_slash:.1e}), "
                       f"pair traces (max {worst_trace:.1e})", elapsed)
    assert worst_anti < 1e-14
    assert worst_slash < 1e-12
    assert worst_trace < 1e-12
    assert elapsed < 1.0


def test_criterion_4_oracle_functional_form():
    start = time.monotonic()
    rows = []
    worst = 0.0
    for beta in FIT_BETAS:
        speed = Speed(beta)
        pol = fit_polarized(speed)
        unp = fit_unpolarized(speed)
        worst = max(worst, pol.rel_residual, unp.rel_residual)
        rows.append((beta, pol, unp))
    elapsed = time.monotonic() - start
    passed = worst < 1e-9 and elapsed < 10.0
    _report(4, passed, f"template fit residuals on disjoint grids (max {worst:.2e})", elapsed)
    print("  fitted-vs-closed-form tables (informational):")
    for beta, pol, unp in rows:
        for model, fit in ((CorrelationModel.POLARIZED, pol), (CorrelationModel.UNPOLARIZED, unp)):
            print(f"    beta={beta}: {model.value} fitted/scale="
                  f"{tuple(round(c / fit.scale, 6) for c in fit.coefficients)} "
                  f"closed-form={tuple(round(c, 6) for c in template_coefficients(model, beta))}")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_5_cross_oracle_agreement(capsys):
    start = time.monotonic()
    reports = [cross_check_unpolarized(Speed(beta)) for beta in FIT_BETAS]
    elapsed = time.monotonic() - start
    if all(r.agree for r in reports):
        _report(5, elapsed < 10.0, "trace expression matches spin average up to scale", elapsed)
        assert elapsed < 10.0
        return
    # Disagreement branch: the deviation table must be emitted and the
    # dedicated diagnostic flag must exit nonzero.
    with capsys.disabled():
        print()
        print("  cross-oracle deviation table (trace expression vs spin average):")
        for r in reports:
            print(f"    beta={r.beta:g}: scale={r.scale:+.6e} "
                  f"max_rel_deviation={r.max_rel_deviation:.3e} agree={r.agree}")
    code = main(["verify", "--strict-cross-oracle", "--out", "/dev/null"])
    elapsed = time.monotonic() - start
    passed = code != 0 and elapsed < 10.0
    _report(5, passed, "oracles disagree; deviation table emitted and strict flag exits nonzero",
            elapsed)
    assert code != 0
    assert elapsed < 10.0


def test_criterion_6_anchor_reproduction():
    start = time.monotonic()
    pol = s_value(CorrelationModel.POLARIZED, Speed(0.9), AngleQuad.from_degrees(0, 45, 69, 200))
    unp = s_value(CorrelationModel.UNPOLARIZED, Speed(0.8), AngleQuad.from_degrees(0, 45, 210, 15))
    elapsed = time.monotonic() - start
    pinned_ok = (
        abs(pol.s_value - PINNED_S_POLARIZED_09) < 1e-9
        and abs(unp.s_value - PINNED_S_UNPOLARIZED_08) < 1e-9
    )
    _report(6, pinned_ok, "computed anchors match pre-build pins at 1e-9", elapsed)
    print(f"  polarized beta=0.9 (0,45,69,200) deg: computed S = {pol.s_value!r}, "
          f"published {PUBLISHED_S_POLARIZED_09}, gap {abs(pol.s_value - PUBLISHED_S_POLARIZED_09):.6f} "
          f"(informational)")
    print(f"  unpolarized beta=0.8 (0,45,210,15) deg: computed S = {unp.s_value!r}, "
          f"published {PUBLISHED_S_UNPOLARIZED_08}, gap {abs(unp.s_value - PUBLISHED_S_UNPOLARIZED_08):.6f} "
          f"(informational)")
    assert pol.s_value == pytest.approx(PINNED_S_POLARIZED_09, abs=1e-9)
    assert unp.s_value == pytest.approx(PINNED_S_UNPOLARIZED_08, abs=1e-9)


def test_criterion_7_violation_existence():
    start = time.monotonic()
    rows = beta_scan(CorrelationModel.UNPOLARIZED, [Speed(0.8)], CI_SETTINGS)
    elapsed = time.monotonic() - start
    row = rows[0]
    dominates = row.s_value <= PINNED_S_UNPOLARIZED_08 + 1e-12
    flag_ok = row.violated == (PINNED_S_UNPOLARIZED_08 < -1.0 or row.s_value < -1.0 or row.s_value > 0.0)
    passed = dominates and row.violated and elapsed < 10.0
    _report(7, passed, f"searched S = {row.s_value:.6f} <= pinned anchor "
                       f"{PINNED_S_UNPOLARIZED_08:.6f}, violated = {row.violated}", elapsed)
    assert dominates
    assert row.violated  # the pinned anchor is below -1
    assert flag_ok
    assert elapsed < 10.0


def test_criterion_8_determinism(tmp_path):
    start = time.monotonic()
    verify_paths = [tmp_path / "verify_a.json", tmp_path / "verify_b.json"]
    scan_paths = [tmp_path / "scan_a.csv", tmp_path / "scan_b.csv"]
    json_paths = [tmp_path / "scan_a.json", tmp_path / "scan_b.json"]
    for vp, sp, jp in zip(verify_paths, scan_paths, json_paths):
        assert main(["verify", "--format", "json", "--out", str(vp)]) == 0
        assert main([
            "scan", "--model", "unpolarized", "--beta-range", "0:0.9:0.3",
            "--grid-step", "15", "--out", str(sp),
        ]) == 0
        assert main([
            "scan", "--model", "polarized", "--beta-range", "0:0.9:0.3",
            "--grid-step", "15", "--format", "json", "--out", str(jp),
        ]) == 0
    same = (
        verify_paths[0].read_bytes() == verify_paths[1].read_bytes()
        and scan_paths[0].read_bytes() == scan_paths[1].read_bytes()
        and json_paths[0].read_bytes() == json_paths[1].read_bytes()
    )
    elapsed = time.monotonic() - start
    _report(8, same, "consecutive verify + scan runs are byte-identical", elapsed)
    assert same
    # sanity: the verify report parses and its identity battery passed
    report = json.loads(verify_paths[0].read_text())
    assert report["identities_pass"] is True
