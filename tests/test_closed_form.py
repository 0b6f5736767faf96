import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincorr import closed_form, verification
from spincorr.closed_form import (
    RANGE_SLACK,
    CoefficientSet,
    CorrelationModel,
    JointProbability,
    coefficients,
    harmonic_matrix,
    intensity,
    joint,
    joint_probability,
    law,
    marginal,
    norm,
    template_coefficients,
)
from spincorr.closed_form import harmonic as harmonic_of

from reference import four_pair_sum
from spincorr.kinematics import Speed, rho

POL, UNP = CorrelationModel.POLARIZED, CorrelationModel.UNPOLARIZED

betas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
angles = st.floats(min_value=-4.0 * math.pi, max_value=4.0 * math.pi, allow_nan=False)

# Frozen by independent transcription of the closed forms (double precision,
# cross-checked at 40-digit precision).
COEFFS_09 = (1.4505326418314373, 3.565415154993201, 2.6688048661219135, 1.0196534646582776)
COEFFS_06 = (1.4948148148148148, 0.7644444444444444, 2.2592592592592595, 0.4444444444444444)
N_09 = 45.95688554779863
P_09_0_45 = 0.0838897578353037


class TestCoefficients:
    def test_rest_frame(self):
        assert template_coefficients(POL, 0.0) == (1.0, 0.0, 1.0, 0.0)
        assert coefficients(Speed(0.0)) == CoefficientSet(0.0, 1.0, 0.0, 1.0, 0.0)

    def test_lightlike(self):
        assert template_coefficients(POL, 1.0) == (1.0, 10.0, 1.0, 2.0)

    def test_frozen_values(self):
        assert template_coefficients(POL, 0.9) == pytest.approx(COEFFS_09, rel=1e-12)
        assert template_coefficients(POL, 0.6) == pytest.approx(COEFFS_06, rel=1e-12)
        assert coefficients(Speed(0.6)).rho == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_d_equals_b_minus_shared_term(self):
        for b in np.linspace(0.0, 1.0, 41):
            cs = coefficients(Speed(b))
            assert cs.d == pytest.approx(cs.b - 8.0 * b * b * cs.rho**2, abs=1e-12)

    def test_derivatives_match_finite_differences(self):
        """Central finite differences against analytic derivatives of the
        same polynomials, built independently with sympy."""
        sp = pytest.importorskip("sympy")
        x = sp.symbols("x", positive=True)
        r = x / (1 + sp.sqrt(1 - x**2))
        exprs = (
            1 - r**2 * (1 - r) + 2 * x**2 * (1 - r**2) ** 2,
            r * (1 + r) + 8 * x**2 * r**2,
            1 + r**2 * (1 - r) + 2 * x * (1 - r**4),
            r * (1 + r),
        )
        derivs = [sp.lambdify(x, sp.diff(e, x), "math") for e in exprs]
        step = 1e-5
        for b in np.linspace(0.05, 0.95, 19):
            up = template_coefficients(POL, b + step)
            down = template_coefficients(POL, b - step)
            for i, dfun in enumerate(derivs):
                fd = (up[i] - down[i]) / (2.0 * step)
                assert fd == pytest.approx(dfun(b), abs=1e-6)


class TestPolarizedIntensity:
    @given(angles, angles)
    def test_rest_frame_is_constant_one(self, chi1, chi2):
        assert intensity(POL, Speed(0.0), chi1, chi2) == pytest.approx(1.0, abs=1e-12)

    @given(betas, angles, angles)
    def test_two_pi_periodic_in_each_angle(self, b, chi1, chi2):
        speed = Speed(b)
        base = intensity(POL, speed, chi1, chi2)
        assert intensity(POL, speed, chi1 + 2.0 * math.pi, chi2) == pytest.approx(base, abs=1e-10)
        assert intensity(POL, speed, chi1, chi2 + 2.0 * math.pi) == pytest.approx(base, abs=1e-10)

    @given(betas, angles, angles)
    def test_four_pair_sum_matches_normalization(self, b, chi1, chi2):
        speed = Speed(b)
        brute = four_pair_sum(lambda a, c: intensity(POL, speed, a, c), chi1, chi2)
        cs = coefficients(speed)
        expected = 2.0 * (cs.a**2 + cs.b**2 + cs.c**2 + cs.d**2)
        assert brute == pytest.approx(expected, rel=1e-12)
        assert norm(POL, speed) == pytest.approx(expected, rel=1e-15)

    def test_exchange_structure_under_joint_pi_shift(self):
        # Shifting both angles by pi flips the sign of the sum-angle terms
        # inside each bracket while the difference-angle terms survive.
        speed = Speed(0.73)
        cs = coefficients(speed)
        rng = np.random.default_rng(41)
        for chi1, chi2 in rng.uniform(0, 2 * math.pi, size=(25, 2)):
            half_sum = 0.5 * (chi1 + chi2)
            half_diff = 0.5 * (chi1 - chi2)
            expected = (-cs.a * math.cos(half_sum) + cs.b * math.sin(half_diff)) ** 2 + (
                -cs.c * math.sin(half_sum) + cs.d * math.cos(half_diff)
            ) ** 2
            shifted = intensity(POL, speed, chi1 + math.pi, chi2 + math.pi)
            assert shifted == pytest.approx(expected, rel=1e-12)

    def test_normalization_endpoints(self):
        assert norm(POL, Speed(0.0)) == pytest.approx(4.0)
        assert norm(POL, Speed(1.0)) == pytest.approx(212.0)
        assert norm(POL, Speed(0.9)) == pytest.approx(N_09, rel=1e-12)


class TestPolarizedProbability:
    @given(angles, angles)
    def test_rest_frame_is_quarter(self, chi1, chi2):
        assert joint_probability(POL, Speed(0.0), chi1, chi2).value == pytest.approx(0.25, abs=1e-12)

    def test_frozen_anchor_value(self):
        prob = joint_probability(POL, Speed(0.9), 0.0, math.radians(45.0))
        assert prob.value == pytest.approx(P_09_0_45, rel=1e-12)
        assert prob.in_range

    @given(betas, angles, angles)
    def test_four_pair_sum_is_one(self, b, chi1, chi2):
        speed = Speed(b)
        total = four_pair_sum(lambda a, c: joint_probability(POL, speed, a, c).value, chi1, chi2)
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(betas, angles, angles)
    def test_always_in_unit_interval(self, b, chi1, chi2):
        prob = joint_probability(POL, Speed(b), chi1, chi2)
        assert prob.in_range
        assert 0.0 <= prob.value <= 1.0


class TestPolarizedMarginals:
    @given(betas)
    def test_zero_angle_gives_half(self, b):
        assert marginal(POL, Speed(b), 1, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert marginal(POL, Speed(b), 2, 0.0) == pytest.approx(0.5, abs=1e-15)

    @given(angles)
    def test_rest_frame_gives_half(self, chi):
        assert marginal(POL, Speed(0.0), 1, chi) == pytest.approx(0.5, abs=1e-15)
        assert marginal(POL, Speed(0.0), 2, chi) == pytest.approx(0.5, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(betas, angles, angles)
    def test_closed_forms_equal_defining_sums(self, b, chi1, chi2):
        speed = Speed(b)
        p = lambda a, c: joint_probability(POL, speed, a, c).value
        first = p(chi1, chi2) + p(chi1, chi2 + math.pi)
        second = p(chi1, chi2) + p(chi1 + math.pi, chi2)
        assert marginal(POL, speed, 1, chi1) == pytest.approx(first, abs=1e-12)
        assert marginal(POL, speed, 2, chi2) == pytest.approx(second, abs=1e-12)

    def test_sum_rule(self):
        # marginal1 + marginal2 - 1 collapses to the cross-term 2*(2 c d sin chi)/N
        for b in np.linspace(0.0, 1.0, 21):
            speed = Speed(b)
            cs = coefficients(speed)
            for chi in np.linspace(-3.0, 3.0, 13):
                lhs = marginal(POL, speed, 1, chi) + marginal(POL, speed, 2, chi) - 1.0
                rhs = 2.0 * (2.0 * cs.c * cs.d * math.sin(chi)) / norm(POL, speed)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_values_frozen_at_anchor(self):
        assert marginal(POL, Speed(0.9), 1, math.radians(69.0)) == pytest.approx(
            0.8206813052294112, rel=1e-12
        )
        assert marginal(POL, Speed(0.9), 2, math.radians(45.0)) == pytest.approx(
            0.4245918618859834, rel=1e-12
        )


class TestUnpolarizedIntensity:
    def test_rest_frame_values(self):
        speed = Speed(0.0)
        assert intensity(UNP, speed, 0.0, 0.0) == pytest.approx(6.0)
        assert intensity(UNP, speed, 0.0, math.pi) == pytest.approx(2.0)

    def test_constant_term_vanishes_at_lightlike(self):
        assert template_coefficients(UNP, 1.0)[2] == pytest.approx(0.0, abs=1e-15)

    def test_frozen_weights(self):
        w = template_coefficients(UNP, 0.8)
        assert w == pytest.approx((-3.052224, 2.4592, 1.8), rel=1e-12)

    @given(betas, angles, angles)
    def test_four_pair_sum_matches_normalization(self, b, chi1, chi2):
        speed = Speed(b)
        brute = four_pair_sum(lambda a, c: intensity(UNP, speed, a, c), chi1, chi2)
        assert brute == pytest.approx(norm(UNP, speed), rel=1e-12)

    def test_normalization_values(self):
        assert norm(UNP, Speed(0.0)) == pytest.approx(16.0)
        assert norm(UNP, Speed(1.0)) == pytest.approx(8.0)
        assert norm(UNP, Speed(0.8)) == pytest.approx(6.013952, rel=1e-12)

    def test_normalization_positive_everywhere(self):
        # dips to about 5.85 near beta = 0.85 but never reaches zero
        for b in np.linspace(0.0, 1.0, 101):
            assert norm(UNP, Speed(b)) > 0.0


class TestUnpolarizedProbability:
    def test_rest_frame_values_and_pair_sum(self):
        speed = Speed(0.0)
        assert joint_probability(UNP, speed, 0.0, 0.0).value == pytest.approx(0.375)
        assert joint_probability(UNP, speed, 0.0, math.pi).value == pytest.approx(0.125)
        values = [
            joint_probability(UNP, speed, d1, d2).value
            for d1, d2 in ((0, 0), (math.pi, 0), (0, math.pi), (math.pi, math.pi))
        ]
        assert values == pytest.approx([0.375, 0.125, 0.125, 0.375])
        assert sum(values) == pytest.approx(1.0, abs=1e-15)

    @given(betas, angles, angles)
    def test_four_pair_sum_is_one(self, b, chi1, chi2):
        speed = Speed(b)
        total = four_pair_sum(lambda a, c: joint_probability(UNP, speed, a, c).value, chi1, chi2)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_negative_region_reported_verbatim(self):
        # The printed law dips below zero at large beta; the value is kept
        # and only flagged.
        prob = joint_probability(UNP, Speed(0.8), math.radians(210.0), math.radians(45.0))
        assert prob.value == pytest.approx(-0.04803278983066744, rel=1e-10)
        assert not prob.in_range

    def test_negative_region_starts_at_polynomial_root(self):
        # At (0, pi) the intensity is w_sin + w_const = 2 - 8 b^2 + 2 b^4 + 4 b^6,
        # whose root in (0, 1) is where the law first goes negative.
        roots = np.roots([4.0, 2.0, -8.0, 2.0])   # in b^2
        (onset,) = [math.sqrt(r.real) for r in roots if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0]
        assert onset == pytest.approx(0.52988, abs=1e-5)
        assert joint(CorrelationModel.UNPOLARIZED, Speed(onset - 1e-6), 0.0, math.pi) > 0.0
        assert joint(CorrelationModel.UNPOLARIZED, Speed(onset + 1e-6), 0.0, math.pi) < 0.0

    @pytest.mark.parametrize("beta,negative", [(0.529, False), (0.531, True)])
    def test_grid_minimum_sign_across_onset(self, beta, negative):
        grid = np.radians(np.arange(0.0, 360.0, 0.5))
        lowest = joint(CorrelationModel.UNPOLARIZED, Speed(beta), grid[:, None], grid[None, :]).min()
        assert (lowest < 0.0) == negative


class TestUnpolarizedMarginals:
    @given(betas, angles)
    def test_exactly_half(self, b, chi):
        assert marginal(UNP, Speed(b), 1, chi) == 0.5
        assert marginal(UNP, Speed(b), 2, chi) == 0.5

    def test_array_is_fresh_and_half(self):
        values = marginal(UNP, Speed(0.7), 2, np.linspace(-7.0, 7.0, 9))
        assert values.flags.writeable and values.shape == (9,)
        assert np.all(values == 0.5)

    @pytest.mark.parametrize("which", (0, 3))
    def test_bad_index(self, which):
        with pytest.raises(ValueError):
            marginal(UNP, Speed(0.5), which, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(betas, angles, angles)
    def test_defining_sums_give_half(self, b, chi1, chi2):
        speed = Speed(b)
        p = lambda a, c: joint_probability(UNP, speed, a, c).value
        assert p(chi1, chi2) + p(chi1, chi2 + math.pi) == pytest.approx(0.5, abs=1e-12)
        assert p(chi1, chi2) + p(chi1 + math.pi, chi2) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda s: joint(POL, s, 0.3, 1.1),
        lambda s: joint_probability(POL, s, 0.3, 1.1),
        lambda s: marginal(POL, s, 1, 0.3),
        lambda s: marginal(POL, s, 2, 0.3),
        lambda s: intensity(POL, s, 0.3, 1.1),
        lambda s: joint(UNP, s, 0.3, 1.1),
        lambda s: joint_probability(UNP, s, 0.3, 1.1),
        lambda s: marginal(UNP, s, 1, 0.3),
        lambda s: intensity(UNP, s, 0.3, 1.1),
    ],
    ids=[
        "joint-polarized", "joint_probability-polarized", "marginal1", "marginal2", "intensity-polarized",
        "joint-unpolarized", "joint_probability-unpolarized", "marginal-unpolarized", "intensity-unpolarized",
    ],
)
def test_weights_built_once_per_call(monkeypatch, call):
    calls = []

    def counting(model, beta):
        calls.append(beta)
        return harmonic_of(model, beta)

    monkeypatch.setattr(closed_form, "harmonic", counting)
    call(Speed(0.6))
    assert calls == [0.6]


def _sample(f, i):
    """Speed i of a batched harmonic matrix, as a 3 x 3 array."""
    return np.array([[np.broadcast_to(x, np.shape(f[0][0]))[i] for x in row] for row in f])


class TestHarmonicMatrix:
    @pytest.mark.parametrize("model", list(CorrelationModel))
    def test_batched_equals_per_speed_bit_for_bit(self, model):
        betas = np.arange(101) / 100.0
        f, n = harmonic_of(model, betas)
        for i, beta in enumerate(betas.tolist()):
            f_one, n_one = harmonic_of(model, beta)
            assert n_one == n[i]
            assert np.array_equal(_sample(f, i), f_one)

    @pytest.mark.parametrize("model", list(CorrelationModel))
    def test_batched_matches_per_speed_at_random_speeds(self, model):
        # numpy's vectorized power and the C pow that Python floats use can
        # round a square apart in the last bit, so off the k / 100 lattice
        # the batch agrees with the per-speed build to a few ulps.
        betas = np.random.default_rng(7).uniform(size=2000)
        f, n = harmonic_of(model, betas)
        for i, beta in enumerate(betas.tolist()):
            f_one, n_one = harmonic_of(model, beta)
            assert abs(n[i] - n_one) <= 1e-15 * n_one
            assert np.abs(_sample(f, i) - f_one).max() <= 1e-15 * n_one

    @pytest.mark.parametrize("beta", (0.0, 0.3, 0.8, 1.0))
    @pytest.mark.parametrize("model", list(CorrelationModel))
    def test_law_of_folded_table_reproduces_joint(self, model, beta):
        speed = Speed(beta)
        grid = np.radians(np.arange(0.0, 360.0, 5.0))
        table = joint(model, speed, grid[:, None], grid[None, :])
        folded = harmonic_matrix(table, grid)
        assert np.abs(law(folded, grid[:, None], grid[None, :]) - table).max() <= 1e-15
        off_grid = np.random.default_rng(3).uniform(-7.0, 7.0, size=(2, 500))
        assert np.abs(law(folded, *off_grid) - joint(model, speed, *off_grid)).max() <= 1e-15

    @pytest.mark.parametrize("model", list(CorrelationModel))
    def test_law_is_the_joint_evaluator(self, model):
        f, n = harmonic_of(model, 0.7)
        chi1, chi2 = np.linspace(-7.0, 7.0, 31)[:, None], np.linspace(-6.0, 8.0, 29)[None, :]
        normalized = [[x / n for x in row] for row in f]
        assert np.array_equal(law(normalized, chi1, chi2), joint(model, Speed(0.7), chi1, chi2))
        assert np.array_equal(law(f, chi1, chi2), intensity(model, Speed(0.7), chi1, chi2))

    def test_rho_is_elementwise(self):
        betas = np.linspace(0.0, 1.0, 57)
        assert np.array_equal(rho(betas), [rho(b) for b in betas.tolist()])
        with pytest.raises(ValueError):
            rho(np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            rho(np.array([0.5, np.nan]))


def test_identity_battery_builds_each_matrix_once(monkeypatch):
    calls = []

    def counting(model, beta):
        calls.append((model, np.shape(beta)))
        return harmonic_of(model, beta)

    monkeypatch.setattr(closed_form, "harmonic", counting)
    checks = verification.identity_checks()
    assert calls == [(POL, (200,)), (UNP, (200,))]
    assert all(check.passed for check in checks)


@pytest.mark.parametrize("index", (0, 99, 199))
def test_identity_battery_catches_a_broken_normalization(monkeypatch, index):
    # A wrong N at any one sample, the last included, fails both sums to one.
    def broken(model, beta):
        f, n = harmonic_of(model, beta)
        n = n.copy()
        n[index] *= 1.0 + 1e-9
        return closed_form.Harmonic(f, n)

    monkeypatch.setattr(closed_form, "harmonic", broken)
    failed = {check.name for check in verification.identity_checks() if not check.passed}
    assert set(verification.IDENTITY_NAMES[:2]) <= failed


class TestRangeFlag:
    def test_polarized_roundoff_below_zero_is_in_range(self):
        # Both brackets vanish together near here and the harmonic sum
        # rounds below zero; the value is kept and counts as in range.
        prob = joint_probability(POL, Speed(0.755378074047048), 4.614902727296414, 1.7364534738975026)
        assert prob.value == -8.326672684688674e-17
        assert prob.in_range

    def test_margin_is_a_few_ulps(self):
        assert RANGE_SLACK == 4.0 * np.finfo(float).eps
        for value, inside in (
            (-RANGE_SLACK, True), (1.0 + RANGE_SLACK, True), (-1e-14, False), (1.0 + 1e-14, False)
        ):
            assert JointProbability.of(value).in_range is inside

    def test_unpolarized_negatives_stay_flagged(self):
        prob = joint_probability(UNP, Speed(0.53), 0.0, math.pi)
        assert -1e-3 < prob.value < -RANGE_SLACK
        assert not prob.in_range


class TestDispatch:
    @given(st.sampled_from(list(CorrelationModel)), betas, angles, angles)
    def test_joint_probability_wraps_joint(self, model, b, chi1, chi2):
        speed = Speed(b)
        prob = joint_probability(model, speed, chi1, chi2)
        assert type(prob.value) is float
        assert prob.value == joint(model, speed, chi1, chi2)
        assert prob.in_range == (-RANGE_SLACK <= prob.value <= 1.0 + RANGE_SLACK)

    @given(st.sampled_from(list(CorrelationModel)), betas, angles, angles)
    def test_joint_is_intensity_over_norm(self, model, b, chi1, chi2):
        speed = Speed(b)
        ratio = intensity(model, speed, chi1, chi2) / norm(model, speed)
        assert joint(model, speed, chi1, chi2) == pytest.approx(ratio, abs=1e-15)

    def test_joint_broadcasts(self):
        speed = Speed(0.4)
        grid = np.linspace(0.0, 2.0 * math.pi, 7)
        values = joint(CorrelationModel.POLARIZED, speed, grid[:, None], grid[None, :])
        assert values.shape == (7, 7)

    def test_marginal_dispatch(self):
        speed = Speed(0.5)
        assert marginal(UNP, speed, 1, 1.0) == 0.5
        with pytest.raises(ValueError):
            marginal(POL, speed, 0, 0.7)
        with pytest.raises(ValueError):
            marginal("polarized", speed, 1, 0.7)

    def test_polarized_marginal_is_printed_expression(self):
        # The printed marginals 1/2 + 2(ab + cd) sin chi1 / N and
        # 1/2 + 2(cd - ab) sin chi2 / N, evaluated in the same order, bit for bit.
        rng = np.random.default_rng(99)
        grid = np.linspace(-4.0 * math.pi, 4.0 * math.pi, 1001)
        for b in np.concatenate([[0.0, 1.0], rng.uniform(size=40)]):
            speed, cs = Speed(b), coefficients(Speed(b))
            n = 2.0 * (cs.a**2 + cs.b**2 + cs.c**2 + cs.d**2)
            for which, k in ((1, cs.a * cs.b + cs.c * cs.d), (2, cs.c * cs.d - cs.a * cs.b)):
                for chi in rng.uniform(-4.0 * math.pi, 4.0 * math.pi, size=50).tolist():
                    assert marginal(POL, speed, which, chi) == 0.5 + 2.0 * k * np.sin(chi) / n
                assert np.array_equal(marginal(POL, speed, which, grid), 0.5 + 2.0 * k * np.sin(grid) / n)


def _verbatim_f_polarized(speed, chi1, chi2):
    """The printed half-sum form of the polarized intensity, kept as its reference."""
    cs = coefficients(speed)
    half_sum = 0.5 * (np.asarray(chi1) + np.asarray(chi2))
    half_diff = 0.5 * (np.asarray(chi1) - np.asarray(chi2))
    real_part = cs.a * np.cos(half_sum) + cs.b * np.sin(half_diff)
    imag_part = cs.c * np.sin(half_sum) + cs.d * np.cos(half_diff)
    return real_part**2 + imag_part**2


def _verbatim_f_unpolarized(speed, chi1, chi2):
    """The printed half-sum form of the unpolarized intensity, kept as its reference."""
    w_sin, w_cos, w_const = template_coefficients(UNP, speed.beta)
    half_sum = 0.5 * (np.asarray(chi1) + np.asarray(chi2))
    half_diff = 0.5 * (np.asarray(chi1) - np.asarray(chi2))
    return w_sin * np.sin(half_diff) ** 2 + w_cos * np.cos(half_sum) ** 2 + w_const


_PARITY_PAIRS = np.random.default_rng(2718).uniform(-4.0 * math.pi, 4.0 * math.pi, size=(200, 2))
_PARITY_GRID = np.radians(np.arange(-720.0, 720.0, 2.0))   # 2 degrees across [-4 pi, 4 pi)


@pytest.mark.parametrize("beta", (0.0, 0.3, 0.6, 0.9, 0.99, 1.0))
@pytest.mark.parametrize(
    "model,verbatim", [(POL, _verbatim_f_polarized), (UNP, _verbatim_f_unpolarized)], ids=["polarized", "unpolarized"]
)
def test_half_angle_products_match_printed_form(model, verbatim, beta):
    # The closed forms expand each half-sum and half-difference with the
    # angle-addition identities; they must equal the printed forms to
    # roundoff, keep the return shape, and return the same scalar type.
    speed = Speed(beta)
    tolerance = 1e-14 * norm(model, speed)
    for chi1, chi2 in _PARITY_PAIRS.tolist():
        value, expected = intensity(model, speed, chi1, chi2), verbatim(speed, chi1, chi2)
        assert type(value) is type(expected) is np.float64
        assert abs(value - expected) <= tolerance
    for chi1, chi2 in ((_PARITY_GRID[:, None], _PARITY_GRID[None, :]), (_PARITY_GRID, 0.5), (1.5, _PARITY_GRID)):
        values, expected = intensity(model, speed, chi1, chi2), verbatim(speed, chi1, chi2)
        assert values.shape == expected.shape
        assert np.abs(values - expected).max() <= tolerance


@settings(deadline=None)
@given(betas, angles, angles)
@pytest.mark.parametrize(
    "model,verbatim", [(POL, _verbatim_f_polarized), (UNP, _verbatim_f_unpolarized)], ids=["polarized", "unpolarized"]
)
def test_harmonic_matches_printed_form_at_random_points(model, verbatim, b, chi1, chi2):
    speed = Speed(b)
    assert abs(intensity(model, speed, chi1, chi2) - verbatim(speed, chi1, chi2)) <= 1e-14 * norm(model, speed)


def _mp_joint(mp, model, beta, chi1, chi2):
    """The printed half-angle law at 50 digits, from the same double inputs."""
    b, x1, x2 = mp.mpf(beta), mp.mpf(chi1), mp.mpf(chi2)
    half_sum, half_diff = (x1 + x2) / 2, (x1 - x2) / 2
    if model is CorrelationModel.POLARIZED:
        r = b / (1 + mp.sqrt(1 - b * b))
        a = 1 - r * r * (1 - r) + 2 * b * b * (1 - r * r) ** 2
        bb = r * (1 + r) + 8 * b * b * r * r
        c = 1 + r * r * (1 - r) + 2 * b * (1 - r**4)
        d = r * (1 + r)
        f = (a * mp.cos(half_sum) + bb * mp.sin(half_diff)) ** 2 + (c * mp.sin(half_sum) + d * mp.cos(half_diff)) ** 2
        return f / (2 * (a * a + bb * bb + c * c + d * d))
    b2 = b * b
    w_sin, w_cos, w_const = 2 * b2 * b2 * (1 + 2 * b2) - 3 * (1 + b2), 1 + b2 + 2 * b2 * b2, 5 * (1 - b2)
    f = w_sin * mp.sin(half_diff) ** 2 + w_cos * mp.cos(half_sum) ** 2 + w_const
    return f / (8 * (2 - 3 * b2 + b2 * b2 + b2**3))


@pytest.mark.parametrize(
    "model,verbatim", [(POL, _verbatim_f_polarized), (UNP, _verbatim_f_unpolarized)], ids=["polarized", "unpolarized"]
)
def test_joint_no_less_accurate_than_printed_form(model, verbatim):
    # Mean absolute error against 50-digit values over 1500 seeded points.
    mpmath = pytest.importorskip("mpmath")
    points = np.random.default_rng(1500).uniform(
        [0.0, -4.0 * math.pi, -4.0 * math.pi], [1.0, 4.0 * math.pi, 4.0 * math.pi], size=(1500, 3)
    )
    errors = []
    with mpmath.workdps(50):
        for b, x1, x2 in points.tolist():
            speed, exact = Speed(b), _mp_joint(mpmath, model, b, x1, x2)
            values = (joint(model, speed, x1, x2), verbatim(speed, x1, x2) / norm(model, speed))
            errors.append([abs(float(mpmath.mpf(float(v)) - exact)) for v in values])
    harmonic, printed = np.mean(errors, axis=0)
    assert harmonic <= printed
