import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincorr import closed_form
from spincorr.closed_form import (
    CorrelationModel,
    coefficients,
    f_polarized,
    f_unpolarized,
    four_pair_sum,
    joint,
    joint_probability,
    marginal,
    marginal1_polarized,
    marginal2_polarized,
    marginal_unpolarized,
    n_polarized,
    norm_unpolarized,
    p_polarized,
    p_unpolarized,
    unpolarized_coefficients,
)
from spincorr.kinematics import Speed

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
        cs = coefficients(Speed(0.0))
        assert cs.as_tuple() == (1.0, 0.0, 1.0, 0.0)
        assert cs.rho == 0.0

    def test_lightlike(self):
        assert coefficients(Speed(1.0)).as_tuple() == (1.0, 10.0, 1.0, 2.0)

    def test_frozen_values(self):
        assert coefficients(Speed(0.9)).as_tuple() == pytest.approx(COEFFS_09, rel=1e-12)
        assert coefficients(Speed(0.6)).as_tuple() == pytest.approx(COEFFS_06, rel=1e-12)
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
            up = coefficients(Speed(b + step)).as_tuple()
            down = coefficients(Speed(b - step)).as_tuple()
            for i, dfun in enumerate(derivs):
                fd = (up[i] - down[i]) / (2.0 * step)
                assert fd == pytest.approx(dfun(b), abs=1e-6)


class TestPolarizedIntensity:
    @given(angles, angles)
    def test_rest_frame_is_constant_one(self, chi1, chi2):
        assert f_polarized(Speed(0.0), chi1, chi2) == pytest.approx(1.0, abs=1e-12)

    @given(betas, angles, angles)
    def test_two_pi_periodic_in_each_angle(self, b, chi1, chi2):
        speed = Speed(b)
        base = f_polarized(speed, chi1, chi2)
        assert f_polarized(speed, chi1 + 2.0 * math.pi, chi2) == pytest.approx(base, abs=1e-10)
        assert f_polarized(speed, chi1, chi2 + 2.0 * math.pi) == pytest.approx(base, abs=1e-10)

    @given(betas, angles, angles)
    def test_four_pair_sum_matches_normalization(self, b, chi1, chi2):
        speed = Speed(b)
        brute = four_pair_sum(lambda a, c: f_polarized(speed, a, c), chi1, chi2)
        cs = coefficients(speed)
        expected = 2.0 * (cs.a**2 + cs.b**2 + cs.c**2 + cs.d**2)
        assert brute == pytest.approx(expected, rel=1e-12)
        assert n_polarized(speed) == pytest.approx(expected, rel=1e-15)

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
            shifted = f_polarized(speed, chi1 + math.pi, chi2 + math.pi)
            assert shifted == pytest.approx(expected, rel=1e-12)

    def test_normalization_endpoints(self):
        assert n_polarized(Speed(0.0)) == pytest.approx(4.0)
        assert n_polarized(Speed(1.0)) == pytest.approx(212.0)
        assert n_polarized(Speed(0.9)) == pytest.approx(N_09, rel=1e-12)


class TestPolarizedProbability:
    @given(angles, angles)
    def test_rest_frame_is_quarter(self, chi1, chi2):
        assert p_polarized(Speed(0.0), chi1, chi2).value == pytest.approx(0.25, abs=1e-12)

    def test_frozen_anchor_value(self):
        prob = p_polarized(Speed(0.9), 0.0, math.radians(45.0))
        assert prob.value == pytest.approx(P_09_0_45, rel=1e-12)
        assert prob.in_range

    @given(betas, angles, angles)
    def test_four_pair_sum_is_one(self, b, chi1, chi2):
        speed = Speed(b)
        total = four_pair_sum(lambda a, c: p_polarized(speed, a, c).value, chi1, chi2)
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(betas, angles, angles)
    def test_always_in_unit_interval(self, b, chi1, chi2):
        prob = p_polarized(Speed(b), chi1, chi2)
        assert prob.in_range
        assert 0.0 <= prob.value <= 1.0


class TestPolarizedMarginals:
    @given(betas)
    def test_zero_angle_gives_half(self, b):
        assert marginal1_polarized(Speed(b), 0.0) == pytest.approx(0.5, abs=1e-15)
        assert marginal2_polarized(Speed(b), 0.0) == pytest.approx(0.5, abs=1e-15)

    @given(angles)
    def test_rest_frame_gives_half(self, chi):
        assert marginal1_polarized(Speed(0.0), chi) == pytest.approx(0.5, abs=1e-15)
        assert marginal2_polarized(Speed(0.0), chi) == pytest.approx(0.5, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(betas, angles, angles)
    def test_closed_forms_equal_defining_sums(self, b, chi1, chi2):
        speed = Speed(b)
        p = lambda a, c: p_polarized(speed, a, c).value
        first = p(chi1, chi2) + p(chi1, chi2 + math.pi)
        second = p(chi1, chi2) + p(chi1 + math.pi, chi2)
        assert marginal1_polarized(speed, chi1) == pytest.approx(first, abs=1e-12)
        assert marginal2_polarized(speed, chi2) == pytest.approx(second, abs=1e-12)

    def test_sum_rule(self):
        # marginal1 + marginal2 - 1 collapses to the cross-term 2*(2 c d sin chi)/N
        for b in np.linspace(0.0, 1.0, 21):
            speed = Speed(b)
            cs = coefficients(speed)
            for chi in np.linspace(-3.0, 3.0, 13):
                lhs = marginal1_polarized(speed, chi) + marginal2_polarized(speed, chi) - 1.0
                rhs = 2.0 * (2.0 * cs.c * cs.d * math.sin(chi)) / n_polarized(speed)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_values_frozen_at_anchor(self):
        assert marginal1_polarized(Speed(0.9), math.radians(69.0)) == pytest.approx(
            0.8206813052294112, rel=1e-12
        )
        assert marginal2_polarized(Speed(0.9), math.radians(45.0)) == pytest.approx(
            0.4245918618859834, rel=1e-12
        )


class TestUnpolarizedIntensity:
    def test_rest_frame_values(self):
        speed = Speed(0.0)
        assert f_unpolarized(speed, 0.0, 0.0) == pytest.approx(6.0)
        assert f_unpolarized(speed, 0.0, math.pi) == pytest.approx(2.0)

    def test_constant_term_vanishes_at_lightlike(self):
        assert unpolarized_coefficients(Speed(1.0))[2] == pytest.approx(0.0, abs=1e-15)

    def test_frozen_weights(self):
        w = unpolarized_coefficients(Speed(0.8))
        assert w == pytest.approx((-3.052224, 2.4592, 1.8), rel=1e-12)

    @given(betas, angles, angles)
    def test_four_pair_sum_matches_normalization(self, b, chi1, chi2):
        speed = Speed(b)
        brute = four_pair_sum(lambda a, c: f_unpolarized(speed, a, c), chi1, chi2)
        assert brute == pytest.approx(norm_unpolarized(speed), rel=1e-12)

    def test_normalization_values(self):
        assert norm_unpolarized(Speed(0.0)) == pytest.approx(16.0)
        assert norm_unpolarized(Speed(1.0)) == pytest.approx(8.0)
        assert norm_unpolarized(Speed(0.8)) == pytest.approx(6.013952, rel=1e-12)

    def test_normalization_positive_everywhere(self):
        # dips to about 5.85 near beta = 0.85 but never reaches zero
        for b in np.linspace(0.0, 1.0, 101):
            assert norm_unpolarized(Speed(b)) > 0.0


class TestUnpolarizedProbability:
    def test_rest_frame_values_and_pair_sum(self):
        speed = Speed(0.0)
        assert p_unpolarized(speed, 0.0, 0.0).value == pytest.approx(0.375)
        assert p_unpolarized(speed, 0.0, math.pi).value == pytest.approx(0.125)
        values = [
            p_unpolarized(speed, d1, d2).value
            for d1, d2 in ((0, 0), (math.pi, 0), (0, math.pi), (math.pi, math.pi))
        ]
        assert values == pytest.approx([0.375, 0.125, 0.125, 0.375])
        assert sum(values) == pytest.approx(1.0, abs=1e-15)

    @given(betas, angles, angles)
    def test_four_pair_sum_is_one(self, b, chi1, chi2):
        speed = Speed(b)
        total = four_pair_sum(lambda a, c: p_unpolarized(speed, a, c).value, chi1, chi2)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_negative_region_reported_verbatim(self):
        # The printed law dips below zero at large beta; the value is kept
        # and only flagged.
        prob = p_unpolarized(Speed(0.8), math.radians(210.0), math.radians(45.0))
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
    def test_exactly_half(self):
        assert marginal_unpolarized(1) == 0.5
        assert marginal_unpolarized(2) == 0.5

    def test_bad_index(self):
        with pytest.raises(ValueError):
            marginal_unpolarized(3)

    @settings(max_examples=60, deadline=None)
    @given(betas, angles, angles)
    def test_defining_sums_give_half(self, b, chi1, chi2):
        speed = Speed(b)
        p = lambda a, c: p_unpolarized(speed, a, c).value
        assert p(chi1, chi2) + p(chi1, chi2 + math.pi) == pytest.approx(0.5, abs=1e-12)
        assert p(chi1, chi2) + p(chi1 + math.pi, chi2) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize(
    "call,counted",
    [
        (lambda s: joint(CorrelationModel.POLARIZED, s, 0.3, 1.1), "coefficients"),
        (lambda s: p_polarized(s, 0.3, 1.1), "coefficients"),
        (lambda s: marginal1_polarized(s, 0.3), "coefficients"),
        (lambda s: marginal2_polarized(s, 0.3), "coefficients"),
        (lambda s: joint(CorrelationModel.UNPOLARIZED, s, 0.3, 1.1), "unpolarized_coefficients"),
        (lambda s: p_unpolarized(s, 0.3, 1.1), "unpolarized_coefficients"),
    ],
    ids=["joint-polarized", "p_polarized", "marginal1", "marginal2", "joint-unpolarized", "p_unpolarized"],
)
def test_weights_built_once_per_call(monkeypatch, call, counted):
    calls = []
    original = getattr(closed_form, counted)

    def counting(speed):
        calls.append(speed)
        return original(speed)

    monkeypatch.setattr(closed_form, counted, counting)
    call(Speed(0.6))
    assert len(calls) == 1


class TestDispatch:
    @given(st.sampled_from(list(CorrelationModel)), betas, angles, angles)
    def test_joint_matches_model_functions(self, model, b, chi1, chi2):
        speed = Speed(b)
        direct = (
            p_polarized(speed, chi1, chi2).value
            if model is CorrelationModel.POLARIZED
            else p_unpolarized(speed, chi1, chi2).value
        )
        assert joint(model, speed, chi1, chi2) == pytest.approx(direct, rel=1e-15)
        assert joint_probability(model, speed, chi1, chi2).value == pytest.approx(direct, rel=1e-15)

    def test_joint_broadcasts(self):
        speed = Speed(0.4)
        grid = np.linspace(0.0, 2.0 * math.pi, 7)
        values = joint(CorrelationModel.POLARIZED, speed, grid[:, None], grid[None, :])
        assert values.shape == (7, 7)

    def test_marginal_dispatch(self):
        speed = Speed(0.5)
        assert marginal(CorrelationModel.UNPOLARIZED, speed, 1, 1.0) == 0.5
        assert marginal(CorrelationModel.POLARIZED, speed, 2, 0.7) == pytest.approx(
            marginal2_polarized(speed, 0.7)
        )
        with pytest.raises(ValueError):
            marginal(CorrelationModel.POLARIZED, speed, 0, 0.7)


def _verbatim_f_polarized(speed, chi1, chi2):
    """The printed half-sum form of f_polarized, kept as its reference."""
    cs = coefficients(speed)
    half_sum = 0.5 * (np.asarray(chi1) + np.asarray(chi2))
    half_diff = 0.5 * (np.asarray(chi1) - np.asarray(chi2))
    real_part = cs.a * np.cos(half_sum) + cs.b * np.sin(half_diff)
    imag_part = cs.c * np.sin(half_sum) + cs.d * np.cos(half_diff)
    return real_part**2 + imag_part**2


def _verbatim_f_unpolarized(speed, chi1, chi2):
    """The printed half-sum form of f_unpolarized, kept as its reference."""
    w_sin, w_cos, w_const = unpolarized_coefficients(speed)
    half_sum = 0.5 * (np.asarray(chi1) + np.asarray(chi2))
    half_diff = 0.5 * (np.asarray(chi1) - np.asarray(chi2))
    return w_sin * np.sin(half_diff) ** 2 + w_cos * np.cos(half_sum) ** 2 + w_const


_PARITY_PAIRS = np.random.default_rng(2718).uniform(-4.0 * math.pi, 4.0 * math.pi, size=(200, 2))
_PARITY_GRID = np.radians(np.arange(-720.0, 720.0, 2.0))   # 2 degrees across [-4 pi, 4 pi)


@pytest.mark.parametrize("beta", (0.0, 0.3, 0.6, 0.9, 0.99, 1.0))
@pytest.mark.parametrize(
    "factored,verbatim,norm",
    [(f_polarized, _verbatim_f_polarized, n_polarized), (f_unpolarized, _verbatim_f_unpolarized, norm_unpolarized)],
    ids=["polarized", "unpolarized"],
)
def test_half_angle_products_match_printed_form(factored, verbatim, norm, beta):
    # The closed forms expand each half-sum and half-difference with the
    # angle-addition identities; they must equal the printed forms to
    # roundoff, keep the return shape, and return the same scalar type.
    speed = Speed(beta)
    tolerance = 1e-14 * norm(speed)
    for chi1, chi2 in _PARITY_PAIRS.tolist():
        value, expected = factored(speed, chi1, chi2), verbatim(speed, chi1, chi2)
        assert type(value) is type(expected) is np.float64
        assert abs(value - expected) <= tolerance
    for chi1, chi2 in ((_PARITY_GRID[:, None], _PARITY_GRID[None, :]), (_PARITY_GRID, 0.5), (1.5, _PARITY_GRID)):
        values, expected = factored(speed, chi1, chi2), verbatim(speed, chi1, chi2)
        assert values.shape == expected.shape
        assert np.abs(values - expected).max() <= tolerance


@settings(deadline=None)
@given(betas, angles, angles)
@pytest.mark.parametrize(
    "factored,verbatim,norm",
    [(f_polarized, _verbatim_f_polarized, n_polarized), (f_unpolarized, _verbatim_f_unpolarized, norm_unpolarized)],
    ids=["polarized", "unpolarized"],
)
def test_harmonic_matches_printed_form_at_random_points(factored, verbatim, norm, b, chi1, chi2):
    speed = Speed(b)
    assert abs(factored(speed, chi1, chi2) - verbatim(speed, chi1, chi2)) <= 1e-14 * norm(speed)


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
    "model,verbatim,norm",
    [
        (CorrelationModel.POLARIZED, _verbatim_f_polarized, n_polarized),
        (CorrelationModel.UNPOLARIZED, _verbatim_f_unpolarized, norm_unpolarized),
    ],
    ids=["polarized", "unpolarized"],
)
def test_joint_no_less_accurate_than_printed_form(model, verbatim, norm):
    # Mean absolute error against 50-digit values over 1500 seeded points.
    mpmath = pytest.importorskip("mpmath")
    points = np.random.default_rng(1500).uniform(
        [0.0, -4.0 * math.pi, -4.0 * math.pi], [1.0, 4.0 * math.pi, 4.0 * math.pi], size=(1500, 3)
    )
    errors = []
    with mpmath.workdps(50):
        for b, x1, x2 in points.tolist():
            speed, exact = Speed(b), _mp_joint(mpmath, model, b, x1, x2)
            values = (joint(model, speed, x1, x2), verbatim(speed, x1, x2) / norm(speed))
            errors.append([abs(float(mpmath.mpf(float(v)) - exact)) for v in values])
    harmonic, printed = np.mean(errors, axis=0)
    assert harmonic <= printed
