import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincorr import oracle
from spincorr.closed_form import PROBES, CorrelationModel, intensity, law, template_matrix
from spincorr.dirac import GAMMA_STACK, METRIC_SIGNS, dirac_adjoint, slash
from spincorr.kinematics import (
    BETA_ORACLE_MAX,
    Config,
    Speed,
    invariants,
    momenta,
    polarized_final_maps,
    polarized_initial_spinors,
    xi,
    zeta,
)
from spincorr.oracle import (
    ConsistencyReport,
    amplitude_polarized,
    consistency_report,
    cross_check_unpolarized,
    fit_polarized,
    fit_unpolarized,
    quad_unpolarized_complex,
    spin_average_oracle,
    validation_grid,
)
from spincorr.verification import run_verification

from reference import (
    polarized_final_spinors,
    unpolarized_final_maps,
    unpolarized_final_spinors,
    unpolarized_initial_basis,
)

FIT_BETAS = (0.2, 0.5, 0.8)

_SIGNS = np.array(METRIC_SIGNS)


def _contract(vertex_a, vertex_b):
    """Minkowski contraction of two four-vectors of vertex values (last axis)."""
    return np.add.reduce(_SIGNS * vertex_a * vertex_b, axis=-1)


def _vertex(rbar, column):
    """All four values rbar gamma^mu column, indexed by mu on the last axis."""
    return np.einsum("...a,mab,...b->...m", rbar, GAMMA_STACK, column)


def _reference_amplitude_polarized(speed, chi1, chi2):
    """The polarized route from explicit four-spinors at every angle pair."""
    inv = invariants(momenta(Config.POLARIZED_AXES, speed))
    u_p1, vbar_p2 = polarized_initial_spinors(speed)
    ubar_k1, v_k2 = polarized_final_spinors(speed, chi1, chi2)
    annihilation = _contract(_vertex(vbar_p2, u_p1), _vertex(ubar_k1, v_k2))
    exchange = _contract(_vertex(ubar_k1, u_p1), _vertex(vbar_p2, v_k2))
    return inv.t * annihilation - inv.s * exchange


def _reference_spin_average(speed, chi1, chi2):
    """The spin average from explicit four-spinors at every angle pair."""
    inv = invariants(momenta(Config.UNPOLARIZED_AXES, speed))
    us, vbars = unpolarized_initial_basis(speed)
    u_k1, v_k2 = unpolarized_final_spinors(speed, chi1, chi2)
    ubar_k1 = dirac_adjoint(u_k1)
    # Axes (..., i, j, mu): electron basis state i, positron basis state j.
    initial_ann = _vertex(vbars[np.newaxis, :, :], us[:, np.newaxis, :])
    final_ann = _vertex(ubar_k1, v_k2)[..., np.newaxis, np.newaxis, :]
    electron_ex = _vertex(ubar_k1[..., np.newaxis, :], us)[..., :, np.newaxis, :]
    positron_ex = _vertex(vbars, v_k2[..., np.newaxis, :])[..., np.newaxis, :, :]
    annihilation = _contract(initial_ann, final_ann)
    exchange = _contract(electron_ex, positron_ex)
    amplitude = inv.t * annihilation - inv.s * exchange
    return np.add.reduce(abs(amplitude) ** 2, axis=(-2, -1)) / 4.0


def _reference_trace_expression(speed, chi1, chi2):
    """The four-term trace expression from explicit four-spinors at every angle pair."""
    ms = momenta(Config.UNPOLARIZED_AXES, speed)
    s, t = invariants(ms)
    eye = np.eye(4, dtype=complex)
    p2_plus = slash(ms.p2) + ms.m * eye
    p1_minus = ms.m * eye - slash(ms.p1)
    trace_1 = np.einsum("sab,bc,mcd,da->sm", GAMMA_STACK, p2_plus, GAMMA_STACK, p1_minus)
    trace_2 = np.einsum("ab,mbc,cd,sda->ms", p2_plus, GAMMA_STACK, p1_minus, GAMMA_STACK)
    trace_3 = np.einsum("mab,bc,scd,da->ms", GAMMA_STACK, p1_minus, GAMMA_STACK, p2_plus)
    u_gammas = np.einsum("mab,bc,scd->msad", GAMMA_STACK, p1_minus, GAMMA_STACK)
    v_gammas = np.einsum("sab,bc,mcd->smad", GAMMA_STACK, p2_plus, GAMMA_STACK)

    u_k1, v_k2 = unpolarized_final_spinors(speed, chi1, chi2)
    ubar_k1, vbar_k2 = dirac_adjoint(u_k1), dirac_adjoint(v_k2)
    b_mu = _vertex(ubar_k1, v_k2)
    c_sigma = _vertex(vbar_k2, u_k1)
    u_block = np.einsum("...a,msad,...d->...ms", ubar_k1, u_gammas, u_k1)
    v_block = np.einsum("...a,smad,...d->...sm", vbar_k2, v_gammas, v_k2)

    weights = np.outer(_SIGNS, _SIGNS)
    term_1 = np.einsum("sm,sm,...m,...s->...", weights, trace_1, b_mu, c_sigma)
    term_2 = np.einsum("ms,ms,...s,...m->...", weights, trace_2, c_sigma, b_mu)
    term_3 = np.einsum("ms,ms,...m,...s->...", weights, trace_3, b_mu, c_sigma)
    term_4 = np.einsum("ms,...ms,...sm->...", weights, u_block, v_block)
    return term_1 * t * t - (term_2 + term_3) * s * t + term_4 * s * s


def _random_inputs(n, seed, beta_max=0.95):
    rng = np.random.default_rng(seed)
    return zip(
        rng.uniform(0.0, beta_max, size=n),
        rng.uniform(0.0, 2.0 * math.pi, size=n),
        rng.uniform(0.0, 2.0 * math.pi, size=n),
    )


class TestPolarizedAmplitude:
    def test_four_pi_shift_leaves_amplitude_unchanged(self):
        speed = Speed(0.7)
        for b, chi1, chi2 in _random_inputs(20, seed=3):
            base = amplitude_polarized(speed, chi1, chi2)
            shifted = amplitude_polarized(speed, chi1 + 4.0 * math.pi, chi2)
            assert shifted == pytest.approx(base, rel=1e-12, abs=1e-12)

    def test_two_pi_shift_preserves_squared_magnitude(self):
        for b, chi1, chi2 in _random_inputs(20, seed=5):
            speed = Speed(b)
            base = abs(amplitude_polarized(speed, chi1, chi2)) ** 2
            shifted = abs(amplitude_polarized(speed, chi1 + 2.0 * math.pi, chi2)) ** 2
            assert shifted == pytest.approx(base, rel=1e-12, abs=1e-12)

    def test_rest_frame_magnitude_is_angle_independent(self):
        speed = Speed(0.0)
        grid = np.linspace(0.0, 2.0 * math.pi, 13)
        values = [
            abs(amplitude_polarized(speed, a, c)) ** 2 for a in grid for c in grid
        ]
        assert max(values) - min(values) < 1e-12 * max(values)

    def test_rejects_near_lightlike(self):
        with pytest.raises(ValueError, match="Lorentz factor"):
            amplitude_polarized(Speed(1.0 - 1e-9), 0.0, 0.0)

    def test_four_pair_shift_sum_is_angle_independent(self):
        speed = Speed(0.6)
        shifts = ((0, 0), (math.pi, 0), (0, math.pi), (math.pi, math.pi))
        totals = []
        for chi1, chi2 in ((0.3, 1.1), (2.2, 4.9), (5.1, 0.4)):
            totals.append(
                sum(
                    abs(amplitude_polarized(speed, chi1 + d1, chi2 + d2)) ** 2
                    for d1, d2 in shifts
                )
            )
        assert max(totals) - min(totals) < 1e-10 * max(totals)


class TestPolarizedFit:
    def test_rest_frame_degenerates_cleanly(self):
        fit = fit_polarized(Speed(0.0))
        a, b, c, d = fit.coefficients
        assert abs(b) < 1e-10 and abs(d) < 1e-10
        assert a == pytest.approx(c, rel=1e-12)
        assert fit.rel_residual < 1e-9

    @pytest.mark.parametrize("beta", FIT_BETAS)
    def test_template_shape_holds(self, beta):
        fit = fit_polarized(Speed(beta))
        assert fit.rel_residual < 1e-9
        assert fit.scale > 0.0
        assert fit.coefficients[0] >= 0.0

    def test_fit_reproduces_oracle_on_validation_grid(self):
        speed = Speed(0.5)
        fit = fit_polarized(speed)
        grid1, grid2 = validation_grid(8)
        for chi1, chi2 in zip(grid1.ravel(), grid2.ravel()):
            oracle_value = abs(amplitude_polarized(speed, chi1, chi2)) ** 2
            assert fit.evaluate(chi1, chi2) == pytest.approx(oracle_value, rel=1e-10)

    def test_deterministic(self):
        first = fit_polarized(Speed(0.8))
        second = fit_polarized(Speed(0.8))
        assert first == second

    def test_fit_points_are_disjoint_from_validation_grid(self):
        grid1, grid2 = validation_grid()
        grid_pairs = set(zip(grid1.ravel().round(12), grid2.ravel().round(12)))
        for chi1 in PROBES:
            for chi2 in PROBES:
                assert (round(chi1, 12), round(chi2, 12)) not in grid_pairs


class TestConsistencyReports:
    def test_rest_frame_agrees_with_closed_form(self):
        report = consistency_report(CorrelationModel.POLARIZED, Speed(0.0))
        assert report.verdict
        assert report.printed == (1.0, 0.0, 1.0, 0.0)

    def test_report_schema(self):
        # The field order is the key order of the JSON record (see tests/test_cli.py).
        report = consistency_report(CorrelationModel.POLARIZED, Speed(0.9))
        assert isinstance(report, ConsistencyReport)
        assert [f.name for f in fields(report)] == [
            "beta", "model", "fitted", "printed", "relative_deviation", "residual", "scale", "verdict",
        ]
        assert report.model is CorrelationModel.POLARIZED
        assert len(report.fitted) == len(report.printed) == 4
        assert all(d >= 0.0 for d in report.relative_deviation)

    def test_ratio_to_closed_form_is_tabulated_not_asserted(self):
        # The diagnostic captures whether |M|^2 / F is constant in
        # angle; at beta = 0.9 the fitted and closed-form weights are wildly
        # different, which shows up as order-one deviations in the table.
        speed = Speed(0.9)
        ratios = [
            abs(amplitude_polarized(speed, a, c)) ** 2 / intensity(CorrelationModel.POLARIZED, speed, a, c)
            for a, c in np.random.default_rng(29).uniform(0.0, 2.0 * math.pi, size=(12, 2))
        ]
        spread = (max(ratios) - min(ratios)) / max(ratios)
        report = consistency_report(CorrelationModel.POLARIZED, speed)
        if spread > 1e-9:
            assert max(report.relative_deviation) > report.residual
        else:
            assert report.verdict

    def test_unpolarized_report_schema(self):
        report = consistency_report(CorrelationModel.UNPOLARIZED, Speed(0.5))
        assert len(report.fitted) == len(report.printed) == 3
        assert report.residual < 1e-9


class TestUnpolarizedOracles:
    def test_quad_output_is_real(self):
        for b, chi1, chi2 in _random_inputs(50, seed=17):
            value = quad_unpolarized_complex(Speed(b), chi1, chi2)
            scale = max(1.0, abs(value.real))
            assert abs(value.imag) < 1e-10 * scale

    def test_quad_two_pi_invariance(self):
        speed = Speed(0.5)
        for _, chi1, chi2 in _random_inputs(10, seed=19):
            base = quad_unpolarized_complex(speed, chi1, chi2).real
            shifted = quad_unpolarized_complex(speed, chi1 + 2.0 * math.pi, chi2).real
            assert shifted == pytest.approx(base, rel=1e-12)

    def test_quad_four_pair_shift_sum_is_angle_independent(self):
        speed = Speed(0.5)
        shifts = ((0, 0), (math.pi, 0), (0, math.pi), (math.pi, math.pi))
        totals = []
        for chi1, chi2 in ((0.2, 1.7), (3.3, 5.2), (4.4, 0.9)):
            totals.append(
                sum(quad_unpolarized_complex(speed, chi1 + d1, chi2 + d2).real for d1, d2 in shifts)
            )
        assert max(totals) - min(totals) < 1e-10 * max(abs(t) for t in totals)

    def test_spin_average_positive(self):
        for b, chi1, chi2 in _random_inputs(30, seed=23):
            assert spin_average_oracle(Speed(b), chi1, chi2) >= 0.0

    def test_spin_average_four_pair_shift_sum_is_angle_independent(self):
        speed = Speed(0.7)
        shifts = ((0, 0), (math.pi, 0), (0, math.pi), (math.pi, math.pi))
        totals = []
        for chi1, chi2 in ((0.2, 1.7), (3.3, 5.2), (4.4, 0.9)):
            totals.append(
                sum(spin_average_oracle(speed, chi1 + d1, chi2 + d2) for d1, d2 in shifts)
            )
        assert max(totals) - min(totals) < 1e-10 * max(totals)


class TestUnpolarizedFit:
    @pytest.mark.parametrize("beta", (0.0,) + FIT_BETAS)
    def test_template_shape_holds(self, beta):
        fit = fit_unpolarized(Speed(beta))
        assert fit.rel_residual < 1e-9

    def test_scale_positive_at_moderate_speeds(self):
        assert fit_unpolarized(Speed(0.3)).scale > 0.0

    def test_deterministic(self):
        assert fit_unpolarized(Speed(0.5)) == fit_unpolarized(Speed(0.5))

    def test_rest_frame_coefficients_tabulated(self):
        # Informational: the table is produced; whatever the weights are,
        # the fitted template must reproduce the oracle.
        fit = fit_unpolarized(Speed(0.0))
        speed = Speed(0.0)
        for chi1, chi2 in np.random.default_rng(31).uniform(0.0, 2.0 * math.pi, size=(8, 2)):
            assert fit.evaluate(chi1, chi2) == pytest.approx(
                spin_average_oracle(speed, chi1, chi2), rel=1e-10
            )


class TestCrossOracle:
    def test_report_fields_and_determinism(self):
        first = cross_check_unpolarized(Speed(0.5))
        second = cross_check_unpolarized(Speed(0.5))
        assert first == second
        assert first.grid_n == 12
        assert first.max_rel_deviation >= 0.0
        assert first.max_imag < 1e-10
        assert [f.name for f in fields(first)] == [
            "beta", "grid_n", "scale", "max_rel_deviation", "max_imag", "agree",
        ]

    def test_agreement_flag_matches_deviation(self):
        report = cross_check_unpolarized(Speed(0.5))
        assert report.agree == (report.max_rel_deviation < 1e-9)


ROUTES = (amplitude_polarized, spin_average_oracle, quad_unpolarized_complex)


class TestBatchedRoutes:
    @pytest.mark.parametrize("beta", (0.0, 0.5, 0.9, BETA_ORACLE_MAX))
    @pytest.mark.parametrize("route", ROUTES, ids=lambda fn: fn.__name__)
    def test_batched_equals_per_point(self, route, beta):
        rng = np.random.default_rng(41)
        chi1, chi2 = rng.uniform(-2.0 * math.pi, 4.0 * math.pi, size=(2, 50))
        speed = Speed(beta)
        batched = route(speed, chi1, chi2)
        per_point = np.array([route(speed, a, b) for a, b in zip(chi1, chi2)])
        assert batched.shape == (50,)
        scale = float(np.max(np.abs(per_point)))
        np.testing.assert_allclose(batched, per_point, rtol=1e-13, atol=1e-13 * scale)

    @pytest.mark.parametrize("route", ROUTES, ids=lambda fn: fn.__name__)
    def test_angles_broadcast(self, route):
        speed = Speed(0.7)
        axis = np.linspace(0.0, 2.0 * math.pi, 5)
        grid = route(speed, axis[:, None], axis[None, :])
        assert grid.shape == (5, 5)
        row = route(speed, axis[2], axis)
        np.testing.assert_allclose(row, grid[2], rtol=1e-13, atol=1e-13 * np.max(np.abs(grid)))

    def test_scalar_angles_give_python_scalars(self):
        speed = Speed(0.6)
        assert type(amplitude_polarized(speed, 0.3, 1.2)) is complex
        assert type(quad_unpolarized_complex(speed, 0.3, 1.2)) is complex
        assert type(spin_average_oracle(speed, 0.3, 1.2)) is float

    def test_two_spinors_take_array_angles(self):
        chi = np.linspace(0.0, 2.0 * math.pi, 7)
        for spinor in (zeta, xi):
            rows = spinor(chi)
            assert rows.shape == (7, 2)
            for angle, row in zip(chi, rows):
                np.testing.assert_allclose(row, spinor(angle), rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("route", ROUTES, ids=lambda fn: fn.__name__)
    def test_reused_speed_gives_the_same_values_as_fresh_speeds(self, route):
        speed = Speed(0.55)
        for chi1, chi2 in ((0.3, 1.2), (2.9, -0.4), (5.0, 5.0)):
            assert route(speed, chi1, chi2) == route(Speed(0.55), chi1, chi2)

    def test_speed_blocks_are_built_once_and_read_only(self):
        speed = Speed(0.55)
        for blocks_of in (oracle._polarized_blocks, oracle._unpolarized_blocks):
            blocks = blocks_of(speed)
            assert blocks_of(speed) is blocks
            assert len(blocks) >= 1
            for array in blocks:
                assert isinstance(array, np.ndarray)
                assert not array.flags.writeable

    def test_fit_constants_are_read_only(self):
        for array in (PROBES, *oracle._VALIDATION_GRID):
            assert not array.flags.writeable


REFERENCES = (
    (amplitude_polarized, _reference_amplitude_polarized),
    (spin_average_oracle, _reference_spin_average),
    (quad_unpolarized_complex, _reference_trace_expression),
)


class TestKernelParity:
    """Each per-speed kernel route against the explicit four-spinor route."""

    @pytest.mark.parametrize(
        "beta, rtol",
        [(0.0, 1e-12), (0.3, 1e-12), (0.5, 1e-12), (0.9, 1e-12), (0.99, 1e-12),
         # The amplitude cancels like gamma^2 at the oracle's speed ceiling.
         (BETA_ORACLE_MAX, 1e-9)],
    )
    @pytest.mark.parametrize("route, reference", REFERENCES, ids=lambda fn: fn.__name__)
    def test_kernel_route_matches_four_spinor_route(self, route, reference, beta, rtol):
        rng = np.random.default_rng(53)
        chi1, chi2 = rng.uniform(-2.0 * math.pi, 4.0 * math.pi, size=(2, 200))
        speed = Speed(beta)
        expected = reference(speed, chi1, chi2)
        scale = float(np.max(np.abs(expected)))
        assert scale > 0.0
        np.testing.assert_allclose(route(speed, chi1, chi2), expected, rtol=rtol, atol=rtol * scale)


# The two kernel builders that the shared channel contraction and the
# standard pair builder replaced, kept verbatim as the reference the new
# kernels are checked against.  Each wrote out its own channel contraction.


def _separate_polarized_kernel(speed):
    s, t = invariants(momenta(Config.POLARIZED_AXES, speed))
    u_p1, vbar_p2 = polarized_initial_spinors(speed)
    ubar_k1, v_k2 = polarized_final_maps(speed)
    v_k2 = v_k2.T  # (4, 2): columns act on the two-spinor
    # Vertex values, axes (mu, ...); a final spinor leaves its two-spinor axis.
    final_ann = ubar_k1 @ GAMMA_STACK @ v_k2         # ubar(k1) gamma^mu v(k2)
    initial_ann = vbar_p2 @ GAMMA_STACK @ u_p1       # vbar(p2) gamma^mu u(p1)
    electron = ubar_k1 @ GAMMA_STACK @ u_p1          # ubar(k1) gamma^mu u(p1)
    positron = vbar_p2 @ GAMMA_STACK @ v_k2          # vbar(p2) gamma^mu v(k2)
    annihilation = np.tensordot(_SIGNS * initial_ann, final_ann, axes=1)
    exchange = (_SIGNS[:, np.newaxis] * electron).T @ positron
    return t * annihilation - s * exchange


def _separate_unpolarized_kernels(speed):
    weights_mu_sigma = np.outer(_SIGNS, _SIGNS)
    ms = momenta(Config.UNPOLARIZED_AXES, speed)
    s, t = invariants(ms)
    us, vbars = unpolarized_initial_basis(speed)
    u_k1, v_k2 = unpolarized_final_maps(speed)
    ubar_k1, vbar_k2 = dirac_adjoint(u_k1), dirac_adjoint(v_k2)
    u_k1, v_k2 = u_k1.T, v_k2.T  # (4, 2): columns act on the two-spinor

    # Spin average, axes (i, j, ...): electron basis state i, positron basis state j.
    final_ann = ubar_k1 @ GAMMA_STACK @ v_k2                       # (mu, a, b)
    initial_ann = np.einsum("ja,mab,ib->ijm", vbars, GAMMA_STACK, us)
    electron = ubar_k1 @ GAMMA_STACK @ us.T                        # (mu, a, i)
    positron = vbars @ GAMMA_STACK @ v_k2                          # (mu, j, b)
    annihilation = np.tensordot(_SIGNS * initial_ann, final_ann, axes=1)
    exchange = np.einsum("m,mai,mjb->ijab", _SIGNS, electron, positron)
    amplitudes = t * annihilation - s * exchange

    eye = np.eye(4, dtype=complex)
    p2_plus = slash(ms.p2) + ms.m * eye
    p1_minus = ms.m * eye - slash(ms.p1)
    trace_1 = np.einsum("sab,bc,mcd,da->sm", GAMMA_STACK, p2_plus, GAMMA_STACK, p1_minus)
    trace_2 = np.einsum("ab,mbc,cd,sda->ms", p2_plus, GAMMA_STACK, p1_minus, GAMMA_STACK)
    trace_3 = np.einsum("mab,bc,scd,da->ms", GAMMA_STACK, p1_minus, GAMMA_STACK, p2_plus)
    c_sigma = vbar_k2 @ GAMMA_STACK @ u_k1                         # (sigma, c, d)
    weights = t * t * (weights_mu_sigma * trace_1).T - s * t * weights_mu_sigma * (trace_2 + trace_3)
    bilinear_terms = np.tensordot(final_ann, np.tensordot(weights, c_sigma, axes=1), axes=(0, 0))
    gammas = GAMMA_STACK[:, np.newaxis]
    u_block = ubar_k1 @ (gammas @ p1_minus @ GAMMA_STACK) @ u_k1     # (mu, sigma, a, d)
    v_block = vbar_k2 @ (gammas @ p2_plus @ GAMMA_STACK) @ v_k2      # (sigma, mu, c, b)
    fourth_term = np.tensordot(
        weights_mu_sigma[:, :, np.newaxis, np.newaxis] * u_block, v_block.transpose(1, 0, 2, 3),
        axes=([0, 1], [0, 1]),
    ).transpose(0, 3, 2, 1)
    return amplitudes, bilinear_terms + s * s * fourth_term


class TestSharedChannelContraction:
    """The kernels of the shared contraction against the separate builders they replaced."""

    def test_unpolarized_kernels_are_bit_identical(self):
        for k in range(100):
            speed = Speed(k / 100)
            blocks = oracle._unpolarized_blocks(speed)
            amplitudes, trace = _separate_unpolarized_kernels(speed)
            assert np.array_equal(blocks.amplitudes, amplitudes), k
            assert np.array_equal(blocks.trace, trace), k

    def test_polarized_kernel_matches_to_roundoff(self):
        for k in range(100):
            speed = Speed(k / 100)
            kernel = oracle._polarized_blocks(speed).amplitude
            expected = _separate_polarized_kernel(speed)
            assert np.max(np.abs(kernel - expected)) <= 1e-13 * np.max(np.abs(expected)), k


# The least-squares fit that the kernel and probe-matrix reads replaced,
# kept as the reference the reads are checked against.  Only the template
# evaluator is the library's.


def _van_der_corput(index: int, base: int) -> float:
    fraction, value = 1.0, 0.0
    while index > 0:
        fraction /= base
        value += fraction * (index % base)
        index //= base
    return value


def _fit_sample_angles(count: int = 16) -> np.ndarray:
    """Deterministic low-discrepancy angle pairs in [0, 2 pi)^2 (Halton style)."""
    return np.array(
        [
            [2.0 * math.pi * _van_der_corput(i, 2), 2.0 * math.pi * _van_der_corput(i, 3)]
            for i in range(1, count + 1)
        ]
    )


def _polarized_design(chi1: np.ndarray, chi2: np.ndarray) -> np.ndarray:
    """Design matrix over the six quadratic monomials a^2, b^2, ab, c^2, d^2, cd."""
    half_sum = 0.5 * (chi1 + chi2)
    half_diff = 0.5 * (chi1 - chi2)
    return np.stack(
        [
            np.cos(half_sum) ** 2,
            np.sin(half_diff) ** 2,
            2.0 * np.cos(half_sum) * np.sin(half_diff),
            np.sin(half_sum) ** 2,
            np.cos(half_diff) ** 2,
            2.0 * np.sin(half_sum) * np.cos(half_diff),
        ],
        axis=-1,
    )


def _reconstruct_brackets(
    monomials: np.ndarray, chi1: np.ndarray, chi2: np.ndarray, values: np.ndarray
) -> tuple[float, float, float, float]:
    """Recover (a, b, c, d) from least-squares quadratic monomial weights.

    The six monomial functions span only five dimensions (the two squared
    brackets share a constant), so the least-squares solution is defined up
    to the null direction (1, -1, 0, 1, -1, 0).  Only null-free combinations
    are read off; the split of a^2+c^2 versus b^2+d^2 between the two roots
    of the consistency quadratic is decided by re-evaluating both candidate
    reconstructions against the samples.  Signs follow the convention
    a >= 0, c >= 0, with b and d taking the signs of the fitted products
    ab and cd.
    """
    total = monomials[0] + monomials[1] + monomials[3] + monomials[4]  # a^2+b^2+c^2+d^2
    delta_ac = monomials[0] - monomials[3]  # a^2 - c^2
    delta_db = monomials[4] - monomials[1]  # d^2 - b^2
    prod_ab = monomials[2]
    prod_cd = monomials[5]

    # s1 = a^2 + c^2 and s2 = b^2 + d^2 solve z^2 - total*z + product = 0.
    product = delta_ac * delta_db + 2.0 * (prod_ab**2 + prod_cd**2)
    disc = math.sqrt(max(total * total - 4.0 * product, 0.0))
    z_hi = 0.5 * (total + disc)
    z_lo = 0.5 * (total - disc)

    floor = 1e-9 * max(abs(total), 1e-300)

    def build(s1: float, s2: float) -> tuple[float, float, float, float]:
        a_sq = max(0.5 * (s1 + delta_ac), 0.0)
        c_sq = max(0.5 * (s1 - delta_ac), 0.0)
        a = math.sqrt(a_sq)
        c = math.sqrt(c_sq)
        if a_sq > floor:
            b = prod_ab / a
        else:
            b = math.copysign(math.sqrt(max(0.5 * (s2 - delta_db), 0.0)), prod_ab)
        if c_sq > floor:
            d = prod_cd / c
        else:
            d = math.copysign(math.sqrt(max(0.5 * (s2 + delta_db), 0.0)), prod_cd)
        return (a, b, c, d)

    best = None
    for s1, s2 in ((z_hi, z_lo), (z_lo, z_hi)):
        candidate = build(s1, s2)
        fitted = law(template_matrix(CorrelationModel.POLARIZED, candidate), chi1, chi2)
        residual = float(np.max(np.abs(fitted - values)))
        if best is None or residual < best[0]:
            best = (residual, candidate)
    return best[1]


def _unpolarized_design(chi1: np.ndarray, chi2: np.ndarray) -> np.ndarray:
    half_sum = 0.5 * (chi1 + chi2)
    half_diff = 0.5 * (chi1 - chi2)
    return np.stack(
        [np.sin(half_diff) ** 2, np.cos(half_sum) ** 2, np.ones_like(half_sum)], axis=-1
    )


_FIT_CHI1, _FIT_CHI2 = _fit_sample_angles().T


def _solve_design(design: np.ndarray, sample_fn, min_rank: int):
    """Least squares of the oracle at the fit points; returns (solution, values)."""
    values = np.array([sample_fn(a, b) for a, b in zip(_FIT_CHI1, _FIT_CHI2)])
    solution, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    assert rank >= min_rank
    return solution, values


def _lstsq_polarized(speed):
    sample = lambda a, b: abs(amplitude_polarized(speed, a, b)) ** 2
    monomials, values = _solve_design(_polarized_design(_FIT_CHI1, _FIT_CHI2), sample, 5)
    return _reconstruct_brackets(monomials, _FIT_CHI1, _FIT_CHI2, values)


def _lstsq_unpolarized(speed):
    sample = lambda a, b: spin_average_oracle(speed, a, b)
    return tuple(_solve_design(_unpolarized_design(_FIT_CHI1, _FIT_CHI2), sample, 3)[0])


class TestTemplateReads:
    @pytest.mark.parametrize(
        "fit, reference", [(fit_polarized, _lstsq_polarized), (fit_unpolarized, _lstsq_unpolarized)],
        ids=["polarized", "unpolarized"],
    )
    def test_reads_match_the_least_squares_fit(self, fit, reference):
        for k in range(100):
            speed = Speed(k / 100)
            read, expected = np.array(fit(speed).coefficients), np.array(reference(speed))
            assert np.max(np.abs(read - expected)) <= 1e-12 * np.max(np.abs(expected)), k

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.0, 0.99),
        st.floats(-2.0 * math.pi, 4.0 * math.pi),
        st.floats(-2.0 * math.pi, 4.0 * math.pi),
    )
    def test_read_template_reproduces_polarized_intensity(self, beta, chi1, chi2):
        speed = Speed(beta)
        fit = fit_polarized(speed)
        norm = sum(c * c for c in fit.coefficients)
        expected = abs(amplitude_polarized(speed, chi1, chi2)) ** 2
        assert abs(fit.evaluate(chi1, chi2) - expected) <= 1e-12 * norm

    def test_kernel_off_template_fails_the_residual_gate(self, monkeypatch):
        original = oracle._polarized_blocks

        def mutated(speed):
            kernel = original(speed).amplitude.copy()
            kernel[0, 0] += 1e-6 * np.max(np.abs(kernel))
            return oracle._PolarizedBlocks(kernel)

        monkeypatch.setattr(oracle, "_polarized_blocks", mutated)
        assert fit_polarized(Speed(0.5)).rel_residual > 1e-9
        assert not run_verification(fit_betas=(0.5,)).identities_pass

    def test_second_harmonic_in_spin_average_fails_the_residual_gate(self, monkeypatch):
        original = oracle.spin_average_oracle

        def mutated(speed, chi1, chi2):
            return original(speed, chi1, chi2) + 1e-6 * original(speed, 0.0, 0.0) * np.cos(2.0 * chi1)

        monkeypatch.setattr(oracle, "spin_average_oracle", mutated)
        assert fit_unpolarized(Speed(0.5)).rel_residual > 1e-9
        assert not run_verification(fit_betas=(0.5,)).identities_pass

