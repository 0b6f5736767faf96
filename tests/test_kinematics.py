import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincorr.dirac import FourVector, dirac_adjoint, slash
from spincorr.kinematics import (
    BETA_ORACLE_MAX,
    Config,
    Speed,
    invariants,
    momenta,
    pair_maps,
    polarized_final_maps,
    polarized_initial_spinors,
    rho,
    xi,
    zeta,
)

from reference import (
    polarized_final_spinors,
    spatial,
    unpolarized_final_maps,
    unpolarized_final_spinors,
    unpolarized_initial_basis,
)

betas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
oracle_betas = st.floats(min_value=0.0, max_value=0.999, allow_nan=False)
angles = st.floats(min_value=-4.0 * math.pi, max_value=4.0 * math.pi, allow_nan=False)


class TestSpeed:
    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan, math.inf])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            Speed(bad)

    def test_gamma_diverges_at_one(self):
        with pytest.raises(ValueError, match="diverges"):
            Speed(1.0).gamma

    def test_gamma_value(self):
        assert Speed(0.6).gamma == pytest.approx(1.25, rel=1e-15)


class TestRho:
    def test_endpoints(self):
        assert rho(0.0) == 0.0
        assert rho(1.0) == 1.0

    def test_known_value(self):
        assert rho(0.6) == pytest.approx(1.0 / 3.0, rel=1e-15)

    @given(betas)
    def test_bounded_by_beta(self, b):
        assert 0.0 <= rho(b) <= b

    def test_monotone(self):
        grid = np.linspace(0.0, 1.0, 201)
        values = [rho(b) for b in grid]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_domain_check(self):
        with pytest.raises(ValueError):
            rho(1.5)


class TestMomenta:
    def test_rest_frame(self):
        ms = momenta(Config.POLARIZED_AXES, Speed(0.0))
        for p in (ms.p1, ms.p2, ms.k1, ms.k2):
            assert p.as_array() == pytest.approx([1.0, 0.0, 0.0, 0.0])

    def test_beta_06_polarized(self):
        ms = momenta(Config.POLARIZED_AXES, Speed(0.6))
        assert ms.p1.as_array() == pytest.approx([1.25, 0.0, 0.75, 0.0], rel=1e-15)
        assert ms.k1.as_array() == pytest.approx([1.25, 0.0, 0.0, 0.75], rel=1e-15)

    def test_beta_06_unpolarized_final_axis(self):
        ms = momenta(Config.UNPOLARIZED_AXES, Speed(0.6))
        assert ms.k1.as_array() == pytest.approx([1.25, 0.75, 0.0, 0.0], rel=1e-15)

    @settings(deadline=None)
    @given(oracle_betas, st.sampled_from(list(Config)))
    def test_conservation_and_shell(self, b, config):
        ms = momenta(config, Speed(b))
        total_in = ms.p1 + ms.p2
        total_out = ms.k1 + ms.k2
        np.testing.assert_allclose(total_in.as_array(), total_out.as_array(), atol=1e-14)
        np.testing.assert_allclose(spatial(ms.p1), -np.asarray(spatial(ms.p2)), atol=1e-14)
        np.testing.assert_allclose(spatial(ms.k1), -np.asarray(spatial(ms.k2)), atol=1e-14)
        for p in (ms.p1, ms.p2, ms.k1, ms.k2):
            assert p.norm2() == pytest.approx(1.0, abs=1e-12)

    def test_on_shell_at_large_beta(self):
        ms = momenta(Config.POLARIZED_AXES, Speed(0.9))
        assert ms.p1.norm2() == pytest.approx(1.0, abs=1e-12)

    def test_lightlike_rejected(self):
        with pytest.raises(ValueError, match="Lorentz factor"):
            momenta(Config.POLARIZED_AXES, Speed(1.0))
        with pytest.raises(ValueError, match="Lorentz factor"):
            momenta(Config.POLARIZED_AXES, Speed(BETA_ORACLE_MAX + 1e-9))


class TestInvariants:
    def test_rest_frame(self):
        inv = invariants(momenta(Config.POLARIZED_AXES, Speed(0.0)))
        assert inv.s == pytest.approx(4.0)
        assert inv.t == pytest.approx(0.0, abs=1e-15)

    def test_beta_06(self):
        inv = invariants(momenta(Config.POLARIZED_AXES, Speed(0.6)))
        assert inv.s == pytest.approx(6.25, rel=1e-14)
        assert inv.t == pytest.approx(-1.125, rel=1e-14)

    def test_matches_componentwise_recompute(self):
        rng = np.random.default_rng(31)
        for b in rng.uniform(0.0, 0.99, size=20):
            speed = Speed(b)
            for config in Config:
                ms = momenta(config, speed)
                inv = invariants(ms)
                s_brute = (ms.p1 + ms.p2).dot(ms.p1 + ms.p2)
                t_brute = (ms.p1 - ms.k1).dot(ms.p1 - ms.k1)
                assert inv.s == pytest.approx(s_brute, abs=1e-12)
                assert inv.t == pytest.approx(t_brute, abs=1e-12)

    def test_closed_forms_for_polarized_axes(self):
        for b in np.linspace(0.0, 0.99, 34):
            speed = Speed(b)
            inv = invariants(momenta(Config.POLARIZED_AXES, speed))
            g2 = speed.gamma**2
            assert inv.s == pytest.approx(4.0 * g2, rel=1e-12)
            assert inv.t == pytest.approx(-2.0 * g2 * b * b, abs=1e-12)


class TestTwoSpinors:
    def test_zeta_at_zero(self):
        np.testing.assert_allclose(zeta(0.0), np.array([1.0, 1.0]) / math.sqrt(2.0), atol=1e-15)

    def test_xi_printed_values(self):
        np.testing.assert_allclose(xi(0.0), [-1.0j, 0.0], atol=1e-15)
        np.testing.assert_allclose(xi(math.pi), [0.0, 1.0], atol=1e-15)

    @given(angles)
    def test_unit_norms(self, chi):
        assert np.linalg.norm(zeta(chi)) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(xi(chi)) == pytest.approx(1.0, abs=1e-12)

    @given(angles)
    def test_pi_shift_gives_orthonormal_pair(self, chi):
        assert abs(np.vdot(zeta(chi), zeta(chi + math.pi))) < 1e-12
        assert abs(np.vdot(xi(chi), xi(chi + math.pi))) < 1e-12


class TestPolarizedSpinors:
    def test_rest_frame_initial(self):
        u, vbar = polarized_initial_spinors(Speed(0.0))
        np.testing.assert_allclose(u, [1.0, 0.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(vbar, [0.0, 0.0, 0.0, -1.0], atol=1e-15)

    def test_beta_06_initial(self):
        u, _ = polarized_initial_spinors(Speed(0.6))
        np.testing.assert_allclose(u, [1.0, 0.0, 0.0, 1j / 3.0], atol=1e-15)

    @given(oracle_betas)
    def test_rho_consistency(self, b):
        u, vbar = polarized_initial_spinors(Speed(b))
        assert np.all(np.isfinite(u.view(float))) and np.all(np.isfinite(vbar.view(float)))
        assert u[3] == pytest.approx(1j * rho(b), abs=1e-15)
        assert vbar[0] == pytest.approx(1j * rho(b), abs=1e-15)

    def test_rest_frame_final_row(self):
        ubar, _ = polarized_final_spinors(Speed(0.0), 0.0, 0.0)
        np.testing.assert_allclose(ubar, np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0), atol=1e-15)

    def test_lower_block_of_v_is_zeta(self):
        _, v = polarized_final_spinors(Speed(0.7), 0.3, 1.1)
        np.testing.assert_allclose(v[2:], zeta(1.1), atol=1e-15)

    def test_beta_06_v_column(self):
        _, v = polarized_final_spinors(Speed(0.6), 0.0, 0.0)
        expected = np.array([1.0 / 3.0, -1.0 / 3.0, 1.0, 1.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(v, expected, atol=1e-15)


class TestUnpolarizedSpinors:
    def test_rest_frame_u(self):
        u, _ = unpolarized_final_spinors(Speed(0.0), 0.0, 0.0)
        np.testing.assert_allclose(u, [-1.0j, 0.0, 0.0, 0.0], atol=1e-15)

    @settings(deadline=None)
    @given(oracle_betas, angles)
    def test_normalization_ubar_u(self, b, chi):
        u, _ = unpolarized_final_spinors(Speed(b), chi, 0.0)
        assert dirac_adjoint(u) @ u == pytest.approx(1.0, abs=1e-10)

    @settings(deadline=None)
    @given(oracle_betas, angles)
    def test_normalization_vbar_v(self, b, chi):
        _, v = unpolarized_final_spinors(Speed(b), 0.0, chi)
        assert dirac_adjoint(v) @ v == pytest.approx(-1.0, abs=1e-10)

    @given(oracle_betas)
    def test_initial_basis_normalization(self, b):
        us, v_p2 = pair_maps(Speed(b), 1)
        vbars = dirac_adjoint(v_p2)
        assert len(us) == 2 and len(vbars) == 2
        assert dirac_adjoint(us[0]) @ us[0] == pytest.approx(1.0, abs=1e-10)
        assert dirac_adjoint(us[1]) @ us[1] == pytest.approx(1.0, abs=1e-10)
        # adjoints of the two v spinors annihilate the opposite-spin electron state
        assert abs(dirac_adjoint(us[0]) @ us[1]) < 1e-12


class TestFinalSpinorMaps:
    def test_polarized_maps_at_beta_06(self):
        r = 1.0 / 3.0
        ubar_k1, v_k2 = polarized_final_maps(Speed(0.6))
        np.testing.assert_allclose(ubar_k1, [[1, 0, r, 0], [0, 1, 0, -r]], atol=1e-15)
        np.testing.assert_allclose(v_k2, [[r, 0, 1, 0], [0, -r, 0, 1]], atol=1e-15)

    def test_unpolarized_maps_at_beta_06(self):
        r, scale = 1.0 / 3.0, math.sqrt(1.125)
        u_k1, v_k2 = pair_maps(Speed(0.6), 0)
        np.testing.assert_allclose(u_k1 / scale, [[1, 0, 0, r], [0, 1, r, 0]], atol=1e-15)
        np.testing.assert_allclose(v_k2 / scale, [[0, -r, 1, 0], [-r, 0, 0, 1]], atol=1e-15)

    @pytest.mark.parametrize(
        "maps",
        (polarized_final_maps, functools.partial(pair_maps, axis=0)),
        ids=("polarized_final_maps", "pair_maps"),
    )
    def test_maps_reject_near_lightlike(self, maps):
        with pytest.raises(ValueError, match="Lorentz factor"):
            maps(Speed(BETA_ORACLE_MAX + 1e-9))


class TestBatchedFinalSpinors:
    @pytest.mark.parametrize(
        "builder", (polarized_final_spinors, unpolarized_final_spinors), ids=lambda fn: fn.__name__
    )
    @pytest.mark.parametrize("beta", (0.0, 0.6, BETA_ORACLE_MAX))
    def test_rows_equal_scalar_spinors(self, builder, beta):
        rng = np.random.default_rng(43)
        chi1, chi2 = rng.uniform(-2.0 * math.pi, 4.0 * math.pi, size=(2, 20))
        speed = Speed(beta)
        first, second = builder(speed, chi1, chi2)
        assert first.shape == second.shape == (20, 4)
        for i, (a, b) in enumerate(zip(chi1, chi2)):
            scalar_first, scalar_second = builder(speed, a, b)
            np.testing.assert_allclose(first[i], scalar_first, rtol=1e-15, atol=1e-15)
            np.testing.assert_allclose(second[i], scalar_second, rtol=1e-15, atol=1e-15)


class TestPairMaps:
    def test_equal_the_builders_they_replaced(self):
        for beta in [k / 100 for k in range(100)] + [BETA_ORACLE_MAX]:
            speed = Speed(beta)
            u_k1, v_k2 = pair_maps(speed, 0)
            old_u_k1, old_v_k2 = unpolarized_final_maps(speed)
            assert np.array_equal(u_k1, old_u_k1) and np.array_equal(v_k2, old_v_k2), beta
            us, v_p2 = pair_maps(speed, 1)
            old_us, old_vbars = unpolarized_initial_basis(speed)
            assert np.array_equal(us, old_us) and np.array_equal(dirac_adjoint(v_p2), old_vbars), beta


def _seeded_speeds(count=200, seed=20260811):
    return [Speed(b) for b in np.random.default_rng(seed).uniform(0.0, 1.0, size=count)] + [
        Speed(BETA_ORACLE_MAX)
    ]


def _reversed(p):
    return FourVector(p.t, -p.x, -p.y, -p.z)


def _dirac_operator(p, mass_sign, m=1.0):
    """pslash + mass_sign * m: the minus sign annuls u and ubar, the plus sign v and vbar."""
    return slash(p) + mass_sign * m * np.eye(4)


class TestDiracEquation:
    """Each spinor family against the momentum that ``momenta`` gives it.

    u(p) solves (pslash - m) u = 0 and v(p) solves (pslash + m) v = 0; the
    rows of a map are spinors, so each residual is one matrix product.
    """

    @pytest.mark.parametrize("config, final_axis", [(Config.POLARIZED_AXES, 2), (Config.UNPOLARIZED_AXES, 0)])
    def test_pair_maps_solve_for_their_momenta(self, config, final_axis):
        for speed in _seeded_speeds():
            ms = momenta(config, speed)
            for axis, p, q in ((1, ms.p1, ms.p2), (final_axis, ms.k1, ms.k2)):
                u, v = pair_maps(speed, axis)
                worst = max(
                    np.max(np.abs(_dirac_operator(p, -1.0) @ u.T)),
                    np.max(np.abs(_dirac_operator(q, 1.0) @ v.T)),
                )
                assert worst <= 1e-14 * speed.gamma, (speed.beta, axis)

    def test_verbatim_polarized_vbar_solves_for_the_electron_momentum(self):
        # A pinned finding, not a verdict: vbar(p2) = (i rho, 0, 0, -1)
        # solves vbar (pslash + m) = 0 for p1, not for its own momentum p2.
        speed = Speed(0.6)
        ms = momenta(Config.POLARIZED_AXES, speed)
        u_p1, vbar_p2 = polarized_initial_spinors(speed)
        assert np.max(np.abs(_dirac_operator(ms.p1, -1.0) @ u_p1)) < 1e-15
        assert np.max(np.abs(vbar_p2 @ _dirac_operator(ms.p2, 1.0))) == pytest.approx(1.5, rel=1e-14)
        assert np.max(np.abs(vbar_p2 @ _dirac_operator(ms.p1, 1.0))) < 1e-15

    def test_polarized_final_maps_solve_for_reversed_momenta(self):
        # A pinned finding, not a verdict: the rows of ubar(k1) and v(k2)
        # solve the Dirac equation for -k1 and -k2.
        for speed in _seeded_speeds():
            ms = momenta(Config.POLARIZED_AXES, speed)
            ubar_k1, v_k2 = polarized_final_maps(speed)
            worst = max(
                np.max(np.abs(ubar_k1 @ _dirac_operator(_reversed(ms.k1), -1.0))),
                np.max(np.abs(_dirac_operator(_reversed(ms.k2), 1.0) @ v_k2.T)),
            )
            assert worst <= 1e-14 * speed.gamma, speed.beta
        ms = momenta(Config.POLARIZED_AXES, Speed(0.6))
        ubar_k1, v_k2 = polarized_final_maps(Speed(0.6))
        assert np.max(np.abs(ubar_k1 @ _dirac_operator(ms.k1, -1.0))) == pytest.approx(1.5, rel=1e-14)
        assert np.max(np.abs(_dirac_operator(ms.k2, 1.0) @ v_k2.T)) == pytest.approx(1.5, rel=1e-14)
