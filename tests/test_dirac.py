import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincorr.dirac import FourVector, dirac_adjoint, slash

from reference import METRIC, bilinear, gamma, trace_product

component = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
four_vectors = st.builds(FourVector, component, component, component, component)


class TestGamma:
    def test_anticommutation(self):
        """{gamma^mu, gamma^nu} = 2 g^{mu nu} I, entrywise."""
        eye = np.eye(4)
        for mu in range(4):
            for nu in range(4):
                anti = gamma(mu) @ gamma(nu) + gamma(nu) @ gamma(mu)
                np.testing.assert_allclose(anti, 2.0 * METRIC[mu, nu] * eye, atol=1e-14)

    def test_traceless(self):
        for mu in range(4):
            assert abs(np.trace(gamma(mu))) < 1e-14

    def test_gamma0_squares_to_identity(self):
        np.testing.assert_allclose(gamma(0) @ gamma(0), np.eye(4), atol=1e-15)

    @pytest.mark.parametrize("bad", [-1, 4, 5, "0"])
    def test_index_out_of_range(self, bad):
        with pytest.raises(ValueError):
            gamma(bad)

    def test_matrices_are_read_only(self):
        with pytest.raises(ValueError):
            gamma(1)[0, 0] = 7.0


class TestSlash:
    def test_pure_time_component_is_gamma0(self):
        np.testing.assert_allclose(slash(FourVector(1, 0, 0, 0)), gamma(0), atol=1e-15)

    @settings(deadline=None)
    @given(four_vectors)
    def test_slash_squares_to_invariant(self, p):
        """slash(p) @ slash(p) = (p.p) I, the Clifford identity."""
        square = slash(p) @ slash(p)
        scale = max(1.0, abs(p.norm2()))
        np.testing.assert_allclose(square, p.norm2() * np.eye(4), atol=1e-12 * scale)

    def test_on_shell_momentum_squares_to_identity(self):
        # beta = 0.6 gives gamma factor 1.25; (gamma, 0, gamma*beta, 0) has p.p = 1
        p = FourVector(1.25, 0.0, 0.75, 0.0)
        np.testing.assert_allclose(slash(p) @ slash(p), np.eye(4), atol=1e-12)


class TestFourVector:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FourVector(math.nan, 0, 0, 0)
        with pytest.raises(ValueError):
            FourVector(0, math.inf, 0, 0)

    def test_arithmetic_and_dot(self):
        a = FourVector(2.0, 1.0, 0.5, -1.0)
        b = FourVector(1.0, -1.0, 2.0, 0.0)
        assert (a + b).as_array() == pytest.approx([3.0, 0.0, 2.5, -1.0])
        assert (a - b).as_array() == pytest.approx([1.0, 2.0, -1.5, -1.0])
        assert a.dot(b) == pytest.approx(2.0 + 1.0 - 1.0 - 0.0)


class TestAdjoint:
    def test_upper_block_keeps_sign(self):
        row = dirac_adjoint(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
        np.testing.assert_allclose(row, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_lower_block_flips_sign(self):
        row = dirac_adjoint(np.array([0.0, 0.0, 1.0, 0.0], dtype=complex))
        np.testing.assert_allclose(row, [0.0, 0.0, -1.0, 0.0], atol=1e-15)

    def test_involution(self):
        rng = np.random.default_rng(7)
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        np.testing.assert_allclose(dirac_adjoint(dirac_adjoint(u)), u, atol=1e-15)


class TestBilinear:
    def test_identity_sandwich(self):
        e1 = np.zeros(4, dtype=complex)
        e1[0] = 1.0
        assert bilinear(e1, np.eye(4), e1) == pytest.approx(1.0)

    def test_linearity_in_column(self):
        rng = np.random.default_rng(11)
        r = rng.normal(size=4) + 1j * rng.normal(size=4)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        a = 0.37 - 1.2j
        assert bilinear(r, m, a * c) == pytest.approx(a * bilinear(r, m, c))

    def test_gamma0_matches_pre_adjoint_inner_product(self):
        rng = np.random.default_rng(13)
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert bilinear(dirac_adjoint(u), gamma(0), c) == pytest.approx(np.vdot(u, c))


class TestTraceProduct:
    def test_pair_trace_identity(self):
        for mu in range(4):
            for nu in range(4):
                expected = 4.0 * METRIC[mu, nu]
                assert trace_product([gamma(mu), gamma(nu)]) == pytest.approx(expected, abs=1e-13)

    def test_odd_traces_vanish(self):
        for mu in range(4):
            assert abs(trace_product([gamma(mu)])) < 1e-14
        for mu in range(4):
            for nu in range(4):
                for rho_idx in range(4):
                    value = trace_product([gamma(mu), gamma(nu), gamma(rho_idx)])
                    assert abs(value) < 1e-13

    def test_cyclic_property(self):
        rng = np.random.default_rng(23)
        ms = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3)]
        assert trace_product(ms) == pytest.approx(trace_product([ms[2], ms[0], ms[1]]))

    def test_slash_pair_gives_four_times_dot(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            a = FourVector(*rng.uniform(-3, 3, size=4))
            b = FourVector(*rng.uniform(-3, 3, size=4))
            value = trace_product([slash(a), slash(b)])
            scale = max(1.0, abs(a.dot(b)))
            assert value == pytest.approx(4.0 * a.dot(b), abs=1e-12 * scale)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            trace_product([])
