import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from isingspec import (
    CapacityError,
    ChainParams,
    ParameterError,
    bogoliubov_angle,
    branch_lambda,
    build_mode_table,
    dispersion,
    momentum_grid,
)


class TestMomentumGrid:
    def test_four_sites(self):
        np.testing.assert_allclose(momentum_grid(4), [np.pi / 4, 3 * np.pi / 4])

    def test_two_sites(self):
        np.testing.assert_allclose(momentum_grid(2), [np.pi / 2])

    def test_large_chain(self):
        k = momentum_grid(1000)
        assert len(k) == 500
        assert k[0] == pytest.approx(np.pi / 1000)
        assert k[-1] == pytest.approx(999 * np.pi / 1000)
        assert np.all(np.diff(k) > 0)
        assert np.all((k > 0) & (k < np.pi))

    @pytest.mark.parametrize("bad", [0, 1, 5, -4])
    def test_rejects_odd_or_nonpositive(self, bad):
        with pytest.raises(ParameterError):
            momentum_grid(bad)

    def test_past_array_size_is_capacity_error(self):
        # numpy refuses a 300-digit length before allocating anything
        with pytest.raises(CapacityError, match="n_sites"):
            momentum_grid(2 * 10**299)


class TestDispersion:
    def test_flat_at_zero_field(self):
        k = momentum_grid(20)
        np.testing.assert_allclose(dispersion(k, 0.0), 2.0)

    def test_band_top_at_critical_point(self):
        assert dispersion(np.pi, 1.0) == pytest.approx(4.0)

    def test_near_closing_gap(self):
        # at lambda = 1 the gap is 4 sin(k/2), nearly closed for the smallest k
        assert dispersion(np.pi / 1000, 1.0) == pytest.approx(
            4 * math.sin(np.pi / 2000), rel=1e-12
        )

    @given(
        k=st.floats(1e-6, math.pi - 1e-6),
        lam=st.floats(-5.0, 5.0),
    )
    def test_closed_form_identity(self, k, lam):
        # the expanded radicand cancels catastrophically near a closing gap,
        # hence the absolute fallback tolerance there
        expected = 2.0 * math.sqrt(1.0 + lam * lam - 2.0 * lam * math.cos(k))
        assert dispersion(k, lam) == pytest.approx(expected, rel=1e-12, abs=1e-8)

    @given(
        k=st.floats(1e-6, math.pi - 1e-6),
        lam=st.floats(1e-3, 1e3),
    )
    def test_duality(self, k, lam):
        assert dispersion(k, lam) == pytest.approx(
            lam * dispersion(k, 1.0 / lam), rel=1e-12
        )


class TestBogoliubovAngle:
    def test_critical_midband(self):
        assert bogoliubov_angle(np.pi / 2, 1.0) == pytest.approx(np.pi / 4)

    def test_zero_field_midband(self):
        assert bogoliubov_angle(np.pi / 2, 0.0) == pytest.approx(np.pi / 2)

    def test_strong_field_midband(self):
        assert bogoliubov_angle(np.pi / 2, 2.0) == pytest.approx(math.atan(0.5))

    def test_range_is_upper_half_plane(self):
        k = momentum_grid(200)
        for lam in (0.0, 0.5, 1.0, 2.0, -0.7):
            th = bogoliubov_angle(k, lam)
            assert np.all((th >= 0) & (th <= np.pi))

    @given(
        k=st.floats(1e-4, math.pi - 1e-4),
        lam=st.floats(-3.0, 3.0),
    )
    def test_tangent_identity(self, k, lam):
        if abs(lam - math.cos(k)) < 1e-6:
            return  # tangent blows up at the crossing; the angle itself is fine
        th = bogoliubov_angle(k, lam)
        assert math.tan(th) * (lam - math.cos(k)) == pytest.approx(
            math.sin(k), rel=1e-10
        )


class TestModeTable:
    def test_zero_coupling_zeroes_every_alpha(self):
        p = ChainParams(n_sites=12, lam=0.8, g_over_b=0.0, gamma_over_b=0.0)
        table = build_mode_table(p, n_max=3)
        np.testing.assert_allclose(table.alpha, 0.0, atol=1e-15)

    def test_single_mode_values(self):
        # N=2 has the lone momentum pi/2; branch 0 of lambda=1, g/B=0.1 sits
        # at lambda_0 = 0.9.  Frozen from direct evaluation of the closed
        # forms; the branch energy doubles as the 2x2 eigenvalue
        # 2 sqrt(1 + lambda_0^2).
        p = ChainParams(n_sites=2, lam=1.0, g_over_b=0.1, gamma_over_b=0.0)
        table = build_mode_table(p, n_max=1)
        assert table.momenta[0] == pytest.approx(np.pi / 2)
        assert table.epsilon[0, 0] == pytest.approx(2.6907248094147422, rel=1e-14)
        assert table.epsilon[0, 0] == pytest.approx(
            2 * math.sqrt(1 + 0.9**2), rel=1e-14
        )
        theta = bogoliubov_angle(table.momenta[0], branch_lambda(p, 0))
        assert theta == pytest.approx(0.83798122500839, rel=1e-14)
        assert table.alpha[0, 0] == pytest.approx(0.026291530805470864, rel=1e-12)

    def test_far_field_angles_vanish(self):
        p = ChainParams(n_sites=16, lam=1e6, g_over_b=0.1, gamma_over_b=0.0)
        table = build_mode_table(p, n_max=2)
        k = table.momenta
        thetas = [bogoliubov_angle(k, branch_lambda(p, n)) for n in range(3)]
        assert np.max(np.abs(thetas)) < 1e-5
        assert np.max(np.abs(table.alpha)) < 1e-5

    def test_branch_rows_match_scalar_functions(self):
        p = ChainParams(n_sites=10, lam=0.7, g_over_b=0.04, gamma_over_b=0.0)
        table = build_mode_table(p, n_max=4)
        k = table.momenta
        for n in range(5):
            lam_n = 0.7 - (2 * n + 1) * 0.04
            np.testing.assert_allclose(table.epsilon[n], dispersion(k, lam_n))
            np.testing.assert_allclose(
                bogoliubov_angle(k, branch_lambda(p, n)), bogoliubov_angle(k, lam_n)
            )
            np.testing.assert_allclose(
                table.alpha[n], 0.5 * (bogoliubov_angle(k, lam_n) - bogoliubov_angle(k, p.lam))
            )

    def test_energies_nonnegative_even_for_negative_branch_lambda(self):
        p = ChainParams(n_sites=8, lam=0.1, g_over_b=0.2, gamma_over_b=0.0)
        table = build_mode_table(p, n_max=3)  # branch 3 sits at lambda = -1.3
        assert np.all(table.epsilon >= 0)

    def test_rejects_zero_branch_cutoff(self):
        p = ChainParams(n_sites=8, lam=1.0, g_over_b=0.1, gamma_over_b=0.0)
        with pytest.raises(ParameterError):
            build_mode_table(p, n_max=0)
