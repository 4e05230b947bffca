import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingspec import (
    CapacityError,
    ChainParams,
    ModeCoefficients,
    build_mode_table,
    decoherence_factor,
    enumerate_lines,
    mode_coefficients,
    mode_factor,
    oracle_decoherence,
    oracle_mode_factor,
)
from isingspec.decoherence import _product_error, _veltkamp_split, grid_plan


# half-grid spacing of the auto grid at Gamma/B = 0.0039 (t_max = 8/Gamma)
# with 2^16 samples; a full 53-bit mantissa, so j * dt rounds
UNIFORM_DT = 2.0 * (8.0 / 0.0039) / 65536


def params_for(n_sites=8, lam=1.0, g_over_b=0.1):
    return ChainParams(n_sites=n_sites, lam=lam, g_over_b=g_over_b, gamma_over_b=0.0)


def loop_reference(table, n, t):
    """The per-mode loop: mode_factor per momentum pair, ascending k."""
    c = mode_coefficients(table.alpha[n], table.alpha[n - 1])
    acc = np.ones(np.shape(t), dtype=complex)
    for j in range(table.momenta.size):
        coeffs = ModeCoefficients(pp=c.pp[j], pm=c.pm[j], mp=c.mp[j], mm=c.mm[j])
        acc *= mode_factor(coeffs, table.epsilon[n][j], table.epsilon[n - 1][j], t)
    return acc


def longdouble_echo(table, n, times):
    """The echo product in extended precision at longdouble times.

    Weights and tone frequencies are the kernel's own float64 inputs, so
    the difference measures the kernel's arithmetic alone.
    """
    c = mode_coefficients(table.alpha[n], table.alpha[n - 1])
    cs, ds, cq, dq = (
        np.asarray(w, dtype=np.longdouble)
        for w in (c.pp + c.mm, c.pp - c.mm, c.pm + c.mp, c.pm - c.mp)
    )
    ws = (table.epsilon[n] + table.epsilon[n - 1]).astype(np.longdouble)
    wq = (table.epsilon[n] - table.epsilon[n - 1]).astype(np.longdouble)
    acc = np.ones(times.shape, dtype=np.clongdouble)
    for j in range(ws.size):
        s, q = ws[j] * times, wq[j] * times
        acc *= cs[j] * np.cos(s) + cq[j] * np.cos(q) + 1j * (
            ds[j] * np.sin(s) + dq[j] * np.sin(q)
        )
    return acc


class TestModeCoefficients:
    def test_equal_angles(self):
        alpha = 0.3
        c = mode_coefficients(alpha, alpha)
        assert c.pp == pytest.approx(0.0, abs=1e-15)
        assert c.mm == pytest.approx(0.0, abs=1e-15)
        assert c.pm == pytest.approx(math.sin(alpha) ** 2, rel=1e-12)
        assert c.mp == pytest.approx(math.cos(alpha) ** 2, rel=1e-12)

    def test_orthogonal_rotation(self):
        c = mode_coefficients(0.0, np.pi / 2)
        for value, expected in zip((c.pp, c.pm, c.mp, c.mm), (0.0, 0.0, 0.0, 1.0)):
            assert value == pytest.approx(expected, abs=1e-15)

    @given(
        a=st.floats(-math.pi, math.pi),
        b=st.floats(-math.pi, math.pi),
    )
    def test_sum_rule(self, a, b):
        c = mode_coefficients(a, b)
        assert c.pp + c.pm + c.mp + c.mm == pytest.approx(1.0, abs=1e-12)

    def test_sum_rule_bulk(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-np.pi, np.pi, 10_000)
        b = rng.uniform(-np.pi, np.pi, 10_000)
        c = mode_coefficients(a, b)
        total = c.pp + c.pm + c.mp + c.mm
        assert np.max(np.abs(total - 1.0)) < 1e-12
        for channel in (c.pp, c.pm, c.mp, c.mm):
            assert np.all(np.abs(channel) <= 1.0 + 1e-15)

    def test_channel_pair_identities(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-np.pi, np.pi, 1000)
        b = rng.uniform(-np.pi, np.pi, 1000)
        c = mode_coefficients(a, b)
        delta = b - a
        np.testing.assert_allclose(c.pp + c.mm, np.sin(delta) ** 2, atol=1e-12)
        np.testing.assert_allclose(c.pm + c.mp, np.cos(delta) ** 2, atol=1e-12)


class TestModeFactor:
    def test_unity_at_time_zero(self):
        c = mode_coefficients(0.2, 0.5)
        assert mode_factor(c, 1.3, 0.9, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_identical_branches_stay_unimodular(self):
        # equal angles and equal energies: the two branch Hamiltonians
        # coincide, so the echo is a pure phase
        c = mode_coefficients(0.4, 0.4)
        t = np.linspace(0.0, 30.0, 301)
        values = mode_factor(c, 2.0, 2.0, t)
        np.testing.assert_allclose(np.abs(values), 1.0, atol=1e-12)

    def test_modulus_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = rng.uniform(-np.pi, np.pi, 2)
            en, ep = rng.uniform(0.0, 4.0, 2)
            t = rng.uniform(-20.0, 20.0)
            value = mode_factor(mode_coefficients(a, b), en, ep, t)
            assert abs(value) <= 1.0 + 1e-12

    def test_commuting_diagonal_case_is_pure_phase(self):
        # at zero angles the reference state is an exact eigenvector of both
        # branch Hamiltonians, so the echo keeps unit modulus
        t = np.linspace(0.0, 25.0, 100)
        values = oracle_mode_factor(2.0, 1.3, 0.0, 0.0, t)
        np.testing.assert_allclose(np.abs(values), 1.0, atol=1e-12)

    def test_matches_two_level_oracle(self):
        # this agreement pins the sign pairing of channel labels to phases
        rng = np.random.default_rng(17)
        for _ in range(300):
            a, b = rng.uniform(-np.pi / 2, np.pi / 2, 2)
            en, ep = rng.uniform(0.0, 4.0, 2)
            t = rng.uniform(-10.0, 10.0)
            analytic = mode_factor(mode_coefficients(a, b), en, ep, t)
            dense = oracle_mode_factor(en, ep, a, b, t)
            assert abs(analytic - dense) < 1e-12


class TestDecoherenceFactor:
    def test_unity_at_time_zero(self):
        table = build_mode_table(params_for(), n_max=2)
        assert decoherence_factor(table, 1, 0.0) == pytest.approx(1.0, abs=1e-13)

    def test_zero_coupling_is_identity(self):
        table = build_mode_table(params_for(g_over_b=0.0), n_max=2)
        t = np.linspace(0.0, 50.0, 101)
        np.testing.assert_allclose(decoherence_factor(table, 1, t), 1.0, atol=1e-12)

    def test_modulus_bounded(self):
        table = build_mode_table(params_for(n_sites=100, lam=1.0), n_max=1)
        t = np.linspace(0.0, 40.0, 400)
        values = decoherence_factor(table, 1, t)
        assert np.max(np.abs(values)) <= 1.0 + 100 * 1e-12

    def test_time_reversal_and_order_swap(self):
        # real line weights make D(-t) = conj(D(t)); swapping the branch
        # order adjoints the echo operator, so the (n-1,n)-ordered product at
        # +t is conj(D_{n,n-1}(t)) and hence equals D_{n,n-1}(-t) directly
        p = params_for(n_sites=10, lam=0.8, g_over_b=0.07)
        table = build_mode_table(p, n_max=1)
        t = np.linspace(0.1, 15.0, 40)
        reversed_time = decoherence_factor(table, 1, -t)
        forward = decoherence_factor(table, 1, t)
        np.testing.assert_allclose(reversed_time, np.conj(forward), atol=1e-12)
        swapped = np.ones(t.shape, dtype=complex)
        for j in range(len(table.momenta)):
            c = mode_coefficients(table.alpha[0][j], table.alpha[1][j])
            swapped *= mode_factor(c, table.epsilon[0][j], table.epsilon[1][j], t)
        np.testing.assert_allclose(swapped, np.conj(forward), atol=1e-12)

    def test_against_dense_diagonalization(self):
        rng = np.random.default_rng(23)
        times = rng.uniform(0.0, 20.0, 25)
        for n_sites in (4, 8):
            for lam, g in ((1.0, 0.1), (0.5, 0.05), (2.0, 0.08), (0.3, 0.08125)):
                p = params_for(n_sites=n_sites, lam=lam, g_over_b=g)
                table = build_mode_table(p, n_max=2)
                for branch in (1, 2):
                    analytic = decoherence_factor(table, branch, times)
                    dense = oracle_decoherence(n_sites, p, branch, times)
                    assert np.max(np.abs(analytic - dense)) < 1e-8

    def test_scalar_and_array_agree(self):
        table = build_mode_table(params_for(), n_max=1)
        t = 3.7
        scalar = decoherence_factor(table, 1, t)
        array = decoherence_factor(table, 1, np.array([t]))
        assert scalar == array[0]


class TestBlockFactorizedPath:
    """Near-uniform 1-D grids of at least 2048 samples take the block product."""

    @pytest.mark.parametrize("lam", [0.25, 1.0, 100.0])
    @pytest.mark.parametrize("n_sites", [2, 16, 1000])
    def test_error_against_extended_precision(self, n_sites, lam):
        table = build_mode_table(params_for(n_sites=n_sites, lam=lam, g_over_b=0.08125), n_max=1)
        # four whole blocks, a one-sample tail, the 2^16 grid's half-grid,
        # and two grids that do not start at t = 0 (the threshold-scan tail);
        # each with its nominal start and step
        grids = [
            (np.arange(n) * UNIFORM_DT, 0.0, UNIFORM_DT) for n in (2048, 2049, 32769)
        ]
        grids += [
            (np.linspace(0.1, 300.0, 4096), 0.1, (300.0 - 0.1) / 4095),
            (np.arange(20.0, 708.5, 0.1), 20.0, 0.1),
        ]
        for t, start, step in grids:
            length = t.size
            block = decoherence_factor(table, 1, t)
            # every 13th sample (coprime to the block size of 512) and the
            # last, whose short final step keeps even 2522 samples off the
            # block path
            idx = np.r_[np.arange(3, length, 13), length - 1]
            loop = decoherence_factor(table, 1, t[idx])
            assert np.any(block[idx] != loop)  # the grid took the block path
            # against the nominal times start + j step, and against the float
            # t_j the block path corrects its split t_aB + (t_b - t_0) onto
            nominal = np.longdouble(start) + idx.astype(np.longdouble) * step
            for times in (nominal, t[idx].astype(np.longdouble)):
                exact = longdouble_echo(table, 1, times)
                block_error = float(np.max(np.abs(block[idx] - exact)))
                loop_error = float(np.max(np.abs(loop - exact)))
                assert block_error <= 2.0 * loop_error + 1e-15, (
                    length, block_error, loop_error
                )

    @pytest.mark.parametrize(
        "t",
        [
            np.arange(1023) * UNIFORM_DT,
            np.arange(2047) * UNIFORM_DT,  # one sample short of the block floor
            (np.arange(2048) * UNIFORM_DT).reshape(2, 1024),  # not 1-D
            np.array([3.7]),
            # uniform to within a quarter step: the split misses by far more
            # than 1e-9 of a phase
            (np.arange(4096) + np.random.default_rng(3).uniform(-0.25, 0.25, 4096))
            * UNIFORM_DT,
        ],
        ids=["short", "2047", "2d", "single", "jittered"],
    )
    def test_other_grids_keep_the_loop_bitwise(self, t):
        table = build_mode_table(params_for(n_sites=100, lam=1.0, g_over_b=0.08125), n_max=1)
        np.testing.assert_array_equal(
            decoherence_factor(table, 1, t), loop_reference(table, 1, t)
        )

    def test_plan_and_workspace_keep_the_bits(self):
        table = build_mode_table(params_for(n_sites=100, lam=1.0, g_over_b=0.08125), n_max=2)
        t = np.arange(32769) * UNIFORM_DT
        plan = grid_plan(t)
        assert plan.size == np.size(plan) == t.size
        workspace = plan.workspace()
        for n in (1, 2):  # the second call reuses the first's buffers
            assert plan.takes_block(table, n)
            np.testing.assert_array_equal(
                decoherence_factor(table, n, plan, workspace=workspace),
                decoherence_factor(table, n, t),
            )

    def test_row_phase_miss_is_exact(self):
        # w t - fl(w t) for tone frequencies and times of the N = 1000 auto
        # grids (phases up to ~4.7e5), against exact rational arithmetic; an
        # extended-precision (80-bit) product misses these in the last bits
        rng = np.random.default_rng(29)
        w = rng.uniform(0.0, 230.0, 2000)
        t = rng.uniform(0.0, 2051.0, 2000)
        phase = w * t
        miss = _product_error(_veltkamp_split(w), _veltkamp_split(t), phase)
        for wi, ti, pi, mi in zip(w, t, phase, miss):
            assert Fraction(mi) == Fraction(wi) * Fraction(ti) - Fraction(pi)


class TestEnumerateLines:
    def test_single_mode_lines(self):
        p = params_for(n_sites=2)
        table = build_mode_table(p, n_max=1)
        decomp = enumerate_lines(table, 1, weight_floor=0.0)
        assert decomp.centers.size == 4
        c = mode_coefficients(table.alpha[1][0], table.alpha[0][0])
        en, ep = table.epsilon[1][0], table.epsilon[0][0]
        expected = {
            (en + ep): c.pp,
            (en - ep): c.pm,
            (-en + ep): c.mp,
            (-en - ep): c.mm,
        }
        for center, weight in zip(decomp.centers, decomp.weights):
            key = min(expected, key=lambda x: abs(x - center))
            assert weight == pytest.approx(expected[key], abs=1e-14)

    @pytest.mark.parametrize("n_sites", [2, 4, 6, 8])
    def test_weight_sum_rule(self, n_sites):
        p = params_for(n_sites=n_sites, lam=0.9, g_over_b=0.09)
        table = build_mode_table(p, n_max=1)
        decomp = enumerate_lines(table, 1, weight_floor=0.0)
        assert decomp.centers.size == 4 ** (n_sites // 2)
        assert np.sum(decomp.weights) == pytest.approx(1.0, abs=1e-10)
        assert decomp.pruned_weight == 0.0

    def test_line_sum_reproduces_product(self):
        p = params_for(n_sites=8, lam=1.1, g_over_b=0.12)
        table = build_mode_table(p, n_max=1)
        decomp = enumerate_lines(table, 1, weight_floor=0.0)
        rng = np.random.default_rng(5)
        t = rng.uniform(-15.0, 15.0, 100)
        reconstructed = (
            decomp.weights[None, :] * np.exp(1j * np.outer(t, decomp.centers))
        ).sum(axis=1)
        direct = decoherence_factor(table, 1, t)
        assert np.max(np.abs(reconstructed - direct)) < 1e-10

    def test_pruning_accounts_for_dropped_mass(self):
        p = params_for(n_sites=8, lam=1.0, g_over_b=0.15)
        table = build_mode_table(p, n_max=1)
        full = enumerate_lines(table, 1, weight_floor=0.0)
        pruned = enumerate_lines(table, 1, weight_floor=1e-4)
        assert pruned.centers.size < full.centers.size
        assert pruned.pruned_abs_weight > 0.0
        total = np.sum(pruned.weights) + pruned.pruned_weight
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_capacity_error_points_to_fft(self):
        p = params_for(n_sites=40)
        table = build_mode_table(p, n_max=1)
        with pytest.raises(CapacityError, match="FFT"):
            enumerate_lines(table, 1)
