import math

import numpy as np
import pytest

from isingspec import (
    CapacityError,
    ChainParams,
    branch_lambda,
    build_dense,
    coherent_state,
    comparison_suite,
    dispersion,
    fock_superposition,
    free_fermion_ground_energy,
    ground_state_even,
    momentum_grid,
    oracle_decoherence,
    oracle_spectrum,
    spectrum_analytic,
    build_mode_table,
)
from isingspec.oracle import _eigh, parity_apply


def params_for(n_sites, lam=1.0, g_over_b=0.1, gamma_over_b=0.02):
    return ChainParams(
        n_sites=n_sites, lam=lam, g_over_b=g_over_b, gamma_over_b=gamma_over_b
    )


class TestBuildDense:
    def test_two_sites_zero_field(self):
        ham = build_dense(2, 0.0)
        eigenvalues = np.sort(np.linalg.eigvalsh(ham))
        np.testing.assert_allclose(eigenvalues, [-2.0, -2.0, 2.0, 2.0], atol=1e-12)

    def test_two_sites_general_field(self):
        # 4x4 characteristic polynomial: even sector gives +-2 sqrt(1+lam^2),
        # odd sector +-2 independent of lam
        lam = 0.7
        ham = build_dense(2, lam)
        expected = np.sort(
            [
                -2.0 * math.sqrt(1 + lam**2),
                2.0 * math.sqrt(1 + lam**2),
                -2.0,
                2.0,
            ]
        )
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(ham)), expected, atol=1e-12
        )

    def test_symmetric(self):
        ham = build_dense(6, 1.3)
        assert np.max(np.abs(ham - ham.T)) < 1e-12

    def test_commutes_with_parity(self):
        for lam in (0.0, 0.5, 1.0, 2.0):
            h = build_dense(4, lam)
            # parity conjugation permutes rows and columns by global bit flip
            idx = np.arange(h.shape[0]) ^ (h.shape[0] - 1)
            assert np.max(np.abs(h[np.ix_(idx, idx)] - h)) < 1e-12

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            build_dense(14, 1.0)


class TestGroundState:
    @pytest.mark.parametrize("n_sites", [2, 4, 6, 8, 10])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0, 100.0])
    def test_energy_matches_free_fermions(self, n_sites, lam):
        energy, _ = ground_state_even(n_sites, lam)
        assert energy == pytest.approx(
            free_fermion_ground_energy(n_sites, lam), abs=1e-9
        )

    def test_ground_state_is_parity_even(self):
        for lam in (0.2, 1.0, 3.0):
            _, vec = ground_state_even(6, lam)
            np.testing.assert_allclose(parity_apply(vec, 6), vec, atol=1e-9)

    def test_even_sector_contains_every_pair_combination(self):
        # project the dense Hamiltonian onto the parity-even subspace and
        # check every sum of +-eps_k over momentum pairs appears there
        n_sites, lam = 6, 0.8
        ham = build_dense(n_sites, lam)
        dim = ham.shape[0]
        mask = dim - 1
        basis = []
        for s in range(dim):
            partner = s ^ mask
            if s < partner:
                vec = np.zeros(dim)
                vec[s] = vec[partner] = 1 / math.sqrt(2)
                basis.append(vec)
        basis = np.array(basis).T
        even_spectrum = np.sort(np.linalg.eigvalsh(basis.T @ ham @ basis))
        eps = dispersion(momentum_grid(n_sites), lam)
        for signs in range(1 << (n_sites // 2)):
            combo = sum(
                (1.0 if (signs >> j) & 1 else -1.0) * eps[j]
                for j in range(n_sites // 2)
            )
            assert np.min(np.abs(even_spectrum - combo)) < 1e-9


class TestOracleDecoherence:
    def test_unity_at_time_zero(self):
        value = oracle_decoherence(4, params_for(4), 1, 0.0)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_zero_coupling_is_identity(self):
        p = params_for(6, g_over_b=0.0)
        t = np.linspace(0.0, 30.0, 20)
        np.testing.assert_allclose(oracle_decoherence(6, p, 1, t), 1.0, atol=1e-10)

    def test_modulus_bounded(self):
        p = params_for(6, lam=1.0, g_over_b=0.12)
        t = np.linspace(0.0, 25.0, 60)
        assert np.max(np.abs(oracle_decoherence(6, p, 1, t))) <= 1.0 + 1e-12

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            oracle_decoherence(14, params_for(8), 1, 0.0)


class TestOracleSpectrum:
    def test_zero_coupling_single_central_lorentzian(self):
        p = params_for(6, g_over_b=0.0, gamma_over_b=0.05)
        state = fock_superposition([1, 1])
        grid = np.linspace(-2.0, 2.0, 801)
        spec = oracle_spectrum(6, p, state, grid)
        total = 0.5
        expected = total * 2 * 0.05 / (0.05**2 + grid**2)
        np.testing.assert_allclose(spec.values, expected, atol=1e-10)

    def test_vacuum_probe_is_silent(self):
        p = params_for(4)
        state = fock_superposition([1])
        spec = oracle_spectrum(4, p, state, np.linspace(-5, 5, 101))
        np.testing.assert_allclose(spec.values, 0.0, atol=1e-15)

    def test_matches_line_enumeration_path(self):
        p = params_for(8, lam=1.0, g_over_b=0.1, gamma_over_b=0.02)
        state = fock_superposition([1, 1])
        grid = np.linspace(-12.0, 12.0, 2001)
        dense = oracle_spectrum(8, p, state, grid)
        table = build_mode_table(p, n_max=1)
        analytic = spectrum_analytic(p, table, state, grid)
        deviation = np.linalg.norm(dense.values - analytic.values) / np.linalg.norm(
            analytic.values
        )
        assert deviation < 1e-6

    @pytest.mark.parametrize("n_sites", [4, 6, 8])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("probe", ["fock", "coherent"])
    def test_skipped_lines_match_all_pairs_sum(self, n_sites, lam, probe):
        # every eigenpair line of every branch, summed with no threshold
        p = params_for(n_sites, lam=lam)
        state = fock_superposition([1, 1]) if probe == "fock" else coherent_state(1.0)
        gamma = p.gamma_over_b
        grid = np.linspace(-12.0, 12.0, 241)
        _, ground = ground_state_even(n_sites, lam)
        expected = np.zeros(grid.shape)
        for n, weight in enumerate(state.branch_weights()[1:], start=1):
            e_n, v_n = np.linalg.eigh(build_dense(n_sites, branch_lambda(p, n)))
            e_p, v_p = np.linalg.eigh(build_dense(n_sites, branch_lambda(p, n - 1)))
            w = weight * (v_n.T @ v_p) * np.outer(v_n.T @ ground, v_p.T @ ground)
            centers = e_n[:, None] - e_p[None, :]
            for i, f in enumerate(grid):
                expected[i] += np.sum(2.0 * gamma * w / (gamma**2 + (f - centers) ** 2))
        values = oracle_spectrum(n_sites, p, state, grid).values
        deviation = np.linalg.norm(values - expected) / np.linalg.norm(expected)
        assert deviation <= 1e-12

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            oracle_spectrum(12, params_for(12), fock_superposition([1, 1]), [0.0])


class TestEigensolveReuse:
    def test_suite_decomposes_each_hamiltonian_once(self, monkeypatch):
        # per g/B: H(lam - g), H(lam - 3g), H(lam - 5g); plus H(lam) once
        eigh = np.linalg.eigh
        calls = []

        def counting(matrix):
            calls.append(matrix.shape)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        _eigh.cache_clear()
        comparison_suite(n_sites_list=(4,), lams=(1.0,))
        assert len(calls) == 7

    def test_cached_eigenpairs_are_read_only(self):
        energies, vectors = _eigh(4, 0.7)
        with pytest.raises(ValueError):
            energies[0] = 0.0
        with pytest.raises(ValueError):
            vectors[0, 0] = 0.0


class TestComparisonSuite:
    def test_default_style_suite_passes(self):
        report = comparison_suite(n_sites_list=(2, 4), lams=(0.5, 1.0), g_over_bs=(0.1,))
        assert report["ok"]
        assert report["max_echo_deviation"] < 1e-10
        assert report["max_ground_energy_deviation"] < 1e-10
        assert len(report["cases"]) == 4

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            comparison_suite(n_sites_list=(14,))
