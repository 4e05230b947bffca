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
from isingspec.oracle import _branch_overlaps, _eigh


def params_for(n_sites, lam=1.0, g_over_b=0.1, gamma_over_b=0.02):
    return ChainParams(
        n_sites=n_sites, lam=lam, g_over_b=g_over_b, gamma_over_b=gamma_over_b
    )


def full_hamiltonian(n_sites, lam):
    """sum_a (lam sx_a + sz_a sz_{a+1}) on all 2^N states, from Kronecker products.

    Bit a of a state's index is site a, so site N-1 is the leftmost factor.
    """
    paulis = {"x": np.array([[0.0, 1.0], [1.0, 0.0]]), "z": np.diag([1.0, -1.0])}

    def on_sites(ops):
        out = np.ones((1, 1))
        for site in reversed(range(n_sites)):
            out = np.kron(out, paulis[ops[site]] if site in ops else np.eye(2))
        return out

    return sum(
        lam * on_sites({a: "x"}) + on_sites({a: "z", (a + 1) % n_sites: "z"})
        for a in range(n_sites)
    )


def even_basis(n_sites):
    """Columns (|s> + |~s>)/sqrt(2) for each state s with its top bit clear."""
    dim = 1 << n_sites
    basis = np.zeros((dim, dim // 2))
    for s in range(dim // 2):
        basis[s, s] = basis[s ^ (dim - 1), s] = 1 / math.sqrt(2)
    return basis


class TestBuildDense:
    def test_two_sites_zero_field(self):
        eigenvalues = np.linalg.eigvalsh(build_dense(2, 0.0))
        np.testing.assert_allclose(eigenvalues, [-2.0, 2.0], atol=1e-12)

    def test_two_sites_general_field(self):
        # the even sector of the 4x4 problem holds +-2 sqrt(1+lam^2); the two
        # field flips of a two-site state reach the same state
        lam = 0.7
        eigenvalues = np.linalg.eigvalsh(build_dense(2, lam))
        root = 2.0 * math.sqrt(1 + lam**2)
        np.testing.assert_allclose(eigenvalues, [-root, root], atol=1e-12)

    def test_is_even_projection_of_full_hamiltonian(self):
        for n_sites in (2, 4, 6):
            basis = even_basis(n_sites)
            for lam in (0.0, 0.7, 1.0):
                expected = basis.T @ full_hamiltonian(n_sites, lam) @ basis
                assert np.max(np.abs(build_dense(n_sites, lam) - expected)) < 1e-12

    def test_symmetric(self):
        ham = build_dense(6, 1.3)
        assert np.max(np.abs(ham - ham.T)) < 1e-12

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

    def test_even_sector_contains_every_pair_combination(self):
        # every sum of +-eps_k over momentum pairs is an even-block eigenvalue
        n_sites, lam = 6, 0.8
        even_spectrum = np.linalg.eigvalsh(build_dense(n_sites, lam))
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

    def test_time_blocks_match_the_per_time_product(self):
        # 1100 times at N = 8 run in blocks of 512; the sums run in another
        # order than one vector-matrix-vector product per time, so they may
        # differ in the last digits of terms of modulus <= 1
        p = params_for(8, lam=1.0, g_over_b=0.1)
        t = np.linspace(0.0, 40.0, 1100)
        e_n, e_p, mixer = _branch_overlaps(8, p, 1)
        loop = [np.exp(1j * e_n * tt) @ mixer @ np.exp(-1j * e_p * tt) for tt in t]
        np.testing.assert_allclose(oracle_decoherence(8, p, 1, t), loop, rtol=0, atol=1e-13)
        scalar = oracle_decoherence(8, p, 1, t[700])
        assert np.ndim(scalar) == 0 and abs(scalar - loop[700]) <= 1e-13


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
        # every even-block eigenpair line of every branch, summed with no
        # threshold; odd-sector pairs carry zero weight by symmetry
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
        # only the 2^(N-1) even block is decomposed
        assert set(calls) == {(8, 8)}

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
