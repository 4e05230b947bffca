"""Brute-force validators, deliberately dumber than what they check.

Everything here works on dense matrices in the computational product basis:
the full 2^N chain Hamiltonian, two-level single-mode problems, and the
eigenvector-overlap form of the spectrum.  Nothing is shared with the
free-fermion code paths beyond the parameter container, so agreement
between the two is meaningful evidence.
"""

from __future__ import annotations

import functools

import numpy as np

from .chain import build_mode_table, dispersion, momentum_grid
from .decoherence import decoherence_factor
from .errors import CapacityError, ParameterError
from .params import ChainParams, branch_lambda
from .probe import ProbeState
from .spectrum import Spectrum

MAX_DENSE_SITES = 12
MAX_SPECTRUM_SITES = 10
# comparison_suite: photon branches checked per case, and the echo time grid
_SUITE_BRANCHES = (1, 2)
_SUITE_T_SPAN = 20.0
_SUITE_TIMES = 50


def build_dense(n_sites: int, lam: float) -> np.ndarray:
    """Read-only 2^N x 2^N matrix of sum_a (lam sx_a + sz_a sz_{a+1}), periodic, B = 1.

    Assembled in the sigma_z product basis by bit arithmetic: the coupling
    is diagonal, the field flips one bit per site.
    """
    if not isinstance(n_sites, int) or n_sites < 2:
        raise ParameterError(f"n_sites must be an integer >= 2, got {n_sites!r}")
    if n_sites > MAX_DENSE_SITES:
        raise CapacityError(
            f"dense construction is capped at {MAX_DENSE_SITES} sites, got {n_sites}"
        )
    dim = 1 << n_sites
    states = np.arange(dim)
    coupling = np.zeros(dim)
    for a in range(n_sites):
        b = (a + 1) % n_sites
        za = 1.0 - 2.0 * ((states >> a) & 1)
        zb = 1.0 - 2.0 * ((states >> b) & 1)
        coupling += za * zb
    matrix = np.zeros((dim, dim))
    matrix[states, states] = coupling
    for a in range(n_sites):
        matrix[states, states ^ (1 << a)] += lam
    matrix.setflags(write=False)
    return matrix


# the one dense eigensolve; four entries hold one (lambda, g) working set:
# H(lam), H(lam - g), H(lam - 3g) and H(lam - 5g)
@functools.lru_cache(maxsize=4)
def _eigh(n_sites: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenvalues and eigenvectors of build_dense(n_sites, lam)."""
    energies, vectors = np.linalg.eigh(build_dense(n_sites, lam))
    energies.setflags(write=False)
    vectors.setflags(write=False)
    return energies, vectors


def parity_apply(vec: np.ndarray, n_sites: int) -> np.ndarray:
    """Apply the global spin-flip prod_a sx_a (fermion parity)."""
    dim = 1 << n_sites
    return vec[np.arange(dim) ^ (dim - 1)]


def ground_state_even(n_sites: int, lam: float) -> tuple[float, np.ndarray]:
    """Lowest eigenpair restricted to positive parity under prod sx.

    Near-degenerate doublets (the ordered phase at finite N) are resolved by
    explicitly projecting onto the even component, which stays an
    eigenvector because parity commutes with the Hamiltonian.
    """
    energies, vectors = _eigh(n_sites, lam)
    for i in range(len(energies)):
        vec = vectors[:, i]
        even = vec + parity_apply(vec, n_sites)
        norm = np.linalg.norm(even)
        if norm > 1e-6:
            return float(energies[i]), even / norm
    raise ParameterError("no even-parity eigenvector found")


def free_fermion_ground_energy(n_sites: int, lam: float) -> float:
    """-sum_{k>0} eps_k(lam): the even-sector ground energy to compare against."""
    return float(-np.sum(dispersion(momentum_grid(n_sites), lam)))


def _branch_overlaps(n_sites: int, params: ChainParams, n: int):
    """E_n, E_{n-1} and <G|i><i|i'><i'|G> for eigenstates i of H_n, i' of H_{n-1}."""
    if n < 1:
        raise ParameterError(f"branch must be >= 1, got {n!r}")
    _, ground = ground_state_even(n_sites, params.lam)
    e_n, v_n = _eigh(n_sites, branch_lambda(params, n))
    e_p, v_p = _eigh(n_sites, branch_lambda(params, n - 1))
    return e_n, e_p, (v_n.T @ v_p) * np.outer(v_n.T @ ground, v_p.T @ ground)


def oracle_decoherence(n_sites: int, params: ChainParams, n_branch: int, t):
    """Echo <G| exp(i H_n t) exp(-i H_{n-1} t) |G> by spectral decomposition.

    |G> is the even-parity ground state of the uncoupled chain; both branch
    propagators come from dense Hermitian eigendecompositions.
    """
    e_n, e_p, mixer = _branch_overlaps(n_sites, params, n_branch)
    scalar = np.isscalar(t) or np.ndim(t) == 0
    tarr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.array(
        [np.exp(1j * e_n * tt) @ mixer @ np.exp(-1j * e_p * tt) for tt in tarr]
    )
    return out[0] if scalar else out


def oracle_mode_factor(eps_n, eps_prev, alpha_n, alpha_prev, t):
    """Single momentum pair echo from explicit 2x2 matrix exponentials.

    Basis (pair vacuum, doubly excited pair); the vacuum is the -1
    eigenvector of the pair occupation operator.  This is the reference that
    pins the sign pairing used by the analytic per-mode factor.
    """

    def two_level(eps, alpha):
        c, s = np.cos(2.0 * alpha), np.sin(2.0 * alpha)
        return eps * np.array([[-c, s], [s, c]])

    def expi(ham, tt):
        energies, vectors = np.linalg.eigh(ham)
        return (vectors * np.exp(1j * energies * tt)) @ vectors.conj().T

    scalar = np.isscalar(t) or np.ndim(t) == 0
    tarr = np.atleast_1d(np.asarray(t, dtype=float))
    h_n = two_level(eps_n, alpha_n)
    h_p = two_level(eps_prev, alpha_prev)
    out = np.array([(expi(h_n, tt) @ expi(h_p, -tt))[0, 0] for tt in tarr])
    return out[0] if scalar else out


def oracle_spectrum(
    n_sites: int,
    params: ChainParams,
    state: ProbeState,
    freq_grid,
) -> Spectrum:
    """Spectrum from branch eigenvector overlaps, summed as Lorentzians.

    Each pair of eigenstates (i of H_n, i' of H_{n-1}) contributes weight
    w = n |c_n|^2 <G|i><i'|G><i|i'> at center E_i - E_{i'}.  The uncoupled
    ground state overlaps one momentum and parity sector, so nearly every w is
    rounding noise: pairs with |w| <= 1e-14 sum|w| of their branch are skipped.
    A Lorentzian peaks at 2|w|/Gamma, so skipping them moves the exact sum by
    at most (2/Gamma) sum|w_dropped| at any frequency.
    """
    if n_sites > MAX_SPECTRUM_SITES:
        raise CapacityError(
            f"overlap spectrum is capped at {MAX_SPECTRUM_SITES} sites, got {n_sites}"
        )
    frequencies = np.asarray(freq_grid, dtype=float)
    gamma = params.gamma_over_b
    weights = state.branch_weights()

    values = np.zeros(frequencies.shape)
    for n in range(1, len(weights)):
        if weights[n] <= 0.0:
            continue
        e_n, e_p, overlaps = _branch_overlaps(n_sites, params, n)
        pair_weight = weights[n] * overlaps
        keep = np.abs(pair_weight) > 1e-14 * np.abs(pair_weight).sum()
        flat_w = pair_weight[keep]
        flat_c = (e_n[:, None] - e_p[None, :])[keep]
        for f_start in range(0, frequencies.size, 4096):
            f = frequencies[f_start : f_start + 4096]
            acc = np.zeros(f.shape)
            for start in range(0, flat_w.size, 2048):
                c = flat_c[start : start + 2048]
                w = flat_w[start : start + 2048]
                acc += (
                    (2.0 * gamma * w[None, :])
                    / (gamma**2 + (f[:, None] - c[None, :]) ** 2)
                ).sum(axis=1)
            values[f_start : f_start + 4096] += acc
    values.setflags(write=False)
    return Spectrum(frequencies=frequencies, values=values, imag_residual=0.0)


def comparison_suite(
    n_sites_list=(2, 4, 6, 8),
    lams=(0.5, 1.0, 2.0),
    g_over_bs=(0.05, 0.1),
    tolerance: float = 1e-8,
) -> dict:
    """Cross-check the product-formula echo against dense diagonalization.

    Runs every (N, lambda, g/B) combination, comparing the echo at 50 evenly
    spaced times on [0, 20] and the even-sector ground energies.  Returns a
    JSON-ready report with per-case and overall maxima; ok is True when
    everything stays below tolerance.
    """
    for n_sites in n_sites_list:
        if n_sites > MAX_DENSE_SITES:
            raise CapacityError(
                f"dense construction is capped at {MAX_DENSE_SITES} sites, got {n_sites}"
            )
    times = np.linspace(0.0, _SUITE_T_SPAN, _SUITE_TIMES)
    cases = []
    worst_echo = 0.0
    worst_energy = 0.0
    for n_sites in n_sites_list:
        for lam in lams:
            energy_dev = abs(
                ground_state_even(n_sites, lam)[0]
                - free_fermion_ground_energy(n_sites, lam)
            )
            worst_energy = max(worst_energy, energy_dev)
            for g_over_b in g_over_bs:
                params = ChainParams(
                    n_sites=n_sites, lam=lam, g_over_b=g_over_b, gamma_over_b=0.0
                )
                table = build_mode_table(params, n_max=max(_SUITE_BRANCHES))
                echo_dev = 0.0
                for n in _SUITE_BRANCHES:
                    product = decoherence_factor(table, n, times)
                    dense = oracle_decoherence(n_sites, params, n, times)
                    echo_dev = max(echo_dev, float(np.max(np.abs(product - dense))))
                worst_echo = max(worst_echo, echo_dev)
                cases.append(
                    {
                        "n_sites": n_sites,
                        "lambda": lam,
                        "g_over_b": g_over_b,
                        "max_echo_deviation": echo_dev,
                        "ground_energy_deviation": energy_dev,
                    }
                )
    return {
        "tolerance": tolerance,
        "max_echo_deviation": worst_echo,
        "max_ground_energy_deviation": worst_energy,
        "ok": bool(worst_echo < tolerance and worst_energy < tolerance),
        "n_times": _SUITE_TIMES,
        "t_span": _SUITE_T_SPAN,
        "branches": list(_SUITE_BRANCHES),
        "cases": cases,
    }
