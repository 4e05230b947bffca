"""Exact free-fermion solution of the transverse-field Ising chain.

The chain Hamiltonian B sum_a (lambda sx_a + sz_a sz_{a+1}) with periodic
closure conserves fermion parity after the Jordan-Wigner mapping; its ground
state lives in the even sector, where the fermions are antiperiodic and the
positive momenta are k_m = (2m+1) pi / N.  Each momentum pair reduces to a
two-level problem characterized by the quasiparticle energy and a mixing
angle, which is all the dynamics downstream ever needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError
from .params import ChainParams, branch_lambda


def momentum_grid(n_sites: int) -> np.ndarray:
    """Positive momenta (2m+1) pi / N for m = 0 .. N/2 - 1.

    Each entry implicitly pairs with -k.  Strictly increasing, all in
    (0, pi).  CapacityError when numpy cannot make an array of N/2 entries.
    """
    if not isinstance(n_sites, int) or n_sites < 2 or n_sites % 2:
        raise ParameterError(
            f"n_sites must be an even integer >= 2, got {n_sites!r}"
        )
    try:
        m = np.arange(n_sites // 2)
    except (ValueError, MemoryError):
        raise CapacityError(
            f"n_sites={n_sites} has too many momenta for one array"
        ) from None
    return (2.0 * m + 1.0) * np.pi / n_sites


def dispersion(k, lam):
    """Quasiparticle energy 2 sqrt(1 + lambda^2 - 2 lambda cos k), in units of B.

    The radicand is (lambda - cos k)^2 + sin^2 k, so the result is real and
    non-negative for any finite lambda, including negative branch values.
    Evaluated through hypot, which keeps full relative precision where the
    gap nearly closes (the expanded radicand cancels catastrophically there).
    """
    return 2.0 * np.hypot(lam - np.cos(k), np.sin(k))


def bogoliubov_angle(k, lam):
    """Mixing angle with sin proportional to sin k, cos to (lambda - cos k).

    Evaluated with the two-argument arctangent so the angle stays in [0, pi]
    and crosses lambda = cos k without a branch jump; for k in (0, pi) the
    two arguments never vanish together.
    """
    return np.arctan2(np.sin(k), lam - np.cos(k))


@dataclass(frozen=True)
class ModeTable:
    """Per-branch, per-momentum data for photon branches 0 .. n_max.

    epsilon[n, j] is the quasiparticle energy of branch n at momentum
    momenta[j]; alpha[n, j] is half the mismatch of its Bogoliubov angle
    against the uncoupled chain's (the angle at the bare lambda), whose
    ground state everything is referenced to.
    """

    momenta: np.ndarray  # (N/2,)
    epsilon: np.ndarray  # (n_max+1, N/2)
    alpha: np.ndarray  # (n_max+1, N/2)

    @property
    def n_max(self) -> int:
        return self.epsilon.shape[0] - 1


def build_mode_table(params: ChainParams, n_max: int) -> ModeTable:
    """Tabulate energies and angles for every branch up to n_max photons."""
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max!r}")
    k = momentum_grid(params.n_sites)
    theta_base = bogoliubov_angle(k, params.lam)
    lams = np.array([branch_lambda(params, n) for n in range(n_max + 1)])
    epsilon = dispersion(k[None, :], lams[:, None])
    alpha = 0.5 * (bogoliubov_angle(k[None, :], lams[:, None]) - theta_base[None, :])
    for arr in (k, epsilon, alpha):
        arr.setflags(write=False)
    return ModeTable(momenta=k, epsilon=epsilon, alpha=alpha)
