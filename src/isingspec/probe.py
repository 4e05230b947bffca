"""Resonator probe states in the Fock basis.

Only the photon-number weights n |c_n|^2 ever enter the correlation
function, so a probe state is just its amplitude vector plus a record of
how much coherent-state tail was dropped.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegenerateInputError, ParameterError


@dataclass(frozen=True)
class ProbeState:
    """Amplitudes c_0 .. c_nmax and the discarded tail probability."""

    amplitudes: np.ndarray
    truncation_error: float = 0.0

    @property
    def n_max(self) -> int:
        return len(self.amplitudes) - 1

    def branch_weights(self) -> np.ndarray:
        """n |c_n|^2 for n = 0 .. n_max."""
        return np.arange(len(self.amplitudes)) * np.abs(self.amplitudes) ** 2


def fock_superposition(coeffs) -> ProbeState:
    """Normalized superposition of number states from raw coefficients."""
    amps = np.asarray(coeffs, dtype=complex).ravel()
    if amps.size == 0:
        raise DegenerateInputError("probe state needs at least one coefficient")
    if not np.all(np.isfinite(amps)):
        raise ParameterError(f"coeffs must be finite, got {coeffs!r}")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(amps)
    if not 0.0 < norm < math.inf and np.any(amps):  # |c|^2 under- or overflowed
        top = np.max(np.abs([amps.real, amps.imag]))
        amps = amps.real / top + 1j * (amps.imag / top)
        norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise DegenerateInputError("all probe coefficients are zero")
    amps = amps / norm
    amps.setflags(write=False)
    return ProbeState(amplitudes=amps, truncation_error=0.0)


def coherent_state(alpha: complex, tail_tol: float = 1e-12) -> ProbeState:
    """Coherent state truncated once the photon-weighted tail drops below tail_tol.

    Amplitudes follow the recurrence c_{n+1} = c_n alpha / sqrt(n+1); no
    explicit factorials.  The cut keeps every n with
    sum_{m>n} m |c_m|^2 >= tail_tol, and the dropped probability is recorded.
    The recurrence starts from c_0 = exp(-|alpha|^2 / 2), which must be a
    normal double: |alpha|^2 above about 1416 raises CapacityError.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ParameterError(f"tail_tol must lie in (0, 1), got {tail_tol!r}")
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ParameterError(f"alpha must be finite, got {alpha!r}")
    try:
        mean = abs(alpha) ** 2
    except OverflowError:  # |alpha| past ~1e154; refused as subnormal below
        mean = math.inf
    if mean == 0.0:
        return ProbeState(amplitudes=np.array([1.0 + 0.0j]), truncation_error=0.0)

    amps = [np.exp(-0.5 * mean)]
    if amps[0] < sys.float_info.min:
        raise CapacityError(
            f"coherent state with |alpha|^2 = {mean:.6g}: the vacuum amplitude "
            "exp(-|alpha|^2 / 2) is below the smallest normal double, so the "
            "photon weights would lose precision; keep |alpha|^2 below about 1416"
        )
    cdf = abs(amps[0]) ** 2
    n = 0
    # weighted tail over m > n equals mean * (1 - Poisson CDF at n-1), but
    # that difference has a rounding floor near mean * 1e-16, which can sit
    # above tail_tol.  Past the mean the tail's terms shrink by mean / m, so
    # it is at most its first term over 1 - mean / (n+1); that bound has no
    # floor and ends the loop where the difference cannot
    while mean * (1.0 - (cdf - abs(amps[-1]) ** 2)) >= tail_tol:
        following = amps[-1] * alpha / np.sqrt(n + 1.0)
        ratio = mean / (n + 1.0)
        if ratio < 1.0 and (n + 1.0) * abs(following) ** 2 < tail_tol * (1.0 - ratio):
            break
        amps.append(following)
        n += 1
        cdf += abs(amps[-1]) ** 2
    arr = np.asarray(amps, dtype=complex)
    arr.setflags(write=False)
    return ProbeState(amplitudes=arr, truncation_error=max(0.0, 1.0 - cdf))


def mean_photon_number(state: ProbeState) -> float:
    """sum_n n |c_n|^2 over the kept amplitudes."""
    return float(np.sum(state.branch_weights()))
