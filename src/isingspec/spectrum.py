"""Correlation series, spectra, and the broadening metrics.

S(t) weighs each branch echo by n |c_n|^2 and multiplies in the
phenomenological exp(-Gamma |t|) envelope; S(omega) is its two-sided
transform with the exp(-i omega t) sign convention, either via FFT on a
symmetric time grid or, at small N, by summing the exact Lorentzian lines
(half width Gamma, peak 2/Gamma for unit weight).
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .chain import ModeTable
from .decoherence import (
    decoherence_factor,
    enumerate_lines,
    grid_plan,
    mode_coefficients,
)
from .errors import CapacityError, ConfigError, DegenerateInputError, NumericsError
from .params import ChainParams
from .probe import ProbeState, mean_photon_number

# time horizon as a multiple of the envelope decay time 1/Gamma
_T_MAX_ENVELOPE_FACTOR = 8.0
# line configurations with less weight than this may alias (bandwidth estimator)
_ALIAS_MASS_FLOOR = 1e-6
_IMAG_RESIDUAL_LIMIT = 1e-6
# auto grid: Nyquist headroom over the band estimate, sample count bounds (log2)
_BAND_PAD = 2.0
_MIN_SAMPLES_LOG2 = 10
_MAX_SAMPLES_LOG2 = 22
# below this |S| peak a spectrum counts as empty
_NOISE_FLOOR = 1e-12
# largest spacing deviation, relative to the first spacing, of a uniform grid
_SPACING_REL_TOL = 1e-6
# threshold_crossing_time: the |S(t)| / S(0) level that counts as collapsed
_CROSSING_THRESHOLD = 0.1


@dataclass(frozen=True)
class TimeGrid:
    """Resolved sampling for the FFT path: 2^k samples on [-t_max, t_max)."""

    t_max: float
    n_samples: int
    omega_estimate: float | None = None

    def __post_init__(self) -> None:
        n = self.n_samples
        if not isinstance(n, numbers.Integral) or n < 2 or n & (n - 1):
            raise ConfigError(f"n_samples must be a power of two >= 2, got {n!r}")
        # correlation_series's step 2 t_max / n; 1 / n stays a float for any int n
        step = 2.0 * self.t_max * (1 / n)
        if not 0.0 < step < math.inf:
            raise ConfigError(
                f"t_max={self.t_max!r} gives the step 2*t_max/n_samples={step!r}; "
                "it must be finite and > 0"
            )


@dataclass(frozen=True)
class BroadeningMetrics:
    """Width/flatness summary of a spectrum.

    w90 is the length of the smallest contiguous frequency window holding
    90% of the |S| mass; entropy is the Shannon entropy of the normalized
    |S| distribution in nats; participation is the inverse participation
    ratio divided by the number of grid points, so a flat spectrum scores 1.
    """

    w90: float
    entropy: float
    participation: float


@dataclass(frozen=True)
class CorrelationSeries:
    """S(t) on the symmetric uniform grid t_j in [-t_max, t_max)."""

    t_max: float
    times: np.ndarray
    values: np.ndarray

    @property
    def n_samples(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class Spectrum:
    """Real S(omega) samples on a uniform frequency grid (units of B)."""

    frequencies: np.ndarray
    values: np.ndarray
    imag_residual: float = 0.0


def _populated_branches(table: ModeTable, state: ProbeState) -> dict[int, float]:
    """Branch n -> weight n |c_n|^2 for every n >= 1 the probe populates, ascending.

    Raises ConfigError when a populated branch lies beyond the table.
    """
    weights = state.branch_weights()
    branches = {n: weights[n] for n in range(1, len(weights)) if weights[n] > 0.0}
    for n in branches:
        if n > table.n_max:
            raise ConfigError(
                f"probe populates branch {n} but the mode table stops at "
                f"n_max={table.n_max}; rebuild the table with a larger cutoff"
            )
    return branches


def _threads(count: int) -> int:
    """count, or for 0 the CPUs this process may run on."""
    if count > 0:
        return count
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def weighted_echo(table: ModeTable, state: ProbeState, t, threads: int = 0):
    """sum_n n |c_n|^2 D_{n,n-1}(t) over the populated branches, in ascending n.

    This is S(t) without the exp(-Gamma |t|) envelope; t is an array.  The
    grid's routing and block split are decided once for all branches.  On a
    grid where every branch takes the block product, up to threads branches
    (0: the CPUs this process may use) are computed at a time: the calling
    thread takes the first of each round and one helper thread each of the
    rest, into buffers the calling thread allocates, under the caller's
    numpy error state.  The sum is taken in ascending n all the same, so the
    result has the same bits at any threads.  A single branch, threads=1,
    and a short, irregular or scalar t run on the calling thread alone.
    """
    branches = list(_populated_branches(table, state).items())
    acc = np.zeros(np.shape(t), dtype=complex)
    plan = grid_plan(t)
    workers = max(1, min(_threads(threads), len(branches)))
    if branches and all(plan.takes_block(table, n) for n, _ in branches):
        workspaces = [plan.workspace() for _ in range(workers)]
    else:
        workers, workspaces = 1, [None]
    # a new thread starts with numpy's default error state, on numpy 1 and 2
    errstate = dict(np.geterr(), call=np.geterrcall())

    def echo(n, workspace):
        with np.errstate(**errstate):
            return decoherence_factor(table, n, plan, workspace=workspace)

    with ThreadPoolExecutor(workers - 1) if workers > 1 else nullcontext() as pool:
        for first in range(0, len(branches), workers):
            ns, weights = zip(*branches[first : first + workers])
            helpers = [pool.submit(echo, *job) for job in zip(ns[1:], workspaces[1:])]
            echoes = [echo(ns[0], workspaces[0])] + [h.result() for h in helpers]
            for weight, branch_echo in zip(weights, echoes):
                branch_echo *= weight  # the same bits as acc += weight * echo
                acc += branch_echo
    return acc


def auto_time_grid(
    params: ChainParams, table: ModeTable, state: ProbeState, grid: TimeGrid | None = None
) -> TimeGrid:
    """Check an explicit grid at params.lam, or pick one for the FFT path.

    A given grid is returned unchanged; CapacityError when it has more than
    2^22 samples, ConfigError when its Nyquist frequency pi/dt is below the
    band estimate (unpadded: the auto rule's factor-two pad is headroom, not
    a requirement).  Otherwise t_max = 8 / (Gamma/B) resolves the Lorentzian
    width, and the Nyquist frequency must clear the band estimate of every
    populated branch, padded by a factor of two.  The padded estimate is
    echoed in the grid so output headers can record it.  A grid that would
    need more than 2^22 samples raises CapacityError.
    """
    if grid is not None:
        if grid.n_samples > 1 << _MAX_SAMPLES_LOG2:
            raise CapacityError(
                f"config.time_grid: n_samples={grid.n_samples} is above the cap of "
                f"2^{_MAX_SAMPLES_LOG2}"
            )
        nyquist = math.pi * grid.n_samples / (2.0 * grid.t_max)
        band = _band_estimate(table, state)
        if nyquist < band:
            # 2 ** rather than 1 <<: the exponent is inf where the count overflows
            auto_samples = 2 ** _samples_log2(grid.t_max, _BAND_PAD * band)
            raise ConfigError(
                f"config.time_grid: at lambda={params.lam:g} the Nyquist frequency "
                f"{nyquist:.4g} is below the band estimate {band:.4g}; the auto rule "
                f"would pick n_samples={auto_samples} for t_max={grid.t_max:g}"
            )
        return grid
    if params.gamma_over_b <= 0.0:
        raise ConfigError(
            "auto time grid needs gamma_over_b > 0; give an explicit grid instead"
        )
    t_max = _T_MAX_ENVELOPE_FACTOR / params.gamma_over_b
    omega_padded = _BAND_PAD * _band_estimate(table, state)
    exponent = _samples_log2(t_max, omega_padded)
    if exponent > _MAX_SAMPLES_LOG2:
        raise CapacityError(
            f"auto time grid needs 2^{exponent} samples to clear the band estimate "
            f"{omega_padded:.4g} over t_max={t_max:g}, above the cap of "
            f"2^{_MAX_SAMPLES_LOG2}; raise gamma_over_b or give an explicit grid"
        )
    return TimeGrid(t_max=t_max, n_samples=1 << exponent, omega_estimate=omega_padded)


def _band_estimate(table: ModeTable, state: ProbeState) -> float:
    """Unpadded reach of the line configurations that carry visible weight.

    Per branch: the carrier reach sum_k |eps_n - eps_prev| plus the reach of
    flipped modes.  A config flipping modes S has weight ~ prod_S flip_mass
    and sits up to sum_S (eps_n + eps_prev) further out, so flips are
    included greedily (heaviest first) while their cumulative weight stays
    above a small alias floor; configs below it carry too little mass to
    matter.  The maximum over populated branches is returned.
    """
    omega_max = 0.0
    for n in _populated_branches(table, state):
        coeffs = mode_coefficients(table.alpha[n], table.alpha[n - 1])
        flip_mass = np.abs(coeffs.pp) + np.abs(coeffs.mm)
        eps_n, eps_p = table.epsilon[n], table.epsilon[n - 1]
        carrier = float(np.sum(np.abs(eps_n - eps_p)))
        reach = eps_n + eps_p
        qualifying = flip_mass >= _ALIAS_MASS_FLOOR
        flip_part = 0.0
        if qualifying.any():
            order = np.argsort(flip_mass[qualifying])[::-1]
            masses = flip_mass[qualifying][order]
            reaches = reach[qualifying][order]
            keep = np.cumprod(masses) >= _ALIAS_MASS_FLOOR
            flip_part = max(
                float(np.sum(reaches[keep])), float(np.max(reach[qualifying]))
            )
        omega_max = max(omega_max, carrier + flip_part)
    return omega_max


def _samples_log2(t_max: float, omega: float) -> float:
    """log2 of the auto sample count: at least 2^10, Nyquist over t_max clears omega.

    inf when the count overflows a double (a huge t_max, or t_max = inf).
    """
    needed = 2.0 * t_max * omega / np.pi
    if not needed < math.inf:
        return math.inf
    return max(_MIN_SAMPLES_LOG2, math.ceil(math.log2(max(needed, 2.0))))


def correlation_series(
    params: ChainParams,
    table: ModeTable,
    state: ProbeState,
    t_max: float,
    n_samples: int,
    threads: int = 0,
) -> CorrelationSeries:
    """S(t_j) = sum_n n |c_n|^2 D_{n,n-1}(t_j) exp(-Gamma |t_j|) on [-t_max, t_max).

    Every populated branch must be covered by the table.  The echo is
    evaluated on the non-negative half-grid and mirrored via
    S(-t) = conj(S(t)), which the real line weights make exact (bitwise, in
    fact, for correctly rounded trigonometry).  threads (0: the CPUs this
    process may use) bounds how many populated branches are computed at
    once; see weighted_echo.  The series has the same bits at any threads.
    """
    TimeGrid(t_max=t_max, n_samples=n_samples)  # validates the grid
    dt = 2.0 * t_max / n_samples
    half = np.arange(n_samples // 2 + 1) * dt  # 0 .. t_max inclusive
    # phases omega * t past the float range overflow to inf and then NaN;
    # the finiteness check below reports that as one NumericsError
    with np.errstate(over="ignore", invalid="ignore"):
        positive = weighted_echo(table, state, half, threads)
        positive *= np.exp(-params.gamma_over_b * half)
    if not np.isfinite(positive).all():
        raise NumericsError(f"S(t) is not finite at lambda={params.lam:g} on t_max={t_max:g}")

    values = np.empty(n_samples, dtype=complex)
    values[n_samples // 2 :] = positive[: n_samples // 2]
    values[1 : n_samples // 2] = np.conj(positive[1 : n_samples // 2][::-1])
    values[0] = np.conj(positive[n_samples // 2])  # t = -t_max
    times = -t_max + np.arange(n_samples) * dt
    times.setflags(write=False)
    values.setflags(write=False)
    return CorrelationSeries(t_max=t_max, times=times, values=values)


def spectrum_fft(series: CorrelationSeries) -> Spectrum:
    """Discrete two-sided transform sum_j dt exp(-i omega t_j) S(t_j).

    Frequency spacing is 2 pi / (2 t_max).  The sample at -t_max has no +t_max
    partner on the half-open grid but represents both under the DFT's periodic
    wraparound, so its imaginary part is dropped; with S(-t) = conj(S(t)) the
    transform is then real to machine precision.  The residue is reported and
    must stay below 1e-6 of the peak.
    """
    m = series.n_samples
    dt = 2.0 * series.t_max / m
    signal = np.array(series.values)
    signal[0] = signal[0].real
    phases = np.full(m, dt)  # dt exp(i omega_l t_max) = +-dt
    phases[1::2] = -dt
    raw = phases * np.fft.fft(signal)
    del signal, phases
    frequencies = np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(m, d=dt))
    raw = np.fft.fftshift(raw)

    peak = float(np.max(np.abs(raw.real)))
    residual = float(np.max(np.abs(raw.imag)) / peak) if peak != 0.0 else 0.0
    if not residual <= _IMAG_RESIDUAL_LIMIT:  # NaN fails too
        raise NumericsError(
            f"imaginary residue {residual:.3e} of the transform exceeds "
            f"{_IMAG_RESIDUAL_LIMIT:g} of the peak; the time grid is unsound"
        )
    values = raw.real
    frequencies.setflags(write=False)
    values.setflags(write=False)
    return Spectrum(frequencies=frequencies, values=values, imag_residual=residual)


def lorentzian(omega, center, gamma: float):
    """2 Gamma / (Gamma^2 + (omega - center)^2): unit-weight line, peak 2/Gamma.

    center may be an array of line centers that broadcasts against omega.
    """
    return 2.0 * gamma / (gamma**2 + (np.asarray(omega) - center) ** 2)


def spectrum_analytic(
    params: ChainParams,
    table: ModeTable,
    state: ProbeState,
    frequencies,
) -> Spectrum:
    """Exact Lorentzian sum over the enumerated lines of every branch.

    Only feasible while the line enumeration is (N/2 momentum pairs at four
    channels each); propagates its capacity error otherwise.
    """
    frequencies = np.asarray(frequencies, dtype=float)
    gamma = params.gamma_over_b

    values = np.zeros(frequencies.shape)
    for n, weight in _populated_branches(table, state).items():
        decomp = enumerate_lines(table, n, weight_floor=0.0)
        for f_start in range(0, frequencies.size, 4096):
            f = frequencies[f_start : f_start + 4096]
            acc = np.zeros(f.shape)
            for l_start in range(0, decomp.centers.size, 2048):
                c = decomp.centers[l_start : l_start + 2048]
                w = decomp.weights[l_start : l_start + 2048]
                acc += (w * lorentzian(f[:, None], c, gamma)).sum(axis=1)
            values[f_start : f_start + 4096] += weight * acc
    values.setflags(write=False)
    return Spectrum(frequencies=frequencies, values=values, imag_residual=0.0)


def broadening_metrics(spec: Spectrum) -> BroadeningMetrics:
    """w90, entropy and normalized participation of the |S| distribution.

    The frequencies must be uniform and ascending: w90 counts samples and
    scales the count by the one spacing.
    """
    magnitude = np.abs(spec.values)
    frequencies = spec.frequencies
    if magnitude.size < 2 or not frequencies[1] > frequencies[0]:
        raise DegenerateInputError("spectrum needs two or more ascending frequencies")
    d_omega = float(frequencies[1] - frequencies[0])
    if np.any(np.abs(np.diff(frequencies) - d_omega) > _SPACING_REL_TOL * d_omega):
        raise DegenerateInputError("spectrum frequencies are not uniformly spaced")
    peak, total = float(magnitude.max()), float(magnitude.sum())
    # False for NaN; a finite total needs a finite peak, and peak <= total
    if not _NOISE_FLOOR < peak <= total < math.inf:
        raise DegenerateInputError("spectrum needs a finite |S| mass above the noise floor")
    p = magnitude / total

    cum = np.concatenate([[0.0], np.cumsum(p)])
    right = np.arange(1, p.size + 1)
    left = np.searchsorted(cum, cum[1:] - 0.9, side="right") - 1
    ok = left >= 0  # the last right edge always qualifies: p sums to 1
    w90 = float((right[ok] - left[ok]).min()) * d_omega

    nonzero = p[p > 0.0]
    entropy = float(-np.sum(nonzero * np.log(nonzero)))
    participation = float(1.0 / np.sum(p * p) / p.size)
    return BroadeningMetrics(w90=w90, entropy=entropy, participation=participation)


@dataclass(frozen=True)
class FarFieldReport:
    """Distance of a spectrum from a single shifted Lorentzian.

    deviation is the relative L2 mismatch after the best global frequency
    shift; shift is that fitted center; total_weight the probe's mean
    photon number carried by the reference line.
    """

    deviation: float
    shift: float
    total_weight: float


def _l2_norm(x: np.ndarray) -> float:
    """Euclidean norm; np.linalg.norm's threaded BLAS call costs more than the sum."""
    return math.sqrt(float(np.sum(x * x)))


def _bounded_minimum(
    f, lo: float, hi: float, xatol: float, maxfun: int = 500
) -> tuple[float, float]:
    """(x, f(x)) at Brent's bounded minimum of f on [lo, hi].

    A float-for-float port of scipy.optimize.minimize_scalar(method="bounded")
    (Brent, Algorithms for Minimization Without Derivatives, 1973; Forsythe,
    Malcolm & Moler's fmin): the same operations in the same order, so it
    returns the same floats.  It stops when the bracket about the best point
    has shrunk to about xatol, or after maxfun evaluations of f.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabola through xf, nfc and fulc
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if (abs(p) < abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    rat = tol1 if xm >= xf else -tol1  # scipy's sign, +1 at 0
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        step = max(abs(rat), tol1)
        x = xf - step if rat < 0.0 else xf + step  # scipy's sign, +1 at 0
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxfun:
            break
    return xf, fx


def fitted_peak(spec: Spectrum, gamma: float, total_weight: float) -> tuple[float, float]:
    """Best-fit center of total_weight * L(omega - s) and its relative L2 error."""
    if not 0.0 < gamma < math.inf:
        raise DegenerateInputError(f"fit needs a finite line width gamma > 0, got {gamma!r}")
    if not 0.0 < total_weight < math.inf:
        raise DegenerateInputError(
            f"fit needs a finite total line weight > 0, got {total_weight!r}"
        )
    values = spec.values
    frequencies = spec.frequencies
    if frequencies.size < 2:
        raise DegenerateInputError("fit needs a spectrum of two or more frequencies")
    start = float(frequencies[int(np.argmax(np.abs(values)))])
    span = max(10.0 * gamma, 2.0 * float(frequencies[1] - frequencies[0]))

    def mismatch(shift: float) -> float:
        model = total_weight * lorentzian(frequencies, shift, gamma)
        return _l2_norm(values - model) / _l2_norm(model)

    return _bounded_minimum(
        mismatch, start - span, start + span, xatol=1e-9 * max(1.0, abs(start))
    )


def far_field_check(
    params: ChainParams, table: ModeTable, state: ProbeState
) -> FarFieldReport:
    """Compare the spectrum against one Lorentzian of the full probe weight.

    Far from the critical point the branch eigenbases nearly coincide and
    the whole spectrum collapses onto a single line whose position is set by
    the branch ground-energy offset, not by lambda; one global frequency
    shift is therefore fitted before measuring the residual.  Near lambda=1
    the returned deviation is large; it is reported, never asserted.  The
    spectrum is computed on the auto time grid, its populated branches on
    the CPUs this process may use (see weighted_echo).
    """
    grid = auto_time_grid(params, table, state)
    spectrum = spectrum_fft(
        correlation_series(params, table, state, grid.t_max, grid.n_samples)
    )
    total = mean_photon_number(state)
    shift, deviation = fitted_peak(spectrum, params.gamma_over_b, total)
    return FarFieldReport(deviation=deviation, shift=shift, total_weight=total)


def threshold_crossing_time(
    params: ChainParams, table: ModeTable, state: ProbeState
) -> float:
    """First t >= 0 where |S(t)| / S(0) falls below 0.1.

    Scans densely (fine steps at short times where echo collapse happens,
    coarser out to the horizon 1.2 ln(10) / (Gamma/B), or 2000 at Gamma = 0),
    then bisects the bracketing interval with exact evaluations.  Returns
    inf if the ratio never drops below 0.1 inside the horizon.
    """
    s0 = float(sum(_populated_branches(table, state).values()))
    if s0 <= 0.0:
        raise DegenerateInputError("probe state carries no photon-number weight")

    gamma = params.gamma_over_b
    horizon = (
        1.2 * math.log(1.0 / _CROSSING_THRESHOLD) / gamma if gamma > 0.0 else 2000.0
    )

    def ratio(ts: np.ndarray) -> np.ndarray:
        return np.abs(weighted_echo(table, state, ts)) * np.exp(-gamma * ts) / s0

    # each segment on its own: both are near-uniform, so the head and a tail
    # of 2048 samples or more (horizon past ~225) take the block echo path
    split = min(20.0, horizon)
    segments = [np.arange(0.0, split, 0.005), np.arange(split, horizon, 0.1)]
    ts = np.concatenate(segments)
    r = np.concatenate([ratio(segment) for segment in segments])
    below = np.nonzero(r < _CROSSING_THRESHOLD)[0]
    if below.size == 0:
        return math.inf
    i = int(below[0])  # > 0: the ratio starts at 1
    lo, hi = float(ts[i - 1]), float(ts[i])
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:  # until lo and hi are neighbouring floats
        if float(ratio(np.array([mid]))[0]) < _CROSSING_THRESHOLD:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return mid
