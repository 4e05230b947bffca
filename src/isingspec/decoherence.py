"""Decoherence factor between adjacent photon branches.

For one momentum pair the ground state of the uncoupled chain overlaps the
eigenstates of branches n and n-1 through four real channel weights; the
two-Hamiltonian echo then factorizes into a product over momenta of
four-term exponential sums.  At small N the same object expands into an
explicit list of spectral lines, which is what the Lorentzian spectrum sums
over.

Sign convention: channel label (a, b) carries the phase
exp(i (a eps_n + b eps_{n-1}) t), with the weights as defined in
mode_coefficients.  The pairing is pinned by the two-level validator in
the oracle module (see tests), which also fixes it against the full
exact-diagonalization echo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ModeTable
from .errors import CapacityError, ParameterError

# below this magnitude an accumulated product is flushed to exactly zero
UNDERFLOW_CLAMP = 1e-300

# hard cap on enumerable momentum pairs: 4**14 configurations
MAX_ENUMERABLE_MODES = 14

_T_CHUNK = 1 << 15
# uniform grids t_j = j dt of at least two blocks take the block-factorized
# product: j = a B + b, exp(i w t_j) = exp(i w t_aB) exp(i w t_b)
_BLOCK = 512


@dataclass(frozen=True)
class ModeCoefficients:
    """Four real channel weights of one momentum pair (or arrays thereof).

    They sum to exactly one: pp + mm = sin^2(delta), pm + mp = cos^2(delta)
    with delta the angle mismatch between the two branches.  pp and mm
    vanish when the branches share their mixing angle.
    """

    pp: np.ndarray | float
    pm: np.ndarray | float
    mp: np.ndarray | float
    mm: np.ndarray | float


def mode_coefficients(alpha_n, alpha_prev) -> ModeCoefficients:
    """Channel weights from the branch angles alpha_n and alpha_{n-1}."""
    delta = np.asarray(alpha_prev) - np.asarray(alpha_n)
    sin_n, cos_n = np.sin(alpha_n), np.cos(alpha_n)
    sin_p, cos_p = np.sin(alpha_prev), np.cos(alpha_prev)
    sin_d, cos_d = np.sin(delta), np.cos(delta)
    return ModeCoefficients(
        pp=-sin_n * cos_p * sin_d,
        pm=sin_n * sin_p * cos_d,
        mp=cos_n * cos_p * cos_d,
        mm=cos_n * sin_p * sin_d,
    )


def _channel_sums(coeffs: ModeCoefficients):
    """Cosine/sine weights for the (eps_n + eps_prev) and (eps_n - eps_prev) tones."""
    return (
        coeffs.pp + coeffs.mm,
        coeffs.pp - coeffs.mm,
        coeffs.pm + coeffs.mp,
        coeffs.pm - coeffs.mp,
    )


def mode_factor(coeffs: ModeCoefficients, eps_n, eps_prev, t):
    """Single-mode echo sum_{a,b} c_ab exp(i (a eps_n + b eps_prev) t).

    Equals 1 at t = 0 by the weight sum rule and never exceeds unit
    modulus.  Broadcasts over whatever shapes the inputs share.
    """
    cs, ds, cq, dq = _channel_sums(coeffs)
    s = (np.asarray(eps_n) + np.asarray(eps_prev)) * np.asarray(t)
    q = (np.asarray(eps_n) - np.asarray(eps_prev)) * np.asarray(t)
    return (
        cs * np.cos(s)
        + 1j * (ds * np.sin(s))
        + cq * np.cos(q)
        + 1j * (dq * np.sin(q))
    )


def decoherence_factor(table: ModeTable, n: int, t):
    """Echo between branches n and n-1 at time(s) t, product over momenta.

    The per-momentum factors are multiplied in ascending-k order regardless
    of how callers parallelize over time samples, so outputs are bitwise
    reproducible.  A 1-D t of at least 1024 samples that equals
    arange(t.size) * t[1] bitwise takes a block-factorized product (exact
    phase tables, no recurrence) that samples the same times as the
    per-mode loop and agrees with it to rounding; any other t takes the
    loop.  Magnitudes that underflow below 1e-300 are flushed to exactly
    zero rather than treated as an error.
    """
    if n < 1 or n > table.n_max:
        raise ParameterError(
            f"branch pair ({n}, {n - 1}) not covered by table with n_max={table.n_max}"
        )
    scalar = np.isscalar(t) or np.ndim(t) == 0
    tarr = np.atleast_1d(np.asarray(t, dtype=float))

    eps_n, eps_p = table.epsilon[n], table.epsilon[n - 1]
    weights = _channel_sums(mode_coefficients(table.alpha[n], table.alpha[n - 1]))
    tones = (eps_n + eps_p, eps_n - eps_p)
    if _is_uniform_from_zero(tarr):
        out = _block_product(weights, tones, tarr)
    else:
        out = _loop_product(weights, tones, tarr)
    out[np.abs(out) < UNDERFLOW_CLAMP] = 0.0
    return out[0] if scalar else out


def _is_uniform_from_zero(t: np.ndarray) -> bool:
    """t is 1-D, spans at least two blocks and equals arange(t.size) * t[1] bitwise."""
    return (
        t.ndim == 1
        and t.size >= 2 * _BLOCK
        and np.array_equal(t, np.arange(t.size) * t[1])
    )


def _loop_product(weights, tones, t: np.ndarray) -> np.ndarray:
    """Per-mode product with four trig calls per mode-sample; any shape of t."""
    cs, ds, cq, dq = weights
    eps_sum, eps_dif = tones
    out = np.empty(t.shape, dtype=complex)
    for start in range(0, t.size, _T_CHUNK):
        tc = t[start : start + _T_CHUNK]
        acc = np.ones(tc.shape, dtype=complex)
        for j in range(eps_sum.size):  # ascending k
            s = eps_sum[j] * tc
            q = eps_dif[j] * tc
            acc *= (
                cs[j] * np.cos(s)
                + 1j * (ds[j] * np.sin(s))
                + cq[j] * np.cos(q)
                + 1j * (dq[j] * np.sin(q))
            )
        out[start : start + _T_CHUNK] = acc
    return out


def _block_product(weights, tones, t: np.ndarray) -> np.ndarray:
    """Per-mode product on a uniform grid t_j = j dt, block by block.

    Sample j = a B + b sits at row a, column b, and exp(i w t_j) is the
    product of a row table exp(i w t_aB) and a column table exp(i w t_b),
    built per mode for both tones with np.exp (no recurrence).  Their outer
    products z1, z2 give the factor (cs Re z1 + cq Re z2) + i (ds Im z1 +
    dq Im z2), formed in preallocated buffers; the real and imaginary
    weights are applied through the interleaved float view of each buffer.

    Two corrections keep every phase at w t_j to double precision; without
    them spectrum metrics drift from the loop's in the 13th digit.  The row
    phases reach w t_max and their rounding would be shared by all B
    samples of a row, so _phase_table restores it.  And t_aB + t_b can miss
    t_j by an ulp: the exact miss delta_j is formed once per chunk, and
    each table product is multiplied by 1 + i w delta_j, which equals
    exp(i w delta_j) to double precision.
    """
    cs, ds, cq, dq = weights
    eps_sum, eps_dif = tones
    rows = -(-t.size // _BLOCK)
    # about _T_CHUNK samples per chunk; a short tail joins the last chunk
    chunk_rows = -(-rows // max(1, rows // (_T_CHUNK // _BLOCK)))
    fine = t[:_BLOCK]
    out = np.empty((rows, _BLOCK), dtype=complex)
    z1 = np.empty((chunk_rows, _BLOCK), dtype=complex)
    z2 = np.empty((chunk_rows, _BLOCK), dtype=complex)
    shift = np.empty((chunk_rows, _BLOCK), dtype=complex)  # 1 + i w delta
    w1 = np.empty((_BLOCK, 2))  # (cs, ds) per column, matching z1.view(float)
    w2 = np.empty((_BLOCK, 2))  # (cq, dq)
    w1_flat, w2_flat = w1.reshape(-1), w2.reshape(-1)
    for start in range(0, rows, chunk_rows):
        coarse = t[start * _BLOCK : (start + chunk_rows) * _BLOCK : _BLOCK]
        coarse_ld = coarse.astype(np.longdouble)
        r = coarse.size
        delta = _split_error(coarse[:, None], fine, start * _BLOCK, t[1])
        acc = out[start : start + r]
        acc[...] = 1.0
        z1c, z2c, shift_c = z1[:r], z2[:r], shift[:r]
        z1_flat, z2_flat = z1c.view(float), z2c.view(float)
        shift_c.real = 1.0
        for j in range(eps_sum.size):  # ascending k
            ws, wq = eps_sum[j], eps_dif[j]
            np.multiply(
                _phase_table(ws, coarse, coarse_ld)[:, None],
                np.exp(1j * (ws * fine)),
                out=z1c,
            )
            np.multiply(delta, ws, out=shift_c.imag)
            z1c *= shift_c
            np.multiply(
                _phase_table(wq, coarse, coarse_ld)[:, None],
                np.exp(1j * (wq * fine)),
                out=z2c,
            )
            np.multiply(delta, wq, out=shift_c.imag)
            z2c *= shift_c
            w1[:, 0], w1[:, 1] = cs[j], ds[j]
            w2[:, 0], w2[:, 1] = cq[j], dq[j]
            z1_flat *= w1_flat
            z2_flat *= w2_flat
            z1_flat += z2_flat
            acc *= z1c
    return out.reshape(-1)[: t.size]


def _phase_table(w: float, times: np.ndarray, times_ld: np.ndarray) -> np.ndarray:
    """exp(i w t) with the rounding error of fl(w t) put back.

    The miss w t - fl(w t), up to half an ulp of w t, comes from the
    extended-precision product (zero where longdouble is double) and is
    applied as the factor 1 + i miss.
    """
    phase = w * times
    miss = (np.longdouble(w) * times_ld - phase).astype(float)
    table = np.exp(1j * phase)
    table *= 1.0 + 1j * miss
    return table


def _split_error(coarse: np.ndarray, fine: np.ndarray, first: int, dt: float):
    """delta_j = t_j - (coarse + fine), t_j = j dt from sample `first` on.

    The rounded sum s and its two-sum error are exact floats, and t_j - s
    is exact because t_j and s agree to within an ulp, so delta_j carries
    one final rounding only.
    """
    s = coarse + fine
    fine_part = s - coarse
    sum_error = (coarse - (s - fine_part)) + (fine - fine_part)
    t_j = (np.arange(first, first + s.size) * dt).reshape(s.shape)
    return (t_j - s) - sum_error


@dataclass(frozen=True)
class LineDecomposition:
    """Exact line list of one branch echo, with pruning bookkeeping.

    pruned_weight is the signed total weight of discarded configurations
    (exact, since each pruned subtree sums to its prefix weight);
    pruned_abs_weight is the absolute mass of the discarded prefixes.
    """

    centers: np.ndarray
    weights: np.ndarray
    pruned_weight: float
    pruned_abs_weight: float


def enumerate_lines(
    table: ModeTable, n: int, weight_floor: float = 1e-15
) -> LineDecomposition:
    """All 4^(N/2) configurations {(a_k, b_k)} with weights and centers.

    Each configuration contributes weight prod_k c_{a_k b_k, k} at center
    sum_k (a_k eps_nk + b_k eps_{n-1,k}).  Partial products whose magnitude
    falls below weight_floor are pruned (they can only shrink further), and
    the pruned mass is reported.  Beyond 14 momentum pairs the enumeration
    refuses and the FFT path should be used instead.
    """
    if n < 1 or n > table.n_max:
        raise ParameterError(
            f"branch pair ({n}, {n - 1}) not covered by table with n_max={table.n_max}"
        )
    n_modes = table.momenta.size
    if n_modes > MAX_ENUMERABLE_MODES:
        raise CapacityError(
            f"{n_modes} momentum pairs exceed the enumerable cap of "
            f"{MAX_ENUMERABLE_MODES} (4^modes configurations); use the FFT "
            "spectrum path instead"
        )

    coeffs = mode_coefficients(table.alpha[n], table.alpha[n - 1])
    eps_n, eps_p = table.epsilon[n], table.epsilon[n - 1]
    # channel order (+,+), (+,-), (-,+), (-,-)
    channel_weights = np.stack([coeffs.pp, coeffs.pm, coeffs.mp, coeffs.mm], axis=1)
    channel_centers = np.stack(
        [eps_n + eps_p, eps_n - eps_p, -eps_n + eps_p, -eps_n - eps_p], axis=1
    )

    centers = np.zeros(1)
    weights = np.ones(1)
    pruned = 0.0
    pruned_abs = 0.0
    for j in range(n_modes):  # ascending k
        mode_centers = channel_centers[j]
        mode_weights = channel_weights[j]
        centers = (centers[:, None] + mode_centers[None, :]).ravel()
        weights = (weights[:, None] * mode_weights[None, :]).ravel()
        if weight_floor > 0.0:
            keep = np.abs(weights) >= weight_floor
            if not keep.all():
                dropped = weights[~keep]
                pruned += float(dropped.sum())
                pruned_abs += float(np.abs(dropped).sum())
                centers, weights = centers[keep], weights[keep]
    centers.setflags(write=False)
    weights.setflags(write=False)
    return LineDecomposition(
        centers=centers,
        weights=weights,
        pruned_weight=pruned,
        pruned_abs_weight=pruned_abs,
    )
