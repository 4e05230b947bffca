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

import math
from dataclasses import astuple, dataclass

import numpy as np

from .chain import ModeTable
from .errors import CapacityError, ParameterError

# below this magnitude an accumulated product is flushed to exactly zero
UNDERFLOW_CLAMP = 1e-300

# hard cap on enumerable momentum pairs: 4**14 configurations
MAX_ENUMERABLE_MODES = 14

# samples per block-product chunk, mode-samples per mode_factor broadcast
_CHUNK = 1 << 15
# modes whose block-product tables are built together
_GROUP = 8
# 1-D grids of _BLOCK_MIN or more samples whose split t_aB + (t_b - t_0),
# j = a B + b, misses every t_j by a phase under _SPLIT_TOLERANCE take the
# block-factorized product
_BLOCK, _BLOCK_MIN, _SPLIT_TOLERANCE = 512, 2048, 1e-9
# Veltkamp's splitter 2^27 + 1 cuts a double into two 26-bit halves
_SPLITTER = 134217729.0


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


def _branch_pair(table: ModeTable, n: int):
    """Channel weights and energies (eps_n, eps_{n-1}) of the branch pair (n, n-1)."""
    if n < 1 or n > table.n_max:
        raise ParameterError(
            f"branch pair ({n}, {n - 1}) not covered by table with n_max={table.n_max}"
        )
    coeffs = mode_coefficients(table.alpha[n], table.alpha[n - 1])
    return coeffs, table.epsilon[n], table.epsilon[n - 1]


@dataclass(frozen=True)
class GridPlan:
    """What decoherence_factor decides about a time grid once, for every branch.

    Build it with grid_plan(t) and pass it to decoherence_factor in place of
    t.  samples is t as a flat float array and shape the shape of t, () for
    a scalar.  A 1-D t of at least 2048 samples carries its block split:
    split_miss is max |delta_j| over the grid, fine the column offsets
    t_b - t_0, and chunks one (first row, coarse row times t_aB, their
    Veltkamp split, delta) per chunk of chunk_rows rows, with each delta_j
    twice, once per float of a complex sample.  Any other t has no chunks
    and an infinite split_miss, so every branch takes mode_factor.
    """

    samples: np.ndarray
    shape: tuple[int, ...]
    split_miss: float = math.inf
    fine: np.ndarray | None = None
    chunks: tuple = ()
    chunk_rows: int = 0

    @property
    def size(self) -> int:
        """Number of samples, as np.size(t) counts them."""
        return self.samples.size

    def takes_block(self, table: ModeTable, n: int) -> bool:
        """Branch pair (n, n-1) takes the block product on this grid.

        The split must miss every sample by a phase under 1e-9 at the
        largest tone; energies are non-negative, so the sum tone bounds both.
        """
        omega = float(np.max(table.epsilon[n] + table.epsilon[n - 1]))
        return self.split_miss * omega < _SPLIT_TOLERANCE

    def workspace(self):
        """Buffers of one block-product call: output and fg.

        Allocate one per thread that runs branches, on the thread that
        sums them: decoherence_factor writes its result into the output
        buffer and returns a view of it, valid until the next call that is
        given this workspace.  fg holds 2 chunk_rows rows, a mode's factor
        F over a chunk above its time derivative G.  The per-group tables
        of _block_product are smaller than a chunk and are not part of it.
        """
        rows = -(-self.size // _BLOCK)
        return (
            np.empty((rows, _BLOCK), dtype=complex),
            np.empty((2 * self.chunk_rows, _BLOCK), dtype=complex),
        )


def grid_plan(t) -> GridPlan:
    """The routing and block split of time grid t, shared by every branch pair.

    The split of a 1-D t of at least 2048 samples is computed in chunks of
    about 2^15 samples (a short tail joins the last chunk) and kept.  Its
    miss delta_j = t_j - (t_aB + (t_b - t_0)) carries one rounding: the
    rounded sum s and its two-sum error are exact, and so is t_j - s
    wherever t_j and s agree to within a factor of two.  Past the last
    sample t_j reads s (padding only).
    """
    shape = np.shape(t)
    samples = np.asarray(t, dtype=float).reshape(-1)
    if len(shape) != 1 or samples.size < _BLOCK_MIN:
        return GridPlan(samples, shape)
    rows = -(-samples.size // _BLOCK)
    chunk_rows = -(-rows // max(1, rows // (_CHUNK // _BLOCK)))
    fine = samples[:_BLOCK] - samples[0]
    chunks = []
    for start in range(0, rows, chunk_rows):
        times = samples[start * _BLOCK : (start + chunk_rows) * _BLOCK]
        coarse = times[::_BLOCK]
        s = coarse[:, None] + fine
        fine_part = s - coarse[:, None]
        # delta_j = (t_j - s) - (two-sum error of s), formed in place so that
        # few chunk-sized temporaries are alive at once
        delta = s.copy()
        delta.reshape(-1)[: times.size] = times
        delta -= s
        delta -= (coarse[:, None] - (s - fine_part)) + (fine - fine_part)
        chunks.append((start, coarse, _veltkamp_split(coarse), np.repeat(delta, 2, axis=1)))
    # np.max, not max(): a NaN miss anywhere must route every branch off the split
    split_miss = float(np.max([np.max(np.abs(chunk[3])) for chunk in chunks]))
    return GridPlan(samples, shape, split_miss, fine, tuple(chunks), chunk_rows)


def decoherence_factor(table: ModeTable, n: int, t, workspace=None):
    """Echo between branches n and n-1 at time(s) t, product over momenta.

    The per-momentum factors are multiplied in ascending-k order regardless
    of how callers parallelize over time samples, so outputs are bitwise
    reproducible.  A 1-D t of at least 2048 samples whose split t_aB +
    (t_b - t_0), j = aB + b, misses every sample by max|delta| max|w| < 1e-9
    takes a block-factorized product that agrees with mode_factor to
    rounding; any other t (short, multi-dimensional, scalar or irregular)
    takes mode_factor itself, broadcast over modes and time chunks.
    Magnitudes below 1e-300 are flushed to exactly zero.

    t may also be grid_plan(t), for callers that evaluate several branches
    on one grid.  workspace, from plan.workspace(), holds the block
    product's buffers: the result is then written into it and returned as a
    view (see GridPlan.workspace).  Neither changes a bit of the result.
    """
    coeffs, eps_n, eps_p = _branch_pair(table, n)
    plan = t if isinstance(t, GridPlan) else grid_plan(t)
    if plan.takes_block(table, n):
        weights = _channel_sums(coeffs)
        tones = (eps_n + eps_p, eps_n - eps_p)
        out = _block_product(weights, tones, plan, workspace or plan.workspace())
    else:
        out = _mode_product(coeffs, eps_n, eps_p, plan.samples)
    out[np.abs(out) < UNDERFLOW_CLAMP] = 0.0
    return out[0] if plan.shape == () else out.reshape(plan.shape)


def _mode_product(coeffs: ModeCoefficients, eps_n, eps_p, t: np.ndarray) -> np.ndarray:
    """mode_factor on (modes x time chunk), _CHUNK mode-samples a call; ascending k."""
    out = np.ones(t.shape, dtype=complex)
    width = max(1, min(t.size, _CHUNK))
    group = _CHUNK // width
    fields = astuple(coeffs)
    for k in range(0, eps_n.size, group):
        m = slice(k, k + group)
        part = ModeCoefficients(*(c[m, None] for c in fields))
        for start in range(0, t.size, width):
            acc = out[start : start + width]
            tc = t[start : start + width]
            for factor in mode_factor(part, eps_n[m, None], eps_p[m, None], tc):
                acc *= factor  # ascending k
    return out


def _block_product(weights, tones, plan: GridPlan, workspace) -> np.ndarray:
    """Per-mode product on a near-uniform 1-D grid, block by block.

    Sample j = a B + b sits at row a, column b.  Per mode, a row table
    R = exp(i w t_aB) and a column table C = exp(i w (t_b - t_0)) for each
    tone w (sum and difference) give the factor at the split time t_aB +
    (t_b - t_0) as F = (cs Re R1C1 + cq Re R2C2) + i (ds Im R1C1 + dq Im R2C2).
    Over a chunk, F viewed as interleaved floats is the rank-4 real product
    U V, with U = [Re R1, Im R1, Re R2, Im R2] (rows x 4) and V the four
    weighted column rows (cs Re C, ds Im C) and (-cs Im C, ds Re C) of tone
    1, then those of tone 2 with (cq, dq) (4 x 2B).  Stacking U' (the same
    columns of i w R) below U makes one BLAS call give F and its time
    derivative G.  Two corrections keep every phase at w t_j to double
    precision: the row phases' rounding, shared by a whole row, is put back
    exactly as the factor 1 + i miss (_product_error), and the split's miss
    delta_j enters as F + delta_j G, which is F at t_j to double precision
    since routing bounds |w delta_j| by 1e-9.

    U, U' and V are built for _GROUP modes at a time, a few numpy calls per
    group (V once per group, U and U' per chunk).  The per-mode loop then
    makes only chunk-sized calls, which release the GIL, so branch and
    lambda threads do not queue on each other's bookkeeping: the product,
    G *= delta, F += G and acc *= F.  Every element sees the same
    operations in the same order as a loop that builds each mode's tables
    alone.  Every array of a grid's size lives in workspace; the product
    fills its output.
    """
    out, fg = workspace
    out[...] = 1.0
    # (mode, tone, 1) for tones (sum, dif), and their cos and sin weights
    tone_pairs, cos_w, sin_w = (
        np.stack(pair, axis=1)[:, :, None] for pair in (tones, weights[0::2], weights[1::2])
    )
    flip = np.array([-1.0, 1.0])
    # V as (mode, tone, pair row, column, (re, im) slot), one buffer for all
    # groups: pair row 1 holds the phases w (t_b - t_0) until row 0 holds C.
    # Every call runs along the 512 columns: one whose innermost axis is the
    # 2-long (re, im) slot cost a sixth of the whole kernel
    v_groups = np.empty((_GROUP, 2, 2, _BLOCK, 2))
    for first in range(0, tone_pairs.shape[0], _GROUP):
        w = tone_pairs[first : first + _GROUP]
        cs, ds = cos_w[first : first + _GROUP], sin_w[first : first + _GROUP]
        modes = w.shape[0]
        v = v_groups[:modes]
        columns = v[:, :, 0].view(complex)[..., 0]
        np.multiply(1j, np.multiply(w, plan.fine, out=v[:, :, 1, :, 0]), out=columns)
        np.exp(columns, out=columns)
        re, im = v[:, :, 0, :, 0], v[:, :, 0, :, 1]
        np.multiply(im, -cs, out=v[:, :, 1, :, 0])
        np.multiply(re, ds, out=v[:, :, 1, :, 1])
        re *= cs
        im *= ds
        v = v.reshape(modes, 4, 2 * _BLOCK)
        # (mode, 1, tone, 1): w * (-1, 1) scales (Im R, Re R) to i w R
        w_slot = w.reshape(modes, 1, 2, 1) * flip
        for start, coarse, coarse_split, delta in plan.chunks:
            r = coarse.size
            acc = out[start : start + r]
            f, g = fg[:r], fg[r : 2 * r]
            fg_flat, g_flat = fg[: 2 * r].view(float), g.view(float)
            phase = w * coarse
            miss = _product_error(_veltkamp_split(w), coarse_split, phase)
            rows = np.exp(1j * phase) * (1.0 + 1j * miss)
            # U above U' as (mode, (value, derivative), row, tone, (re, im))
            u = np.empty((modes, 2, r, 2, 2))
            u[:, 0] = rows.view(float).reshape(modes, 2, r, 2).transpose(0, 2, 1, 3)
            np.multiply(u[:, 0, :, :, ::-1], w_slot, out=u[:, 1])
            u = u.reshape(modes, 2 * r, 4)
            for m in range(modes):  # ascending k
                np.matmul(u[m], v[m], out=fg_flat)
                g_flat *= delta
                f += g
                acc *= f
    return out.reshape(-1)[: plan.size]


def _product_error(a_split, b_split, product):
    """a b - product exactly, for product = fl(a b): Dekker's TwoProduct.

    Both factors come split by _veltkamp_split, so every partial product is
    exact and, barring overflow and underflow, so is the result; no FMA is
    needed (Dekker, Numer. Math. 18, 1971; Ogita, Rump & Oishi, SIAM J.
    Sci. Comput. 26, 2005).
    """
    (a_hi, a_lo), (b_hi, b_lo) = a_split, b_split
    return a_lo * b_lo - (((product - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _veltkamp_split(x):
    """x = hi + lo exactly, each half carrying at most 26 significant bits."""
    scaled = _SPLITTER * x
    hi = scaled - (scaled - x)
    return hi, x - hi


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
    coeffs, eps_n, eps_p = _branch_pair(table, n)
    n_modes = table.momenta.size
    if n_modes > MAX_ENUMERABLE_MODES:
        raise CapacityError(
            f"{n_modes} momentum pairs exceed the enumerable cap of "
            f"{MAX_ENUMERABLE_MODES} (4^modes configurations); use the FFT "
            "spectrum path instead"
        )

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
