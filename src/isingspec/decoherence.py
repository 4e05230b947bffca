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
from itertools import accumulate

import numpy as np

from .chain import ModeTable
from .errors import CapacityError, ParameterError

# hard cap on enumerable momentum pairs: 4**14 configurations
MAX_ENUMERABLE_MODES = 14

# samples per block-product chunk, mode-samples per mode_factor broadcast
_CHUNK = 1 << 15
# modes whose block-product tables are built together
_GROUP = 8
# block-product row length
_BLOCK = 128
# block-product row and column indices split as _FINE coarse + fine, fine < _FINE
_FINE = 16
# part 0 of _block_layout opens with the 8 coarse and 16 fine column times,
# then the 16 fine row times
_COLUMNS = (slice(0, _BLOCK // _FINE), slice(_BLOCK // _FINE, _BLOCK // _FINE + _FINE))
_FINE_ROWS = slice(_COLUMNS[1].stop, _COLUMNS[1].stop + _FINE)
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
    """The nominal times start + j step, j = 0 .. size - 1, of a uniform grid.

    Pass it to decoherence_factor in place of t: it takes the block product
    at these times, for every branch, on the layout _block_layout derives.
    """

    start: float
    step: float
    size: int

    def times(self) -> np.ndarray:
        """The float times start + j step as a flat array."""
        return self.start + np.arange(self.size) * self.step

    def workspace(self):
        """Buffers of one block-product call: output and f, one allocation.

        Allocate one per thread that runs branches, on the thread that
        sums them: decoherence_factor writes its result into the output
        buffer and returns a view of it, valid until the next call given
        this workspace.  f holds a mode's factor over a chunk.
        """
        rows = -(-self.size // _BLOCK)
        buffer = np.empty((rows + _chunk_rows(rows), _BLOCK), dtype=complex)
        return buffer[:rows], buffer[rows:]


def _chunk_rows(rows: int) -> int:
    """Rows per block-product chunk: about 2^15 samples, a short tail joins the last."""
    return max(1, -(-rows // max(1, rows // (_CHUNK // _BLOCK))))


def _exact_times(start, multiples: np.ndarray, step: float):
    """start + multiples step as (float times, their Veltkamp split, exact misses).

    The miss is exact: TwoProduct for multiples step, Knuth's TwoSum for
    adding start, which adds nothing where start is 0.
    """
    product = multiples * step
    product_miss = _product_error(_veltkamp_split(multiples), _veltkamp_split(step), product)
    times = start + product
    part = times - start  # Knuth's TwoSum: start + product - times, exactly
    miss = (start - (times - part)) + (product - part) + product_miss
    return times, _veltkamp_split(times), miss


def decoherence_factor(table: ModeTable, n: int, t, workspace=None):
    """Echo between branches n and n-1 at time(s) t, product over momenta.

    The per-momentum factors are multiplied in ascending-k order regardless
    of how callers parallelize over time samples, so outputs are bitwise
    reproducible.  A GridPlan takes a block-factorized product at its
    nominal times start + j step; any other t is times of any shape, and
    takes mode_factor itself at them, broadcast over modes and time
    chunks.  workspace, from plan.workspace(), holds the block
    product's buffers: the result is written into it and returned as a
    view.  It does not change a bit of the result.
    """
    coeffs, eps_n, eps_p = _branch_pair(table, n)
    if isinstance(t, GridPlan):
        weights = _channel_sums(coeffs)
        tones = (eps_n + eps_p, eps_n - eps_p)
        return _block_product(weights, tones, t, workspace or t.workspace())
    t = np.asarray(t, dtype=float)
    out = _mode_product(coeffs, eps_n, eps_p, t.reshape(-1)).reshape(t.shape)
    return out[()]  # a scalar for a scalar t


def _mode_product(coeffs: ModeCoefficients, eps_n, eps_p, t: np.ndarray) -> np.ndarray:
    """mode_factor on (modes x time chunk), _CHUNK mode-samples a call; ascending k."""
    out = np.ones(t.shape, dtype=complex)
    # even chunks: numpy's in-place complex multiply can round the last bit
    # of a one-element array differently from a longer one's
    width = max(1, -(-t.size // max(1, -(-t.size // _CHUNK))))
    group = _CHUNK // width
    fields = (coeffs.pp, coeffs.pm, coeffs.mp, coeffs.mm)
    for k in range(0, eps_n.size, group):
        m = slice(k, k + group)
        part = ModeCoefficients(*(c[m, None] for c in fields))
        for start in range(0, t.size, width):
            acc = out[start : start + width]
            tc = t[start : start + width]
            for factor in mode_factor(part, eps_n[m, None], eps_p[m, None], tc):
                acc *= factor  # ascending k
    return out


def _phase_table(w, w_split, times, times_split, times_miss):
    """exp(i w (times + times_miss)) to double precision, as (mode, tone, time).

    w holds the tones as (mode, tone, 1).  fl(w times) rounds once; that
    rounding and w times_miss come back as the factor 1 + i miss, which
    scales the table's real and imaginary parts in place.
    """
    phase = w * times
    miss = _product_error(w_split, times_split, phase)
    miss += w * times_miss
    table = np.exp(1j * phase)
    re, im = table.real, table.imag
    re_miss = re * miss
    re -= im * miss
    im += re_miss
    return table


def _block_product(weights, tones, plan: GridPlan, workspace) -> np.ndarray:
    """Per-mode product on a uniform plan's nominal times, block by block.

    Sample j = a B + b sits at row a, column b, at the time start + a B step
    + b step.  Per mode, a row table R = exp(i w (start + a B step)) and a
    column table C = exp(i w b step) for each tone w (sum and difference)
    give the factor as F = (cs Re R1C1 + cq Re R2C2) + i (ds Im R1C1 + dq Im
    R2C2).  Over a chunk, F viewed as interleaved floats is the rank-4 real
    product U V, with U = [Re R1, Im R1, Re R2, Im R2] (rows x 4) and V the
    four weighted column rows (cs Re C, ds Im C) and (-cs Im C, ds Re C) of
    tone 1, then those of tone 2 with (cq, dq) (4 x 2B).

    R and C are outer products: with a = 16 c + f (and b likewise), R[a] =
    exp(i w x_c) exp(i w x_f) at the exact coarse and fine times x_c and x_f
    of _block_layout, each factor to double precision (_phase_table), and
    their product adds one complex rounding.  So each tone takes 40 + rows /
    16 complex exponentials, and each table entry one complex multiply.  The
    factors are built for _GROUP modes at a time, a few numpy calls per
    group (V once per group, the phases once per _block_layout part, U per
    chunk).  The per-mode loop then makes only chunk-sized calls, which
    release the GIL, so branch and lambda threads do not queue on each
    other's bookkeeping: the product and acc *= F.  Every element sees the
    same operations in the same order as a loop that builds each mode's
    tables alone.  Every array of a grid's size lives in workspace; the
    product fills its output.
    """
    out, f = workspace
    out[...] = 1.0
    # (mode, tone, 1) for tones (sum, dif), and their cos and sin weights
    tone_pairs, cos_w, sin_w = (
        np.stack(pair, axis=1)[:, :, None] for pair in (tones, weights[0::2], weights[1::2])
    )
    # V as (mode, tone, pair row, coarse column, fine column, (re, im) slot),
    # one buffer for all groups: pair row 0 holds C as complex until it is
    # weighted.  Every call runs along the columns: one whose innermost axis
    # is the 2-long (re, im) slot cost a sixth of the whole kernel
    v_groups = np.empty((_GROUP, 2, 2, _BLOCK // _FINE, _FINE, 2))
    parts = _block_layout(plan)
    for first in range(0, tone_pairs.shape[0], _GROUP):
        w = tone_pairs[first : first + _GROUP]
        w_split = _veltkamp_split(w)
        cs, ds = (x[first : first + _GROUP, ..., None] for x in (cos_w, sin_w))
        modes = w.shape[0]
        v = v_groups[:modes]
        head = _phase_table(w, w_split, *parts[0][0])  # with the column and fine row times
        coarse, fine = (head[..., part] for part in _COLUMNS)
        np.multiply(coarse[..., None], fine[..., None, :], out=v[:, :, 0].view(complex)[..., 0])
        re, im = v[:, :, 0, ..., 0], v[:, :, 0, ..., 1]
        np.multiply(im, -cs, out=v[:, :, 1, ..., 0])
        np.multiply(re, ds, out=v[:, :, 1, ..., 1])
        re *= cs
        im *= ds
        v = v.reshape(modes, 4, 2 * _BLOCK)
        fine_rows = head[..., None, _FINE_ROWS]
        for i, (exact, chunks) in enumerate(parts):
            phases = _phase_table(w, w_split, *exact) if i else head
            for start, r, coarse in chunks:
                acc, f_r = out[start : start + r], f[:r]
                rows = np.multiply(phases[..., coarse, None], fine_rows).reshape(modes, 2, -1)
                # U as (mode, row, (tone, (re, im)))
                u = rows[..., :r].swapaxes(1, 2).copy().view(float)
                for m in range(modes):  # ascending k
                    np.matmul(u[m], v[m], out=f_r.view(float))
                    acc *= f_r
    return out.reshape(-1)[: plan.size]


def _block_layout(plan: GridPlan) -> list:
    """(exact times, chunks) per phase table of _block_product.

    Sample j = a B + b sits at row a and column b of B = 128 columns, and
    each index splits as 16 coarse + fine.  The rows form chunks of at most
    _chunk_rows rows, each (first row, rows, slice of its part's times that
    holds the coarse row times start + (first + 16 c) B step).  A part holds
    those of at most 16 chunks (about 2^19 samples), so a group's phase
    tables stay the same size on longer grids.  Part 0 opens with the column
    times 16 c step and f step (_COLUMNS) and the fine row times f B step
    (_FINE_ROWS), which all chunks share.  Every time is held exactly
    (_exact_times); no array has the grid's size.
    """
    rows = -(-plan.size // _BLOCK)
    height = _chunk_rows(rows)
    chunks = [(a, min(height, rows - a)) for a in range(0, rows, height)]
    per_part = _CHUNK // (_BLOCK * _FINE)
    fine = np.arange(_FINE, dtype=float)
    lead = [np.arange(0, _BLOCK, _FINE, dtype=float), fine, fine * _BLOCK]
    parts = []
    for i in range(0, max(1, len(chunks)), per_part):
        part = chunks[i : i + per_part]
        multiples = lead + [np.arange(a, a + r, _FINE) * float(_BLOCK) for a, r in part]
        bounds = list(accumulate((m.size for m in multiples), initial=0))
        origin = np.full(bounds[-1], plan.start, dtype=float)
        origin[: bounds[len(lead)]] = 0.0  # column and fine row times start from 0
        exact = _exact_times(origin, np.concatenate(multiples), plan.step)
        chunks_at = enumerate(part, len(lead))  # chunk j's coarse row times: multiples[j]
        parts.append((exact, [(a, r, slice(*bounds[j : j + 2])) for j, (a, r) in chunks_at]))
        lead = []
    return parts


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
