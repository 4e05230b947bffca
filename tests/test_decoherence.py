import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingspec import (
    CapacityError,
    ChainParams,
    ModeCoefficients,
    ParameterError,
    build_mode_table,
    decoherence_factor,
    enumerate_lines,
    fock_superposition,
    mode_coefficients,
    mode_factor,
    oracle_decoherence,
    oracle_mode_factor,
    weighted_echo,
)
from isingspec import decoherence
from isingspec.decoherence import (
    _COLUMNS,
    _FINE_ROWS,
    GridPlan,
    _block_layout,
    _channel_sums,
    _exact_times,
    _phase_table,
    _product_error,
    _veltkamp_split,
)


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


def per_mode_block_reference(weights, tones, plan):
    """The block product with every table built one mode at a time.

    Per mode, U (rows x 4: Re R, Im R of each tone) and V (4 x 2B: the
    weighted column rows of each tone) are built alone.  Each row and column
    table is the outer product, 16 fine entries innermost, of a coarse and a
    fine part of exp(i w (x + e)) = exp(i fl(w x)) (1 + i (w x - fl(w x) + w e))
    at the layout's exact times x and their misses e, and one product gives
    the factor F: the grouped kernel must give these bits exactly.
    """
    parts = _block_layout(plan)
    out, f = plan.workspace()
    out[...] = 1.0

    def table(w, times, times_split, times_miss):
        phase = w * times
        miss = _product_error(_veltkamp_split(w), times_split, phase) + w * times_miss
        e = np.exp(1j * phase)
        result = np.empty(phase.shape, dtype=complex)
        result.real, result.imag = e.real - e.imag * miss, e.imag + e.real * miss
        return result

    def outer(coarse, fine):
        return (coarse[:, None] * fine[None, :]).reshape(-1)

    for j in range(tones[0].size):
        pairs = [(float(w[j]), c[j], s[j]) for w, c, s in zip(tones, weights[::2], weights[1::2])]
        head = [table(w, *parts[0][0]) for w, _, _ in pairs]
        v = np.empty((4, 2 * decoherence._BLOCK))
        for i, (_, c, s) in enumerate(pairs):
            column = outer(*(head[i][part] for part in _COLUMNS))
            v[2 * i, 0::2], v[2 * i, 1::2] = c * column.real, s * column.imag
            v[2 * i + 1, 0::2], v[2 * i + 1, 1::2] = -c * column.imag, s * column.real
        for exact, chunks in parts:
            phases = [table(w, *exact) for w, _, _ in pairs]
            for start, r, coarse in chunks:
                u = np.empty((r, 4))
                for i in range(2):
                    row = outer(phases[i][coarse], head[i][_FINE_ROWS])[:r]
                    u[:, 2 * i], u[:, 2 * i + 1] = row.real, row.imag
                np.matmul(u, v, out=f[:r].view(float))
                out[start : start + r] *= f[:r]
    return out.reshape(-1)[: plan.size]


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
    """Uniform plans take the block product; arrays of times take mode_factor."""

    @pytest.mark.parametrize("lam", [0.25, 1.0, 100.0])
    @pytest.mark.parametrize("n_sites", [2, 16, 1000])
    def test_error_against_extended_precision(self, n_sites, lam):
        table = build_mode_table(params_for(n_sites=n_sites, lam=lam, g_over_b=0.08125), n_max=1)
        # one-sample tails behind 1, 4 and 16 whole rows of 128, one sample
        # short of 16 rows, 16 rows, the 2^16 grid's half-grid, and two grids
        # that do not start at t = 0: linspace(0.1, 300, 4096) and the
        # threshold-scan tail arange(20, 708.5, 0.1)
        grids = [(0.0, UNIFORM_DT, n) for n in (129, 513, 2047, 2048, 2049, 32769)]
        grids += [(0.1, (300.0 - 0.1) / 4095, 4096), (20.0, 0.1, 6885)]
        for start, step, count in grids:
            plan = GridPlan(start, step, count)
            block = decoherence_factor(table, 1, plan)
            # every 13th sample (coprime to the block size) and the last
            idx = np.r_[np.arange(3, count, 13), count - 1]
            t = plan.times()[idx]
            loop = decoherence_factor(table, 1, t)
            assert np.any(block[idx] != loop)  # the grid took the block path
            # each path against the times it evaluates: the block product at
            # the nominal times start + j step, mode_factor at the float t_j
            nominal = np.longdouble(start) + idx.astype(np.longdouble) * np.longdouble(step)
            block_error = float(np.max(np.abs(block[idx] - longdouble_echo(table, 1, nominal))))
            exact = longdouble_echo(table, 1, t.astype(np.longdouble))
            loop_error = float(np.max(np.abs(loop - exact)))
            assert block_error <= 2.0 * loop_error + 1e-15, (count, block_error, loop_error)

    @pytest.mark.parametrize(
        "n_sites, g_over_b, t",
        [
            (100, 0.08125, np.arange(1023) * UNIFORM_DT),
            (100, 0.08125, np.arange(2047) * UNIFORM_DT),
            (100, 0.08125, (np.arange(2048) * UNIFORM_DT).reshape(2, 1024)),  # not 1-D
            (100, 0.08125, np.array([3.7])),
            (
                100,
                0.08125,
                (np.arange(4096) + np.random.default_rng(3).uniform(-0.25, 0.25, 4096))
                * UNIFORM_DT,
            ),
            # uniform and long, but an array: only a uniform plan takes the block
            (100, 0.08125, np.arange(32769) * UNIFORM_DT),
            # four samples with |D| in (0, 1e-300), the smallest 1.4e-320
            (1000, 1.0, np.arange(4097) * 0.01),
        ],
        ids=["short", "2047", "2d", "single", "jittered", "long-array", "subnormal"],
    )
    def test_other_grids_keep_the_loop_bitwise(self, n_sites, g_over_b, t):
        table = build_mode_table(params_for(n_sites=n_sites, lam=1.0, g_over_b=g_over_b), n_max=1)
        np.testing.assert_array_equal(decoherence_factor(table, 1, t), loop_reference(table, 1, t))

    @pytest.mark.parametrize(
        "start, count", [(3.7, 0), (3.7, 1), (0.0, 127)], ids=["empty", "one", "short-plan"]
    )
    def test_short_plans_take_the_block_product(self, start, count):
        # no size floor: a plan of no samples, or of less than one row of
        # 128, still runs the block product and agrees with mode_factor
        table = build_mode_table(params_for(n_sites=100, lam=1.0, g_over_b=0.08125), n_max=1)
        plan = GridPlan(start, UNIFORM_DT, count)
        block = decoherence_factor(table, 1, plan, workspace=plan.workspace())
        times = plan.times()
        assert block.shape == times.shape == (count,)
        np.testing.assert_array_equal(block, decoherence_factor(table, 1, plan))
        np.testing.assert_allclose(block, decoherence_factor(table, 1, times), rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "start, step, size",
        [
            (0.0, 0.1, -5),
            (0.0, 0.1, 2.5),
            (0.0, 0.1, True),
            (0.0, math.nan, 16),
            (math.inf, 0.1, 16),
        ],
        ids=["negative-size", "fractional-size", "bool-size", "nan-step", "infinite-start"],
    )
    def test_invalid_plans_are_parameter_errors(self, start, step, size):
        table = build_mode_table(params_for(), n_max=1)
        state = fock_superposition([1, 1])
        with pytest.raises(ParameterError, match="plan"):
            decoherence_factor(table, 1, GridPlan(start, step, size))
        with pytest.raises(ParameterError, match="plan"):
            weighted_echo(table, state, GridPlan(start, step, size))

    def test_plan_and_workspace_keep_the_bits(self):
        table = build_mode_table(params_for(n_sites=100, lam=1.0, g_over_b=0.08125), n_max=2)
        plan = GridPlan(0.0, UNIFORM_DT, 32769)
        assert plan.size == np.size(plan) == 32769
        workspace = plan.workspace()
        for n in (1, 2):  # the second call reuses the first's buffers
            np.testing.assert_array_equal(
                decoherence_factor(table, n, plan, workspace=workspace),
                decoherence_factor(table, n, plan),
            )
        np.testing.assert_array_equal(plan.times(), np.arange(32769) * UNIFORM_DT)

    @pytest.mark.parametrize(
        "n_sites, lam, g_over_b, grid",
        [
            (2, 1.0, 0.08125, (0.0, UNIFORM_DT, 32769)),  # one mode
            (38, 1.0, 0.08125, (0.0, UNIFORM_DT, 32769)),  # 19 modes: a short last group
            (1000, 0.25, 0.08125, (0.0, UNIFORM_DT, 32769)),
            (1000, 1.0, 0.08125, (0.0, UNIFORM_DT, 32769)),
            (1000, 100.0, 0.08125, (0.0, UNIFORM_DT, 32769)),
            (38, 1.0, 0.08125, (0.0, UNIFORM_DT, 131073)),  # five chunks
            (38, 1.0, 0.08125, (0.0, UNIFORM_DT, 17 * 32768 + 1)),  # 17 chunks: two tables
            (38, 1.0, 0.08125, (20.0, 0.1, 6885)),  # does not start at 0
            # the explicit grid t_max = 300, 4096 samples: a dyadic step, so
            # every row and column time is exact
            (38, 1.0, 0.08125, (0.0, 2.0 * 300.0 / 4096, 2049)),
            # four samples with |D| in (0, 1e-300), the smallest 1.4e-320
            (1000, 1.0, 1.0, (0.0, 0.01, 4097)),
        ],
        ids=[
            "n2", "n38", "n1000-0.25", "n1000-1", "n1000-100", "chunks", "tables", "offset",
            "exact", "subnormal",
        ],
    )
    def test_grouped_tables_keep_the_per_mode_bits(self, n_sites, lam, g_over_b, grid):
        table = build_mode_table(params_for(n_sites=n_sites, lam=lam, g_over_b=g_over_b), n_max=1)
        plan = GridPlan(*grid)
        c = mode_coefficients(table.alpha[1], table.alpha[0])
        weights = _channel_sums(c)
        tones = (table.epsilon[1] + table.epsilon[0], table.epsilon[1] - table.epsilon[0])
        grouped = decoherence_factor(table, 1, plan)
        reference = per_mode_block_reference(weights, tones, plan)
        np.testing.assert_array_equal(grouped.view(np.uint64), reference.view(np.uint64))

    @pytest.mark.parametrize("count", [(1 << 18) + 1, (1 << 21) + 1])
    def test_block_layout_holds_no_grid_sized_array(self, count):
        # the chunks tile the rows in order, each fits the workspace's f, a
        # part holds at most 16 of them, and no time array has the grid's size
        plan = GridPlan(0.0, UNIFORM_DT, count)
        block = decoherence._BLOCK
        rows = -(-count // block)
        out, f = plan.workspace()
        assert out.dtype == f.dtype == complex
        assert out.shape == (rows, block) and f.shape == (decoherence._chunk_rows(rows), block)
        parts = _block_layout(plan)
        chunks = [chunk for _, part in parts for chunk in part]
        assert [a for a, _, _ in chunks] == list(np.cumsum([0] + [r for _, r, _ in chunks[:-1]]))
        assert sum(r for _, r, _ in chunks) == rows
        assert all(r <= f.shape[0] for _, r, _ in chunks)
        assert all(len(part) <= 16 for _, part in parts)
        for (times, (hi, lo), miss), part in parts:
            assert all(coarse.stop - coarse.start == -(-r // 16) for _, r, coarse in part)
            assert times.size == hi.size == lo.size == miss.size <= max(rows, block)

    @pytest.mark.parametrize(
        "n_sites, count", [(1000, 32769), (100, (1 << 21) + 1)], ids=["n1000", "long-grid"]
    )
    def test_block_scratch_memory_is_bounded(self, n_sites, count):
        # the kernel's own allocations beyond the caller's workspace: its
        # per-group tables, never per-mode tables of every mode at once, and
        # never the phases of every chunk of a long grid at once
        table = build_mode_table(params_for(n_sites=n_sites, lam=1.0, g_over_b=0.08125), n_max=1)
        plan = GridPlan(0.0, UNIFORM_DT, count)
        workspace = plan.workspace()
        tracemalloc.start()
        try:
            decoherence_factor(table, 1, plan, workspace=workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

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

    @pytest.mark.parametrize(
        "grid",
        [(0.0, UNIFORM_DT, 32769), (0.0, 0.005, 4000), (20.0, 0.1, 6885)],
        ids=["half-grid", "scan-head", "scan-tail"],
    )
    def test_factored_tables_match_one_exponential(self, grid):
        # a row or column table is the outer product of a coarse and a fine
        # factor, each exp(i w x) of exact times to double precision; the
        # product adds one complex rounding, so every entry stays within
        # 4 ulp of 1 of _phase_table at the combined exact times
        start, step, _ = grid
        parts = _block_layout(GridPlan(*grid))
        block = decoherence._BLOCK
        w = np.random.default_rng(37).uniform(0.0, 230.0, (8, 2, 1))
        head = _phase_table(w, _veltkamp_split(w), *parts[0][0])

        def factored(coarse, fine):
            return (coarse[..., :, None] * fine[..., None, :]).reshape(8, 2, -1)

        columns = factored(*(head[..., part] for part in _COLUMNS))
        tables = [(columns, _exact_times(0.0, np.arange(block, dtype=float), step))]
        for exact, chunks in parts:
            phases = _phase_table(w, _veltkamp_split(w), *exact)
            for first, r, coarse in chunks:
                rows = _exact_times(start, np.arange(first, first + r) * float(block), step)
                tables.append((factored(phases[..., coarse], head[..., _FINE_ROWS])[..., :r], rows))
        for table, exact in tables:
            direct = _phase_table(w, _veltkamp_split(w), *exact)
            error = np.max(np.abs(table - direct))
            assert error <= 4 * np.finfo(float).eps, (error, exact[0][-1])


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
