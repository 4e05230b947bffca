import math
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import minimize_scalar

from isingspec import (
    CapacityError,
    ChainParams,
    ConfigError,
    DegenerateInputError,
    NumericsError,
    ParameterError,
    Spectrum,
    TimeGrid,
    auto_time_grid,
    broadening_metrics,
    build_mode_table,
    coherent_state,
    correlation_series,
    decoherence_factor,
    enumerate_lines,
    far_field_check,
    fitted_peak,
    fock_superposition,
    lorentzian,
    mean_photon_number,
    spectrum_analytic,
    spectrum_fft,
    sweep,
    threshold_crossing_time,
    transform,
    weighted_echo,
)
from isingspec import spectrum
from isingspec.decoherence import GridPlan
from isingspec.spectrum import _bounded_minimum, _l2_norm, _populated_branches


def params_for(n_sites=8, lam=1.0, g_over_b=0.1, gamma_over_b=0.02):
    return ChainParams(
        n_sites=n_sites, lam=lam, g_over_b=g_over_b, gamma_over_b=gamma_over_b
    )


def pipeline(params, state, t_max=None, n_samples=None):
    table = build_mode_table(params, n_max=max(state.n_max, 1))
    if t_max is None:
        grid = auto_time_grid(params, table, state)
        t_max, n_samples = grid.t_max, grid.n_samples
    series = correlation_series(params, table, state, t_max, n_samples)
    return table, series, spectrum_fft(series)


class TestCorrelationSeries:
    def test_vacuum_probe_is_zero(self):
        p = params_for()
        table = build_mode_table(p, n_max=1)
        series = correlation_series(p, table, fock_superposition([1]), 50.0, 256)
        np.testing.assert_allclose(series.values, 0.0, atol=1e-15)

    def test_vacuum_probe_allocates_no_block_buffers(self, monkeypatch):
        # no block workspace and no block layout for a probe with no
        # populated branch, nor for a plan with no sample
        def refused(*args):
            raise AssertionError("block buffers built for a call with nothing to compute")

        p = params_for()
        table = build_mode_table(p, n_max=1)
        monkeypatch.setattr("isingspec.decoherence.GridPlan.workspace", refused)
        monkeypatch.setattr("isingspec.decoherence._exact_times", refused)
        series = correlation_series(p, table, fock_superposition([1]), 50.0, 4096, threads=2)
        np.testing.assert_array_equal(series.values, 0.0)
        echo = weighted_echo(table, fock_superposition([1, 1]), GridPlan(20.0, 0.1, 0))
        assert echo.dtype == complex and echo.shape == (0,)

    def test_time_zero_equals_mean_photon_number(self):
        p = params_for()
        state = fock_superposition([1, 1])
        table = build_mode_table(p, n_max=1)
        series = correlation_series(p, table, state, 100.0, 1024)
        mid = series.grid.n_samples // 2
        assert series.grid.times()[mid] == 0.0
        assert series.values[mid] == pytest.approx(0.5, abs=1e-10)

    def test_magnitude_never_exceeds_initial_value(self):
        p = params_for(n_sites=100, lam=1.0)
        state = coherent_state(1.0, tail_tol=1e-8)
        table = build_mode_table(p, n_max=state.n_max)
        series = correlation_series(p, table, state, 200.0, 2048)
        s0 = mean_photon_number(state)
        assert np.max(np.abs(series.values)) <= s0 + 1e-10

    def test_negative_times_conjugate_positive(self):
        p = params_for(n_sites=20, lam=0.7)
        table = build_mode_table(p, n_max=1)
        series = correlation_series(p, table, fock_superposition([1, 1]), 80.0, 512)
        mid = series.grid.n_samples // 2
        for j in range(1, mid):
            assert series.values[mid + j] == np.conj(series.values[mid - j])

    def test_missing_branch_is_config_error(self):
        p = params_for()
        table = build_mode_table(p, n_max=1)
        state = fock_superposition([0, 0, 1])  # needs branch 2
        with pytest.raises(ConfigError, match="branch 2"):
            correlation_series(p, table, state, 50.0, 256)

    def test_rejects_bad_grids(self):
        p = params_for()
        table = build_mode_table(p, n_max=1)
        state = fock_superposition([1, 1])
        with pytest.raises(ConfigError):
            correlation_series(p, table, state, 50.0, 300)  # not a power of two
        with pytest.raises(ConfigError):
            correlation_series(p, table, state, -1.0, 256)

    def test_weighted_echo_is_the_branch_sum(self):
        p = params_for(n_sites=20, lam=0.9)
        state = coherent_state(1.0)
        weights = state.branch_weights()
        assert np.count_nonzero(weights[1:]) > 5
        table = build_mode_table(p, n_max=state.n_max)
        t = np.linspace(0.0, 60.0, 301)
        expected = np.zeros(t.shape, dtype=complex)
        for n in range(1, len(weights)):
            if weights[n] > 0.0:
                expected += weights[n] * decoherence_factor(table, n, t)
        np.testing.assert_array_equal(weighted_echo(table, state, t), expected)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_branch_threads_keep_the_serial_sum_bitwise(self, threads, monkeypatch):
        p = params_for(n_sites=20, lam=0.9)
        state = coherent_state(1.0)
        weights = state.branch_weights()
        table = build_mode_table(p, n_max=state.n_max)
        grid = auto_time_grid(p, table, state)
        plan = GridPlan(0.0, grid.step, grid.n_samples // 2 + 1)
        branches = [n for n in range(1, len(weights)) if weights[n] > 0.0]
        assert len(branches) > 5
        expected = np.zeros(plan.size, dtype=complex)
        for n in branches:
            expected += weights[n] * decoherence_factor(table, n, plan)
        pools = []

        class Pool(spectrum.ThreadPoolExecutor):
            def __init__(self, max_workers):
                assert threads > 1, "threads=1 started a thread"
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(spectrum, "ThreadPoolExecutor", Pool)
        echo = weighted_echo(table, state, plan, threads=threads)
        np.testing.assert_array_equal(echo, expected)
        assert pools == ([threads - 1] if threads > 1 else [])

    def test_branch_threads_keep_the_callers_error_state(self):
        # the 2049-sample half-grid takes the block product, whose phases
        # overflow: helpers that ignored the caller's errstate would warn,
        # and the filter turns that into an error
        p = params_for(n_sites=20, lam=0.9)
        state = coherent_state(1.0)
        table = build_mode_table(p, n_max=state.n_max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="not finite"):
                correlation_series(p, table, state, 2.0**1022, 4096, threads=2)

    def test_weighted_echo_missing_branch_is_config_error(self):
        p = params_for()
        table = build_mode_table(p, n_max=1)
        with pytest.raises(ConfigError, match="branch 2"):
            weighted_echo(table, fock_superposition([0, 1, 1]), np.zeros(4))


# the explicit grid of the sweep tests: Nyquist 32.2 clears the band
# estimate at lambda 0.5 to 5, not at lambda 10 (42.5)
SWEEP_GRID = TimeGrid(t_max=200.0, n_samples=4096)


class TestSweep:
    @pytest.mark.parametrize(
        "lams, state, branch_threads",
        [((0.5, 1.0, 2.0), fock_superposition([1, 1]), 1), ((2.0,), coherent_state(1.0), 2)],
        ids=["fock", "coherent"],
    )
    def test_threads_do_not_change_the_results(self, lams, state, branch_threads, monkeypatch):
        # three Fock lambdas split two threads among lambdas; one coherent
        # lambda hands both to its populated branches
        real = spectrum.correlation_series
        seen = []

        def recorded(params, table, state, t_max, n_samples, threads=0):
            seen.append(threads)
            return real(params, table, state, t_max, n_samples, threads)

        def finish(params, grid, series):
            return params, grid, series.values.tobytes(), transform(series)[1]

        monkeypatch.setattr(spectrum, "correlation_series", recorded)
        chain = params_for(n_sites=8)
        results = {
            threads: sweep(chain, state, lams, finish, SWEEP_GRID, threads)
            for threads in (1, 2, 0)
        }
        assert [params.lam for params, *_ in results[1]] == list(lams)
        assert all(grid is SWEEP_GRID for _, grid, *_ in results[1])
        assert results[2] == results[1] and results[0] == results[1]
        assert seen[: 2 * len(lams)] == [1] * len(lams) + [branch_threads] * len(lams)

    def test_grid_error_at_the_last_lambda_calls_no_finish(self):
        finished = []
        with pytest.raises(ConfigError, match="lambda=10 the Nyquist frequency"):
            sweep(
                params_for(n_sites=8),
                fock_superposition([1, 1]),
                [0.5, 2.0, 10.0],
                lambda params, grid, series: finished.append(params.lam),
                SWEEP_GRID,
            )
        assert finished == []

    def test_out_of_memory_names_the_lambda_and_its_samples(self, monkeypatch):
        real = spectrum.correlation_series
        finished = []

        def exhausted_at_one(params, table, state, t_max, n_samples, threads=0):
            if params.lam == 1.0:
                raise MemoryError
            return real(params, table, state, t_max, n_samples, threads)

        monkeypatch.setattr(spectrum, "correlation_series", exhausted_at_one)
        with pytest.raises(CapacityError) as caught:
            sweep(
                params_for(n_sites=8),
                fock_superposition([1, 1]),
                [0.5, 1.0, 2.0],
                lambda params, grid, series: finished.append(params.lam),
                SWEEP_GRID,
                threads=1,
            )
        assert str(caught.value) == "out of memory at lambda=1 on a grid of 4096 samples"
        assert caught.value.__cause__ is None and 1.0 not in finished

    def test_lambda_transforms_run_one_at_a_time(self, monkeypatch):
        real = spectrum.spectrum_fft
        inside, most = [], []
        lock = threading.Lock()

        def held(series):
            with lock:
                inside.append(1)
                most.append(len(inside))
            time.sleep(0.05)  # long enough for another lambda to arrive
            with lock:
                inside.pop()
            return real(series)

        monkeypatch.setattr(spectrum, "spectrum_fft", held)
        metrics = sweep(
            params_for(n_sites=8),
            fock_superposition([1, 1]),
            [0.5, 1.0, 2.0, 5.0],
            lambda params, grid, series: transform(series)[1],
            SWEEP_GRID,
            threads=2,
        )
        assert most == [1, 1, 1, 1] and len(metrics) == 4

    def test_empty_sweep_runs_nothing(self):
        def finish(params, grid, series):
            raise AssertionError("finish called")

        assert sweep(params_for(), fock_superposition([1, 1]), [], finish) == []

    def test_negative_threads_are_parameter_errors(self):
        # not "all CPUs", which 0 asks for
        state = fock_superposition([1, 1])
        table = build_mode_table(params_for(), n_max=1)
        with pytest.raises(ParameterError, match="got -2"):
            weighted_echo(table, state, GridPlan(0.0, 0.1, 4097), threads=-2)
        with pytest.raises(ParameterError, match="got -1"):
            sweep(params_for(), state, [0.5], lambda *run: run, SWEEP_GRID, threads=-1)


# probe states for the property tests: Fock superpositions of up to four
# levels with a populated excited level, and coherent states, alpha <= 1.5
probes = st.one_of(
    st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=4)
    .filter(lambda c: max(abs(x) for x in c[1:]) > 1e-3)
    .map(fock_superposition),
    st.floats(0.1, 1.5).map(lambda alpha: coherent_state(alpha, tail_tol=1e-8)),
)


class TestUniformGridProperties:
    """Invariants at random (N, lambda, g, probe) on a uniform grid.

    4096 samples give a 2049-point half-grid t_j = j dt, a uniform plan, so
    both the branch echoes and S(t) come from the block-factorized product.
    """

    @settings(max_examples=30, deadline=None)
    @given(
        n_sites=st.integers(1, 32).map(lambda k: 2 * k),
        lam=st.floats(0.0, 5.0),
        g_over_b=st.floats(0.0, 0.2),
        state=probes,
    )
    def test_echo_and_series_invariants(self, n_sites, lam, g_over_b, state):
        p = params_for(n_sites=n_sites, lam=lam, g_over_b=g_over_b)
        table = build_mode_table(p, n_max=max(state.n_max, 1))
        series = correlation_series(p, table, state, 200.0, 4096)
        mid = series.grid.n_samples // 2
        plan = GridPlan(0.0, series.grid.step, mid + 1)  # the half-grid correlation_series uses
        for n in range(1, state.n_max + 1):
            echo = decoherence_factor(table, n, plan)
            assert abs(echo[0] - 1.0) <= 1e-12
            assert np.max(np.abs(echo)) <= 1.0 + 1e-12
        np.testing.assert_array_equal(
            series.values[mid + 1 :], np.conj(series.values[1:mid][::-1])
        )
        assert abs(series.values[mid] - mean_photon_number(state)) <= 1e-12


class TestSpectrumFFT:
    def test_pure_envelope_gives_lorentzian(self):
        # zero coupling leaves D = 1, so S(t) = 0.5 exp(-Gamma |t|) and the
        # transform is half a Lorentzian of width Gamma peaking at 2/Gamma
        gamma = 0.05
        p = params_for(g_over_b=0.0, gamma_over_b=gamma)
        state = fock_superposition([1, 1])
        _, _, spec = pipeline(p, state, t_max=8.0 / gamma, n_samples=1 << 12)
        peak = float(np.max(spec.values))
        assert peak == pytest.approx(0.5 * 2.0 / gamma, rel=0.02)
        center = spec.frequencies[int(np.argmax(spec.values))]
        assert abs(center) < 2 * (spec.frequencies[1] - spec.frequencies[0])

    def test_parseval_normalization(self):
        p = params_for(lam=0.8)
        state = fock_superposition([1, 1])
        _, series, spec = pipeline(p, state)
        d_omega = spec.frequencies[1] - spec.frequencies[0]
        mid = series.grid.n_samples // 2
        assert np.sum(spec.values) * d_omega == pytest.approx(
            2 * np.pi * series.values[mid].real, rel=0.01
        )

    def test_imag_residual_small_and_reported(self):
        p = params_for(lam=1.0)
        _, _, spec = pipeline(p, fock_superposition([1, 1]))
        assert 0.0 <= spec.imag_residual < 1e-6

    def test_matches_analytic_lines(self):
        for lam in (0.5, 1.0, 2.0):
            p = params_for(lam=lam)
            state = fock_superposition([1, 1])
            table, _, spec = pipeline(p, state)
            analytic = spectrum_analytic(p, table, state, spec.frequencies)
            deviation = np.linalg.norm(spec.values - analytic.values)
            deviation /= np.linalg.norm(analytic.values)
            assert deviation < 0.01

    @pytest.mark.parametrize("n_sites", [4, 8])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("probe", ["fock", "coherent"])
    def test_matches_discrete_line_kernel(self, n_sites, lam, probe, grid=None):
        # The transform of one sampled, truncated line has a closed form: a
        # line of weight w at center c gives w K(omega) with
        # K = dt Re[2 (1 - z^P) / (1 - z) - 1 + z^P], where P = M/2,
        # z = exp(-Gamma dt + i (c - omega) dt) and z^P is formed directly,
        # not as a power; the -t_max sample is counted once and real.  Summed
        # over the enumerated lines it predicts spectrum_fft exactly, unlike
        # the continuous Lorentzian sum, which differs from it by the
        # truncation leakage exp(-Gamma t_max).  grid (t_max, n_samples)
        # defaults to the auto grid.
        p = params_for(n_sites=n_sites, lam=lam)
        state = fock_superposition([1, 1]) if probe == "fock" else coherent_state(1.0)
        table, series, spec = pipeline(p, state, *(grid or ()))
        t_max, dt, gamma = series.grid.t_max, series.grid.step, p.gamma_over_b
        omega = spec.frequencies
        # exp(i (c - omega) t) is formed as exp(i c t) exp(-i omega t)
        step = np.exp(-1j * omega * dt)
        half = np.exp(-1j * omega * t_max)
        expected = np.zeros(omega.shape)
        for n, weight in _populated_branches(table, state).items():
            lines = enumerate_lines(table, n, weight_floor=0.0)
            for start in range(0, lines.centers.size, 64):
                centers = lines.centers[start : start + 64, None]
                z = math.exp(-gamma * dt) * np.exp(1j * centers * dt) * step
                z_half = math.exp(-gamma * t_max) * np.exp(1j * centers * t_max) * half
                kernel = dt * (2.0 * (1.0 - z_half) / (1.0 - z) - 1.0 + z_half).real
                expected += weight * (lines.weights[start : start + 64] @ kernel)
        deviation = np.linalg.norm(spec.values - expected) / np.linalg.norm(expected)
        assert deviation <= 1e-12

    # every half-grid takes the block product at the nominal times j dt
    @pytest.mark.parametrize(
        "grid",
        [
            (300.0, 4096),  # a dyadic step
            (257.3, 4096),  # a full 53-bit step
            (150.0, 2048),  # a 1025-sample half-grid
        ],
        ids=["block-dyadic", "block", "block-1025"],
    )
    @pytest.mark.parametrize("n_sites", [4, 8])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("probe", ["fock", "coherent"])
    def test_matches_discrete_line_kernel_on_explicit_grids(self, n_sites, lam, probe, grid):
        self.test_matches_discrete_line_kernel(n_sites, lam, probe, grid)

    def test_probe_phase_invariance(self):
        p = params_for(lam=0.9)
        a = fock_superposition([1, 1j])
        b = fock_superposition([np.exp(0.3j), np.exp(0.3j) * 1j])
        _, _, spec_a = pipeline(p, a, t_max=100.0, n_samples=1 << 11)
        _, _, spec_b = pipeline(p, b, t_max=100.0, n_samples=1 << 11)
        scale = np.max(np.abs(spec_a.values))
        np.testing.assert_allclose(spec_a.values, spec_b.values, atol=1e-12 * scale)


class TestSpectrumAnalytic:
    def test_single_line_peak_height(self):
        gamma = 0.04
        grid = np.linspace(-1.0, 1.0, 4001)
        values = lorentzian(grid, 0.0, gamma)
        assert float(np.max(values)) == pytest.approx(2.0 / gamma, rel=1e-6)

    def test_halving_gamma_doubles_peak(self):
        p1 = params_for(g_over_b=0.0, gamma_over_b=0.04)
        p2 = params_for(g_over_b=0.0, gamma_over_b=0.02)
        state = fock_superposition([1, 1])
        grid = np.linspace(-0.5, 0.5, 2001)
        table1 = build_mode_table(p1, n_max=1)
        table2 = build_mode_table(p2, n_max=1)
        peak1 = np.max(spectrum_analytic(p1, table1, state, grid).values)
        peak2 = np.max(spectrum_analytic(p2, table2, state, grid).values)
        assert peak2 == pytest.approx(2 * peak1, rel=1e-3)


class TestBroadeningMetrics:
    def test_single_lorentzian_w90(self):
        # analytic 90% quantile window of a Lorentzian is 2 Gamma tan(0.45 pi);
        # the grid must span several hundred HWHM or the heavy tails bias it
        gamma = 0.01
        d_omega = gamma / 25
        grid = np.arange(-10000, 10001) * d_omega
        spec = Spectrum(frequencies=grid, values=lorentzian(grid, 0.0, gamma))
        metrics = broadening_metrics(spec)
        expected = 2 * gamma * math.tan(0.45 * math.pi)
        assert metrics.w90 == pytest.approx(expected, rel=0.05)

    def test_uniform_spectrum_is_maximally_flat(self):
        grid = np.linspace(-1, 1, 1024)
        spec = Spectrum(frequencies=grid, values=np.ones(1024))
        metrics = broadening_metrics(spec)
        assert metrics.entropy == pytest.approx(math.log(1024), abs=1e-12)
        assert metrics.participation == pytest.approx(1.0, abs=1e-12)
        assert metrics.w90 == pytest.approx(0.9 * 2.0, rel=0.01)

    def test_rejects_empty_spectrum(self):
        grid = np.linspace(-1, 1, 64)
        with pytest.raises(DegenerateInputError):
            broadening_metrics(Spectrum(frequencies=grid, values=np.zeros(64)))

    @pytest.mark.parametrize(
        "frequencies",
        [[0.5], [0.5, 0.4, 0.3], [-1.0, -0.9, 3.0, 8.0]],
        ids=["one_sample", "descending", "nonuniform"],
    )
    def test_rejects_degenerate_frequency_grid(self, frequencies):
        # one sample has no spacing; a descending grid would give a negative w90;
        # on the non-uniform grid the first spacing would make a 9-wide window 0.3
        p = params_for()
        table = build_mode_table(p, n_max=1)
        spec = spectrum_analytic(p, table, fock_superposition([1, 1]), frequencies)
        with pytest.raises(DegenerateInputError):
            broadening_metrics(spec)

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, 2.0, math.nan, 1.0, 0.0, 0.0, 0.0, 0.0],
            [1.0, 2.0, math.inf, 1.0, 0.0, 0.0, 0.0, 0.0],
            [1e308, 1e308, 1e308, 0.0, 0.0, 0.0, 0.0, 0.0],
        ],
        ids=["nan", "inf", "overflowing_total"],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_rejects_non_finite_mass(self, values):
        # each used to return numbers: a negative w90 with a NaN participation for
        # NaN or inf |S|, an inf participation for a total that overflows
        grid = np.linspace(-1.0, 1.0, len(values))
        with pytest.raises(DegenerateInputError, match="noise floor"):
            broadening_metrics(Spectrum(frequencies=grid, values=np.array(values)))

    def test_doubling_chain_far_from_critical_keeps_w90(self):
        state = fock_superposition([1, 1])
        results = {}
        for n_sites in (500, 1000):
            p = params_for(n_sites=n_sites, lam=5.0, g_over_b=0.08125, gamma_over_b=0.02)
            _, _, spec = pipeline(p, state)
            results[n_sites] = broadening_metrics(spec).w90
        assert abs(results[1000] - results[500]) <= 0.2 * results[500]


class TestFarField:
    def test_zero_coupling_is_exactly_lorentzian(self):
        p = params_for(g_over_b=0.0, gamma_over_b=0.05)
        table = build_mode_table(p, n_max=1)
        report = far_field_check(p, table, fock_superposition([1, 1]))
        assert report.deviation < 0.01
        assert abs(report.shift) < 1e-3
        assert report.total_weight == pytest.approx(0.5)

    def test_far_field_single_peak_characterised(self):
        p = params_for(n_sites=200, lam=50.0, g_over_b=0.08, gamma_over_b=0.02)
        table = build_mode_table(p, n_max=1)
        report = far_field_check(p, table, fock_superposition([1, 1]))
        assert report.deviation < 0.05
        # dominant line sits at the branch ground-energy offset
        expected = float(np.sum(table.epsilon[0] - table.epsilon[1]))
        assert report.shift == pytest.approx(expected, abs=0.02)

    def test_critical_point_deviates(self):
        p = params_for(n_sites=200, lam=1.0, g_over_b=0.08, gamma_over_b=0.02)
        table = build_mode_table(p, n_max=1)
        report = far_field_check(p, table, fock_superposition([1, 1]))
        assert report.deviation > 0.5  # reported magnitude, pinned loosely

    def test_fit_equals_the_scipy_fit_bitwise(self):
        p = params_for(n_sites=16, lam=5.0, g_over_b=0.05, gamma_over_b=0.05)
        _, _, spec = pipeline(p, fock_superposition([1, 1]))
        gamma, weight = p.gamma_over_b, 0.5
        start = float(spec.frequencies[int(np.argmax(np.abs(spec.values)))])
        span = max(10.0 * gamma, 2.0 * float(spec.frequencies[1] - spec.frequencies[0]))

        def mismatch(shift):
            model = weight * lorentzian(spec.frequencies, shift, gamma)
            return _l2_norm(spec.values - model) / _l2_norm(model)

        ref = minimize_scalar(
            mismatch,
            bounds=(start - span, start + span),
            method="bounded",
            options={"xatol": 1e-9 * max(1.0, abs(start))},
        )
        shift, deviation = fitted_peak(spec, gamma, weight)
        assert (shift.hex(), deviation.hex()) == (float(ref.x).hex(), float(ref.fun).hex())

    @pytest.mark.parametrize(
        "gamma, weight, n_freq, message",
        [
            (0.0, 0.5, 64, "gamma > 0, got 0.0"),
            (-0.1, 0.5, 64, "gamma > 0, got -0.1"),
            (math.nan, 0.5, 64, "gamma > 0, got nan"),
            (math.inf, 0.5, 64, "gamma > 0, got inf"),
            (0.1, 0.0, 64, "weight > 0, got 0.0"),
            (0.1, -1.0, 64, "weight > 0, got -1.0"),
            (0.1, math.nan, 64, "weight > 0, got nan"),
            (0.1, 0.5, 1, "two or more frequencies"),
        ],
    )
    def test_fit_rejects_degenerate_input(self, gamma, weight, n_freq, message):
        # each used to fail badly on this spectrum: ZeroDivisionError for gamma
        # or weight 0, silent fits for gamma -0.1 and weight -1 (deviations 1.93
        # and 1.14), a NaN deviation for a NaN weight, scipy's ValueError for a
        # non-finite gamma, an IndexError for one frequency
        frequencies = np.linspace(-1.0, 1.0, n_freq)
        spec = Spectrum(frequencies=frequencies, values=0.5 * lorentzian(frequencies, 0.0, 0.1))
        with pytest.raises(DegenerateInputError, match=message):
            fitted_peak(spec, gamma, weight)


def scipy_bounded(f, lo, hi, xatol, maxfun=500):
    """The reference _bounded_minimum ports: scipy's method="bounded"."""
    res = minimize_scalar(
        f, bounds=(lo, hi), method="bounded", options={"xatol": xatol, "maxiter": maxfun}
    )
    return float(res.x), float(res.fun), int(res.nfev)


def bits(*values):
    return tuple(float(v).hex() for v in values)


class TestBoundedMinimum:
    # f(x, lo, hi, c, width): interior minima, a minimum at a bound, a flat
    # function, a kink and a narrow well, on intervals of width 1e-3 to 1e2;
    # the staircase and the midpoint quadratic reach the ties (equal values,
    # a zero step, the best point at the bracket's midpoint) where scipy's
    # sign conventions decide
    SHAPES = {
        "interior": lambda x, lo, hi, c, w: (x - c) ** 2 + 0.1 * math.cos(3.0 * x),
        "at_bound": lambda x, lo, hi, c, w: (x - (hi + w)) ** 2,
        "monotone": lambda x, lo, hi, c, w: -x,
        "flat": lambda x, lo, hi, c, w: 1.0,
        "kink": lambda x, lo, hi, c, w: abs(x - c),
        "narrow_well": lambda x, lo, hi, c, w: -math.exp(-(((x - c) / (1e-3 * w)) ** 2)),
        "staircase": lambda x, lo, hi, c, w: abs(math.floor(8.0 * (x - c) / w)),
        "midpoint_quadratic": lambda x, lo, hi, c, w: (x - 0.5 * (lo + hi)) ** 2,
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_equals_scipy_bitwise(self, shape):
        rng = np.random.default_rng(sorted(self.SHAPES).index(shape))
        fn = self.SHAPES[shape]
        for _ in range(100):
            lo = float(rng.uniform(-10.0, 10.0))
            width = float(10.0 ** rng.uniform(-3.0, 2.0))
            hi = lo + width
            c = float(rng.uniform(lo, hi))
            xatol = float(10.0 ** rng.uniform(-12.0, -3.0))

            def f(x):
                return fn(x, lo, hi, c, width)

            x_ref, fx_ref, _ = scipy_bounded(f, lo, hi, xatol)
            x, fx = _bounded_minimum(f, lo, hi, xatol)
            assert bits(x, fx) == bits(x_ref, fx_ref), (lo, hi, c, xatol)
            assert lo <= x <= hi

    def test_stops_at_maxfun(self):
        calls = []

        def f(x):
            calls.append(x)
            return abs(x - 0.123456789)

        x_ref, fx_ref, nfev = scipy_bounded(f, -50.0, 50.0, 1e-12, maxfun=7)
        assert nfev == 7
        calls.clear()
        x, fx = _bounded_minimum(f, -50.0, 50.0, 1e-12, maxfun=7)
        assert len(calls) == 7
        assert bits(x, fx) == bits(x_ref, fx_ref)


class TestAutoTimeGrid:
    def test_resolves_envelope(self):
        p = params_for(gamma_over_b=0.02)
        table = build_mode_table(p, n_max=1)
        grid = auto_time_grid(p, table, fock_superposition([1, 1]))
        assert grid.t_max == pytest.approx(8.0 / 0.02)
        assert grid.n_samples & (grid.n_samples - 1) == 0
        # Nyquist clears the padded estimate
        nyquist = math.pi * grid.n_samples / (2 * grid.t_max)
        assert nyquist >= grid.omega_estimate

    def test_explicit_grid_above_cap_is_capacity_error(self):
        # checked by count alone: no series of either size is computed
        p = params_for()
        table = build_mode_table(p, n_max=1)
        state = fock_superposition([1, 1])
        at_cap = TimeGrid(t_max=200.0, n_samples=1 << 22)
        assert auto_time_grid(p, table, state, at_cap) is at_cap
        with pytest.raises(CapacityError, match=r"n_samples=8388608 .* 2\^22"):
            auto_time_grid(p, table, state, TimeGrid(t_max=200.0, n_samples=1 << 23))

    def test_clipped_sample_count_is_capacity_error(self):
        # Nyquist 82 on the 2^22 cap against a padded band estimate of 221
        p = params_for(n_sites=1000, lam=1.0, g_over_b=0.08125, gamma_over_b=1e-4)
        table = build_mode_table(p, n_max=1)
        with pytest.raises(CapacityError, match=r"2\^24 samples"):
            auto_time_grid(p, table, fock_superposition([1, 1]))

    @pytest.mark.parametrize(
        "t_max, n_samples, field",
        [
            (0.0, 256, "t_max"),
            (math.inf, 256, "t_max"),
            (100.0, 1000, "n_samples"),
            (100.0, 1024.0, "n_samples"),
        ],
    )
    def test_time_grid_rejects_bad_fields(self, t_max, n_samples, field):
        with pytest.raises(ConfigError, match=field):
            TimeGrid(t_max=t_max, n_samples=n_samples)

    @settings(max_examples=60, deadline=None)
    @given(t_max=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), k=st.integers(1, 22))
    def test_time_grid_step_and_times_are_the_fft_grid(self, t_max, k):
        # bit for bit: the step and times of every valid grid, so the
        # correlation CSV's t column
        n = 1 << k
        step = 2.0 * t_max / n
        assume(0.0 < step < math.inf)
        grid = TimeGrid(t_max=t_max, n_samples=n)
        assert np.float64(grid.step).view(np.uint64) == np.float64(step).view(np.uint64)
        expected = -t_max + np.arange(n) * step
        np.testing.assert_array_equal(grid.times().view(np.uint64), expected.view(np.uint64))

    def test_gamma_zero_demands_explicit_grid(self):
        p = params_for(gamma_over_b=0.0)
        table = build_mode_table(p, n_max=1)
        with pytest.raises(ConfigError):
            auto_time_grid(p, table, fock_superposition([1, 1]))


class TestThresholdCrossing:
    # 0.01: a tail of 2564 samples; 0.2 and 0.5: a head of 2764 or 1106
    # samples and an empty tail, a plan of no samples
    @pytest.mark.parametrize("gamma", [0.01, 0.2, 0.5])
    def test_zero_coupling_crossing_is_envelope_time(self, gamma):
        p = params_for(g_over_b=0.0, gamma_over_b=gamma)
        table = build_mode_table(p, n_max=1)
        t = threshold_crossing_time(p, table, fock_superposition([1, 1]))
        assert t == pytest.approx(math.log(10.0) / gamma, rel=1e-3)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_crossing_is_bisected_to_neighbouring_floats(self, lam):
        p = params_for(lam=lam)
        state = fock_superposition([1, 1])
        table = build_mode_table(p, n_max=1)
        t = threshold_crossing_time(p, table, state)
        s0 = float(sum(_populated_branches(table, state).values()))

        def below(time):  # the ratio exactly as threshold_crossing_time forms it
            ts = np.array([time])
            ratio = np.abs(weighted_echo(table, state, ts)) * np.exp(-p.gamma_over_b * ts) / s0
            return bool(ratio[0] < 0.1)

        side = below(t)
        neighbour = math.nextafter(t, -math.inf if side else math.inf)
        assert below(neighbour) != side

    def test_never_crossing_returns_inf(self):
        # no coupling and no envelope: the ratio stays 1 out to the 2000 horizon
        p = params_for(g_over_b=0.0, gamma_over_b=0.0)
        table = build_mode_table(p, n_max=1)
        t = threshold_crossing_time(p, table, fock_superposition([1, 1]))
        assert math.isinf(t)
