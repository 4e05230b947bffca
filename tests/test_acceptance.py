"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (run pytest -s to see them inline).
Device-derived ratios used throughout: g/B = 0.13/1.6 = 0.08125 and
Gamma/B = 0.0039 (criterion 4 family) or the unrounded 6.3/1600 = 0.0039375
(criterion 6, whose peak-location margin is sub-percent and sensitive to
the rounding).

Criterion 5 also runs a weak-probe coupling.  The probe is weak while the
mean number of mode pairs it flips on the ordered side, which grows as
N*(g/B)^2, stays well below one; only there does the model promise the 90%
width w90 to peak at the critical point.  At the device coupling N*(g/B)^2 is
6.6 for N = 1000, so criterion 5 asserts there only the clauses that hold in
that regime, and asserts the two-sided w90 maximum at
g/B = sqrt(WEAK_PROBE_NG2 / N).
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

import isingspec as iq
from isingspec.cli import main

G_OVER_B = 0.13 / 1.6
GAMMA_OVER_B = 0.0039
GAMMA_EXACT = 6.3 / 1600.0
SWEEP = (0.25, 0.5, 1.0, 2.0, 5.0, 100.0)

# pinned from the pilot run: w90 at lambda=1 exceeded the lambda=100 value
# by a factor 398.6 on the default grid; guard against regression below 380
W90_RATIO_FLOOR = 380.0

# N*(g/B)^2 of the criterion-5 weak-probe sweep: five times below the
# crossover near 0.5, above which the ordered side widens into sideband combs
WEAK_PROBE_NG2 = 0.1

FOCK = iq.fock_superposition([1, 1])


def chain(n_sites, lam, gamma=GAMMA_OVER_B, g_over_b=G_OVER_B):
    return iq.ChainParams(
        n_sites=n_sites, lam=lam, g_over_b=g_over_b, gamma_over_b=gamma
    )


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}  {detail}")


def spectrum_for(params, state, t_max, n_samples):
    table = iq.build_mode_table(params, n_max=max(state.n_max, 1))
    series = iq.correlation_series(params, table, state, t_max, n_samples)
    return iq.spectrum_fft(series)


def sweep_metrics(n_sites, g_over_b, out_dir):
    """Broadening metrics over SWEEP from `isingspec sweep` on the common auto grid.

    The grid spans the first lambda's t_max with the largest sample count
    any lambda of the sweep asks for; the config holds it as an explicit
    time_grid, which the command checks against each lambda's band.
    """
    grids = []
    for lam in SWEEP:
        params = chain(n_sites, lam, g_over_b=g_over_b)
        grids.append(iq.auto_time_grid(params, iq.build_mode_table(params, n_max=1), FOCK))
    cfg = {
        "chain": {
            "n_sites": n_sites,
            "lambda": SWEEP[0],
            "g_over_b": g_over_b,
            "gamma_over_b": GAMMA_OVER_B,
        },
        "probe": {"type": "fock", "coefficients": [1, 1]},
        "time_grid": {
            "t_max": grids[0].t_max,
            "n_samples": max(g.n_samples for g in grids),
        },
        "sweep": list(SWEEP),
        "output": str(out_dir),
    }
    config = out_dir.parent / f"{out_dir.name}.json"
    config.write_text(json.dumps(cfg))
    result = CliRunner().invoke(main, ["sweep", "--config", str(config), "--threads", "2"])
    assert result.exit_code == 0, result.output
    records = json.loads((out_dir / "sweep_metrics.json").read_text())["results"]
    return {
        r["lambda"]: iq.BroadeningMetrics(
            w90=r["w90"], entropy=r["entropy"], participation=r["participation"]
        )
        for r in records
    }


def sweep_detail(metrics):
    return ", ".join(
        f"lam={lam:g}: w90={metrics[lam].w90:.3f}/H={metrics[lam].entropy:.3f}"
        for lam in SWEEP
    )


class TestCriterion1:
    def test_oracle_equivalence(self):
        start = time.perf_counter()
        times = np.linspace(0.0, 20.0, 50)
        worst = 0.0
        for n_sites in (2, 4, 6, 8, 10):
            branches = (1, 2) if n_sites <= 8 else (1,)
            for lam in (0.5, 1.0, 2.0):
                for g in (0.05, 0.1):
                    params = iq.ChainParams(
                        n_sites=n_sites, lam=lam, g_over_b=g, gamma_over_b=0.0
                    )
                    table = iq.build_mode_table(params, n_max=max(branches))
                    for branch in branches:
                        product = iq.decoherence_factor(table, branch, times)
                        dense = iq.oracle_decoherence(n_sites, params, branch, times)
                        worst = max(worst, float(np.max(np.abs(product - dense))))
        elapsed = time.perf_counter() - start
        ok = worst < 1e-8 and elapsed < 60.0
        report(
            1,
            "oracle equivalence",
            ok,
            f"max |product - dense| = {worst:.3e} (< 1e-8), {elapsed:.1f} s (< 60 s)",
        )
        assert worst < 1e-8
        assert elapsed < 60.0


class TestCriterion2:
    def test_sum_rules(self):
        rng = np.random.default_rng(2024)
        lam = rng.uniform(0.0, 3.0, 10_000)
        g = rng.uniform(0.0, 0.2, 10_000)
        k = rng.uniform(1e-6, np.pi - 1e-6, 10_000)
        n = rng.integers(1, 11, 10_000)
        theta_base = iq.bogoliubov_angle(k, lam)
        alpha_n = 0.5 * (iq.bogoliubov_angle(k, lam - (2 * n + 1) * g) - theta_base)
        alpha_p = 0.5 * (iq.bogoliubov_angle(k, lam - (2 * n - 1) * g) - theta_base)
        c = iq.mode_coefficients(alpha_n, alpha_p)
        coeff_dev = float(np.max(np.abs(c.pp + c.pm + c.mp + c.mm - 1.0)))

        line_dev = 0.0
        for n_sites in (2, 4, 6, 8):
            for lam_i in (0.5, 1.0, 2.0):
                params = chain(n_sites, lam_i)
                table = iq.build_mode_table(params, n_max=1)
                decomp = iq.enumerate_lines(table, 1, weight_floor=0.0)
                line_dev = max(line_dev, abs(float(np.sum(decomp.weights)) - 1.0))

        s0_dev = 0.0
        for state in (FOCK, iq.coherent_state(1.0, tail_tol=1e-12)):
            params = chain(1000, 1.0)
            table = iq.build_mode_table(params, n_max=max(state.n_max, 1))
            series = iq.correlation_series(params, table, state, 100.0, 1 << 10)
            s0 = series.values[series.n_samples // 2].real
            s0_dev = max(s0_dev, abs(s0 - iq.mean_photon_number(state)))

        ok = coeff_dev < 1e-12 and line_dev < 1e-10 and s0_dev < 1e-10
        report(
            2,
            "sum rules",
            ok,
            f"coeff {coeff_dev:.2e} (<1e-12), lines {line_dev:.2e} (<1e-10), "
            f"S(0) {s0_dev:.2e} (<1e-10)",
        )
        assert coeff_dev < 1e-12
        assert line_dev < 1e-10
        assert s0_dev < 1e-10


class TestCriterion3:
    def test_cross_path_spectra(self):
        start = time.perf_counter()
        worst = 0.0
        for lam in (0.5, 1.0, 2.0):
            params = iq.ChainParams(
                n_sites=8, lam=lam, g_over_b=0.1, gamma_over_b=0.02
            )
            table = iq.build_mode_table(params, n_max=1)
            grid = iq.auto_time_grid(params, table, FOCK)
            series = iq.correlation_series(
                params, table, FOCK, grid.t_max, grid.n_samples
            )
            fft_spec = iq.spectrum_fft(series)
            analytic = iq.spectrum_analytic(params, table, FOCK, fft_spec.frequencies)
            dense = iq.oracle_spectrum(8, params, FOCK, fft_spec.frequencies)
            scale = np.linalg.norm(analytic.values)
            pairs = (
                (fft_spec.values, analytic.values),
                (fft_spec.values, dense.values),
                (analytic.values, dense.values),
            )
            for a, b in pairs:
                worst = max(worst, float(np.linalg.norm(a - b) / scale))
        elapsed = time.perf_counter() - start
        ok = worst < 0.01 and elapsed < 60.0
        report(
            3,
            "cross-path spectra",
            ok,
            f"worst pairwise rel L2 = {worst:.2e} (< 1e-2), {elapsed:.1f} s (< 60 s)",
        )
        assert worst < 0.01
        assert elapsed < 60.0


class TestCriterion4:
    def test_critical_decay_is_fastest(self):
        start = time.perf_counter()
        crossing = {}
        for lam in SWEEP:
            params = chain(1000, lam)
            table = iq.build_mode_table(params, n_max=1)
            crossing[lam] = iq.threshold_crossing_time(params, table, FOCK)
        elapsed = time.perf_counter() - start
        ok = all(crossing[1.0] < crossing[lam] for lam in SWEEP if lam != 1.0)
        detail = ", ".join(f"lam={lam:g}: {crossing[lam]:.4f}" for lam in SWEEP)
        report(
            4,
            "decay fastest at critical point",
            ok and elapsed < 300.0,
            detail + f"; {elapsed:.1f} s (< 300 s)",
        )
        assert ok, f"0.1-crossing not strictly earliest at lambda=1: {crossing}"
        assert elapsed < 300.0


class TestCriterion5:
    def test_broadening_metrics_peak_at_critical_point(self, tmp_path):
        # Two couplings at N = 1000, same sweep, same Gamma, common grid.
        #
        # Device coupling g/B = 0.08125 (N*g^2 = 6.6): on the ordered side
        # the probe flips ~N*g^2 mode pairs, each moving a line by ~4B, so
        # lambda < 1 reaches a plateau of sideband combs whose w90 (24.8 at
        # 0.25, 24.2 at 0.5) exceeds the critical one (20.1).  The entropy
        # maximum, the regression floor against lambda = 100 and the
        # one-sided witness w90(1) > w90(lambda > 1) hold here and are
        # asserted; the two-sided w90 maximum is not.
        #
        # Weak probe g/B = sqrt(WEAK_PROBE_NG2 / N) = 0.01 (N*g^2 = 0.1):
        # the ordered side stays narrow and both the w90 and the entropy
        # maxima sit at lambda = 1 (w90 1.61 against 0.13 at lambda = 0.5).
        n_sites = 1000
        device = sweep_metrics(n_sites, G_OVER_B, tmp_path / "device")
        weak_g = math.sqrt(WEAK_PROBE_NG2 / n_sites)
        weak = sweep_metrics(n_sites, weak_g, tmp_path / "weak")

        entropy_argmax = max(SWEEP, key=lambda lam: device[lam].entropy)
        ratio = device[1.0].w90 / device[100.0].w90
        not_narrower = [
            lam for lam in SWEEP if lam > 1.0 and device[lam].w90 >= device[1.0].w90
        ]
        weak_w90_argmax = max(SWEEP, key=lambda lam: weak[lam].w90)
        weak_entropy_argmax = max(SWEEP, key=lambda lam: weak[lam].entropy)

        entropy_ok = entropy_argmax == 1.0
        ratio_ok = ratio >= W90_RATIO_FLOOR
        one_sided_ok = not not_narrower
        weak_ok = weak_w90_argmax == 1.0 and weak_entropy_argmax == 1.0
        report(
            5,
            "spectral broadening maximal at critical point",
            entropy_ok and ratio_ok and one_sided_ok and weak_ok,
            f"device g/B={G_OVER_B:g} (N*g^2={n_sites * G_OVER_B**2:.2f}): "
            + sweep_detail(device)
            + f"; w90(1)/w90(100) = {ratio:.1f} (floor {W90_RATIO_FLOOR:g})"
            + f" | weak probe g/B={weak_g:g} (N*g^2={WEAK_PROBE_NG2:g}): "
            + sweep_detail(weak),
        )
        failures = []
        if not entropy_ok:
            failures.append(
                f"device coupling: entropy maximal at lambda={entropy_argmax:g}, not 1"
            )
        if not ratio_ok:
            failures.append(
                f"device coupling: w90 ratio {ratio:.1f} below floor "
                f"{W90_RATIO_FLOOR:g}"
            )
        if not one_sided_ok:
            failures.append(
                "device coupling: w90 at lambda=1 "
                f"({device[1.0].w90:.3f}) not above the disordered side: "
                + ", ".join(
                    f"lambda={lam:g}: {device[lam].w90:.3f}" for lam in not_narrower
                )
            )
        if weak_w90_argmax != 1.0:
            failures.append(
                f"weak probe g/B={weak_g:g} (N*g^2={WEAK_PROBE_NG2:g}): w90 maximal "
                f"at lambda={weak_w90_argmax:g} ({weak[weak_w90_argmax].w90:.3f}), "
                f"not at lambda=1 ({weak[1.0].w90:.3f})"
            )
        if weak_entropy_argmax != 1.0:
            failures.append(
                f"weak probe g/B={weak_g:g} (N*g^2={WEAK_PROBE_NG2:g}): entropy "
                f"maximal at lambda={weak_entropy_argmax:g}, not 1"
            )
        assert not failures, "; ".join(failures)


class TestCriterion6:
    def test_far_field_universality(self):
        coherent = iq.coherent_state(1.0, tail_tol=1e-12)
        peaks = {}
        deviations = {}
        for lam in (100.0, 500.0):
            for name, state in (("fock", FOCK), ("coherent", coherent)):
                params = chain(1000, lam, gamma=GAMMA_EXACT)
                table = iq.build_mode_table(params, n_max=max(state.n_max, 1))
                rep = iq.far_field_check(params, table, state)
                peaks[(lam, name)] = rep.shift
                deviations[(lam, name)] = rep.deviation

        single_peaked = all(d < 0.05 for d in deviations.values())
        values = list(peaks.values())
        worst_distance = max(
            abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]
        )
        peaks_ok = worst_distance < GAMMA_EXACT

        ts = np.linspace(0.0, 3.0 / GAMMA_EXACT, 2000)
        envelope_dev = 0.0
        for state in (FOCK, coherent):
            envelopes = {}
            for lam in (100.0, 500.0):
                params = chain(1000, lam, gamma=GAMMA_EXACT)
                table = iq.build_mode_table(params, n_max=max(state.n_max, 1))
                acc = iq.weighted_echo(table, state, ts)
                envelopes[lam] = np.abs(acc) * np.exp(-GAMMA_EXACT * ts)
            envelope_dev = max(
                envelope_dev,
                float(
                    np.max(np.abs(envelopes[100.0] - envelopes[500.0]))
                    / np.max(envelopes[100.0])
                ),
            )
        envelopes_ok = envelope_dev < 0.01

        ok = single_peaked and peaks_ok and envelopes_ok
        report(
            6,
            "far-field universality",
            ok,
            f"peak spread {worst_distance:.6f} (< Gamma {GAMMA_EXACT:g}), "
            f"max Lorentzian deviation {max(deviations.values()):.4f} (< 0.05), "
            f"envelope rel Linf {envelope_dev:.2e} (< 1e-2)",
        )
        assert single_peaked, f"not single-peaked: {deviations}"
        assert peaks_ok, f"peak spread {worst_distance} >= {GAMMA_EXACT}"
        assert envelopes_ok, f"envelope deviation {envelope_dev}"


class TestCriterion7:
    def test_critical_spectrum_smooths_with_size(self):
        reference = chain(1000, 1.0)
        grid = iq.auto_time_grid(
            reference, iq.build_mode_table(reference, n_max=1), FOCK
        )
        entropies = []
        for n_sites in (250, 500, 1000):
            spec = spectrum_for(chain(n_sites, 1.0), FOCK, grid.t_max, grid.n_samples)
            entropies.append(iq.broadening_metrics(spec).entropy)
        ok = entropies[0] <= entropies[1] <= entropies[2]
        report(
            7,
            "critical spectrum smooths with N",
            ok,
            "entropy " + " <= ".join(f"{h:.4f}" for h in entropies),
        )
        assert ok, f"entropy not non-decreasing: {entropies}"


class TestCriterion8:
    def test_far_from_critical_echo_survives(self):
        params = chain(1000, 100.0)
        table = iq.build_mode_table(params, n_max=1)
        t = np.linspace(0.0, 100.0, 10001)
        lowest = float(np.min(np.abs(iq.decoherence_factor(table, 1, t))))
        ok = lowest > 0.99
        report(8, "far-field echo survives", ok, f"min |D| = {lowest:.8f} (> 0.99)")
        assert lowest > 0.99


class TestCriterion9:
    def test_sweep_runtime(self):
        start = time.perf_counter()
        for lam in SWEEP:
            spec = spectrum_for(
                chain(1000, lam), FOCK, 8.0 / GAMMA_OVER_B, 1 << 14
            )
            iq.broadening_metrics(spec)
        elapsed = time.perf_counter() - start
        ok = elapsed < 300.0
        report(9, "sweep runtime", ok, f"6-lambda sweep at 2^14: {elapsed:.2f} s (< 300 s)")
        assert elapsed < 300.0

    def test_per_sample_cost_linear_in_chain_length(self):
        # the two sizes alternate, so a noisy neighbour slows both sides alike
        t = np.linspace(0.0, 100.0, 1 << 13)
        tables = {n: iq.build_mode_table(chain(n, 1.0), n_max=1) for n in (1000, 500)}
        for table in tables.values():
            iq.decoherence_factor(table, 1, t)  # warm up
        samples = {n: [] for n in tables}
        for _ in range(9):
            for n_sites, table in tables.items():
                tick = time.perf_counter()
                iq.decoherence_factor(table, 1, t)
                samples[n_sites].append(time.perf_counter() - tick)
        ratio = float(np.median(samples[1000]) / np.median(samples[500]))
        ok = 1.6 <= ratio <= 2.4
        report(
            9,
            "linear scaling",
            ok,
            f"N=1000 vs N=500 per-sample cost ratio = {ratio:.2f} (in [1.6, 2.4])",
        )
        assert 1.6 <= ratio <= 2.4, f"timing ratio {ratio}"
