import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import isingspec
from isingspec import NumericsError
from isingspec.chain import build_mode_table
from isingspec.cli import (
    _CSV_CHUNK,
    _lambda_tag,
    _threads,
    _write_csv,
    main,
    parse_chain,
    parse_probe,
)
from isingspec.spectrum import CorrelationSeries, auto_time_grid

SRC = str(Path(isingspec.__file__).resolve().parent.parent)

# the step is finite, but the phases omega * t overflow to inf and S(t) to NaN
NON_FINITE_ECHO = {
    "chain": {"n_sites": 8, "lambda": 1.0, "g_over_b": 0.0, "gamma_over_b": 0.02},
    "time_grid": {"t_max": 5e307, "n_samples": 1024},
    "sweep": [0.5, 1.0],
}


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path, **over):
    cfg = {
        "chain": {"n_sites": 8, "lambda": 2.0, "g_over_b": 0.1, "gamma_over_b": 0.02},
        "probe": {"type": "fock", "coefficients": [1, 1]},
        "time_grid": {"t_max": 200.0, "n_samples": 4096},
        "output": str(path.parent / "out"),
    }
    cfg.update(over)
    path.write_text(json.dumps(cfg))
    return cfg


def read_rows(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            rows.append(line.rstrip("\n"))
    header, data = rows[0], rows[1:]
    return header.split(","), [list(map(float, r.split(","))) for r in data]


def reference_csv(header, names, rows) -> bytes:
    """The row-wise writer _write_csv must match bitwise."""
    lines = header + [",".join(names)] + [",".join("%.17g" % v for v in row) for row in rows]
    return "".join(line + "\n" for line in lines).encode()


class TestWriteCsv:
    SPECIAL = (-0.0, 0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf,
               1.0, -3.0, 2.0**53, 1e22)

    @pytest.mark.parametrize(
        "n_rows", [0, 1, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1, 2 * _CSV_CHUNK + 3]
    )
    def test_matches_row_wise_writer(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        columns = {
            "special": np.resize(np.array(self.SPECIAL), n_rows),
            "random": rng.standard_normal(n_rows) * 10.0 ** rng.uniform(-300, 300, n_rows),
            "integer": rng.integers(-(10**6), 10**6, n_rows).astype(float),
        }
        header = ["# one", "# two"]
        path = _write_csv(tmp_path / "x.csv", header, columns)
        rows = zip(*columns.values())
        assert path.read_bytes() == reference_csv(header, list(columns), rows)

    def test_correlation_abs_column_rounds_like_scalar_abs(self, runner, tmp_path, monkeypatch):
        # np.abs and the scalar abs(complex) disagree in the last bit on a
        # sizeable share of these values; the file must keep the scalar's
        rng = np.random.default_rng(7)
        values = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        assert np.any(np.abs(values) != [abs(v) for v in values])
        times = np.linspace(-200.0, 200.0, values.size, endpoint=False)

        def crafted(params, table, state, t_max, n_samples):
            return CorrelationSeries(t_max=t_max, times=times, values=values)

        monkeypatch.setattr("isingspec.cli.correlation_series", crafted)
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        assert runner.invoke(main, ["correlation", "--config", str(cfg_path)]).exit_code == 0
        text = (tmp_path / "out" / "correlation_lambda_2.csv").read_bytes()
        names = ["t", "re_S", "im_S", "abs_S"]
        rows = ((t, v.real, v.imag, abs(v)) for t, v in zip(times, values))
        assert text[text.index(b"t,re_S,") :] == reference_csv([], names, rows)


class TestDispersionCommand:
    def test_golden_rows(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        result = runner.invoke(main, ["dispersion", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        columns, rows = read_rows(tmp_path / "out" / "dispersion.csv")
        assert columns == ["k", "epsilon", "theta"]
        assert len(rows) == 4
        lam = 2.0
        for m, (k, eps, theta) in enumerate(rows):
            expected_k = (2 * m + 1) * math.pi / 8
            assert k == pytest.approx(expected_k, rel=1e-15)
            assert eps == pytest.approx(
                2 * math.sqrt(1 + lam**2 - 2 * lam * math.cos(expected_k)), rel=1e-15
            )
            assert theta == pytest.approx(
                math.atan2(math.sin(expected_k), lam - math.cos(expected_k)), rel=1e-15
            )

    def test_zero_field_constant_band(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, chain={"n_sites": 8, "lambda": 0.0, "g_over_b": 0.1, "gamma_over_b": 0.02})
        result = runner.invoke(main, ["dispersion", "--config", str(cfg_path)])
        assert result.exit_code == 0
        _, rows = read_rows(tmp_path / "out" / "dispersion.csv")
        assert all(r[1] == pytest.approx(2.0, abs=1e-15) for r in rows)

    def test_byte_identical_reruns(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        assert runner.invoke(main, ["dispersion", "--config", str(cfg_path)]).exit_code == 0
        first = (tmp_path / "out" / "dispersion.csv").read_bytes()
        assert runner.invoke(main, ["dispersion", "--config", str(cfg_path)]).exit_code == 0
        assert (tmp_path / "out" / "dispersion.csv").read_bytes() == first

    def test_header_records_config_and_version(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        runner.invoke(main, ["dispersion", "--config", str(cfg_path)])
        text = (tmp_path / "out" / "dispersion.csv").read_text().splitlines()
        assert text[0].startswith("# isingspec ")
        assert text[1].startswith("# config ")
        assert '"n_sites":8' in text[1].replace(" ", "")


class TestCorrelationCommand:
    def test_vacuum_probe_writes_zero_column(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, probe={"type": "fock", "coefficients": [1]})
        result = runner.invoke(main, ["correlation", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        _, rows = read_rows(tmp_path / "out" / "correlation_lambda_2.csv")
        assert all(r[3] == 0.0 for r in rows)

    def test_one_file_per_lambda(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, sweep=[0.5, 2.0])
        result = runner.invoke(main, ["correlation", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "correlation_lambda_0.5.csv").exists()
        assert (tmp_path / "out" / "correlation_lambda_2.csv").exists()

    def test_byte_identical_reruns(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        runner.invoke(main, ["correlation", "--config", str(cfg_path)])
        path = tmp_path / "out" / "correlation_lambda_2.csv"
        first = path.read_bytes()
        runner.invoke(main, ["correlation", "--config", str(cfg_path)])
        assert path.read_bytes() == first


class TestSpectrumCommand:
    def test_zero_coupling_single_central_peak(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(
            cfg_path,
            chain={"n_sites": 8, "lambda": 1.0, "g_over_b": 0.0, "gamma_over_b": 0.02},
        )
        result = runner.invoke(main, ["spectrum", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        _, rows = read_rows(tmp_path / "out" / "spectrum_lambda_1.csv")
        arr = np.array(rows)
        peak_row = arr[np.argmax(arr[:, 1])]
        assert abs(peak_row[0]) < 0.1
        assert peak_row[1] == pytest.approx(0.5 * 2 / 0.02, rel=0.05)
        metrics = json.loads((tmp_path / "out" / "metrics_lambda_1.json").read_text())
        assert metrics["metrics"]["w90"] < 0.6
        assert set(metrics["metrics"]) == {
            "lambda",
            "w90",
            "entropy",
            "participation",
            "n",
            "g_over_b",
            "gamma_over_b",
        }

    def test_clipped_auto_grid_is_capacity_error(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(
            cfg_path,
            chain={"n_sites": 1000, "lambda": 1.0, "g_over_b": 0.08125, "gamma_over_b": 1e-4},
            time_grid="auto",
        )
        result = runner.invoke(main, ["spectrum", "--config", str(cfg_path)])
        assert result.exit_code == 3
        assert "2^24 samples" in result.output

    def test_numerics_error_exit_code(self, runner, tmp_path, monkeypatch):
        def unsound(series):
            raise NumericsError("imaginary residue too large")

        monkeypatch.setattr("isingspec.cli.spectrum_fft", unsound)
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        result = runner.invoke(main, ["spectrum", "--config", str(cfg_path)])
        assert result.exit_code == 5
        assert "imaginary residue" in result.output


class TestSweepCommand:
    def test_single_value_sweep_matches_spectrum_metrics(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, sweep=[2.0])
        assert runner.invoke(main, ["sweep", "--config", str(cfg_path)]).exit_code == 0
        assert runner.invoke(main, ["spectrum", "--config", str(cfg_path)]).exit_code == 0
        sweep = json.loads((tmp_path / "out" / "sweep_metrics.json").read_text())
        single = json.loads((tmp_path / "out" / "metrics_lambda_2.json").read_text())
        assert sweep["results"][0] == single["metrics"]

    def test_missing_sweep_is_config_error(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        result = runner.invoke(main, ["sweep", "--config", str(cfg_path)])
        assert result.exit_code == 2
        assert "config.sweep" in result.output

    def test_empty_sweep_is_config_error(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, sweep=[])
        result = runner.invoke(main, ["sweep", "--config", str(cfg_path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", ["sweep", "spectrum", "correlation"])
    def test_threads_do_not_change_output(self, runner, tmp_path, command):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, sweep=[0.5, 1.0, 2.0])
        out = tmp_path / "out"

        def outputs(threads):
            args = [command, "--config", str(cfg_path), "--threads", threads]
            assert runner.invoke(main, args).exit_code == 0
            return {path.name: path.read_bytes() for path in out.iterdir()}

        serial = outputs("1")
        if command == "sweep":
            assert set(serial) == {"sweep_metrics.json"}
        else:
            assert len(serial) == (6 if command == "spectrum" else 3)
        assert outputs("3") == serial


LAMBDAS = (0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0)
FOCK = st.lists(st.floats(0.1, 1.0), min_size=2, max_size=3).map(
    lambda c: {"type": "fock", "coefficients": c}
)
COHERENT = st.floats(0.2, 1.5).map(lambda a: {"type": "coherent", "alpha": a})


@st.composite
def small_configs(draw):
    """Even N <= 16, 1-3 lambda, a Fock or coherent probe, 2^10-2^13 samples clearing the band."""
    cfg = {
        "chain": {
            "n_sites": 2 * draw(st.integers(1, 8)),
            "lambda": 1.0,
            "g_over_b": draw(st.sampled_from((0.05, 0.1))),
            "gamma_over_b": 0.02,
        },
        "probe": draw(st.one_of(FOCK, COHERENT)),
        "sweep": draw(st.lists(st.sampled_from(LAMBDAS), min_size=1, max_size=3, unique=True)),
    }
    chain, state = parse_chain(cfg), parse_probe(cfg)
    omega = 0.0
    for lam in cfg["sweep"]:
        params = dataclasses.replace(chain, lam=lam)
        table = build_mode_table(params, n_max=state.n_max)
        omega = max(omega, auto_time_grid(params, table, state).omega_estimate)
    n_samples = 1 << draw(st.integers(10, 13))
    cfg["time_grid"] = {"t_max": n_samples * math.pi / (2.0 * omega), "n_samples": n_samples}
    return cfg


class TestCliProperties:
    @settings(max_examples=12, deadline=None)
    @given(cfg=small_configs())
    def test_files_present_and_independent_of_threads(self, cfg):
        runner = CliRunner()
        expected = {
            "dispersion": {"dispersion.csv"},
            "correlation": {f"correlation_lambda_{lam:g}.csv" for lam in cfg["sweep"]},
            "spectrum": {
                f"{kind}_lambda_{lam:g}.{ext}"
                for lam in cfg["sweep"]
                for kind, ext in (("spectrum", "csv"), ("metrics", "json"))
            },
        }
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            for command, names in expected.items():
                outputs = []
                for threads in ("1", "2"):
                    out = Path(tmp) / f"{command}_{threads}"
                    args = [command, "--config", str(cfg_path), "--out", str(out)]
                    if command != "dispersion":
                        args += ["--threads", threads]
                    result = runner.invoke(main, args)
                    assert result.exit_code == 0, result.output
                    outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
                assert set(outputs[0]) == names
                assert outputs[0] == outputs[1]


class TestLambdaTag:
    @given(lam=st.floats(min_value=0.0, allow_infinity=False), other=st.floats(0.0, 1e300))
    def test_distinct_values_get_distinct_tags(self, lam, other):
        tag = _lambda_tag(lam)
        assert float(tag.replace("m", "-")) == lam
        if float("%g" % lam) == lam:
            assert tag == ("%g" % lam).replace("-", "m")
        assert _lambda_tag(math.nextafter(lam, math.inf)) != tag
        assert (_lambda_tag(other) == tag) == (other == lam)


class TestLinesCommand:
    def test_weights_sum_to_one(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, chain={"n_sites": 4, "lambda": 1.0, "g_over_b": 0.1, "gamma_over_b": 0.02})
        result = runner.invoke(main, ["lines", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        _, rows = read_rows(tmp_path / "out" / "lines_branch_1.csv")
        assert len(rows) == 16
        assert sum(r[1] for r in rows) == pytest.approx(1.0, abs=1e-10)

    def test_capacity_error_exit_code(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, chain={"n_sites": 64, "lambda": 1.0, "g_over_b": 0.1, "gamma_over_b": 0.02})
        result = runner.invoke(main, ["lines", "--config", str(cfg_path)])
        assert result.exit_code == 3
        assert not (tmp_path / "out").exists()


class TestOracleCheckCommand:
    def test_small_suite_passes(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = {
            "oracle": {"n_sites_list": [2, 4], "lambdas": [0.5, 1.0], "g_over_bs": [0.1]},
            "output": str(tmp_path / "out"),
        }
        cfg_path.write_text(json.dumps(cfg))
        result = runner.invoke(main, ["oracle-check", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "oracle_check.json").read_text())["report"]
        assert report["ok"]
        assert report["max_echo_deviation"] < 1e-8

    def test_scalar_list_field_is_config_error(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = {"oracle": {"lambdas": 1.0}, "output": str(tmp_path / "out")}
        cfg_path.write_text(json.dumps(cfg))
        result = runner.invoke(main, ["oracle-check", "--config", str(cfg_path)])
        assert result.exit_code == 2
        assert "config.oracle.lambdas" in result.output

    def test_deviation_prints_report_path_then_exits_4(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = {
            "oracle": {"n_sites_list": [2, 4], "tolerance": 1e-30},
            "output": str(tmp_path / "out"),
        }
        cfg_path.write_text(json.dumps(cfg))
        result = runner.invoke(main, ["oracle-check", "--config", str(cfg_path)])
        assert result.exit_code == 4
        path = tmp_path / "out" / "oracle_check.json"
        assert result.stdout == f"{path}\n"
        assert not json.loads(path.read_text())["report"]["ok"]
        assert "oracle deviation" in result.stderr

    def test_oversized_request_is_capacity_error(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = {"oracle": {"n_sites_list": [14]}, "output": str(tmp_path / "out")}
        cfg_path.write_text(json.dumps(cfg))
        result = runner.invoke(main, ["oracle-check", "--config", str(cfg_path)])
        assert result.exit_code == 3
        assert "capped" in result.output


class TestParamsCommand:
    def test_report(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = {
            "physical": {
                "e_j": 13.0,
                "c_sigma": 600.0,
                "c_m": 30.0,
                "tlr_length": 1.0,
                "squid_area": 10.0,
                "distance": 1.0,
                "inductance_per_length": 4e-7,
                "omega": 120.0,
                "flux_bias": 0.42,
            },
            "n_sites": 500,
            "output": str(tmp_path / "out"),
        }
        cfg_path.write_text(json.dumps(cfg))
        result = runner.invoke(main, ["params", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "out" / "params.json").read_text())
        assert payload["chain"]["n_sites"] == 500
        assert payload["report"]["b_ghz"] == pytest.approx(3.228371554109854, rel=1e-12)
        assert payload["report"]["g_ghz"] == pytest.approx(
            payload["report"]["eta"] * 13.0, rel=1e-12
        )

    def test_validity_error_exit_code(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = {
            "physical": {
                "e_j": 13.0,
                "c_sigma": 600.0,
                "c_m": 700.0,
                "tlr_length": 1.0,
                "squid_area": 10.0,
                "distance": 1.0,
                "inductance_per_length": 4e-7,
                "omega": 120.0,
                "flux_bias": 0.42,
            },
            "n_sites": 10,
            "output": str(tmp_path / "out"),
        }
        cfg_path.write_text(json.dumps(cfg))
        result = runner.invoke(main, ["params", "--config", str(cfg_path)])
        assert result.exit_code == 2


class TestConfigValidation:
    def test_missing_field_names_path(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"chain": {"n_sites": 8}}))
        result = runner.invoke(main, ["dispersion", "--config", str(cfg_path)])
        assert result.exit_code == 2
        assert "config.chain.lambda" in result.output

    def test_bad_probe_type(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, probe={"type": "squeezed"})
        result = runner.invoke(main, ["correlation", "--config", str(cfg_path)])
        assert result.exit_code == 2
        assert "config.probe.type" in result.output

    def test_bad_sample_count(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, time_grid={"t_max": 100.0, "n_samples": 1000})
        result = runner.invoke(main, ["correlation", "--config", str(cfg_path)])
        assert result.exit_code == 2
        assert "n_samples" in result.output

    def test_explicit_grid_below_band_is_config_error(self, runner, tmp_path):
        # Nyquist pi/dt = 3.14 against a band estimate of 110.4; fails before
        # any series is computed or any output directory is made
        cfg_path = tmp_path / "cfg.json"
        write_config(
            cfg_path,
            chain={"n_sites": 1000, "lambda": 1.0, "g_over_b": 0.08125, "gamma_over_b": 0.0039},
            time_grid={"t_max": 2051.0, "n_samples": 4096},
        )
        result = runner.invoke(main, ["spectrum", "--config", str(cfg_path)])
        assert result.exit_code == 2
        for part in ("lambda=1 ", "Nyquist frequency 3.137", "estimate 110.4", "n_samples=524288"):
            assert part in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "gamma, time_grid, sweep, threads, code, message",
        [
            # lambda=100 clears the cap, lambda=5 needs 2^23 samples
            (5e-5, "auto", [100.0, 5.0], "1", 3, "2^23 samples"),
            (5e-5, "auto", [100.0, 5.0], "2", 3, "2^23 samples"),
            (0.0, "auto", [0.5, 2.0], "2", 2, "gamma_over_b > 0"),
            # t_max = 8 / gamma overflows to inf
            (1e-310, "auto", [2.0], "1", 3, "2^inf samples"),
            # 2 t_max overflows: the step 2*t_max/n_samples is inf
            (0.02, {"t_max": 1e308, "n_samples": 4096}, [2.0], "1", 2, "n_samples=inf"),
            # refused by count, before numpy sees the size of 2^62 samples
            (0.02, {"t_max": 200.0, "n_samples": 1 << 62}, [2.0], "1", 3, "cap of 2^22"),
        ],
    )
    def test_grid_error_at_any_lambda_writes_nothing(
        self, runner, tmp_path, gamma, time_grid, sweep, threads, code, message
    ):
        cfg_path = tmp_path / "cfg.json"
        write_config(
            cfg_path,
            chain={"n_sites": 16, "lambda": 1.0, "g_over_b": 0.08125, "gamma_over_b": gamma},
            time_grid=time_grid,
            sweep=sweep,
        )
        args = ["spectrum", "--config", str(cfg_path), "--threads", threads]
        result = runner.invoke(main, args)
        assert result.exit_code == code, result.output
        assert message in result.output
        assert not (tmp_path / "out").exists()

    def test_step_overflow_is_config_error(self, runner, tmp_path):
        # 2 * 1e308 overflows, so the step of the explicit grid is inf; at g = 0
        # the band check passes any grid, and correlation used to write NaN rows
        cfg_path = tmp_path / "cfg.json"
        write_config(
            cfg_path,
            chain={"n_sites": 8, "lambda": 1.0, "g_over_b": 0.0, "gamma_over_b": 0.02},
            time_grid={"t_max": 1e308, "n_samples": 1024},
            sweep=[0.5, 1.0],
        )
        result = runner.invoke(main, ["correlation", "--config", str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert "t_max=1e+308" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["correlation", "spectrum", "sweep"])
    def test_non_finite_echo_is_numerics_error(self, runner, tmp_path, command):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, **NON_FINITE_ECHO)
        args = [command, "--config", str(cfg_path), "--threads", "1"]
        result = runner.invoke(main, args)
        assert result.exit_code == 5, result.output
        assert "lambda=0.5 on t_max=5e+307" in result.output
        assert not (tmp_path / "out").exists()

    def test_non_finite_echo_prints_one_error_line(self, tmp_path):
        # a fresh interpreter shows numpy's RuntimeWarnings on stderr, which
        # CliRunner and pytest would capture
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, **NON_FINITE_ECHO)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH", "")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", "from isingspec.cli import main; main()",
             "sweep", "--config", str(cfg_path), "--threads", "1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 5
        assert proc.stderr == (
            "error: S(t) is not finite at lambda=0.5 on t_max=5e+307\n"
        )

    @pytest.mark.parametrize("command", ["correlation", "spectrum", "sweep"])
    def test_negative_threads_is_usage_error(self, runner, tmp_path, command):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, sweep=[0.5])
        result = runner.invoke(main, [command, "--config", str(cfg_path), "--threads", "-3"])
        assert result.exit_code == 2
        assert "--threads" in result.output
        assert not (tmp_path / "out").exists()

    def test_auto_threads_count_the_usable_cpus(self, monkeypatch):
        assert _threads(5) == 5
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
            assert _threads(0) == 1
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert _threads(0) == 7

    def test_explicit_grid_checked_against_unpadded_band(self, runner, tmp_path):
        # Nyquist 50.19 clears the unpadded estimate 25.36 but not the auto
        # rule's padded 50.71: the grid is accepted
        cfg_path = tmp_path / "cfg.json"
        write_config(
            cfg_path,
            chain={"n_sites": 16, "lambda": 5.0, "g_over_b": 0.08125, "gamma_over_b": 0.0039},
            time_grid={"t_max": 8.0 / 0.0039, "n_samples": 65536},
            sweep=[5.0],
        )
        result = runner.invoke(main, ["sweep", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("command", ["dispersion", "correlation"])
    def test_n_sites_past_array_size_is_capacity_error(self, runner, tmp_path, command):
        cfg_path = tmp_path / "cfg.json"
        chain = {"n_sites": 2 * 10**299, "lambda": 2.0, "g_over_b": 0.1, "gamma_over_b": 0.02}
        write_config(cfg_path, chain=chain)
        result = runner.invoke(main, [command, "--config", str(cfg_path)])
        assert result.exit_code == 3, result.output
        assert "n_sites=2000" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, names",
        [
            ("correlation", ["correlation_lambda_{}.csv"]),
            ("spectrum", ["spectrum_lambda_{}.csv", "metrics_lambda_{}.json"]),
        ],
        ids=["correlation", "spectrum"],
    )
    def test_lambdas_equal_to_six_digits_get_their_own_files(
        self, runner, tmp_path, command, names
    ):
        # %g keeps 6 significant digits, so both values take their repr as tag
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, sweep=[1.0000001, 1.0000002])
        args = [command, "--config", str(cfg_path), "--threads", "2"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        tags = ("1.0000001", "1.0000002")
        expected = {name.format(tag) for tag in tags for name in names}
        assert {p.name for p in (tmp_path / "out").iterdir()} == expected

    @pytest.mark.parametrize(
        "args",
        [["lines"], ["sweep", "--threads", "2"], ["correlation", "--threads", "2"]],
        ids=["lines", "sweep", "correlation"],
    )
    def test_out_below_a_file_is_config_error(self, runner, tmp_path, args):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, sweep=[0.5, 2.0])
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        result = runner.invoke(main, [*args, "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"cannot create output directory {out}" in result.output

    @pytest.mark.parametrize("output", [5, ["a"]])
    def test_non_string_output_is_config_error(self, runner, tmp_path, output):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, output=output)
        result = runner.invoke(main, ["dispersion", "--config", str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert "config.output" in result.output

    def test_oversized_coherent_alpha_is_capacity_error(self, runner, tmp_path):
        # exp(-|alpha|^2 / 2) is subnormal at |alpha|^2 = 1489
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, probe={"type": "coherent", "alpha": 38.59})
        result = runner.invoke(main, ["spectrum", "--config", str(cfg_path)])
        assert result.exit_code == 3, result.output
        assert "smallest normal double" in result.output
        assert "tail_tol" not in result.output

    @pytest.mark.parametrize(
        "command, over, path",
        [
            (
                "dispersion",
                {
                    "chain": {
                        "n_sites": 8,
                        "lambda": 2.0,
                        "g_over_b": 0.1,
                        "gamma_over_b": 0.02,
                        "lamda": 1.0,
                    }
                },
                "config.chain.lamda",
            ),
            (
                "correlation",
                {"probe": {"type": "fock", "coefficients": [1, 1], "alpha": 1.0}},
                "config.probe.alpha",
            ),
            (
                "correlation",
                {"probe": {"type": "coherent", "alpha": 1.0, "tail_tl": 1e-6}},
                "config.probe.tail_tl",
            ),
            (
                "correlation",
                {"time_grid": {"t_max": 200.0, "n_samples": 4096, "dt": 0.1}},
                "config.time_grid.dt",
            ),
            # misspelt: the suite would run at the default tolerance
            ("oracle-check", {"oracle": {"tolerence": 1e-30}}, "config.oracle.tolerence"),
            ("params", {"physical": {"e_j": 13.0}, "n_sites": 10}, "config.physical.c_sigma"),
            ("params", {"physical": {"ej": 13.0}, "n_sites": 10}, "config.physical.ej"),
        ],
    )
    def test_section_key_errors_name_the_key(self, runner, tmp_path, command, over, path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, **over)
        result = runner.invoke(main, [command, "--config", str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert path in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "probe, path",
        [
            ({"type": "coherent", "alpha": math.nan}, "config.probe.alpha"),
            ({"type": "coherent", "alpha": math.inf}, "config.probe.alpha"),
            ({"type": "coherent", "alpha": [0.5, -math.inf]}, "config.probe.alpha[1]"),
            ({"type": "fock", "coefficients": [1, math.inf]}, "config.probe.coefficients[1]"),
            ({"type": "fock", "coefficients": [math.nan, 1]}, "config.probe.coefficients[0]"),
            ({"type": "fock", "coefficients": [1, [1, math.nan]]}, "config.probe.coefficients[1][1]"),
        ],
    )
    def test_non_finite_probe_is_config_error(self, runner, tmp_path, probe, path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, probe=probe)
        result = runner.invoke(main, ["correlation", "--config", str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert f"{path}: must be finite" in result.output
        assert not (tmp_path / "out").exists()

    def test_integer_past_double_range_is_config_error(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        chain = {"n_sites": 8, "lambda": 10**400, "g_over_b": 0.1, "gamma_over_b": 0.02}
        write_config(cfg_path, chain=chain)
        result = runner.invoke(main, ["correlation", "--config", str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert "config.chain.lambda: out of the double range" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["n_sites_list", "lambdas", "g_over_bs"])
    def test_empty_oracle_list_is_config_error(self, runner, tmp_path, key):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, oracle={key: []})
        result = runner.invoke(main, ["oracle-check", "--config", str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert f"config.oracle.{key}: expected a non-empty list" in result.output
        assert not (tmp_path / "out").exists()

    def test_unhashable_probe_type_is_config_error(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, probe={"type": ["fock"], "coefficients": [1, 1]})
        result = runner.invoke(main, ["correlation", "--config", str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert "config.probe.type" in result.output

    def test_duplicate_sweep_values(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, sweep=[1.0, 1.0])
        result = runner.invoke(main, ["sweep", "--config", str(cfg_path)])
        assert result.exit_code == 2
        assert "duplicate" in result.output

    def test_missing_config_file(self, runner, tmp_path):
        result = runner.invoke(
            main, ["dispersion", "--config", str(tmp_path / "missing.json")]
        )
        assert result.exit_code == 2


class TestHelp:
    COMMANDS = (
        "dispersion", "correlation", "spectrum", "sweep", "lines", "oracle-check", "params"
    )

    def test_lists_every_subcommand(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        section = result.output.split("Commands:")[1].strip().splitlines()
        assert [line.split()[0] for line in section] == sorted(self.COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_threads_only_on_sweeping_commands(self, runner, command):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        assert "--config" in result.output and "--out" in result.output
        sweeps = command in ("correlation", "spectrum", "sweep")
        assert ("--threads" in result.output) == sweeps
