"""Command line interface: config parsing, sweeps, and deterministic output.

One JSON config document drives every subcommand.  Files are written with a
comment header carrying the resolved configuration and tool version, floats
at 17 significant digits, so identical configs produce byte-identical
output.  Exit codes: 0 success, 2 configuration error, 3 capacity error,
4 oracle deviation, 5 numerics error.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click
import numpy as np

from . import __version__
from .chain import bogoliubov_angle, build_mode_table, dispersion, momentum_grid
from .decoherence import enumerate_lines
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateInputError,
    IsingSpecError,
    NumericsError,
    ParameterError,
)
from .oracle import comparison_suite
from .params import ChainParams, PhysicalParams, derive_chain_params
from .probe import ProbeState, coherent_state, fock_superposition
from .spectrum import (
    TimeGrid,
    _populated_branches,
    auto_time_grid,
    broadening_metrics,
    correlation_series,
    spectrum_fft,
)

EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_ORACLE = 4
EXIT_NUMERICS = 5

_FLOAT_FMT = "%.17g"
# rows per formatted block: larger blocks format no faster, and at 4096 rows
# the allocator kept ~2 MB more resident over a six-lambda correlation run
_CSV_CHUNK = 512


def _fmt(x: float) -> str:
    return _FLOAT_FMT % x


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    return raw


def _require(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}: missing required field")
    return cfg[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # a JSON integer past the largest double
        raise ConfigError(f"{path}: out of the double range") from None
    if not math.isfinite(number):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    return number


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _list_of(parse):
    def parse_list(value, path: str) -> list:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected a non-empty list, got {value!r}")
        return [parse(v, f"{path}[{i}]") for i, v in enumerate(value)]

    return parse_list


def _complex(value, path: str) -> complex:
    """A number, or an [re, im] pair of numbers."""
    if isinstance(value, list) and len(value) == 2:
        return complex(_number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]"))
    return complex(_number(value, path))


def _build(make, section, path: str, keys):
    """make(**fields) from the config object section at path.

    keys holds one (config key, make keyword, parser, required) row per key
    the section may carry; any other key, and a missing required one, is a
    ConfigError naming its path.  ParameterError, ConfigError and
    DegenerateInputError from make are relabelled with path; CapacityError
    passes through, so it keeps its exit code.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    known = {key for key, *_ in keys}
    for key in section:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown field")
    fields = {}
    for key, keyword, parse, required in keys:
        if key in section:
            fields[keyword] = parse(section[key], f"{path}.{key}")
        elif required:
            raise ConfigError(f"{path}.{key}: missing required field")
    try:
        return make(**fields)
    except (ParameterError, ConfigError, DegenerateInputError) as exc:
        raise ConfigError(f"{path}: {exc}")


# config key, keyword, parser, required: one table per config section
_CHAIN_KEYS = (
    ("n_sites", "n_sites", _integer, True),
    ("lambda", "lam", _number, True),
    ("g_over_b", "g_over_b", _number, True),
    ("gamma_over_b", "gamma_over_b", _number, True),
)
# per probe type: constructor and the keys besides "type"
_PROBE_TYPES = {
    "fock": (fock_superposition, (("coefficients", "coeffs", _list_of(_complex), True),)),
    "coherent": (
        coherent_state,
        (("alpha", "alpha", _complex, True), ("tail_tol", "tail_tol", _number, False)),
    ),
}
_TIME_GRID_KEYS = (
    ("t_max", "t_max", _number, True),
    ("n_samples", "n_samples", _integer, True),
)
_ORACLE_KEYS = (
    ("n_sites_list", "n_sites_list", _list_of(_integer), False),
    ("lambdas", "lams", _list_of(_number), False),
    ("g_over_bs", "g_over_bs", _list_of(_number), False),
    ("tolerance", "tolerance", _number, False),
)
_PHYSICAL_KEYS = tuple(
    (field.name, field.name, _number, field.default is dataclasses.MISSING)
    for field in dataclasses.fields(PhysicalParams)
)


def parse_chain(cfg: dict) -> ChainParams:
    return _build(ChainParams, _require(cfg, "chain", "config"), "config.chain", _CHAIN_KEYS)


def parse_probe(cfg: dict) -> ProbeState:
    section = _require(cfg, "probe", "config")
    if not isinstance(section, dict):
        raise ConfigError("config.probe: expected an object")
    kind = section.get("type")
    # a str check first: an unhashable type, such as a list, cannot be looked up
    if not isinstance(kind, str) or kind not in _PROBE_TYPES:
        raise ConfigError(f"config.probe.type: must be 'fock' or 'coherent', got {kind!r}")
    make, keys = _PROBE_TYPES[kind]
    fields = {key: value for key, value in section.items() if key != "type"}
    return _build(make, fields, "config.probe", keys)


def parse_sweep(cfg: dict, chain: ChainParams) -> list[float]:
    if "sweep" not in cfg:
        return [chain.lam]
    values = _list_of(_number)(cfg["sweep"], "config.sweep")
    for i, v in enumerate(values):
        if v < 0.0:
            raise ConfigError(f"config.sweep[{i}]: lambda must be >= 0, got {v}")
    if len(set(values)) != len(values):
        raise ConfigError("config.sweep: duplicate lambda values")
    return values


def parse_time_grid(cfg: dict) -> TimeGrid | None:
    """The explicit time grid of the config, or None for "auto"."""
    section = cfg.get("time_grid", "auto")
    if section == "auto":
        return None
    if not isinstance(section, dict):
        raise ConfigError("config.time_grid: expected 'auto' or an object")
    return _build(TimeGrid, section, "config.time_grid", _TIME_GRID_KEYS)


def _out_dir(cfg: dict, out_flag: str | None) -> Path:
    """The output directory: --out, else config.output.  Nothing is created here;
    _open_output makes the directory when the first file is written into it."""
    target = out_flag or cfg.get("output")
    if target is None:
        raise ConfigError("config.output: missing (or pass --out)")
    if not isinstance(target, str):
        raise ConfigError(f"config.output: expected a directory path string, got {target!r}")
    return Path(target)


def _header_lines(cfg: dict, grid: TimeGrid | None = None) -> list[str]:
    lines = [
        f"# isingspec {__version__}",
        "# config " + json.dumps(cfg, separators=(",", ":"), sort_keys=True),
    ]
    if grid is not None:
        omega = "none" if grid.omega_estimate is None else _fmt(grid.omega_estimate)
        lines.append(
            f"# time_grid t_max={_fmt(grid.t_max)} n_samples={grid.n_samples} "
            f"omega_estimate={omega}"
        )
    return lines


def _open_output(path: Path, mode: str, **kwargs):
    """open(path, mode, **kwargs), making its parent directory first."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path.parent}: {exc}")
    return open(path, mode, **kwargs)


def _write_csv(path: Path, header: list[str], columns: dict[str, np.ndarray]) -> Path:
    """Write header lines, the column names, then one row per index of the columns.

    Each value is formatted with %.17g.  Rows are copied into one reusable
    block of _CSV_CHUNK rows and formatted with one %-operation per block,
    so neither the whole table nor the whole file is ever held at once.
    """
    arrays = list(columns.values())
    n_rows = len(arrays[0])
    row_fmt = (",".join([_FLOAT_FMT] * len(arrays)) + "\n").encode()
    block = np.empty((min(n_rows, _CSV_CHUNK), len(arrays)))
    with _open_output(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in [*header, ",".join(columns)]).encode())
        for start in range(0, n_rows, _CSV_CHUNK):
            rows = block[: n_rows - start]
            for j, column in enumerate(arrays):
                rows[:, j] = column[start : start + len(rows)]
            fh.write((row_fmt * len(rows)) % tuple(rows.ravel().tolist()))
    return path


def _write_json(path: Path, payload: dict) -> Path:
    with _open_output(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def _write_report(path: Path, cfg: dict, **fields) -> Path:
    """Write {"meta": tool, version and config, **fields} as JSON."""
    meta = {"tool": "isingspec", "version": __version__, "config": cfg}
    return _write_json(path, {"meta": meta, **fields})


def _write_metrics(path: Path, cfg: dict, **fields) -> Path:
    return _write_report(
        path,
        cfg,
        participation_normalization="inverse participation ratio divided by grid size",
        **fields,
    )


def _threads(count: int) -> int:
    """count, or for 0 the CPUs this process may run on."""
    if count > 0:
        return count
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _lambda_tag(lam: float) -> str:
    """%g of lam where it reads back as lam, else repr(lam); "-" becomes "m".

    Either form reads back as lam, so two distinct values never share a tag.
    """
    tag = "%g" % lam
    if float(tag) != lam:
        tag = repr(lam)
    return tag.replace("-", "m")


def _run_sweep(cfg: dict, out_flag: str | None, threads: int, finish):
    """Output directory, and finish(out, params, grid, series) per lambda in sweep order.

    Chain, probe and sweep are parsed once, and per lambda the mode table
    built and the time grid resolved by auto_time_grid (the config's
    explicit grid, checked against the band estimate, or the auto grid),
    before the pool starts: a grid error at any lambda writes nothing.  Each
    worker then computes the correlation series of its lambda and hands it
    to finish, which writes what it needs and returns what the caller
    keeps, so a series is dropped as soon as its own lambda is done.
    """
    chain = parse_chain(cfg)
    state = parse_probe(cfg)
    sweep = parse_sweep(cfg, chain)
    explicit = parse_time_grid(cfg)
    runs = []
    for lam in sweep:
        params = dataclasses.replace(chain, lam=lam)
        table = build_mode_table(params, n_max=max(state.n_max, 1))
        runs.append((params, table, auto_time_grid(params, table, state, explicit)))
    out = _out_dir(cfg, out_flag)

    def job(run):
        params, table, grid = run
        series = correlation_series(params, table, state, grid.t_max, grid.n_samples)
        return finish(out, params, grid, series)

    with ThreadPoolExecutor(max_workers=_threads(threads)) as pool:
        return out, list(pool.map(job, runs))


def _metrics_record(params: ChainParams, metrics) -> dict:
    return {
        "lambda": params.lam,
        "w90": metrics.w90,
        "entropy": metrics.entropy,
        "participation": metrics.participation,
        "n": params.n_sites,
        "g_over_b": params.g_over_b,
        "gamma_over_b": params.gamma_over_b,
    }


@click.group()
@click.version_option(version=__version__, prog_name="isingspec")
def main() -> None:
    """Spectroscopy of a transverse-field Ising chain through a lossy resonator."""


def _command(name: str, sweep: bool = False):
    """Register body(cfg, out_flag[, threads]) as subcommand name.

    The subcommand takes --config and --out, plus --threads when it runs a
    sweep.  It loads the config, echoes each path the body yields as it is
    yielded, and turns package errors into exit codes.
    """

    def register(body):
        def command(config_path: str, out_flag: str | None, **options) -> None:
            try:
                for path in body(_load_config(config_path), out_flag, **options):
                    click.echo(str(path))
            except CapacityError as exc:
                _fail(EXIT_CAPACITY, str(exc))
            except NumericsError as exc:
                _fail(EXIT_NUMERICS, str(exc))
            except IsingSpecError as exc:
                _fail(EXIT_CONFIG, str(exc))

        params = [
            click.Option(
                ["--config", "config_path"],
                required=True,
                type=click.Path(),
                help="JSON config file",
            ),
            click.Option(["--out", "out_flag"], default=None, help="output directory"),
        ]
        if sweep:
            params.append(
                click.Option(
                    ["--threads"],
                    type=click.IntRange(min=0),
                    default=0,
                    show_default=True,
                    help="sweep workers (0 = auto)",
                )
            )
        return main.command(name, params=params, help=body.__doc__)(command)

    return register


@_command("dispersion")
def cmd_dispersion(cfg: dict, out_flag: str | None):
    """Write (k, epsilon_k, theta_k) rows for the configured lambda."""
    chain = parse_chain(cfg)
    k = momentum_grid(chain.n_sites)
    columns = {
        "k": k,
        "epsilon": dispersion(k, chain.lam),
        "theta": bogoliubov_angle(k, chain.lam),
    }
    out = _out_dir(cfg, out_flag)
    yield _write_csv(out / "dispersion.csv", _header_lines(cfg), columns)


@_command("correlation", sweep=True)
def cmd_correlation(cfg: dict, out_flag: str | None, threads: int):
    """Write S(t) series, one CSV per lambda in the sweep."""

    def finish(out, params, grid, series):
        path = out / f"correlation_lambda_{_lambda_tag(params.lam)}.csv"
        v = series.values
        # hypot, not np.abs: it rounds like the scalar abs(complex), np.abs may not
        columns = {
            "t": series.times,
            "re_S": v.real,
            "im_S": v.imag,
            "abs_S": np.hypot(v.real, v.imag),
        }
        return [_write_csv(path, _header_lines(cfg, grid), columns)]

    _, written = _run_sweep(cfg, out_flag, threads, finish)
    for paths in written:
        yield from paths


@_command("spectrum", sweep=True)
def cmd_spectrum(cfg: dict, out_flag: str | None, threads: int):
    """Write S(omega) CSV and a metrics JSON, one pair per lambda."""

    def finish(out, params, grid, series):
        spec = spectrum_fft(series)
        metrics = _metrics_record(params, broadening_metrics(spec))
        tag = _lambda_tag(params.lam)
        csv_path = out / f"spectrum_lambda_{tag}.csv"
        columns = {"omega": spec.frequencies, "S": spec.values}
        return [
            _write_csv(csv_path, _header_lines(cfg, grid), columns),
            _write_metrics(out / f"metrics_lambda_{tag}.json", cfg, metrics=metrics),
        ]

    _, written = _run_sweep(cfg, out_flag, threads, finish)
    for paths in written:
        yield from paths


@_command("sweep", sweep=True)
def cmd_sweep(cfg: dict, out_flag: str | None, threads: int):
    """Run the lambda sweep and write one metrics record per value."""
    if "sweep" not in cfg:
        raise ConfigError("config.sweep: required by the sweep command")

    def finish(_out, params, _grid, series):
        return _metrics_record(params, broadening_metrics(spectrum_fft(series)))

    out, records = _run_sweep(cfg, out_flag, threads, finish)
    yield _write_metrics(out / "sweep_metrics.json", cfg, results=records)


@_command("lines")
def cmd_lines(cfg: dict, out_flag: str | None):
    """Write the exact (center, weight) line list per populated branch (small N)."""
    chain = parse_chain(cfg)
    state = parse_probe(cfg)
    out = _out_dir(cfg, out_flag)
    table = build_mode_table(chain, n_max=max(state.n_max, 1))
    for n in list(_populated_branches(table, state)) or [1]:
        decomp = enumerate_lines(table, n)
        header = _header_lines(cfg) + [
            f"# pruned_weight {_fmt(decomp.pruned_weight)} "
            f"pruned_abs_weight {_fmt(decomp.pruned_abs_weight)}"
        ]
        columns = {"omega_center": decomp.centers, "weight": decomp.weights}
        yield _write_csv(out / f"lines_branch_{n}.csv", header, columns)


@_command("oracle-check")
def cmd_oracle_check(cfg: dict, out_flag: str | None):
    """Run the dense-diagonalization comparison suite; exit 4 on deviation."""
    report = _build(comparison_suite, cfg.get("oracle", {}), "config.oracle", _ORACLE_KEYS)
    path = _out_dir(cfg, out_flag) / "oracle_check.json"
    yield _write_report(path, cfg, report=report)
    if not report["ok"]:
        _fail(
            EXIT_ORACLE,
            "oracle deviation: max echo deviation "
            f"{report['max_echo_deviation']:.3e}, max ground-energy deviation "
            f"{report['max_ground_energy_deviation']:.3e} "
            f"(tolerance {report['tolerance']:g})",
        )


@_command("params")
def cmd_params(cfg: dict, out_flag: str | None):
    """Derive dimensionless chain parameters from lab-frame device values."""
    section = _require(cfg, "physical", "config")
    phys = _build(PhysicalParams, section, "config.physical", _PHYSICAL_KEYS)
    n_sites = _integer(_require(cfg, "n_sites", "config"), "config.n_sites")
    params, report = derive_chain_params(phys, n_sites)
    chain = {key: getattr(params, field) for key, field, *_ in _CHAIN_KEYS}
    path = _out_dir(cfg, out_flag) / "params.json"
    yield _write_report(path, cfg, chain=chain, report=report)


if __name__ == "__main__":
    main()
