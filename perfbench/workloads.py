"""The four workloads: seeded inputs, the steps that run them, output checks.

Seed 0 reproduces the configurations documented in README.md exactly.
Other seeds scale every lambda and g/B by an independent factor in
[0.99, 1.01]; chain length, probe and every grid's sample count stay fixed,
so the work done is the same and only the numbers differ.

A step is the argument list of ``step.py``: ``cli <subcommand> ...`` runs the
``isingspec`` command line, ``lib <config> <result> <call>...`` runs library
calls from this directory.  ``check`` reads what the steps wrote and returns
the invariant checks, which hold for any seed, and the values that seed 0
compares against ``reference.json``.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

G_OVER_B = 0.08125  # 0.13 / 1.6, the README run.json coupling
GAMMA_OVER_B = 0.0039
GAMMA_EXACT = 6.3 / 1600.0  # acceptance criterion 6
README_SWEEP = (0.25, 0.5, 1.0, 2.0, 5.0, 100.0)
FOCK = {"type": "fock", "coefficients": [1, 1]}
FOCK_S0 = 0.5  # sum_n n |c_n|^2 of the normalized [1, 1] superposition
THREADS = min(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Workload:
    why: str
    make: Callable  # (Jitter, config dir) -> list of steps
    check: Callable  # (output dir) -> (checks, values)


class Jitter:
    """Seeded perturbation of lambda and g/B; the identity for seed 0."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def __call__(self, value: float) -> float:
        if self.seed == 0:
            return value
        return value * (1.0 + 0.01 * self._rng.uniform(-1.0, 1.0))

    def all(self, values) -> list[float]:
        return [self(v) for v in values]


def _write(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _chain(n_sites: int, lam: float, g: float, gamma: float) -> dict:
    return {"n_sites": n_sites, "lambda": lam, "g_over_b": g, "gamma_over_b": gamma}


def _check(name: str, ok: bool, detail: str) -> tuple[str, bool, str]:
    return name, bool(ok), detail


def _metric_values(records: list[dict]) -> dict[str, float]:
    values = {}
    for i, rec in enumerate(records):
        for key in ("w90", "entropy", "participation"):
            values[f"{key}[{i}]"] = rec[key]
    return values


def _metrics_sane(records: list[dict], count: int):
    ok = len(records) == count and all(
        math.isfinite(r["w90"]) and r["w90"] > 0.0
        and math.isfinite(r["entropy"]) and r["entropy"] > 0.0
        and 0.0 < r["participation"] <= 1.0
        for r in records
    )
    return _check("metrics_sane", ok, f"{len(records)} records, expected {count}")


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Comment header lines and the numeric rows below the column names."""
    lines = path.read_text(encoding="utf-8").splitlines()
    body = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return lines[:body], np.loadtxt(lines[body + 1 :], delimiter=",", ndmin=2)


# --- sweep_n1000 --------------------------------------------------------------


def make_sweep(jitter: Jitter, cfg_dir: Path) -> list[list[str]]:
    config = _write(
        cfg_dir / "sweep.json",
        {
            "chain": _chain(1000, 1.0, jitter(G_OVER_B), 8 * GAMMA_OVER_B),
            "probe": FOCK,
            "time_grid": "auto",
            "sweep": jitter.all(README_SWEEP),
            "output": "out",
        },
    )
    return [["cli", "sweep", "--config", config, "--threads", str(THREADS)]]


def check_sweep(out: Path):
    records = json.loads((out / "sweep_metrics.json").read_text())["results"]
    return [_metrics_sane(records, len(README_SWEEP))], _metric_values(records)


# --- emit_small_chain ---------------------------------------------------------

EMIT_LAMBDAS = (0.5, 1.0, 2.0, 5.0)
EMIT_SAMPLES = 1 << 16


def make_emit(jitter: Jitter, cfg_dir: Path) -> list[list[str]]:
    config = _write(
        cfg_dir / "emit.json",
        {
            "chain": _chain(16, 1.0, jitter(G_OVER_B), GAMMA_OVER_B),
            "probe": FOCK,
            "time_grid": {"t_max": 8.0 / GAMMA_OVER_B, "n_samples": EMIT_SAMPLES},
            "sweep": jitter.all(EMIT_LAMBDAS),
            "output": "out",
        },
    )
    args = ["--config", config, "--threads", str(THREADS)]
    return [["cli", "correlation", *args], ["cli", "spectrum", *args]]


def check_emit(out: Path):
    checks, records = [], []
    correlations = sorted(out.glob("correlation_lambda_*.csv"))
    spectra = sorted(out.glob("spectrum_lambda_*.csv"))
    metrics = sorted(out.glob("metrics_lambda_*.json"))
    count = len(EMIT_LAMBDAS)
    checks.append(
        _check(
            "files",
            len(correlations) == len(spectra) == len(metrics) == count,
            f"{len(correlations)}/{len(spectra)}/{len(metrics)} files, expected {count} each",
        )
    )
    worst_s0, worst_rule = 0.0, 0.0
    for corr_path, spec_path in zip(correlations, spectra):
        _, corr = _read_csv(corr_path)
        _, spec = _read_csv(spec_path)
        if len(corr) != EMIT_SAMPLES or len(spec) != EMIT_SAMPLES:
            worst_s0 = worst_rule = math.inf
            continue
        t0, re0, im0, _ = corr[EMIT_SAMPLES // 2]
        worst_s0 = max(worst_s0, abs(re0 - FOCK_S0) + abs(im0), abs(t0))
        d_omega = spec[1, 0] - spec[0, 0]
        total = float(np.sum(spec[:, 1])) * d_omega / (2.0 * math.pi)
        worst_rule = max(worst_rule, abs(total - re0) / abs(re0))
    checks.append(_check("sum_rule_s0", worst_s0 <= 1e-12, f"|S(0) - 0.5| {worst_s0:.2e}"))
    checks.append(
        _check("discrete_sum_rule", worst_rule <= 1e-9, f"rel dev {worst_rule:.2e}")
    )
    for path in metrics:
        records.append(json.loads(path.read_text())["metrics"])
    records.sort(key=lambda r: r["lambda"])
    checks.append(_metrics_sane(records, count))
    return checks, _metric_values(records)


# --- coherent_far_field -------------------------------------------------------

FAR_LAMBDAS = (100.0, 500.0)


def make_far_field(jitter: Jitter, cfg_dir: Path) -> list[list[str]]:
    config = _write(
        cfg_dir / "far_field.json",
        {
            "far_field": {
                "n_sites": 100,
                "lambdas": jitter.all(FAR_LAMBDAS),
                "g_over_b": jitter(G_OVER_B),
                "gamma_over_b": GAMMA_EXACT,
                "alpha": 1.0,
                "tail_tol": 1e-12,
            }
        },
    )
    return [["lib", config, "far_field.json", "far_field"]]


def check_far_field(out: Path):
    reports = json.loads((out / "far_field.json").read_text())["far_field"]
    shifts = [r["shift"] for r in reports]
    spread = max(shifts) - min(shifts)
    worst = max(r["deviation"] for r in reports)
    weight = max(abs(r["total_weight"] - 1.0) for r in reports)
    checks = [
        _check("peak_spread", len(reports) == len(FAR_LAMBDAS) and spread < GAMMA_EXACT,
               f"spread {spread:.3e} (< Gamma {GAMMA_EXACT:g})"),
        _check("single_peaked", worst < 0.05, f"max deviation {worst:.3e} (< 0.05)"),
        _check("probe_weight", weight < 1e-10, f"|mean photon number - 1| {weight:.2e}"),
    ]
    values = {}
    for i, r in enumerate(reports):
        values[f"shift[{i}]"] = r["shift"]
        values[f"deviation[{i}]"] = r["deviation"]
    return checks, values


# --- validate_small_n ---------------------------------------------------------


def make_validate(jitter: Jitter, cfg_dir: Path) -> list[list[str]]:
    oracle = _write(
        cfg_dir / "oracle.json",
        {
            "oracle": {
                "n_sites_list": [2, 4, 6, 8],
                "lambdas": jitter.all((0.5, 1.0, 2.0)),
                "g_over_bs": jitter.all((0.05, 0.1)),
            },
            "output": "out",
        },
    )
    lines = _write(
        cfg_dir / "lines.json",
        {"chain": _chain(24, jitter(1.0), jitter(G_OVER_B), GAMMA_OVER_B), "probe": FOCK,
         "output": "out"},
    )
    library = _write(
        cfg_dir / "validate.json",
        {
            "cross_path": {
                "chain": _chain(8, jitter(1.0), jitter(0.1), 0.02),
                "frequency_stride": 8,
            },
            "threshold": {
                "n_sites": 250,
                "lambdas": jitter.all(README_SWEEP),
                "g_over_b": jitter(G_OVER_B),
                "gamma_over_b": GAMMA_OVER_B,
            },
        },
    )
    return [
        ["cli", "oracle-check", "--config", oracle],
        ["cli", "lines", "--config", lines],
        ["lib", library, "validate.json", "cross_path", "threshold"],
    ]


def check_validate(out: Path):
    report = json.loads((out / "oracle_check.json").read_text())["report"]
    header, rows = _read_csv(out / "lines_branch_1.csv")
    pruned = float(next(h for h in header if h.startswith("# pruned_weight")).split()[2])
    line_dev = abs(float(np.sum(rows[:, 1])) + pruned - 1.0)
    result = json.loads((out / "validate.json").read_text())
    rel_l2 = result["cross_path"]["analytic_vs_dense"]
    crossings = result["threshold"]
    checks = [
        _check("oracle_ok", report["ok"], f"max echo dev {report['max_echo_deviation']:.2e}"),
        _check("line_weight", line_dev <= 1e-10, f"|sum + pruned - 1| {line_dev:.2e}"),
        _check("cross_path", rel_l2 < 1e-2, f"analytic vs dense rel L2 {rel_l2:.2e}"),
        _check("crossings", len(crossings) == len(README_SWEEP), f"{len(crossings)} crossings"),
    ]
    return checks, {f"crossing[{i}]": t for i, t in enumerate(crossings)}


WORKLOADS = {
    "sweep_n1000": Workload(
        "headline lambda sweep: long uniform grids, echo kernel ~99% of worker time, 2-thread pool",
        make_sweep,
        check_sweep,
    ),
    "emit_small_chain": Workload(
        "write-heavy twin of the sweep: CSV emission and held results dominate, little echo work",
        make_emit,
        check_emit,
    ),
    "coherent_far_field": Workload(
        "criterion 6 probe: 15 coherent branches per echo sum, far-field fit; echo on one thread, fit on 2 BLAS threads",
        make_far_field,
        check_far_field,
    ),
    "validate_small_n": Workload(
        "short and single-point echo calls, dense eigensolves, oracle Lorentzian sum, lines",
        make_validate,
        check_validate,
    ),
}
