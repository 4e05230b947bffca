"""Run one benchmark step in this fresh process.

    python3 step.py [--trace SPANS RUN_ID] --out DIR cli <subcommand> <args>...
    python3 step.py [--trace SPANS RUN_ID] --out DIR lib <config> <result> <call>...
    python3 step.py import

``cli`` runs the ``isingspec`` command line exactly as its console script
does, with ``--out DIR`` appended.  ``lib`` runs the named library calls on
one JSON config and writes their results to ``DIR/<result>``.  ``import``
only imports the package, the command line and their dependencies, which
is what the set-up time measures.  With ``--trace`` every call into the package records spans
(see spans.py), written to SPANS when the process ends.

run.py launches it with the package on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import isingspec as iq


def far_field(cfg: dict) -> list[dict]:
    state = iq.coherent_state(cfg["alpha"], tail_tol=cfg["tail_tol"])
    reports = []
    for lam in cfg["lambdas"]:
        params = iq.ChainParams(
            n_sites=cfg["n_sites"], lam=lam, g_over_b=cfg["g_over_b"],
            gamma_over_b=cfg["gamma_over_b"],
        )
        table = iq.build_mode_table(params, n_max=max(state.n_max, 1))
        rep = iq.far_field_check(params, table, state)
        reports.append(
            {"lambda": lam, "shift": rep.shift, "deviation": rep.deviation,
             "total_weight": rep.total_weight}
        )
    return reports


def cross_path(cfg: dict) -> dict:
    """Acceptance criterion 3 at one lambda on every stride-th FFT frequency."""
    chain = cfg["chain"]
    params = iq.ChainParams(
        n_sites=chain["n_sites"], lam=chain["lambda"], g_over_b=chain["g_over_b"],
        gamma_over_b=chain["gamma_over_b"],
    )
    state = iq.fock_superposition([1, 1])
    table = iq.build_mode_table(params, n_max=1)
    grid = iq.auto_time_grid(params, table, state)
    series = iq.correlation_series(params, table, state, grid.t_max, grid.n_samples)
    fft = iq.spectrum_fft(series)
    stride = cfg["frequency_stride"]
    frequencies = fft.frequencies[::stride]
    analytic = iq.spectrum_analytic(params, table, state, frequencies)
    dense = iq.oracle_spectrum(params.n_sites, params, state, frequencies)
    scale = float(np.linalg.norm(analytic.values))
    return {
        "n_frequencies": int(frequencies.size),
        "analytic_vs_dense": float(np.linalg.norm(analytic.values - dense.values)) / scale,
        "fft_vs_dense": float(np.linalg.norm(fft.values[::stride] - dense.values)) / scale,
    }


def threshold(cfg: dict) -> list[float]:
    """Acceptance criterion 4: 0.1-crossing time of |S(t)|/S(0) per lambda."""
    state = iq.fock_superposition([1, 1])
    crossings = []
    for lam in cfg["lambdas"]:
        params = iq.ChainParams(
            n_sites=cfg["n_sites"], lam=lam, g_over_b=cfg["g_over_b"],
            gamma_over_b=cfg["gamma_over_b"],
        )
        table = iq.build_mode_table(params, n_max=1)
        crossings.append(iq.threshold_crossing_time(params, table, state))
    return crossings


CALLS = {"far_field": far_field, "cross_path": cross_path, "threshold": threshold}


def run_lib(out: Path, config: str, result: str, calls: list[str]) -> None:
    cfg = json.loads(Path(config).read_text(encoding="utf-8"))
    payload = {name: CALLS[name](cfg[name]) for name in calls}
    (out / result).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    if argv == ["import"]:
        import isingspec.cli  # noqa: F401

        return 0
    tracer = None
    if argv[0] == "--trace":
        import spans

        spans_path, tracer = argv[1], spans.Tracer(argv[2])
        spans.install(tracer)
        argv = argv[3:]
    out, kind, args = Path(argv[1]), argv[2], argv[3:]
    try:
        if kind == "cli":
            from isingspec.cli import main as cli_main

            cli_main(args=[*args, "--out", str(out)], prog_name="isingspec")
        else:
            run_lib(out, args[0], args[1], args[2:])
    finally:
        if tracer is not None:
            Path(spans_path).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
