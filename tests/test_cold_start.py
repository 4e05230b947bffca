"""No import, library call or CLI command of the package loads scipy.

Every check runs in a fresh interpreter, because the test session itself
imports scipy: the bounded-minimum tests compare against it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isingspec

SRC = str(Path(isingspec.__file__).resolve().parent.parent)

SCIPY_LOADED = (
    "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
)

CLI_RUNS = f"""
import json, sys
from pathlib import Path

import isingspec
import isingspec.cli
from isingspec.cli import main

tmp = Path(sys.argv[1])
cfg = {{
    "chain": {{"n_sites": 8, "lambda": 2.0, "g_over_b": 0.1, "gamma_over_b": 0.02}},
    "probe": {{"type": "fock", "coefficients": [1, 1]}},
    "time_grid": {{"t_max": 200.0, "n_samples": 4096}},
    "sweep": [0.5, 2.0],
    "oracle": {{"n_sites_list": [2, 4], "lambdas": [0.5, 1.0], "g_over_bs": [0.1]}},
    "physical": {{
        "e_j": 13.0, "c_sigma": 600.0, "c_m": 30.0, "tlr_length": 1.0, "squid_area": 10.0,
        "distance": 1.0, "inductance_per_length": 4e-7, "omega": 120.0, "flux_bias": 0.42,
    }},
    "n_sites": 8,
}}
config = tmp / "cfg.json"
config.write_text(json.dumps(cfg))
commands = ("dispersion", "correlation", "spectrum", "sweep", "lines", "oracle-check", "params")
assert set(commands) == set(main.commands)
for command in commands:
    out = tmp / command
    main(args=[command, "--config", str(config), "--out", str(out)], standalone_mode=False)
    assert any(out.iterdir()), command
print(json.dumps({SCIPY_LOADED}))
"""

FAR_FIELD = f"""
import json, sys

import isingspec as iq

before = {SCIPY_LOADED}
params = iq.ChainParams(n_sites=8, lam=5.0, g_over_b=0.05, gamma_over_b=0.05)
state = iq.fock_superposition([1, 1])
report = iq.far_field_check(params, iq.build_mode_table(params, n_max=1), state)
print(json.dumps({{
    "before": before,
    "after": {SCIPY_LOADED},
    "deviation": report.deviation,
    "total_weight": report.total_weight,
}}))
"""


def run_fresh(script: str, *args: str):
    """Run script in a new interpreter with the package on its path; its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestScipyStaysUnloaded:
    def test_import_and_cli_commands_leave_scipy_unloaded(self, tmp_path):
        assert run_fresh(CLI_RUNS, str(tmp_path)) == []

    def test_far_field_fit_leaves_scipy_unloaded(self):
        result = run_fresh(FAR_FIELD)
        assert result["before"] == []
        assert result["after"] == []
        assert result["total_weight"] == pytest.approx(0.5, abs=1e-12)
        assert 0.0 <= result["deviation"] < 0.05
