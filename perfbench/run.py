"""Benchmark runner for the isingspec pipeline.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a source checkout; the package is taken from ``src/``
and nothing is installed.  Every step of a workload runs in a fresh Python
process launched from this single process, one after another (a
closed loop).  ``--trace 0`` measures the end-to-end metrics, ``--trace 1``
the per-layer metrics from spans (see README.md).  The last line of standard
output is the result object; the line before it holds the details: machine
record, per-iteration figures, output hashes and the checks that failed.
Exits 1 when any output check failed, 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
from workloads import WORKLOADS, Jitter  # noqa: E402

SETUP_LAUNCHES = 7
MIN_ITERATIONS = 2
REFERENCE_REL_TOL = 1e-9
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio"}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = metric.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "cpu_s", "overhead_s"):
        return "s"
    if last.startswith("ns_per_"):
        return "ns"
    if last == "bytes":
        return "B"
    if last == "mb_per_s":
        return "MB/s"
    if last in ("utilization", "pool_busy_share"):
        return "ratio"
    return "count"


def child_env() -> dict[str, str]:
    """Environment of every step: package on the path, BLAS pinned to <= nproc."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var, "")
        limit = int(current) if current.isdigit() and int(current) > 0 else nproc
        env[var] = str(min(limit, nproc))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    return env


def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(
            ["getconf", name], capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return int(out) if out.isdigit() else None


def machine_record(env: dict[str, str]) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
    }


@dataclass
class Tally:
    """Operations attempted and failed; each failure keeps a one-line note."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"{name}: {detail}")


@dataclass
class Iteration:
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    hashes: dict[str, str]
    values: dict[str, float]
    spans: list[dict]


class Runner:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.workload = WORKLOADS[name]
        self.env = child_env()
        self.tally = Tally()
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "config").mkdir(parents=True)
        (self.work / "logs").mkdir()
        self.steps = self.workload.make(Jitter(seed), self.work / "config")
        self.count = 0

    def launch(self, argv: list[str], log: Path):
        """Run step.py in a fresh process; exit code and its own rusage."""
        with open(log, "w", encoding="utf-8") as err:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "step.py"), *argv],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def setup_time(self) -> float:
        start = time.perf_counter()
        code, _ = self.launch(["import"], self.work / "logs" / "import.log")
        elapsed = time.perf_counter() - start
        self.tally.record("import", code == 0, f"exit {code}")
        return elapsed

    def iteration(self, traced: bool) -> Iteration:
        self.count += 1
        tag = f"{self.count}{'t' if traced else ''}"
        out = self.work / f"iter{tag}"
        span_dir = self.work / f"spans{tag}"
        out.mkdir()
        span_dir.mkdir()
        codes, usages = [], []
        start = time.perf_counter()
        for i, step in enumerate(self.steps):
            prefix = ["--trace", str(span_dir / f"{i}.json"), f"{self.name}-{tag}"]
            argv = [*(prefix if traced else []), "--out", str(out), *step]
            code, usage = self.launch(argv, self.work / "logs" / f"{tag}-{i}.log")
            codes.append(code)
            usages.append(usage)
        wall = time.perf_counter() - start

        for i, (step, code) in enumerate(zip(self.steps, codes)):
            # each library call in a lib step is an operation; a crash fails one
            calls = len(step) - 3 if step[0] == "lib" else 1
            self.tally.attempted += calls - 1
            log = (self.work / "logs" / f"{tag}-{i}.log").read_text(errors="replace")
            self.tally.record(" ".join(step[:2]), code == 0, f"exit {code}: {log[-300:]}")
        try:
            checks, values = self.workload.check(out)
        except (OSError, ValueError, TypeError, KeyError, IndexError, StopIteration) as exc:
            checks, values = [("outputs", False, f"{type(exc).__name__}: {exc}")], {}
        for name, ok, detail in checks:
            self.tally.record(name, ok, detail)
        hashes = {
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }
        recorded = []
        if traced:
            for path in sorted(span_dir.glob("*.json")):
                recorded.extend(json.loads(path.read_text()))
        shutil.rmtree(out)
        shutil.rmtree(span_dir)
        return Iteration(
            wall_s=wall,
            peak_rss_mb=max(u.ru_maxrss for u in usages) / 1024.0,
            cpu_s=sum(u.ru_utime + u.ru_stime for u in usages),
            hashes=hashes,
            values=values,
            spans=recorded,
        )

    def compare(self, first: Iteration, later: Iteration, reference: dict | None) -> None:
        if later is not first:
            self.tally.record(
                "determinism",
                later.hashes == first.hashes,
                "output hashes differ between repetitions",
            )
        if reference is not None:
            off = [
                k for k, v in reference.items()
                if k not in later.values
                or not math.isclose(later.values[k], v, rel_tol=REFERENCE_REL_TOL)
            ]
            self.tally.record("reference", not off, f"off reference: {off}")


def measure(name: str, seed: int, seconds: float, trace: bool):
    runner = Runner(name, seed)
    reference = None
    if seed == 0:
        reference = json.loads(REFERENCE.read_text()).get(name)
        if reference is None:
            runner.tally.record("reference", False, "none recorded in reference.json")
    setups, iterations, layers = [], [], []
    start = time.perf_counter()

    def more() -> bool:
        if len(iterations) < (1 if trace else MIN_ITERATIONS):
            return True
        per = statistics.median(i.wall_s for i in iterations) * (2 if trace else 1)
        # set-up launches sit outside the --seconds budget
        return time.perf_counter() - start - sum(setups) + per <= seconds

    while more():
        if not trace:
            # one launch per iteration spreads the set-up samples over the run
            setups.append(runner.setup_time())
        plain = runner.iteration(traced=False)
        iterations.append(plain)
        first = iterations[0]
        runner.compare(first, plain, reference)
        if trace:
            traced = runner.iteration(traced=True)
            runner.compare(first, traced, reference)
            layer = spans.layer_metrics(traced.spans)
            layer["cli.process.cpu_s"] = plain.cpu_s
            layer["trace.overhead_s"] = traced.wall_s - plain.wall_s
            if layers:
                counts = [k for k in layer if unit_of(k) in ("count", "B")]
                runner.tally.record(
                    "counts_repeat",
                    all(layer[k] == layers[0][k] for k in counts),
                    "count metrics differ between traced runs",
                )
            layers.append(layer)
    while not trace and len(setups) < SETUP_LAUNCHES:
        setups.append(runner.setup_time())

    tally = runner.tally
    if trace:
        metrics = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
        units = {k: unit_of(k) for k in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(i.wall_s for i in iterations),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(i.peak_rss_mb for i in iterations),
            "success_rate": 1.0 - tally.failed / tally.attempted,
        }
        units = END_TO_END
    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "why": runner.workload.why,
        "machine": machine_record(runner.env),
        "iterations": len(iterations),
        "wall_s": [i.wall_s for i in iterations],
        "setup_s": setups,
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.notes,
        "hashes": iterations[0].hashes,
        "values": iterations[0].values,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return details, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "isingspec" / "__init__.py").is_file():
        print(f"error: no isingspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        details, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(details))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    failed = 0
    for name in WORKLOADS:
        details, result = measure(name, args.seed, args.seconds, bool(args.trace))
        failed += result["failed"]
        rows = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
        if not args.trace:
            rows["error_rate"] = (details["error_rate"], "ratio")
        for metric, (value, unit) in rows.items():
            print(f"{name:20s} {metric:48s} {value:14.6g} {unit}")
        for note in details["failures"]:
            print(f"{name:20s} FAILED {note}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
