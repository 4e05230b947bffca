"""The numpy CSV formatter against the row-wise %.17g writer it replaces."""

import json
import sys
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from isingspec import _csvformat
from isingspec._csvformat import format_rows
from isingspec.cli import main


def row_wise(block: np.ndarray) -> bytes:
    return b"".join(b",".join(b"%.17g" % v for v in row) + b"\n" for row in block.tolist())


def assert_matches(values, columns: int) -> None:
    values = np.asarray(values, dtype=float)
    block = values[: values.size - values.size % columns].reshape(-1, columns)
    assert bytes(format_rows(block)) == row_wise(block)


POWERS = np.array([float(f"1e{k}") for k in range(-300, 301)])
# the double nearest 10^k lies below it, by less than half a unit in the
# 17th digit, so its 17 digits round up to 10^17 (1e-14 is one)
ROUND_UP = [
    v
    for k, v in zip(range(-300, 301), POWERS)
    if 0 < (Fraction(10) ** k - Fraction(v)) * Fraction(10) ** (17 - k) < Fraction(1, 2)
]
EDGES = np.concatenate(
    [
        [0.0, -0.0, 1e16, 1e17, 99999999999999999.0, 9.9999999999999e-5, 1e-4, 1e-5],
        [5e-324, 2.2250738585072014e-308, sys.float_info.max],
        [np.nextafter(1e280, 0.0), 1e280, np.nextafter(1e280, np.inf)],
        [np.nextafter(1e-280, 0.0), 1e-280, np.nextafter(1e-280, np.inf)],
        POWERS,
        np.nextafter(POWERS, np.inf),
        np.nextafter(POWERS, 0.0),
        ROUND_UP,
    ]
)
# odd multiples of 2^-18 in [0.1, 1) have 18 significant digits, the last a
# 5: each is an exact decimal tie at 17 digits
TIES = np.arange(1, 1 << 18, 2) * 2.0**-18
TIES = TIES[(TIES >= 0.1) & (TIES < 1.0)]


class TestFormatRows:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([1, 2, 4]), st.lists(st.floats(), max_size=64))
    def test_matches_row_wise_on_any_floats(self, columns, values):
        assert_matches(values, columns)

    def test_matches_row_wise_on_random_bit_patterns(self):
        rng = np.random.default_rng(20)
        bits = rng.integers(0, 1 << 64, 200_000, dtype=np.uint64, endpoint=False)
        assert_matches(bits.view(np.float64), 2)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_row_wise_on_edges(self, sign):
        assert 1e-14 in ROUND_UP
        assert_matches(sign * EDGES, 1)

    def test_matches_row_wise_on_exact_ties(self):
        assert_matches(TIES, 2)

    def test_matches_row_wise_when_log10_misses_by_one(self, monkeypatch):
        # the exponent is trusted only inside the exact bounds: a value whose
        # log10 is off by one either way must fall back, not misprint
        rng = np.random.default_rng(21)
        values = rng.standard_normal(3000) * 10.0 ** rng.uniform(-30.0, 30.0, 3000)
        shift = np.resize([-1.0, 0.0, 1.0], values.size)
        log10 = np.log10
        monkeypatch.setattr(_csvformat.np, "log10", lambda a: log10(a) + shift)
        assert_matches(values, 1)


def test_readme_correlation_formats_almost_every_value_in_numpy(tmp_path, monkeypatch):
    # a change that sent every value through %.17g would keep the bytes and
    # lose the speed; of these 262,144 values none needs it today
    calls = []

    def counted(value):
        calls.append(value)
        return b"%.17g" % value

    monkeypatch.setattr(_csvformat, "_fallback", counted)
    cfg = {
        "chain": {"n_sites": 8, "lambda": 1.0, "g_over_b": 0.08125, "gamma_over_b": 0.0039},
        "probe": {"type": "fock", "coefficients": [1, 1]},
        "time_grid": "auto",
        "output": str(tmp_path / "out"),
    }
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    result = CliRunner().invoke(main, ["correlation", "--config", str(tmp_path / "run.json")])
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "out" / "correlation_lambda_1.csv").read_bytes().count(b"\n")
    assert rows > 10_000
    assert len(calls) <= 8, calls
