import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import isingspec
from isingspec import (
    CapacityError,
    DegenerateInputError,
    ParameterError,
    coherent_state,
    fock_superposition,
    mean_photon_number,
)


class TestFockSuperposition:
    def test_equal_superposition(self):
        state = fock_superposition([1, 1])
        np.testing.assert_allclose(state.amplitudes, [1 / math.sqrt(2)] * 2)
        assert state.truncation_error == 0.0

    def test_vacuum_has_no_weight(self):
        state = fock_superposition([1])
        assert mean_photon_number(state) == 0.0
        np.testing.assert_allclose(state.branch_weights(), [0.0])

    def test_pure_two_photon_state(self):
        state = fock_superposition([0, 0, 1])
        np.testing.assert_allclose(state.branch_weights(), [0.0, 0.0, 2.0])

    def test_rejects_all_zero(self):
        with pytest.raises(DegenerateInputError):
            fock_superposition([0, 0, 0])

    def test_normalizes_arbitrary_input(self):
        state = fock_superposition([3j, 4])
        assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("coeffs", [[1, math.nan], [1, math.inf], [complex(1, -math.inf)]])
    def test_rejects_non_finite(self, coeffs):
        with pytest.raises(ParameterError, match="coeffs must be finite"):
            fock_superposition(coeffs)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_norm_out_of_double_range(self, scale):
        # |c|^2 overflows or underflows although every coefficient is finite
        state = fock_superposition([scale, scale])
        np.testing.assert_array_equal(state.amplitudes, fock_superposition([1, 1]).amplitudes)
        np.testing.assert_allclose(state.amplitudes, [2**-0.5, 2**-0.5], rtol=1e-15)


class TestCoherentState:
    def test_zero_amplitude_is_vacuum(self):
        state = coherent_state(0.0)
        assert state.n_max == 0
        assert state.truncation_error == 0.0

    def test_unit_alpha_mean_photon_number(self):
        state = coherent_state(1.0, tail_tol=1e-12)
        assert mean_photon_number(state) == pytest.approx(1.0, abs=1e-11)

    def test_unit_alpha_truncation_golden(self):
        # smallest cut with photon-weighted Poisson tail below 1e-12; the
        # independent tail sums are 4.5e-12 at 14 and 3.0e-13 at 15
        state = coherent_state(1.0, tail_tol=1e-12)
        assert state.n_max == 15

        def weighted_tail(n_max):
            return sum(math.exp(-1.0) / math.factorial(j) for j in range(n_max, n_max + 40))

        assert weighted_tail(state.n_max) < 1e-12
        assert weighted_tail(state.n_max - 1) >= 1e-12

    def test_normalization_including_tail(self):
        for alpha in (0.5, 1.0, 2.0, 1.5j):
            state = coherent_state(alpha, tail_tol=1e-10)
            total = np.sum(np.abs(state.amplitudes) ** 2) + state.truncation_error
            assert total == pytest.approx(1.0, abs=1e-12)

    @given(
        re=st.floats(-2.0, 2.0),
        im=st.floats(-2.0, 2.0),
    )
    def test_amplitude_recurrence(self, re, im):
        alpha = complex(re, im)
        if abs(alpha) < 1e-3:
            return
        state = coherent_state(alpha, tail_tol=1e-10)
        amps = state.amplitudes
        for n in range(len(amps) - 1):
            expected = amps[n] * alpha / math.sqrt(n + 1)
            assert abs(amps[n + 1] - expected) <= 1e-13 * max(abs(expected), 1e-30)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(1, math.nan)])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ParameterError, match="alpha must be finite"):
            coherent_state(alpha)

    def test_rejects_bad_tail_tol(self):
        with pytest.raises(ParameterError):
            coherent_state(1.0, tail_tol=0.0)
        with pytest.raises(ParameterError):
            coherent_state(1.0, tail_tol=1.5)


MEANS_OF_COHERENT_STATES = """
import json, sys

import isingspec as iq

alphas = json.loads(sys.argv[1])
print(json.dumps([iq.mean_photon_number(iq.coherent_state(a)) for a in alphas]))
"""


class TestCoherentStateLimits:
    def test_large_alpha_returns(self):
        # the 1 - cdf tail test alone never ends for these at the default
        # tail_tol: its rounding floor, near |alpha|^2 * 1e-16, sits above
        # 1e-12 once the amplitudes stop moving the cdf.  A fresh interpreter
        # with a timeout turns a hang into a failure.
        alphas = [11.6, 12.4, 32.0, 37.6]
        env = dict(os.environ)
        src = str(Path(isingspec.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH", "")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", MEANS_OF_COHERENT_STATES, json.dumps(alphas)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        means = json.loads(proc.stdout)
        assert means == pytest.approx([a * a for a in alphas], rel=1e-12)

    @pytest.mark.parametrize("alpha", [38.59, 1e200])
    def test_subnormal_vacuum_amplitude_is_capacity_error(self, alpha):
        # exp(-|alpha|^2 / 2) is below the smallest normal double past
        # |alpha|^2 ~ 1416.8; at 1e200 the square itself overflows
        with pytest.raises(CapacityError, match="smallest normal double"):
            coherent_state(alpha)


class TestMeanPhotonNumber:
    def test_equal_superposition(self):
        assert mean_photon_number(fock_superposition([1, 1])) == pytest.approx(0.5)

    def test_phase_invariance(self):
        a = fock_superposition([1, 1j, -0.5])
        b = fock_superposition([np.exp(1j * 0.7) * c for c in a.amplitudes])
        assert mean_photon_number(a) == pytest.approx(mean_photon_number(b), abs=1e-15)
