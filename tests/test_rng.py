"""lelab._rng against numpy 2.x's default_rng(seed).normal, bit for bit."""

import math
from collections import Counter

import numpy as np
import pytest

from lelab import _rng
from lelab._rng import default_rng
from lelab.basis import build_basis
from lelab.states import random_density_matrix, random_effectively_pure_state, random_pure_state

# 2**200 + 12345 has seven 32-bit words, more than SeedSequence's pool of four
SEEDS = [0, 1, 11, 2**31 - 1, 2**32, 2**64, 2**200 + 12345]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", [(0,), (7,), (3, 4)])
def test_normal_equals_numpy_bit_for_bit(seed, shape):
    ours, theirs = default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):  # the second call continues the stream
        a, b = ours.normal(size=shape), theirs.normal(size=shape)
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape == shape
        assert a.tobytes() == b.tobytes()


class _CountingMath:
    """Stands in for ``math`` inside lelab._rng and counts its calls."""

    def __init__(self):
        self.calls = Counter()

    def __getattr__(self, name):
        f = getattr(math, name)

        def counted(*args):
            self.calls[name] += 1
            return f(*args)

        return counted


def test_a_long_stream_takes_the_wedge_and_the_tail(monkeypatch):
    counting = _CountingMath()
    monkeypatch.setattr(_rng, "math", counting)
    n = 200_000
    a = default_rng(2**200 + 12345).normal(size=(n,))
    assert a.tobytes() == np.random.default_rng(2**200 + 12345).normal(size=(n,)).tobytes()
    # the wedge test is the one exp; the tail beyond r the one log1p, and
    # only the tail returns a value beyond r (strip 0's fast path stays
    # below ki[0] * wi[0] = r)
    assert _rng._KI[0] * _rng._WI[0] <= _rng._NOR_R
    assert counting.calls["exp"] > 0 and counting.calls["log1p"] > 0
    assert (np.abs(a) > _rng._NOR_R).sum() > 0


def test_random_states_are_identical_with_either_generator():
    basis = build_basis(1, 1.0)
    for seed in (0, 11, 2**64):
        psi = [random_pure_state(17, g).amplitudes for g in (default_rng(seed), np.random.default_rng(seed))]
        rho = [random_density_matrix(9, g, rank=3).matrix
               for g in (default_rng(seed), np.random.default_rng(seed))]
        eps = [random_effectively_pure_state(basis, g).factor
               for g in (default_rng(seed), np.random.default_rng(seed))]
        for ours, theirs in (psi, rho, eps):
            assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("seed,error", [
    (-1, ValueError),
    (-(2**70), ValueError),
    (True, TypeError),
    (False, TypeError),
    (1.0, TypeError),
    (1.5, TypeError),
    ("3", TypeError),
    (None, TypeError),
    ([1, 2], TypeError),
])
def test_default_rng_refuses_what_is_not_an_int_at_least_zero(seed, error):
    with pytest.raises(error):
        default_rng(seed)


def test_a_numpy_integer_seed_is_taken_as_its_value():
    a = default_rng(np.int64(11)).normal(size=(4,))
    assert a.tobytes() == np.random.default_rng(11).normal(size=(4,)).tobytes()
