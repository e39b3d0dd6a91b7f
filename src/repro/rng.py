"""Stateless, counter-based randomness shared by both diffusion engines.

Every Bernoulli draw in the simulator is a pure function of a tuple of
integer keys (seed, sample, promotion, step, actor, target, item, tag).
Both the local numpy engine and the Spark engine call the *same*
functions here, so given the same keys they see the same uniforms.
That buys two things:

* the Spark dataflow can be tested for **exact equality** against the
  local reference engine, and
* marginal-gain estimates (sigma with vs. without a candidate seed) use
  common random numbers, which slashes Monte-Carlo variance.

The mix is SplitMix64 (Steele et al., "Fast splittable pseudorandom
number generators"), applied over a fold of the keys. All arithmetic is
uint64 with wraparound, vectorized over numpy arrays.
"""
from __future__ import annotations

import numpy as np

_GOLDEN_INT = 0x9E3779B97F4A7C15
_MIX1_INT = 0xBF58476D1CE4E5B9
_MIX2_INT = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
_START = 0x8000000000000000
_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX1 = np.uint64(_MIX1_INT)
_MIX2 = np.uint64(_MIX2_INT)
_U53 = float(1 << 53)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array (or scalar)."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _mix64_int(z: int) -> int:
    """:func:`_mix64` on a Python int in ``[0, 2**64)``."""
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _MASK64
    return z ^ (z >> 31)


def fold(*keys, acc=None) -> np.ndarray:
    """Fold integer keys (scalars or broadcastable arrays) into uint64.

    Each key is absorbed with the golden-ratio increment then mixed, so
    distinct key tuples land far apart even when keys are small ints.
    ``acc`` resumes from an earlier fold: ``fold(*b, acc=fold(*a))`` is
    ``fold(*a, *b)``, so a key prefix shared by many draws is folded once.

    Scalar keys are folded as Python ints mod 2**64 until the first
    array key; from there on every operation is on uint64 arrays, which
    wrap without a warning, so the numpy error state is never touched.
    """
    acc = _START if acc is None else acc
    if np.ndim(acc) == 0:
        acc = int(acc)
    for k in keys:
        if not isinstance(acc, int):
            acc = _mix64(acc + _GOLDEN + np.asarray(k, dtype=np.uint64))
        elif np.ndim(k) == 0:
            acc = _mix64_int((acc + _GOLDEN_INT + int(k)) & _MASK64)
        else:  # the first array key
            acc = np.uint64((acc + _GOLDEN_INT) & _MASK64) + np.asarray(k, dtype=np.uint64)
            acc = _mix64(acc)
    return np.uint64(acc) if isinstance(acc, int) else acc


def u01(*keys, acc=None) -> np.ndarray:
    """Uniform draws in [0, 1) keyed by the integer tuple.

    Broadcasts over array keys; returns float64 with 53 random bits.
    ``acc`` is a folded key prefix, as in :func:`fold`.
    """
    bits = fold(*keys, acc=acc) >> np.uint64(11)
    return bits.astype(np.float64) / _U53


def bernoulli(p, *keys) -> np.ndarray:
    """Vectorized Bernoulli(p) trials keyed by the integer tuple."""
    return u01(*keys) < np.asarray(p, dtype=np.float64)
