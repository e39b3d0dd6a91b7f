"""Tests for the stateless counter-based RNG (repro.rng)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import bernoulli, fold, u01


class TestFold:
    def test_deterministic(self):
        assert fold(1, 2, 3) == fold(1, 2, 3)

    def test_distinct_keys_distinct_values(self):
        vals = {int(fold(a, b)) for a in range(20) for b in range(20)}
        assert len(vals) == 400

    def test_order_sensitive(self):
        assert fold(1, 2) != fold(2, 1)

    def test_arity_sensitive(self):
        assert fold(1) != fold(1, 0)

    def test_broadcasts_over_arrays(self):
        a = np.arange(5)
        out = fold(7, a)
        assert out.shape == (5,)
        assert len(set(out.tolist())) == 5

    def test_matrix_broadcast(self):
        out = fold(3, np.arange(4)[:, None], np.arange(6)[None, :])
        assert out.shape == (4, 6)

    def test_dtype_uint64(self):
        assert fold(1).dtype == np.uint64

    def test_acc_resumes_a_prefix(self):
        assert fold(4, 5, acc=fold(1, 2, 3)) == fold(1, 2, 3, 4, 5)
        assert fold(acc=fold(1, 2)) == fold(1, 2)


class TestU01Prefix:
    """``u01(y, acc=fold(*prefix))`` is exactly ``u01(*prefix, y)``."""

    def test_scalar_keys(self):
        prefix = (7, 21, 3, 11, 2, 1, 40, 41, 5)
        for y in range(8):
            assert u01(y, acc=fold(*prefix)) == u01(*prefix, y)

    def test_broadcast_keys(self):
        src, dst, x = np.arange(6), np.arange(6)[::-1] * 3, np.arange(6) % 4
        ys = np.arange(10)[None, :]
        acc = fold(7, 21, 0, 2, 1, 3, src, dst, x)
        want = u01(7, 21, 0, 2, 1, 3, src[:, None], dst[:, None], x[:, None], ys)
        assert np.array_equal(u01(ys, acc=acc[:, None]), want)
        # Gathered (sparse) draws equal the matching dense entries.
        er, ey = np.nonzero(np.arange(60).reshape(6, 10) % 3 == 0)
        assert np.array_equal(u01(ey, acc=acc[er]), want[er, ey])


class TestU01:
    def test_range(self):
        v = u01(0, np.arange(10_000))
        assert (v >= 0).all() and (v < 1).all()

    def test_mean_near_half(self):
        v = u01(42, np.arange(100_000))
        assert abs(v.mean() - 0.5) < 0.01

    def test_uniformity_deciles(self):
        v = u01(9, np.arange(100_000))
        counts, _ = np.histogram(v, bins=10, range=(0, 1))
        assert counts.min() > 9_000 and counts.max() < 11_000

    def test_deterministic(self):
        assert u01(1, 2, 3) == u01(1, 2, 3)

    def test_key_independence(self):
        # Adjacent keys must be decorrelated.
        a = u01(0, np.arange(50_000))
        b = u01(0, np.arange(50_000) + 1)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.02

    @given(st.integers(0, 2**40), st.integers(0, 2**40))
    @settings(max_examples=50, deadline=None)
    def test_always_in_unit_interval(self, a, b):
        v = float(u01(a, b))
        assert 0.0 <= v < 1.0


class TestBernoulli:
    def test_p_zero_never(self):
        assert not bernoulli(0.0, 0, np.arange(1000)).any()

    def test_p_one_always(self):
        assert bernoulli(1.0, 0, np.arange(1000)).all()

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_rate_matches_p(self, p):
        hits = bernoulli(p, 5, np.arange(50_000))
        assert abs(hits.mean() - p) < 0.01

    def test_vector_p(self):
        p = np.linspace(0, 1, 11)
        out = bernoulli(p, 1, np.arange(11))
        assert out.shape == (11,)
