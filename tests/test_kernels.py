"""Tests for the IMDPP dynamics kernels (repro.dynamics.kernels) and initial weights."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.dynamics import kernels
from repro.dynamics.state import ModelData, initial_weights
from repro.params import DEFAULT


def _toy_tensors(n_meta=2, n_items=4, seed=0):
    g = np.random.default_rng(seed)
    s = g.random((n_meta, n_items, n_items))
    s = (s + s.transpose(0, 2, 1)) / 2
    for m in range(n_meta):
        np.fill_diagonal(s[m], 0.0)
    return s


class TestNormalizeRows:
    def test_simplex(self):
        w = kernels.normalize_rows(np.array([[1.0, 3.0], [2.0, 2.0]]))
        assert np.allclose(w.sum(axis=1), 1.0)
        assert np.allclose(w[0], [0.25, 0.75])

    def test_clips_negatives(self):
        w = kernels.normalize_rows(np.array([[-1.0, 1.0]]))
        assert np.allclose(w, [[0.0, 1.0]])

    def test_zero_row_becomes_uniform(self):
        w = kernels.normalize_rows(np.zeros((1, 4)))
        assert np.allclose(w, 0.25)

    @given(arrays(np.float64, (3, 5), elements=st.floats(-2, 2)))
    @settings(max_examples=40, deadline=None)
    def test_always_simplex(self, w):
        out = kernels.normalize_rows(w)
        assert np.allclose(out.sum(axis=-1), 1.0)
        assert (out >= 0).all()


def _toy_model(n_users=10, n_comp=3, n_subs=2, seed=1):
    n_items = 4
    return ModelData(
        n_users=n_users, n_items=n_items, src=[0], dst=[1], base_inf=[0.1],
        s_c=_toy_tensors(n_comp, n_items), s_s=_toy_tensors(n_subs, n_items, seed=1),
        base_pref=np.zeros((n_users, n_items)), importance=np.ones(n_items),
        cost=np.ones((n_users, n_items)), params=DEFAULT, seed=seed,
    )


class TestInitWeights:
    def test_shape_and_simplex(self):
        wc, ws = initial_weights(_toy_model(), np.arange(10))
        assert wc.shape == (10, 3) and ws.shape == (10, 2)
        assert np.allclose(wc.sum(axis=1), 1.0)
        assert np.allclose(ws.sum(axis=1), 1.0)

    def test_deterministic(self):
        a = initial_weights(_toy_model(seed=7), np.arange(5))
        b = initial_weights(_toy_model(seed=7), np.arange(5))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_seed_changes_weights(self):
        a = initial_weights(_toy_model(seed=7), np.arange(5))
        b = initial_weights(_toy_model(seed=8), np.arange(5))
        assert not np.allclose(a[0], b[0])
        assert not np.allclose(a[1], b[1])

    def test_near_uniform(self):
        wc, _ = initial_weights(_toy_model(n_users=100, n_comp=4, seed=0), np.arange(100))
        assert abs(wc.mean() - 0.25) < 0.02


class TestPreference:
    def test_no_adoptions_is_clipped_base(self):
        s_c, s_s = _toy_tensors(), _toy_tensors(seed=1)
        base = np.array([0.01, 0.3, 0.6, 0.9])
        pref = kernels.preference(
            base, np.zeros(4, bool), np.full(2, 0.5), np.full(2, 0.5),
            s_c, s_s, 0.4, 0.4, 0.05,
        )
        assert np.allclose(pref, np.clip(base, 0.05, 1.0))

    def test_complement_raises(self):
        s_c = np.zeros((1, 3, 3))
        s_c[0, 0, 1] = s_c[0, 1, 0] = 0.8
        s_s = np.zeros((1, 3, 3))
        ad = np.array([True, False, False])
        pref = kernels.preference(
            np.full(3, 0.3), ad, np.ones(1), np.ones(1), s_c, s_s, 0.5, 0.5, 0.02
        )
        assert pref[1] == pytest.approx(0.3 + 0.5 * 0.8)
        assert pref[2] == pytest.approx(0.3)

    def test_substitute_lowers(self):
        s_c = np.zeros((1, 3, 3))
        s_s = np.zeros((1, 3, 3))
        s_s[0, 0, 1] = s_s[0, 1, 0] = 0.8
        ad = np.array([True, False, False])
        pref = kernels.preference(
            np.full(3, 0.3), ad, np.ones(1), np.ones(1), s_c, s_s, 0.5, 0.5, 0.02
        )
        assert pref[1] == pytest.approx(max(0.3 - 0.4, 0.02))

    def test_floor_applies(self):
        s_c = np.zeros((1, 2, 2))
        s_s = np.zeros((1, 2, 2))
        s_s[0, 0, 1] = s_s[0, 1, 0] = 1.0
        pref = kernels.preference(
            np.full(2, 0.1), np.array([True, False]), np.ones(1), np.ones(1),
            s_c, s_s, 0.5, 0.9, 0.02,
        )
        assert pref[1] == pytest.approx(0.02)

    def test_batch_matches_scalar(self):
        s_c, s_s = _toy_tensors(3, 6), _toy_tensors(3, 6, seed=2)
        g = np.random.default_rng(3)
        base = g.random((5, 6)) * 0.5
        ad = g.random((5, 6)) > 0.5
        wc = kernels.normalize_rows(g.random((5, 3)))
        ws = kernels.normalize_rows(g.random((5, 3)))
        batch = kernels.preference_batch(base, ad, wc, ws, s_c, s_s, 0.4, 0.4, 0.02)
        for i in range(5):
            one = kernels.preference(
                base[i], ad[i], wc[i], ws[i], s_c, s_s, 0.4, 0.4, 0.02
            )
            assert np.allclose(batch[i], one)


class TestInfluenceStrength:
    def test_empty_sets_give_base(self):
        act = kernels.influence_strength(np.array([0.2]), [0], [0], 0.5, 0.01, 0.95)
        assert act[0] == pytest.approx(0.2)

    def test_jaccard_boost(self):
        act = kernels.influence_strength(np.array([0.2]), [2], [4], 0.5, 0.01, 0.95)
        assert act[0] == pytest.approx(0.2 + 0.5 * 0.5)

    def test_cap(self):
        act = kernels.influence_strength(np.array([0.9]), [9], [9], 1.0, 0.01, 0.95)
        assert act[0] == pytest.approx(0.95)

    def test_floor(self):
        act = kernels.influence_strength(np.array([0.0]), [0], [5], 0.5, 0.01, 0.95)
        assert act[0] == pytest.approx(0.01)

    def test_vectorized(self):
        act = kernels.influence_strength(
            np.full(3, 0.1), [0, 1, 2], [0, 2, 2], 0.4, 0.01, 0.95
        )
        assert act.shape == (3,)
        assert act[2] > act[1] > act[0]


class TestRelevanceRow:
    def test_weighted_combination(self):
        s = _toy_tensors(2, 4)
        w = np.array([0.3, 0.7])
        row = kernels.relevance_row(w, s, 1)
        assert np.allclose(row, 0.3 * s[0, 1] + 0.7 * s[1, 1])

    def test_diagonal_zero(self):
        s = _toy_tensors(2, 4)
        assert kernels.relevance_row(np.ones(2), s, 2)[2] == 0.0


def _new(n_items, *items):
    """One-row new-item indicator ``[1, I]``."""
    row = np.zeros((1, n_items), bool)
    row[0, list(items)] = True
    return row


class TestWeightUpdates:
    def test_gain_hand_example(self):
        s = np.zeros((2, 3, 3))
        s[0, 0, 2] = s[0, 2, 0] = 0.5  # meta 0 relates items 0 and 2
        ad_after = np.array([[True, False, True]])  # owns 0, newly adopted 2
        gains = kernels.weight_gains(ad_after, _new(3, 2), s)
        assert gains.shape == (1, 2)
        assert gains[0, 0] == pytest.approx(0.5)
        assert gains[0, 1] == pytest.approx(0.0)

    def test_update_reinforces_matching_meta(self):
        s_c = np.zeros((2, 3, 3))
        s_c[0, 0, 1] = s_c[0, 1, 0] = 1.0
        s_s = np.zeros((2, 3, 3))
        ad = np.array([[True, True, False]])
        wc, ws = kernels.update_weights(
            np.full((1, 2), 0.5), np.full((1, 2), 0.5), ad, _new(3, 1), s_c, s_s, 0.5
        )
        assert wc[0, 0] > wc[0, 1]  # meta 0 explained the co-adoption
        assert np.allclose(wc.sum(), 1.0)
        assert np.allclose(ws, 0.5)  # no substitutable instances -> unchanged

    def test_no_relevance_no_change(self):
        s = np.zeros((2, 3, 3))
        wc, ws = kernels.update_weights(
            np.array([[0.6, 0.4]]), np.array([[0.3, 0.7]]),
            np.array([[True, False, True]]), _new(3, 2), s, s, 0.5,
        )
        assert np.allclose(wc, [[0.6, 0.4]])
        assert np.allclose(ws, [[0.3, 0.7]])

    def test_two_new_items_symmetric(self):
        # Both new items are reinforced against each other: the gain of
        # the pair is the sum of each one's gain against the same set.
        s = _toy_tensors(2, 4)
        ad = np.array([[False, True, True, False]])
        g12 = kernels.weight_gains(ad, _new(4, 1, 2), s)
        g1, g2 = kernels.weight_gains(ad, _new(4, 1), s), kernels.weight_gains(ad, _new(4, 2), s)
        assert np.allclose(g12, g1 + g2)
        assert g12[0] == pytest.approx(2 * s[:, 1, 2])

    def test_batch_matches_rows(self):
        s_c, s_s = _toy_tensors(3, 6), _toy_tensors(2, 6, seed=2)
        g = np.random.default_rng(4)
        ad = g.random((5, 6)) > 0.4
        new = ad & (g.random((5, 6)) > 0.5)
        wc = kernels.normalize_rows(g.random((5, 3)))
        ws = kernels.normalize_rows(g.random((5, 2)))
        bc, bs = kernels.update_weights(wc, ws, ad, new, s_c, s_s, 0.3)
        for i in range(5):
            rc, rs = kernels.update_weights(
                wc[i:i + 1], ws[i:i + 1], ad[i:i + 1], new[i:i + 1], s_c, s_s, 0.3
            )
            assert np.allclose(bc[i], rc[0]) and np.allclose(bs[i], rs[0])
            # ... and each row is the scalar reference sum over its new items.
            gain = sum(ad[i] @ s_c[:, :, y].T for y in np.flatnonzero(new[i]))
            assert np.allclose(rc[0], kernels.normalize_rows(wc[i] + 0.3 * gain))
