"""Tests for ModelData/WorldState and personal/average relevance."""
import numpy as np
import pytest

from repro.data.datasets import make_dataset
from repro.dynamics.state import ModelData, init_state, initial_weights
from repro.kg.relevance import average_relevance, personal_relevance
from repro.params import DEFAULT


def tiny_model(n_users=6, n_items=3, seed=5) -> ModelData:
    src = np.array([0, 0, 1, 2, 3, 4])
    dst = np.array([1, 2, 2, 3, 4, 5])
    g = np.random.default_rng(seed)
    s = g.random((2, n_items, n_items))
    s = (s + s.transpose(0, 2, 1)) / 2
    for m in range(2):
        np.fill_diagonal(s[m], 0)
    return ModelData(
        n_users=n_users, n_items=n_items, src=src, dst=dst,
        base_inf=np.full(6, 0.5), s_c=s, s_s=s[::-1].copy(),
        base_pref=np.full((n_users, n_items), 0.3),
        importance=np.linspace(0.5, 1.0, n_items),
        cost=np.ones((n_users, n_items)), params=DEFAULT, seed=seed,
    )


class TestModelData:
    def test_csr_out_edges(self):
        m = tiny_model()
        assert m.out_deg[0] == 2
        sl = m.out_edges(0)
        assert set(m.dst[sl]) == {1, 2}

    def test_degrees(self):
        m = tiny_model()
        assert m.in_deg[2] == 2
        assert m.out_deg[5] == 0

    def test_edges_sorted_even_if_input_unsorted(self):
        m = tiny_model()
        shuffled = ModelData(
            n_users=m.n_users, n_items=m.n_items,
            src=m.src[::-1].copy(), dst=m.dst[::-1].copy(),
            base_inf=m.base_inf[::-1].copy(), s_c=m.s_c, s_s=m.s_s,
            base_pref=m.base_pref, importance=m.importance,
            cost=m.cost, params=DEFAULT, seed=5,
        )
        assert np.array_equal(shuffled.src, m.src)
        assert np.array_equal(shuffled.dst, m.dst)

    def test_subgraph_keeps_internal_edges_only(self):
        m = tiny_model()
        sub = m.subgraph(np.array([0, 1, 2]))
        assert sub.n_users == 3
        # Edges 0->1, 0->2, 1->2 survive; 2->3 is dropped.
        assert sub.n_edges == 3
        assert np.array_equal(sub.orig_users, [0, 1, 2])

    def test_subgraph_restricts_user_arrays(self):
        m = tiny_model()
        sub = m.subgraph(np.array([3, 5]))
        assert sub.base_pref.shape == (2, m.n_items)
        assert np.array_equal(sub.orig_users, [3, 5])

    def test_subgraph_shares_item_data(self):
        m = tiny_model()
        sub = m.subgraph(np.array([1, 2]))
        assert np.array_equal(sub.s_c, m.s_c)
        assert np.array_equal(sub.importance, m.importance)


class TestWorldState:
    def test_init_shapes(self):
        m = tiny_model()
        st = init_state(m, 4)
        assert st.adopted.shape == (4, 6, 3)
        assert not st.adopted.any()
        assert st.wc.shape == (4, 6, 2)
        assert np.allclose(st.wc.sum(axis=2), 1.0)

    def test_samples_start_identical(self):
        st = init_state(tiny_model(), 3)
        assert np.array_equal(st.wc[0], st.wc[1])

    def test_subgraph_users_keep_their_weights(self):
        m = tiny_model()
        full = init_state(m, 1)
        sub = m.subgraph(np.array([2, 4]))
        st = init_state(sub, 1)
        assert np.allclose(st.wc[0, 0], full.wc[0, 2])
        assert np.allclose(st.wc[0, 1], full.wc[0, 4])
        assert np.allclose(st.ws[0], full.ws[0, [2, 4]])
        wc, ws = initial_weights(sub, [1, 0])
        assert np.array_equal(wc, full.wc[0, [4, 2]])
        assert np.array_equal(ws, full.ws[0, [4, 2]])

    def test_copy_independent(self):
        st = init_state(tiny_model(), 1)
        cp = st.copy()
        cp.adopted[0, 0, 0] = True
        assert not st.adopted[0, 0, 0]


class TestRelevance:
    def test_personal_relevance_linear(self):
        m = tiny_model()
        r = personal_relevance(np.array([1.0, 0.0]), m.s_c)
        assert np.allclose(r, m.s_c[0])

    def test_average_relevance_uniform_population(self):
        m = tiny_model()
        w = np.tile(np.array([0.25, 0.75]), (2, 6, 1))
        r = average_relevance(w, m.s_c)
        assert np.allclose(r, 0.25 * m.s_c[0] + 0.75 * m.s_c[1])

    def test_average_relevance_subset(self):
        m = tiny_model()
        w = np.zeros((1, 6, 2))
        w[0, 0] = [1.0, 0.0]
        w[0, 1] = [0.0, 1.0]
        r = average_relevance(w, m.s_c, users=np.array([0]))
        assert np.allclose(r, m.s_c[0])

    def test_average_relevance_empty(self):
        m = tiny_model()
        r = average_relevance(np.zeros((1, 6, 2)), m.s_c, users=np.array([], dtype=int))
        assert np.allclose(r, 0.0)

    def test_dataset_builds_consistent_tensors(self):
        ds = make_dataset("small100")
        # Every nonzero of the long table appears in the tensor.
        for row in ds.relevance.head(20).itertuples():
            t = ds.model.s_c if row.kind == "C" else ds.model.s_s
            assert t[row.meta, row.x, row.y] == pytest.approx(row.s)
