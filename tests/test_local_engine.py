"""Tests for the local Monte-Carlo diffusion engine (repro.diffusion.local)."""
import hashlib

import numpy as np
import pytest

from repro.data.datasets import make_dataset
from repro.diffusion import local
from repro.diffusion.local import _group_seeds, _run_samples, likelihood_pi, simulate
from repro.diffusion.sigma import sigma_from_adopt_t
from repro.dynamics.state import ModelData
from repro.params import DEFAULT


def line_model(p_edge: float, n_items: int = 2, base_pref: float = 1.0) -> ModelData:
    """0 -> 1 -> 2 chain with controllable probabilities."""
    s = np.zeros((1, n_items, n_items))
    return ModelData(
        n_users=3, n_items=n_items,
        src=np.array([0, 1]), dst=np.array([1, 2]),
        base_inf=np.full(2, p_edge), s_c=s, s_s=s.copy(),
        base_pref=np.full((3, n_items), base_pref),
        importance=np.ones(n_items), cost=np.ones((3, n_items)),
        params=DEFAULT, seed=0,
    )


@pytest.fixture(scope="module")
def small():
    return make_dataset("small100").model


class TestDeterministicChains:
    def test_certain_propagation(self):
        m = line_model(p_edge=0.949)  # clipped to cap 0.95... keep below cap
        m = line_model(p_edge=0.94)
        res = simulate(m, [(0, 0, 1)], T=1, n_samples=4)
        # pref=1 (clipped), act=0.94: adoption nearly certain but random;
        # with p close to 1 all 4 samples should reach user 1.
        assert (res.adopt_t[:, 0, 0] == 1).all()

    def test_zero_preference_blocks(self):
        m = line_model(p_edge=0.9, base_pref=0.0)
        # pref floor is 0.02 so adoption is possible but very unlikely;
        # seeds themselves always adopt.
        res = simulate(m, [(0, 0, 1)], T=1, n_samples=8)
        assert (res.adopt_t[:, 0, 0] == 1).all()
        assert res.adopt_t[:, 2, 0].sum() == 0

    def test_seed_always_adopts(self):
        m = line_model(0.5)
        res = simulate(m, [(2, 1, 1)], T=1, n_samples=3)
        assert (res.adopt_t[:, 2, 1] == 1).all()

    def test_isolated_seed_spreads_nothing(self):
        m = line_model(0.9)
        res = simulate(m, [(2, 0, 1)], T=1, n_samples=3)
        assert res.sigma == pytest.approx(1.0)  # only the seed adoption


class TestEngineProperties:
    def test_deterministic(self, small):
        seeds = [(0, 0, 1), (5, 2, 2)]
        a = simulate(small, seeds, T=3, n_samples=8)
        b = simulate(small, seeds, T=3, n_samples=8)
        assert a.sigma == b.sigma
        assert np.array_equal(a.adopt_t, b.adopt_t)

    def test_salt_changes_randomness(self, small):
        seeds = [(0, 0, 1)]
        a = simulate(small, seeds, T=2, n_samples=8, trial_salt=0)
        b = simulate(small, seeds, T=2, n_samples=8, trial_salt=1)
        assert not np.array_equal(a.adopt_t, b.adopt_t)

    def test_more_seeds_more_sigma(self, small):
        few = simulate(small, [(0, 0, 1)], T=2, n_samples=16).sigma
        more = simulate(small, [(0, 0, 1), (1, 0, 1), (2, 1, 1)], T=2, n_samples=16).sigma
        assert more > few

    def test_sigma_by_t_sums_to_sigma(self, small):
        res = simulate(small, [(0, 0, 1), (3, 1, 2)], T=3, n_samples=8)
        assert res.sigma == pytest.approx(res.sigma_by_t.sum())

    def test_sigma_matches_adopt_t(self, small):
        res = simulate(small, [(0, 0, 1), (3, 1, 2)], T=3, n_samples=8)
        assert res.sigma == pytest.approx(
            sigma_from_adopt_t(res.adopt_t, small.importance)
        )

    def test_adoption_absorbing(self, small):
        # Re-seeding an adopted pair adds nothing.
        res = simulate(small, [(0, 0, 1), (0, 0, 2)], T=2, n_samples=8)
        assert (res.adopt_t[:, 0, 0] == 1).all()

    def test_invalid_timing_rejected(self, small):
        with pytest.raises(ValueError):
            simulate(small, [(0, 0, 7)], T=3, n_samples=2)

    @pytest.mark.parametrize(
        "seed", [(0, -2, 1), (-1, 0, 1), (100, 0, 1), (0, 8, 1)],
        ids=["negative_item", "negative_user", "user_out_of_range", "item_out_of_range"],
    )
    def test_invalid_seed_id_rejected(self, small, seed):
        with pytest.raises(ValueError, match="outside"):
            simulate(small, [seed], T=1, n_samples=1)

    def test_T_above_uint8_rejected(self, small):
        with pytest.raises(ValueError, match="255"):
            simulate(small, [(0, 0, 1)], T=256, n_samples=1)
        assert simulate(small, [(0, 0, 255)], T=255, n_samples=1).adopt_t.max() == 255

    def test_duplicate_seed_counts_once(self, small):
        once = simulate(small, [(0, 0, 1), (5, 2, 1)], T=2, n_samples=4)
        twice = simulate(small, [(5, 2, 1), (0, 0, 1), (0, 0, 1)], T=2, n_samples=4)
        assert np.array_equal(once.adopt_t, twice.adopt_t)
        assert np.array_equal(once.wc, twice.wc)

    def test_empty_seed_group(self, small):
        res = simulate(small, [], T=2, n_samples=2)
        assert res.sigma == 0.0

    def test_frozen_state_never_changes(self, small):
        from repro.dynamics.state import init_state

        res = simulate(small, [(0, 0, 1), (1, 1, 1)], T=2, n_samples=4, frozen=True)
        st0 = init_state(small, 4)
        assert np.array_equal(res.state.wc, st0.wc)
        assert np.array_equal(res.state.ws, st0.ws)

    def test_dynamic_state_changes(self, small):
        from repro.dynamics.state import init_state

        res = simulate(small, [(0, 0, 1), (0, 1, 1)], T=2, n_samples=4)
        st0 = init_state(small, 4)
        assert not np.allclose(res.state.wc, st0.wc)

    def test_final_weights_move_only_for_adopters(self, small):
        from repro.dynamics.state import init_state

        res = simulate(small, [(0, 0, 1), (0, 1, 1), (3, 2, 1), (3, 4, 2)], T=2, n_samples=4)
        st0 = init_state(small, 4)
        moved = (res.adopt_t > 0).any(axis=2)
        assert np.array_equal(res.state.adopted, res.adopt_t > 0)
        assert np.array_equal(res.wc[~moved], st0.wc[~moved])
        assert np.array_equal(res.ws[~moved], st0.ws[~moved])
        assert not np.allclose(res.wc[moved], st0.wc[moved])

    def test_importance_weighting(self):
        m = line_model(0.0, n_items=2)
        m.importance = np.array([1.0, 0.25])
        res = simulate(m, [(0, 0, 1), (1, 1, 1)], T=1, n_samples=2)
        assert res.sigma == pytest.approx(1.25)


class TestTruncation:
    def test_max_steps_one_truncates(self):
        m = make_dataset("small100", params=DEFAULT.with_(max_steps=1)).model
        seeds = [(0, 0, 1), (5, 2, 1), (17, 1, 1)]
        res = simulate(m, seeds, T=1, n_samples=8)
        # With one step, a promotion is truncated exactly when step 1
        # produced an adoption beyond the seeds.
        spread = (res.adopt_t == 1).sum(axis=(1, 2)) > len(seeds)
        assert res.truncated == spread.sum() > 0

    def test_counts_sample_promotion_pairs(self):
        m = make_dataset("small100", params=DEFAULT.with_(max_steps=1)).model
        res = simulate(m, [(0, 0, 1), (5, 2, 2), (17, 1, 3)], T=3, n_samples=8)
        assert 0 < res.truncated <= 8 * 3

    def test_no_truncation_when_cascades_die_out(self, small):
        res = simulate(small, [(0, 0, 1), (5, 2, 2)], T=3, n_samples=8)
        assert res.truncated == 0


def _log_sha(res) -> str:
    return hashlib.sha256(np.ascontiguousarray(res.adopt_t, dtype=np.int16).tobytes()).hexdigest()


GOLDEN_SEEDS = [(0, 0, 1), (5, 2, 2), (17, 1, 2), (42, 3, 3)]


class TestGoldenLogs:
    """Adoption logs pinned bit for bit: any change to the engine's
    arithmetic, draw keys or step order that moves one adoption fails
    here. The hashes are those of the contiguous int16 ``adopt_t``."""

    def test_dynamic(self, small):
        res = simulate(small, GOLDEN_SEEDS, T=3, n_samples=4)
        assert _log_sha(res) == "ab319671259ab46e99a3d6e4d23247f5275c8291dee9cc629601e137568a1dc1"

    def test_frozen(self, small):
        res = simulate(small, GOLDEN_SEEDS, T=3, n_samples=4, frozen=True)
        assert _log_sha(res) == "334674205e6a7117ca0677f419b530503c2483aef8de7cf872774151112374bc"

    def test_subgraph(self, small):
        sub = small.subgraph(np.arange(40, 100))
        res = simulate(sub, [(0, 0, 1), (5, 2, 2), (2, 1, 2), (30, 3, 3)], T=3, n_samples=4)
        assert _log_sha(res) == "5363cf8a8b2b78bbf175656f6431b859b00fecb641dad6307ec28df94b105d21"

    def test_douban_cascade(self):
        m = make_dataset("douban_lite").model
        users = np.argsort(-m.out_deg, kind="stable")[:4]
        items = np.argsort(-m.importance, kind="stable")[:2]
        seeds = [(int(u), int(items[i % 2]), 1 + i // 2) for i, u in enumerate(users)]
        res = simulate(m, seeds, T=2, n_samples=2, trial_salt=5)
        assert np.count_nonzero(res.adopt_t) == 372  # real cascades, extra adoptions included
        assert _log_sha(res) == "37e300f5992cd3d3412e8f66dbd8b150170676fa7e3300148dbd04cb17e7b780"


def _engine_case(name):
    """(model, by_t, T, frozen, salt) of one fixed run on small100."""
    small = make_dataset("small100").model
    if name == "subgraph":
        model, seeds = small.subgraph(np.arange(40, 100)), [(0, 0, 1), (5, 2, 2), (30, 3, 3)]
    elif name == "max_steps_1":  # truncates, so the counts are compared too
        model = make_dataset("small100", params=DEFAULT.with_(max_steps=1)).model
        seeds = GOLDEN_SEEDS
    else:
        model, seeds = small, GOLDEN_SEEDS
    return model, _group_seeds(model, seeds, 3), 3, name == "frozen", 2


def _stack(runs):
    """``(adopt_t, w_moved, truncated)`` of ``_run_samples`` calls on
    consecutive id blocks, as if made by one call."""
    return (
        np.concatenate([r[0] for r in runs]),
        tuple(np.concatenate([r[2][k] for r in runs]) for k in (0, 1)),
        sum(r[3] for r in runs),
    )


def _assert_same_run(got, want):
    assert np.array_equal(got[0], want[0])
    assert all(np.array_equal(g, w) for g, w in zip(got[1], want[1]))
    assert got[2] == want[2]


class TestSampleBlocks:
    """All samples of a block move through each ζ-step together; no
    sample's rows may depend on which others share its block or chunk."""

    CASES = ["dynamic", "frozen", "subgraph", "max_steps_1"]

    @pytest.mark.parametrize("name", CASES)
    def test_batched_equals_per_id_runs(self, name):
        model, by_t, T, frozen, salt = _engine_case(name)
        full = _run_samples(model, by_t, T, range(6), frozen, salt)
        per_id = _stack([_run_samples(model, by_t, T, [i], frozen, salt) for i in range(6)])
        _assert_same_run(_stack([full]), per_id)
        assert full[0].any()
        if name == "max_steps_1":
            assert full[3] > 0

    @pytest.mark.parametrize("rows, chunk", [(1, 1), (350, 7)], ids=["one", "odd"])
    def test_golden_logs_at_any_block_and_chunk_size(self, small, monkeypatch, rows, chunk):
        # rows=350 splits small100's 4 samples into blocks of 3 and 1.
        monkeypatch.setattr(local, "BLOCK_ROWS", rows)
        monkeypatch.setattr(local, "CHUNK", chunk)
        golden = TestGoldenLogs()
        golden.test_dynamic(small)
        golden.test_frozen(small)
        golden.test_subgraph(small)
        golden.test_douban_cascade()

    @pytest.mark.parametrize("name", CASES)
    def test_uneven_id_blocks_give_the_same_rows(self, monkeypatch, name):
        """The Spark evaluator's shards: any split of the ids into blocks."""
        model, by_t, T, frozen, salt = _engine_case(name)
        full = _run_samples(model, by_t, T, range(8), frozen, salt)
        monkeypatch.setattr(local, "BLOCK_ROWS", 250)  # 2 small100 samples a block
        shards = [[0, 1, 2], [3], [4, 5, 6, 7]]
        runs = [_run_samples(model, by_t, T, np.array(ids), frozen, salt) for ids in shards]
        _assert_same_run(_stack([full]), _stack(runs))


class TestExtraAdoption:
    def test_ext_requires_relevance(self):
        # With zero relevance tensors no extra adoptions can happen.
        m = line_model(0.94)
        res = simulate(m, [(0, 0, 1)], T=1, n_samples=8)
        assert res.adopt_t[:, :, 1].sum() == 0

    def test_ext_triggers_with_strong_complement(self):
        m = line_model(0.94)
        m.s_c[0, 0, 1] = m.s_c[0, 1, 0] = 1.0
        res = simulate(m, [(0, 0, 1)], T=2, n_samples=32)
        # u=1 is promoted item 0 with p~0.9; P_ext ~ ext_scale*0.9*1.0;
        # some samples must extra-adopt item 1.
        assert res.adopt_t[:, 1, 1].sum() > 0


class TestLikelihoodPi:
    def test_nonnegative(self, small):
        res = simulate(small, [(0, 0, 1)], T=1, n_samples=4)
        assert likelihood_pi(small, res.state) >= 0.0

    def test_zero_without_adoptions(self, small):
        from repro.dynamics.state import init_state

        assert likelihood_pi(small, init_state(small, 2)) == 0.0

    def test_subset_of_users(self, small):
        res = simulate(small, [(0, 0, 1), (1, 1, 1)], T=1, n_samples=4)
        all_users = likelihood_pi(small, res.state)
        some = likelihood_pi(small, res.state, users=np.arange(10))
        assert 0.0 <= some <= all_users
