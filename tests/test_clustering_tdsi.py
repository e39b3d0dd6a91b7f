"""Tests for TMI clustering/grouping and TDSI machinery."""
import numpy as np
import pytest

from repro.core.clustering import (
    antagonistic_extent,
    group_and_order,
    identify_target_markets,
    initial_average_relevance,
    TargetMarket,
)
from repro.core.tdsi import MarketEvaluator, substantial_influence, timing_window
from repro.data.datasets import make_dataset
from repro.params import DEFAULT


@pytest.fixture(scope="module")
def small():
    return make_dataset("small100").model


class TestIdentifyTargetMarkets:
    def test_empty_nominees(self, small):
        assert identify_target_markets(small, [], None, None) == []

    def test_markets_cover_all_nominees(self, small):
        rc, rs = initial_average_relevance(small)
        noms = [(0, 0), (1, 0), (50, 1), (99, 2)]
        markets = identify_target_markets(small, noms, rc, rs)
        covered = [n for mk in markets for n in mk.nominees]
        assert sorted(covered) == sorted(noms)

    def test_market_users_include_nominee_users(self, small):
        rc, rs = initial_average_relevance(small)
        markets = identify_target_markets(small, [(3, 0), (7, 1)], rc, rs)
        for mk in markets:
            for u, _ in mk.nominees:
                assert u in mk.users

    def test_diameter_capped(self, small):
        rc, rs = initial_average_relevance(small)
        markets = identify_target_markets(small, [(0, 0)], rc, rs)
        assert 1 <= markets[0].diameter <= small.params.d_cap

    def test_cluster_capacity(self, small):
        rc, rs = initial_average_relevance(small)
        noms = [(u, 0) for u in range(9)]
        markets = identify_target_markets(small, noms, rc, rs)
        cap = max(2, -(-len(noms) // 3))
        assert all(len(mk.nominees) <= cap for mk in markets)

    def test_market_cap_respected(self):
        m = make_dataset("small100", params=DEFAULT.with_(market_cap=10)).model
        rc, rs = initial_average_relevance(m)
        markets = identify_target_markets(m, [(0, 0)], rc, rs)
        assert len(markets[0].users) <= 11  # cap + the nominee user


class TestGrouping:
    def _mk(self, users, items):
        return TargetMarket(
            nominees=[(0, x) for x in items], users=np.array(users), diameter=1
        )

    def test_overlap_groups(self):
        m1 = self._mk([1, 2, 3], [0])
        m2 = self._mk([3, 4, 5], [1])
        m3 = self._mk([10, 11], [2])
        rs = np.zeros((3, 3))
        groups = group_and_order([m1, m2, m3], theta=1, r_bar_s=rs)
        sets = sorted(tuple(sorted(g)) for g in groups)
        assert sets == [(0, 1), (2,)]

    def test_theta_blocks_small_overlap(self):
        m1 = self._mk([1, 2, 3], [0])
        m2 = self._mk([3, 4, 5], [1])
        groups = group_and_order([m1, m2], theta=2, r_bar_s=np.zeros((2, 2)))
        assert sorted(len(g) for g in groups) == [1, 1]

    def test_ae_orders_ascending(self):
        # Market 0 promotes item 0 (strong substitute of item 2 in market 1);
        # market 2 promotes item 1 with no substitutes -> comes first.
        m0 = self._mk([1, 2], [0])
        m1 = self._mk([2, 3], [2])
        m2 = self._mk([3, 1], [1])
        rs = np.zeros((3, 3))
        rs[0, 2] = rs[2, 0] = 0.9
        groups = group_and_order([m0, m1, m2], theta=1, r_bar_s=rs)
        assert len(groups) == 1
        g = groups[0]
        ae = antagonistic_extent([m0, m1, m2], g, rs)
        assert g[0] == 2  # least antagonistic first
        assert ae[2] == pytest.approx(0.0)
        assert ae[0] == pytest.approx(0.9)
        assert ae[1] == pytest.approx(0.9)

    def test_example_1_ae_arithmetic(self):
        """Example 1: AE(τ1)=0.5, AE(τ2)=0.5, AE(τ3)=1.0 → τ3 last."""
        ipad, iphone, airpods = 0, 1, 2
        t1 = self._mk([1, 2], [ipad])
        t2 = self._mk([2, 3], [ipad])
        t3 = self._mk([1, 3], [iphone, airpods])
        rs = np.zeros((3, 3))
        rs[ipad, iphone] = rs[iphone, ipad] = 0.5
        groups = group_and_order([t1, t2, t3], theta=1, r_bar_s=rs)
        ae = antagonistic_extent([t1, t2, t3], groups[0], rs)
        assert ae[0] == pytest.approx(0.5)
        assert ae[1] == pytest.approx(0.5)
        assert ae[2] == pytest.approx(1.0)
        assert groups[0][-1] == 2


class TestTimingWindow:
    def test_empty_group_starts_at_one(self):
        assert timing_window([], T=5, T_market=3, prev_market_last_t=0) == [1, 2]

    def test_advances_with_t_hat(self):
        group = [(0, 0, 2)]
        assert timing_window(group, T=5, T_market=5, prev_market_last_t=0) == [2, 3]

    def test_next_market_starts_after_previous(self):
        group = [(0, 0, 2)]  # previous market ended at 2
        w = timing_window(group, T=10, T_market=3, prev_market_last_t=2)
        assert w[0] == 3

    def test_clamped_to_T(self):
        group = [(0, 0, 5)]
        assert timing_window(group, T=5, T_market=9, prev_market_last_t=0) == [5]

    def test_duration_cap(self):
        # hi limited by T_market + prev_last.
        group = [(0, 0, 3)]
        w = timing_window(group, T=10, T_market=3, prev_market_last_t=0)
        assert w == [3]


class TestMarketEvaluator:
    def test_caching(self, small):
        sub = small.subgraph(np.arange(30))
        ev = MarketEvaluator(sub, T=3, n_samples=4)
        a = ev.sigma_pi([(0, 0, 1)])
        b = ev.sigma_pi([(0, 0, 1)])
        assert a == b
        assert len(ev._cache) == 1

    def test_sigma_alone_shares_the_cache(self, small, monkeypatch):
        from repro.core import tdsi

        sub = small.subgraph(np.arange(30))
        want = MarketEvaluator(sub, T=3, n_samples=4).sigma_pi([(0, 0, 1)])
        ev = MarketEvaluator(sub, T=3, n_samples=4)
        with monkeypatch.context() as m:
            m.setattr(tdsi, "likelihood_pi", None)  # σ alone never computes π
            assert ev.sigma([(0, 0, 1), (99, 0, 1)]) == want[0]  # 99 outside
            assert ev.sigma([(0, 0, 1)]) == want[0]
        assert ev.sigma_pi([(0, 0, 1)]) == want
        assert len(ev._cache) == 1

    def test_out_of_market_seeds_dropped(self, small):
        sub = small.subgraph(np.arange(30))
        ev = MarketEvaluator(sub, T=3, n_samples=4)
        a = ev.sigma_pi([(0, 0, 1), (99, 0, 1)])  # 99 outside
        b = ev.sigma_pi([(0, 0, 1)])
        assert a == b

    def test_si_increases_with_viable_candidate(self, small):
        sub = small.subgraph(np.arange(50))
        ev = MarketEvaluator(sub, T=3, n_samples=8)
        si = substantial_influence(ev, [], (0, 0, 1), T=3)
        assert np.isfinite(si)
        # Seeding someone adds at least their own adoption to sigma.
        s0, _ = ev.sigma_pi([])
        s1, _ = ev.sigma_pi([(0, 0, 1)])
        assert s1 > s0
