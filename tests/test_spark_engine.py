"""Spark sample-sharded evaluator vs the local reference engine — exact equivalence.

Each worker runs the local engine's per-sample loop on its block of
global sample ids, so given the same model and seeds the two must
produce *identical* adoption logs, not just similar σ.
"""
import numpy as np
import pytest

from repro.data.datasets import make_dataset
from repro.diffusion.local import simulate
from repro.diffusion.sigma import sigma_from_adoption_rows
from repro.diffusion.spark_engine import simulate_spark


@pytest.fixture(scope="module")
def small():
    return make_dataset("small100").model


def _top_group(model, n_users, n_items, T):
    """Top out-degree users, each promoting one of the most important items."""
    users = np.argsort(-model.out_deg, kind="stable")[:n_users]
    items = np.argsort(-model.importance, kind="stable")[:n_items]
    return [
        (int(u), int(items[i % n_items]), 1 + i * T // n_users)
        for i, u in enumerate(users)
    ]


def _local_rows(res):
    s, u, x = np.nonzero(res.adopt_t)
    return set(zip(s.tolist(), u.tolist(), x.tolist(), res.adopt_t[s, u, x].tolist()))


def _assert_identical(spark, model, seeds, T, M, **kw):
    loc = simulate(model, seeds, T, M, **kw)
    sp = simulate_spark(spark, model, seeds, T, M, **kw)
    got = sp.adoptions[["sample", "user", "item", "t"]].to_numpy().tolist()
    assert list(map(tuple, got)) == sorted(_local_rows(loc))
    assert sp.sigma == pytest.approx(loc.sigma)
    assert np.allclose(sp.sigma_by_t, loc.sigma_by_t)
    return sp


class TestEngineEquivalence:
    def test_dynamic_mode_identical(self, spark):
        """The benchmark's ``eval_douban`` group: large dynamic cascades."""
        model = make_dataset("douban_lite").model
        sp = _assert_identical(spark, model, _top_group(model, 20, 5, 10), 10, 4)
        assert sp.sigma > 0

    def test_frozen_mode_identical(self, spark):
        model = make_dataset("amazon_lite").model
        seeds = _top_group(model, 10, 5, 3)
        _assert_identical(spark, model, seeds, 3, 4, frozen=True, trial_salt=3)

    def test_uneven_blocks_identical(self, spark, small):
        n = spark.sparkContext.defaultParallelism + 1
        _assert_identical(spark, small, [(0, 0, 1), (5, 2, 1), (7, 1, 2)], 2, n)

    def test_subgraph_identical(self, spark, small):
        """Initial weights are keyed by original user ids on both paths."""
        sub = small.subgraph(np.arange(40, 100))
        _assert_identical(spark, sub, _top_group(sub, 4, 3, 3), 3, 16)

    def test_sigma_helper_consistent(self, spark, small):
        sp = simulate_spark(spark, small, [(0, 0, 1)], T=1, n_samples=2)
        assert sp.sigma == pytest.approx(
            sigma_from_adoption_rows(sp.adoptions, small.importance, 2)
        )

    def test_empty_seed_group(self, spark, small):
        sp = simulate_spark(spark, small, [], T=1, n_samples=2)
        assert sp.sigma == 0.0
        assert len(sp.adoptions) == 0
