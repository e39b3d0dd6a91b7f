"""Tests for the experiment harness (repro.experiments.harness)."""
import pytest

from repro.diffusion.local import simulate
from repro.experiments import harness as H
from repro.params import DEFAULT


@pytest.fixture(scope="module")
def runner():
    return H.Runner(mc_eval=4, max_pairs=20)


class TestRunner:
    def test_run_caches(self, runner):
        a = runner.run("small100", "ps", 6, 2)
        b = runner.run("small100", "ps", 6, 2)
        assert a is b

    def test_cell_fields(self, runner):
        c = runner.run("small100", "ps", 6, 2)
        assert c.dataset == "small100" and c.method == "ps"
        assert c.sigma > 0 and c.seconds > 0 and c.n_seeds == len(c.seeds)

    def test_cell_counts_truncations(self):
        r = H.Runner(mc_eval=4, max_pairs=20, params=DEFAULT.with_(max_steps=1))
        c = r.run("small100", "ps", 6, 2)
        res = simulate(r.dataset("small100").model, c.seeds, 2, 4)
        assert c.truncated == res.truncated > 0

    def test_unknown_method(self, runner):
        with pytest.raises(KeyError):
            runner.run("small100", "nope", 5, 2)

    def test_dataset_cache_by_metagraphs(self, runner):
        a = runner.dataset("small100")
        b = runner.dataset("small100", n_comp=1, n_subs=1)
        assert a is not b
        assert a is runner.dataset("small100")


class TestTables:
    def test_t1_rows(self, runner):
        rows = H.table_t1_opt_budget(runner, budgets=(6,), T=2)
        assert len(rows) == 1
        assert set(rows[0]) == {"b", "opt", "dysim", "bundlegrd", "hag", "ps"}

    def test_t3_skips_hag_on_douban(self, runner):
        rows = H.table_t3_large_budget(
            runner, datasets=("douban_lite",), budgets=(20,), T=2
        )
        assert rows[0]["hag"] is None
        assert rows[0]["dysim"] is not None

    def test_t7_shapes(self, runner):
        rows = H.table_t7_scalability(runner, datasets=("yelp_lite",), b=20, T=2)
        assert rows[0]["users"] == 900
        assert rows[0]["dysim_seconds"] > 0

    def test_t8_metagraph_counts(self, runner):
        rows = H.table_t8_metagraphs(runner, sizes=((1, 1),), b=10, T=2)
        assert rows[0]["n_metagraphs"] == 2

    def test_t9_theta_param_threads_through(self, runner):
        rows = H.table_t9_theta(runner, thetas=(3,), b=10, T=2)
        assert rows[0]["theta"] == 3

    def test_markdown_rendering(self):
        md = H.to_markdown([{"a": 1, "b": None}])
        assert "| a | b |" in md
        assert "| 1 | — |" in md

    def test_markdown_empty(self):
        assert H.to_markdown([]) == "(no rows)"
