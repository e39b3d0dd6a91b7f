"""Tests of the benchmark's recorder: every binding lands in the trace.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""
import pickle
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from repro.data.datasets import make_dataset  # noqa: E402
from tracer import SPARK_MODULE, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def model():
    return make_dataset("small100").model


def _mod(name):
    __import__(name)
    return sys.modules[name]


SIMULATE_SITES = (
    "repro.diffusion.local",
    "repro.core.nominees",
    "repro.core.tdsi",
    "repro.core.dysim",
    "repro.baselines.opt",
    "repro.experiments.harness",
)
MIOA_SITES = (
    "repro.graph.local",
    "repro.core.nominees",
    "repro.core.clustering",
    "repro.baselines.cr_greedy",
    "repro.baselines.ps",
)


@pytest.mark.parametrize("site", SIMULATE_SITES)
def test_simulate_binding_is_traced(model, site):
    with Tracer("t") as tr:
        _mod(site).simulate(model, [(0, 0, 1)], 1, 2)
        _mod(site).simulate(model, [(0, 0, 1)], 1, 3, frozen=True)
    assert tr.calls["local.simulate_dynamic"] == 1
    assert tr.calls["local.simulate_frozen"] == 1
    assert tr.counts["local.simulate_frozen.samples"] == 3
    assert tr.counts["local.simulate_dynamic.user_samples"] == 2 * model.n_users


@pytest.mark.parametrize("site", MIOA_SITES)
def test_mioa_reach_binding_is_traced(model, site):
    with Tracer("t") as tr:
        _mod(site).mioa_reach(model.src, model.dst, model.base_inf, model.n_users, [0], 0.02)
    assert tr.calls["graph.mioa_reach"] == 1


def test_u01_call_time_binding_in_local_engine(model):
    """``_step`` imports u01 at call time; its draws nest under simulate."""
    with Tracer("t") as tr:
        _mod("repro.diffusion.local").simulate(model, [(0, 0, 1)], 1, 2)
    ids = {span[0]: span for span in tr.spans}
    draws = [s for s in tr.spans if s[2] == "rng.u01"]
    assert draws and tr.counts["rng.u01.draws"] > 0

    def root(span):
        while span[1] != -1:
            span = ids[span[1]]
        return span[2]

    assert {root(s) for s in draws} == {"local.simulate_dynamic"}


def test_u01_import_binding_in_spark_engine(model):
    spark_engine = _mod(SPARK_MODULE)
    with Tracer("t") as tr:
        spark_engine._init_weight_rows(model, [0, 1, 2])
    assert tr.calls["rng.u01"] == 2
    assert tr.counts["rng.u01.draws"] == 3 * (model.n_comp + model.n_subs)


def test_wrapper_pickles_as_the_plain_function():
    """Spark ships worker closures by pickling; workers must get the real u01."""
    rng = _mod("repro.rng")
    orig = rng.u01
    with Tracer("t"):
        data = pickle.dumps(_mod(SPARK_MODULE).u01)
        assert rng.u01 is not orig
    assert pickle.loads(data) is orig
    assert _mod(SPARK_MODULE).u01 is orig


def test_bindings_restored_on_exit():
    kernels = _mod("repro.dynamics.kernels")
    tdsi = _mod("repro.core.tdsi")
    before = (kernels.update_weights, tdsi.simulate, tdsi.MarketEvaluator.sigma_pi)
    with Tracer("t"):
        assert kernels.update_weights is not before[0]
    assert (kernels.update_weights, tdsi.simulate, tdsi.MarketEvaluator.sigma_pi) == before


def test_self_time_excludes_children(model):
    with Tracer("t") as tr:
        _mod("repro.diffusion.local").simulate(model, [(0, 0, 1), (3, 1, 1)], 1, 4)
    root = tr.spans[-1]  # the outermost span ends last
    total = tr.total["local.simulate_dynamic"]
    children = sum(e - s for _, parent, _, s, e in tr.spans if parent == root[0])
    assert tr.self_s["local.simulate_dynamic"] == pytest.approx(total - children)
    assert 0 < tr.self_s["local.simulate_dynamic"] < total


def test_sigma_pi_hits_and_counts_repeat(model):
    from repro.core.dysim import dysim

    def traced():
        with Tracer("t") as tr:
            dysim(model, 10, 3, max_pairs=20)
        return tr

    a, b = traced(), traced()
    assert a.calls["tdsi.sigma_pi"] > a.counts["tdsi.sigma_pi.hits"] > 0
    assert a.metrics(0.0, ["tdsi.sigma_pi.hit_ratio"])["tdsi.sigma_pi.hit_ratio"] > 0
    assert (a.calls, a.counts) == (b.calls, b.counts)
