"""Harness reproducing every evaluation table (DESIGN.md §4).

Each ``table_*`` function sweeps the paper's knobs, runs the planner of
every method, evaluates the resulting seed group on the *same* dynamic
diffusion engine (Def. 1's σ), and returns rows ready for markdown.
Runs are cached in the :class:`Runner`, so tables that share cells
(T3/T5/T7 and T4/T6) pay for them once. All runs are deterministic in
the dataset seed and the stateless trial RNG.

σ is evaluated with the local engine by default; ``Runner.spark_check``
re-evaluates any cell on the Spark evaluator (identical trial keys →
identical adoptions), which the jobs use to certify one cell per table.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.baselines import bundlegrd, hag, opt_bruteforce, ps
from repro.core.dysim import dysim
from repro.data.datasets import Dataset, make_dataset
from repro.diffusion.local import simulate
from repro.params import DEFAULT, Params

METHODS = ("dysim", "bundlegrd", "hag", "ps")


@dataclass
class CellResult:
    """One (dataset, method, b, T) run: planning time + evaluated σ.

    ``truncated`` is the evaluation's count of (sample, promotion) pairs
    cut at ``params.max_steps`` (:class:`~repro.diffusion.local.SimResult`).
    """

    dataset: str
    method: str
    b: float
    T: int
    sigma: float
    seconds: float
    n_seeds: int
    truncated: int
    seeds: list = field(repr=False, default_factory=list)


class Runner:
    """Caches datasets and per-cell runs across tables."""

    def __init__(
        self,
        *,
        mc_eval: int = 16,
        max_pairs: int = 100,
        params: Params = DEFAULT,
        seed: int = 7,
    ) -> None:
        self.mc_eval = mc_eval
        self.max_pairs = max_pairs
        self.params = params
        self.seed = seed
        self._datasets: dict[tuple, Dataset] = {}
        self._cells: dict[tuple, CellResult] = {}

    def dataset(self, name: str, *, n_comp: int = 3, n_subs: int = 3,
                params: Params | None = None) -> Dataset:
        key = (name, n_comp, n_subs, params or self.params)
        if key not in self._datasets:
            self._datasets[key] = make_dataset(
                name, seed=self.seed, params=params or self.params,
                n_comp=n_comp, n_subs=n_subs,
            )
        return self._datasets[key]

    def run(
        self,
        dataset: str,
        method: str,
        b: float,
        T: int,
        *,
        n_comp: int = 3,
        n_subs: int = 3,
        params: Params | None = None,
        tag: str = "",
    ) -> CellResult:
        """Plan with ``method`` and evaluate σ; cached per cell."""
        key = (dataset, method, b, T, n_comp, n_subs, params or self.params, tag)
        if key in self._cells:
            return self._cells[key]
        ds = self.dataset(dataset, n_comp=n_comp, n_subs=n_subs, params=params)
        model = ds.model
        t0 = time.perf_counter()
        if method == "dysim":
            seeds = dysim(model, b, T, max_pairs=self.max_pairs).seeds
        elif method == "hag":
            seeds = hag(model, b, T, max_pairs=self.max_pairs)
        elif method == "bundlegrd":
            seeds = bundlegrd(model, b, T)
        elif method == "ps":
            seeds = ps(model, b, T)
        elif method == "opt":
            seeds = opt_bruteforce(model, b, T)
        else:
            raise KeyError(f"unknown method {method!r}")
        seconds = time.perf_counter() - t0
        res = simulate(model, seeds, T, self.mc_eval)
        cell = CellResult(
            dataset, method, b, T, res.sigma, seconds, len(seeds), res.truncated, seeds
        )
        self._cells[key] = cell
        return cell

    def spark_check(self, spark, cell: CellResult, *, n_samples: int | None = None) -> float:
        """Re-evaluate a cell's σ on the Spark evaluator."""
        from repro.diffusion.spark_engine import simulate_spark

        ds = self.dataset(cell.dataset)
        res = simulate_spark(
            spark, ds.model, cell.seeds, cell.T, n_samples or self.mc_eval
        )
        return res.sigma


# ----------------------------------------------------------------------
# Table runners — defaults match the jobs; tests/benchmarks shrink them.
# ----------------------------------------------------------------------

def table_t1_opt_budget(r: Runner, *, budgets=(4, 6, 8, 10, 12), T: int = 5):
    """T1 / Fig. 5(a): σ vs budget against OPT on the 100-user sample."""
    rows = []
    for b in budgets:
        row = {"b": b}
        for m in ("opt",) + METHODS:
            row[m] = round(r.run("small100", m, b, T).sigma, 2)
        rows.append(row)
    return rows


def table_t2_opt_T(r: Runner, *, Ts=(1, 2, 3, 4, 5), b: float = 8):
    """T2 / Fig. 5(b): σ vs number of promotions against OPT."""
    rows = []
    for T in Ts:
        row = {"T": T}
        for m in ("opt",) + METHODS:
            row[m] = round(r.run("small100", m, b, T).sigma, 2)
        rows.append(row)
    return rows


def table_t3_large_budget(
    r: Runner,
    *,
    datasets=("yelp_lite", "amazon_lite", "douban_lite"),
    budgets=None,
    T: int = 10,
):
    """T3 / Fig. 6(a–c): σ vs budget on the large datasets.

    Budget axes differ per dataset, as in the paper's Fig. 6(a–c)
    (budgets are meaningful relative to the network's seed costs and
    size). ``budgets`` may be a tuple (applied to all) or a dict
    ``{dataset: tuple}``. HAG is skipped on douban (the paper's
    Fig. 6(c) omits it — no result within 12 hours there; our HAG is
    likewise the slowest method on the largest dataset).
    """
    default_budgets = {
        "yelp_lite": (15, 25, 35, 45),
        "amazon_lite": (40, 60, 80, 100),
        "douban_lite": (40, 60, 80, 100),
        "gowalla_lite": (40, 60, 80, 100),
    }
    rows = []
    for dsn in datasets:
        if budgets is None:
            ds_budgets = default_budgets[dsn]
        elif isinstance(budgets, dict):
            ds_budgets = budgets[dsn]
        else:
            ds_budgets = budgets
        for b in ds_budgets:
            row = {"dataset": dsn, "b": b}
            for m in METHODS:
                if m == "hag" and dsn == "douban_lite":
                    row[m] = None
                    continue
                row[m] = round(r.run(dsn, m, b, T).sigma, 1)
            rows.append(row)
    return rows


def table_t4_large_T(
    r: Runner,
    *,
    datasets=("yelp_lite", "amazon_lite"),
    Ts=(5, 10, 20, 40),
    b=None,
):
    """T4 / Fig. 6(e–f): σ vs number of promotions on large datasets.

    ``b`` may be a float (all datasets) or a dict ``{dataset: float}``;
    the default matches each dataset's mid-range T3 budget.
    """
    default_b = {"yelp_lite": 25, "amazon_lite": 60}
    rows = []
    for dsn in datasets:
        ds_b = (b or default_b).get(dsn, 60) if not isinstance(b, (int, float)) else b
        for T in Ts:
            row = {"dataset": dsn, "T": T}
            for m in METHODS:
                row[m] = round(r.run(dsn, m, ds_b, T).sigma, 1)
            rows.append(row)
    return rows


def table_t5_time_budget(r: Runner, *, budgets=(40, 60, 80, 100), T: int = 10):
    """T5 / Fig. 6(d): planner execution time vs budget (amazon)."""
    rows = []
    for b in budgets:
        row = {"b": b}
        for m in METHODS:
            row[m] = round(r.run("amazon_lite", m, b, T).seconds, 2)
        rows.append(row)
    return rows


def table_t6_time_T(r: Runner, *, Ts=(5, 10, 20, 40), b: float = 60):
    """T6 / Fig. 6(g): planner execution time vs T (amazon)."""
    rows = []
    for T in Ts:
        row = {"T": T}
        for m in METHODS:
            row[m] = round(r.run("amazon_lite", m, b, T).seconds, 2)
        rows.append(row)
    return rows


def table_t7_scalability(
    r: Runner,
    *,
    datasets=("yelp_lite", "gowalla_lite", "amazon_lite", "douban_lite"),
    b: float = 60,
    T: int = 10,
):
    """T7 / Fig. 6(h): Dysim execution time across datasets.

    Datasets are ordered by social-network size; gowalla (most items per
    user) should take about as long as amazon despite fewer users.
    """
    rows = []
    for dsn in datasets:
        cell = r.run(dsn, "dysim", b, T)
        ds = r.dataset(dsn)
        rows.append(
            {
                "dataset": dsn,
                "users": ds.n_users,
                "items": ds.n_items,
                "dysim_seconds": round(cell.seconds, 2),
                "sigma": round(cell.sigma, 1),
            }
        )
    return rows


def table_t8_metagraphs(
    r: Runner, *, sizes=((1, 1), (2, 2), (3, 3)), b: float = 60, T: int = 10
):
    """T8 / Fig. 7(a): Dysim σ vs number of meta-graphs (amazon).

    The diffusion world always uses the full meta-graph library (users'
    true perceptions don't depend on what the planner knows); only the
    relevance tensors *Dysim plans with* are truncated. With fewer
    meta-graphs the planner mis-estimates relevance, preferences, and
    markets — the paper's "better capturing users' perceptions" effect.
    """
    import dataclasses

    from repro.kg.metagraphs import relevance_tensor

    ds = r.dataset("amazon_lite")
    full = ds.model
    rows = []
    for n_comp, n_subs in sizes:
        s_c, s_s = relevance_tensor(ds.relevance, full.n_items, 3, 3)
        plan_model = dataclasses.replace(
            full, s_c=s_c[:n_comp].copy(), s_s=s_s[:n_subs].copy()
        )
        t0 = time.perf_counter()
        seeds = dysim(plan_model, b, T, max_pairs=r.max_pairs).seeds
        seconds = time.perf_counter() - t0
        sigma = simulate(full, seeds, T, r.mc_eval).sigma
        rows.append(
            {
                "n_metagraphs": n_comp + n_subs,
                "dysim": round(sigma, 1),
                "seconds": round(seconds, 2),
            }
        )
    return rows


def table_t9_theta(r: Runner, *, thetas=(1, 40, 120, 250), b: float = 60, T: int = 10):
    """T9 / Fig. 7(b): Dysim σ vs common-user threshold θ (amazon)."""
    rows = []
    for theta in thetas:
        params = r.params.with_(theta=theta)
        cell = r.run("amazon_lite", "dysim", b, T, params=params, tag=f"th{theta}")
        rows.append({"theta": theta, "dysim": round(cell.sigma, 1)})
    return rows


def to_markdown(rows: list[dict]) -> str:
    """Render rows (same keys each) as a GitHub markdown table."""
    if not rows:
        return "(no rows)"
    cols = list(rows[0].keys())
    out = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for row in rows:
        out.append(
            "| " + " | ".join("—" if row[c] is None else str(row[c]) for c in cols) + " |"
        )
    return "\n".join(out)
