"""The benchmark's workloads, their output checks and output hashes.

Every workload is built from the canonical preset (dataset seed 7, the
seed the tables use) unless ``--data-seed`` says otherwise, and its
generated inputs are fixed functions of that dataset. README.md gives
the reason: on these synthetic presets another dataset seed or another
random seed group moves the amount of diffusion work by 2-20x, so a
timing taken on seed-derived inputs is not comparable run to run.
"""
from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines import bundlegrd, hag, ps
from repro.core.dysim import dysim
from repro.data.datasets import make_dataset
from repro.diffusion.local import simulate
from repro.diffusion.sigma import sigma_from_adopt_t

# Trial stream reserved for the benchmark's σ: planners run on salt 0.
HELDOUT_SALT = 918_273_645
CANONICAL_DATA_SEED = 7


@dataclass
class Output:
    """One checked operation: a seed group and, once evaluated, its σ run."""

    label: str
    seeds: list
    T: int
    budget: float | None
    sim: object = None  # SimResult on the held-out stream
    spark_log: object = None  # Spark engine's adoption rows for the same run


@dataclass
class Pass:
    """One timed pass of a workload."""

    plan_s: float
    eval_s: float
    samples: int  # Monte-Carlo samples evaluated inside the timed region
    outputs: list[Output] = field(default_factory=list)


class Workload:
    """Set-up (untimed) and one timed pass of a workload on fixed inputs."""

    name = ""
    preset = ""
    heldout_samples = 16
    traced_with: tuple[str, ...] = ()  # manual workloads run once more in a traced run

    def setup(self, data_seed: int) -> None:
        self.model = make_dataset(self.preset, seed=data_seed).model
        self._heldout: dict = {}

    def warmup(self) -> None:
        """Touch every engine path once on a tiny input (counted in setup)."""
        u = int(np.argmax(self.model.out_deg))
        simulate(self.model, [(u, 0, 1)], 1, 1)
        simulate(self.model, [(u, 0, 1)], 1, 1, frozen=True)

    def run(self) -> Pass:
        raise NotImplementedError

    def heldout(self, outputs: list[Output]) -> None:
        """σ of groups the timed pass did not evaluate, outside the timed region.

        A group identical to one already evaluated reuses that run: the
        engine is deterministic, and passes are compared by seed hash.
        """
        done = self._heldout
        for out in outputs:
            if out.sim is None:
                key = (out.T, tuple(map(tuple, out.seeds)))
                if key not in done:
                    done[key] = simulate(
                        self.model, out.seeds, out.T, self.heldout_samples,
                        trial_salt=HELDOUT_SALT,
                    )
                out.sim = done[key]


class DysimAmazon(Workload):
    name = "dysim_amazon"
    preset = "amazon_lite"
    budget, T, M = 30.0, 10, 16

    def run(self) -> Pass:
        t0 = time.perf_counter()
        seeds = dysim(self.model, self.budget, self.T, max_pairs=100).seeds
        t1 = time.perf_counter()
        sim = simulate(self.model, seeds, self.T, self.M, trial_salt=HELDOUT_SALT)
        t2 = time.perf_counter()
        out = Output("dysim", seeds, self.T, self.budget, sim)
        return Pass(t1 - t0, t2 - t1, self.M, [out])


class BaselinesAmazon(Workload):
    name = "baselines_amazon"
    preset = "amazon_lite"
    budget, T = 30.0, 10

    def run(self) -> Pass:
        m, b, T = self.model, self.budget, self.T
        t0 = time.perf_counter()
        groups = [
            ("hag", hag(m, b, T, max_pairs=100)),
            ("bundlegrd", bundlegrd(m, b, T)),
            ("ps", ps(m, b, T)),
        ]
        t1 = time.perf_counter()
        outs = [Output(label, seeds, T, b) for label, seeds in groups]
        return Pass(t1 - t0, 0.0, 0, outs)


class EvalDouban(Workload):
    name = "eval_douban"
    preset = "douban_lite"
    traced_with = ("spark_small100",)  # the Spark evaluator's layer
    T, M, n_seeds, n_top_items = 10, 4, 20, 5

    def setup(self, data_seed: int) -> None:
        super().setup(data_seed)
        m = self.model
        users = np.argsort(-m.out_deg, kind="stable")[: self.n_seeds]
        items = np.argsort(-m.importance, kind="stable")[: self.n_top_items]
        self.seeds = [
            (int(u), int(items[i % len(items)]), 1 + i * self.T // self.n_seeds)
            for i, u in enumerate(users)
        ]

    def run(self) -> Pass:
        t0 = time.perf_counter()
        sim = simulate(self.model, self.seeds, self.T, self.M, trial_salt=HELDOUT_SALT)
        t1 = time.perf_counter()
        return Pass(0.0, t1 - t0, self.M, [Output("group", self.seeds, self.T, None, sim)])


class SparkSmall100(Workload):
    """One small ``simulate_spark`` call, checked row for row against the local engine.

    Not in BENCHMARK.json (a run takes 35-60 s, most of it one set-up, and
    consecutive Spark calls differ by 25 % or more); ``eval_douban``'s traced run
    makes one such call, so the Spark layer is in every traced set.
    """

    name = "spark_small100"
    preset = "small100"
    setup_repeats = 1  # one SparkSession per process
    T, M = 1, 2
    spark = None

    def setup(self, data_seed: int) -> None:
        super().setup(data_seed)
        m = self.model
        # The shortest real cascade: the lowest out-degree user whose
        # promotion of the most important item reaches another adopter in
        # the local engine. Spark's cost grows with the cascade's steps
        # (about 70 stages each), so this keeps one call to 5-25 s instead of
        # a minute, while it still runs every stage type, diffusion included.
        item = int(np.argsort(-m.importance, kind="stable")[0])
        for u in np.argsort(m.out_deg, kind="stable"):
            self.seeds = [(int(u), item, 1)]
            sim = simulate(m, self.seeds, self.T, self.M, trial_salt=HELDOUT_SALT)
            if np.count_nonzero(sim.adopt_t) > self.M:
                break
        if self.spark is None:
            self.spark = spark_session()

    def warmup(self) -> None:
        super().warmup()
        from repro.diffusion.spark_engine import simulate_spark

        simulate_spark(self.spark, self.model, self.seeds, self.T, self.M)

    def run(self) -> Pass:
        from repro.diffusion.spark_engine import simulate_spark

        t0 = time.perf_counter()
        sp = simulate_spark(
            self.spark, self.model, self.seeds, self.T, self.M, trial_salt=HELDOUT_SALT
        )
        t1 = time.perf_counter()
        sim = simulate(self.model, self.seeds, self.T, self.M, trial_salt=HELDOUT_SALT)
        t2 = time.perf_counter()
        out = Output("spark", self.seeds, self.T, None, sim, sp.adoptions)
        return Pass(0.0, t2 - t0, 2 * self.M, [out])

    def close(self) -> None:
        """Stop the session and wait for its JVM (and the JVM's Python workers) to end."""
        if self.spark is None:
            return
        from pyspark import SparkContext

        self.spark.stop()
        self.spark = None
        gateway = SparkContext._gateway
        if gateway is None:
            return
        proc = getattr(gateway, "proc", None)
        gateway.shutdown()
        SparkContext._gateway = SparkContext._jvm = None
        if proc is not None:
            proc.stdin.close()  # the JVM exits when its stdin closes
            proc.wait(timeout=60)


def spark_session():
    """A local SparkSession whose JVM, workers and scratch files stay in the checkout."""
    import os
    import tempfile
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    scratch = Path(__file__).resolve().parent / "out" / "spark"
    scratch.mkdir(parents=True, exist_ok=True)
    cores = min(2, os.cpu_count() or 1)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    os.environ["SPARK_LOCAL_DIRS"] = str(scratch)
    os.environ["TMPDIR"] = str(scratch)  # the JVM's and its workers' temporary files
    tempfile.tempdir = str(scratch)  # this process's (PySpark's gateway hand-off file)
    # Every JVM, spark-submit's launcher included: no perf-data file, temp files here.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={scratch}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory 1g "
        f"--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        f"--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.sql.warehouse.dir={scratch / 'warehouse'} "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(cores))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


WORKLOADS = {w.name: w for w in (DysimAmazon, BaselinesAmazon, EvalDouban)}
MANUAL_WORKLOADS = {SparkSmall100.name: SparkSmall100}


# -- output checks -------------------------------------------------------

def check_output(model, out: Output) -> list[str]:
    """Failures of one operation's output (empty when it passes)."""
    bad = []
    for u, x, t in out.seeds:
        if not (0 <= u < model.n_users and 0 <= x < model.n_items):
            bad.append(f"{out.label}: seed ({u}, {x}, {t}) id out of range")
        if not 1 <= t <= out.T:
            bad.append(f"{out.label}: seed ({u}, {x}, {t}) timing outside [1, {out.T}]")
    if out.budget is not None:
        cost = sum(float(model.cost[u, x]) for u, x, _ in out.seeds)
        if cost > out.budget + 1e-9:
            bad.append(f"{out.label}: cost {cost:.4f} over budget {out.budget}")
    sigma = sigma_from_adopt_t(out.sim.adopt_t, model.importance)
    if not math.isclose(out.sim.sigma, sigma, rel_tol=1e-9, abs_tol=1e-12):
        bad.append(f"{out.label}: reported sigma {out.sim.sigma} != {sigma} from adopt_t")
    if out.spark_log is not None and adoption_rows(out.spark_log) != local_rows(out.sim):
        bad.append(f"{out.label}: Spark adoption log differs from the local engine's")
    return bad


def local_rows(sim) -> list[tuple[int, int, int, int]]:
    """The local engine's adoption log as sorted (sample, user, item, t) rows."""
    s, u, x = np.nonzero(sim.adopt_t)
    return sorted(zip(s.tolist(), u.tolist(), x.tolist(), sim.adopt_t[s, u, x].tolist()))


def adoption_rows(log) -> list[tuple[int, int, int, int]]:
    """The Spark engine's adoption log as sorted (sample, user, item, t) rows."""
    cols = log[["sample", "user", "item", "t"]].to_numpy(dtype=np.int64)
    return sorted(map(tuple, cols.tolist()))


def seed_hash(outputs: list[Output]) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(repr((out.label, sorted(tuple(map(int, s)) for s in out.seeds))).encode())
    return h.hexdigest()[:16]


def log_hash(outputs: list[Output]) -> str:
    h = hashlib.sha256()
    for out in outputs:
        a = np.ascontiguousarray(out.sim.adopt_t, dtype=np.int16)
        h.update(out.label.encode() + repr(a.shape).encode() + a.tobytes())
    return h.hexdigest()[:16]
