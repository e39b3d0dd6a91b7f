"""Spark σ evaluator: Monte-Carlo samples sharded over the workers.

σ (Def. 1) is an expectation over independent samples, and every draw
is a stateless function of its sample id (:mod:`repro.rng`), so the
parallelism is across samples, not inside a cascade. The evaluator
splits the global sample ids ``0..M-1`` into blocks (``spark.range``,
one block per default-parallelism slot) and runs one ``mapInPandas``:
each worker runs the local engine's sample loop on its block and
emits ``(sample, user, item, t)`` adoption rows. The driver collects
the rows and computes σ and its per-promotion split.

Because the workers run the very same code on the very same sample ids,
the adoption log is **identical** to :func:`repro.diffusion.local.
simulate`'s (asserted by tests).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.diffusion.local import _group_seeds, _run_samples
from repro.dynamics.state import ModelData

# Both bound here only because perfbench/test_tracer.py traces them.
from repro.dynamics.state import initial_weights as _init_weight_rows  # noqa: F401
from repro.rng import u01  # noqa: F401

_LOG_SCHEMA = "sample long, user long, item long, t long"


@dataclass
class SparkSimResult:
    """Adoption log + σ from one Spark simulation."""

    adoptions: pd.DataFrame  # columns: sample, user, item, t; rows in that order
    sigma: float
    sigma_by_t: np.ndarray


def simulate_spark(
    spark: SparkSession,
    model: ModelData,
    seeds,
    T: int,
    n_samples: int,
    *,
    frozen: bool = False,
    trial_salt: int = 0,
) -> SparkSimResult:
    """Run the campaign on Spark; same semantics and log as the local engine."""
    by_t = _group_seeds(model, seeds, T)
    n_blocks = max(1, min(n_samples, spark.sparkContext.defaultParallelism))

    def _block(batches):
        for pdf in batches:
            ids = pdf["id"].to_numpy()
            adopt_t = _run_samples(model, by_t, T, ids, frozen, trial_salt)[0]
            s, u, x = np.nonzero(adopt_t)
            yield pd.DataFrame(
                {"sample": ids[s], "user": u, "item": x, "t": adopt_t[s, u, x].astype(np.int64)}
            )

    log = (
        spark.range(0, n_samples, numPartitions=n_blocks)
        .mapInPandas(_block, schema=_LOG_SCHEMA)
        .toPandas()
    )
    w = model.importance[log["item"].to_numpy()]
    sigma_by_t = np.bincount(log["t"].to_numpy(np.int64), weights=w, minlength=T + 1) / n_samples
    return SparkSimResult(log, float(sigma_by_t.sum()), sigma_by_t)
