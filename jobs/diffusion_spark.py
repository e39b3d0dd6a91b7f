"""spark-submit entrypoint: run the Spark σ evaluator directly.

Evaluates a Dysim seed group's importance-aware influence with its
Monte-Carlo samples sharded over the Spark workers and cross-checks it
against the local reference engine — the two must agree exactly.

    spark-submit jobs/diffusion_spark.py --dataset small100 --budget 8 --T 3
"""
import argparse
import sys

from pyspark.sql import SparkSession

from repro.core.dysim import dysim
from repro.data.datasets import make_dataset
from repro.diffusion.local import simulate
from repro.diffusion.spark_engine import simulate_spark


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", default="small100")
    ap.add_argument("--budget", type=float, default=8)
    ap.add_argument("--T", type=int, default=3)
    ap.add_argument("--samples", type=int, default=4)
    args = ap.parse_args(argv)

    spark = (
        SparkSession.builder.appName("repro-diffusion")
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")

    ds = make_dataset(args.dataset)
    seeds = dysim(ds.model, args.budget, args.T).seeds
    print(f"planned {len(seeds)} seeds: {seeds}")
    sp = simulate_spark(spark, ds.model, seeds, args.T, args.samples)
    lo = simulate(ds.model, seeds, args.T, args.samples)
    print(f"sigma spark={sp.sigma:.6f} local={lo.sigma:.6f}")
    print(
        f"local run: {lo.truncated} of {args.samples * args.T} (sample, promotion) "
        f"pairs truncated at max_steps={ds.model.params.max_steps}"
    )
    assert abs(sp.sigma - lo.sigma) < 1e-9, "engines diverged"
    print("engines agree exactly")
    spark.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
