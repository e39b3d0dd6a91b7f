"""Generate every evaluation table (T1–T9) and write markdown results.

Usage:
    spark-submit jobs/run_all_tables.py [--out results.md] [--quick]

``--quick`` shrinks every sweep to one or two cheap cells (CI smoke).
The full run reproduces EXPERIMENTS.md. A SparkSession is only needed
for the certification re-evaluation of one cell on the Spark σ
evaluator; all planning runs locally (see DESIGN.md §3 layering).
"""
from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import harness as H


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="table_results.md")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--skip-spark-check", action="store_true")
    args = ap.parse_args(argv)

    r = H.Runner()
    sections: list[tuple[str, list[dict]]] = []
    t_start = time.time()

    def log(msg: str) -> None:
        print(f"[{time.time() - t_start:7.1f}s] {msg}", file=sys.stderr, flush=True)

    if args.quick:
        specs = [
            ("T1 (Fig 5a) sigma vs budget, small100 vs OPT",
             lambda: H.table_t1_opt_budget(r, budgets=(6,), T=2)),
            ("T3 (Fig 6a-c) sigma vs budget, large",
             lambda: H.table_t3_large_budget(r, datasets=("yelp_lite",), budgets=(40,), T=5)),
        ]
    else:
        specs = [
            ("T1 (Fig 5a) sigma vs budget, small100 vs OPT",
             lambda: H.table_t1_opt_budget(r)),
            ("T2 (Fig 5b) sigma vs #promotions, small100 vs OPT",
             lambda: H.table_t2_opt_T(r)),
            ("T3 (Fig 6a-c) sigma vs budget, large datasets",
             lambda: H.table_t3_large_budget(r)),
            ("T4 (Fig 6e-f) sigma vs #promotions, large datasets",
             lambda: H.table_t4_large_T(r)),
            ("T5 (Fig 6d) planner time (s) vs budget, amazon_lite",
             lambda: H.table_t5_time_budget(r)),
            ("T6 (Fig 6g) planner time (s) vs #promotions, amazon_lite",
             lambda: H.table_t6_time_T(r)),
            ("T7 (Fig 6h) Dysim scalability across datasets",
             lambda: H.table_t7_scalability(r)),
            ("T8 (Fig 7a) sensitivity to #meta-graphs, amazon_lite",
             lambda: H.table_t8_metagraphs(r)),
            ("T9 (Fig 7b) sensitivity to theta, amazon_lite",
             lambda: H.table_t9_theta(r)),
        ]

    for title, fn in specs:
        log(f"running {title} ...")
        sections.append((title, fn()))
        log(f"done {title}")

    lines = ["# Measured table results", ""]
    for title, rows in sections:
        lines += [f"## {title}", "", H.to_markdown(rows), ""]

    if not args.skip_spark_check:
        log("certifying one cell on the Spark evaluator ...")
        from pyspark.sql import SparkSession

        spark = (
            SparkSession.builder.appName("repro-tables")
            .config("spark.sql.shuffle.partitions", "8")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .getOrCreate()
        )
        spark.sparkContext.setLogLevel("ERROR")
        cell = r.run("small100", "dysim", 8, 5 if not args.quick else 2)
        sp_sigma = r.spark_check(spark, cell, n_samples=4)
        from repro.diffusion.local import simulate

        lo_sigma = simulate(
            r.dataset("small100").model, cell.seeds, cell.T, 4
        ).sigma
        lines += [
            "## Spark-engine certification",
            "",
            f"small100 Dysim cell (b=8): local engine sigma={lo_sigma:.6f}, "
            f"Spark evaluator sigma={sp_sigma:.6f} (identical trial keys; "
            "must match exactly).",
            "",
        ]
        spark.stop()

    with open(args.out, "w") as f:
        f.write("\n".join(lines))
    log(f"wrote {args.out}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
