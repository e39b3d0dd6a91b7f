"""Spark meta-graph counting vs pandas mirror and the DuckDB oracle."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.data.kg import kg_pdf
from repro.kg.metagraphs import (
    metagraph_library,
    relevance_table_pandas,
    relevance_table_spark,
)
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def kg():
    return kg_pdf(20, seed=4)


# The mC1 (shared-feature) complementary score of every item pair, in DuckDB.
MC1_SQL = """
WITH sup AS (SELECT src, dst FROM kg WHERE etype = 'SUPPORTS'),
     cnt AS (
       SELECT a.src AS x, b.src AS y, count(*) AS c
       FROM sup a JOIN sup b ON a.dst = b.dst AND a.src < b.src
       GROUP BY a.src, b.src
     )
SELECT x, y, c * 1.0 / (SELECT max(c) FROM cnt){extra} AS s FROM cnt
"""


def _mc1_scores(spark, kg):
    return (
        relevance_table_spark(spark, spark.createDataFrame(kg), metagraph_library(1, 1))
        .filter(F.col("kind") == "C")
        .select("x", "y", "s")
    )


class TestSparkCounting:
    def test_matches_pandas_mirror(self, spark, kg):
        got = (
            relevance_table_spark(spark, spark.createDataFrame(kg))
            .toPandas()
            .sort_values(["kind", "meta", "x", "y"])
            .reset_index(drop=True)
            .astype({"meta": "int64", "x": "int64", "y": "int64"})
        )
        want = relevance_table_pandas(kg).astype(
            {"meta": "int64", "x": "int64", "y": "int64"}
        )
        pd.testing.assert_frame_equal(got, want)

    def test_oracle_shared_feature_counts(self, spark, kg):
        """mC1 instance counting is a plain SQL self-join — oracle it."""
        assert_equivalent(_mc1_scores(spark, kg), MC1_SQL.format(extra=""), kg=kg)

    def test_oracle_catches_wrong_result(self, spark, kg):
        """The oracle fails a Spark result whose query asks for other scores."""
        with pytest.raises(AssertionError):
            assert_equivalent(_mc1_scores(spark, kg), MC1_SQL.format(extra=" + 1"), kg=kg)

    def test_truncated_library(self, spark, kg):
        got = relevance_table_spark(
            spark, spark.createDataFrame(kg), metagraph_library(2, 1)
        ).toPandas()
        assert set(got[got["kind"] == "C"]["meta"]) <= {0, 1}
        assert set(got[got["kind"] == "S"]["meta"]) <= {0}
