package repro

import org.apache.spark.sql.functions.{count, lit}

/** Negative controls of the DuckDB oracle: a wrong result or a wrong column
  * set must fail, or the oracle checks elsewhere prove nothing.
  */
class OracleSpec extends SparkSpec {

  private def edges = spark.range(200).selectExpr("id % 7 as src", "id as dst")

  test("oracle rejects mismatched results (negative control)") {
    val e = edges
    val wrong = e.groupBy("src").agg((count(lit(1)) + 1).as("cnt"))
    val err = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, "SELECT src, count(*) as cnt FROM edges GROUP BY src", "edges" -> e)
    }
    assert(err.getMessage.contains("result mismatch"), err.getMessage)
  }

  test("oracle rejects mismatched column sets (negative control)") {
    val e = edges
    val err = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(e.selectExpr("count(*) as total"), "SELECT count(*) as other_name FROM edges", "edges" -> e)
    }
    assert(err.getMessage.contains("column mismatch"), err.getMessage)
  }
}
