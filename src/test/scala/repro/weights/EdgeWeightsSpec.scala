package repro.weights

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.{Generators, GraphOps}
import repro.{Oracle, SparkSpec}

/** Edge-weight models: value ranges, SQL semantics vs DuckDB, determinism. */
class EdgeWeightsSpec extends SparkSpec {

  private lazy val edges: DataFrame =
    GraphOps.symmetrize(Generators.erdosRenyi(spark, 100, 0.08, seed = 1)).persist()

  test("TV: every weight is one of {0.1, 0.01, 0.001}") {
    val ws = EdgeWeights.trivalency(edges, seed = 5).select("weight").collect().map(_.getDouble(0))
    assert(ws.nonEmpty)
    assert(ws.forall(w => w == 0.1 || w == 0.01 || w == 0.001))
  }

  test("TV: all three values occur on a moderately sized graph") {
    val ws = EdgeWeights.trivalency(edges, seed = 5).select("weight").collect().map(_.getDouble(0)).toSet
    assert(ws == Set(0.1, 0.01, 0.001))
  }

  test("TV: roughly uniform over the three values") {
    val ws = EdgeWeights.trivalency(edges, seed = 5).select("weight").collect().map(_.getDouble(0))
    val n = ws.length.toDouble
    Seq(0.1, 0.01, 0.001).foreach { v =>
      val frac = ws.count(_ == v) / n
      assert(math.abs(frac - 1.0 / 3) < 0.1, s"value $v frequency $frac")
    }
  }

  test("TV: deterministic in the seed; edges keep their weight across calls") {
    def w() = EdgeWeights.trivalency(edges, seed = 5).collect()
      .map(r => (r.getInt(0), r.getInt(1)) -> r.getDouble(2)).toMap
    assert(w() == w())
  }

  test("TV: different seeds redraw weights") {
    def w(s: Long) = EdgeWeights.trivalency(edges, s).collect()
      .map(r => (r.getInt(0), r.getInt(1)) -> r.getDouble(2)).toMap
    assert(w(5) != w(6))
  }

  test("TV: the two orientations of an undirected edge draw independently") {
    val m = EdgeWeights.trivalency(edges, seed = 5).collect()
      .map(r => (r.getInt(0), r.getInt(1)) -> r.getDouble(2)).toMap
    val differing = m.keys.count(k => m.get(k.swap).exists(_ != m(k)))
    assert(differing > 0, "every edge pair drew identical weights — orientations not independent")
  }

  test("UR: weights lie in [0, 1)") {
    val ws = EdgeWeights.uniformRandom(edges, seed = 5).select("weight").collect().map(_.getDouble(0))
    assert(ws.forall(w => w >= 0.0 && w < 1.0))
  }

  test("UR: mean weight near 1/2") {
    val ws = EdgeWeights.uniformRandom(edges, seed = 5).select("weight").collect().map(_.getDouble(0))
    val mean = ws.sum / ws.length
    assert(math.abs(mean - 0.5) < 0.05, s"mean $mean")
  }

  test("UR: deterministic in the seed") {
    def w() = EdgeWeights.uniformRandom(edges, seed = 5).collect()
      .map(r => (r.getInt(0), r.getInt(1)) -> r.getDouble(2)).toMap
    assert(w() == w())
  }

  test("WC: weight equals 1/in-degree — cross-checked against DuckDB") {
    Oracle.assertEquivalent(
      EdgeWeights.weightedCascade(edges),
      "SELECT e.src as src, e.dst as dst, 1.0 / d.in_degree as weight FROM e " +
        "JOIN (SELECT dst, count(*) as in_degree FROM e GROUP BY dst) d ON e.dst = d.dst",
      "e" -> edges,
    )
  }

  test("WC: the window count equals the groupBy + join bit for bit") {
    // The groupBy + join weightedCascade replaced.
    def joined(e: DataFrame): DataFrame = {
      val indeg = e.groupBy(col("dst").as("node")).agg(count(lit(1)).as("in_degree"))
      e.join(indeg, e("dst") === indeg("node"))
        .select(col("src"), col("dst"), (lit(1.0) / col("in_degree")).as("weight"))
    }
    def bits(df: DataFrame) = df.collect()
      .map(r => (r.getInt(0), r.getInt(1)) -> java.lang.Double.doubleToRawLongBits(r.getDouble(2))).toMap
    val table2 = GraphOps.symmetrize(Generators.randomRegular(spark, 5000, 7, seed = 21))
    val powerLaw = GraphOps.symmetrize(Generators.chungLuPowerLaw(spark, 500, 2000, 0.66, seed = 3))
    for ((name, e) <- Seq("Table 2 (7-regular)" -> table2, "ER" -> edges, "Chung–Lu" -> powerLaw)) {
      val window = EdgeWeights.weightedCascade(e)
      assert(window.schema == joined(e).schema, name)
      val (w, j) = (bits(window), bits(joined(e)))
      assert(w.size == e.count() && w == j, name)
    }
  }

  test("WC: incoming weights of every node sum to exactly 1") {
    val sums = EdgeWeights.weightedCascade(edges)
      .groupBy("dst").sum("weight").collect().map(_.getDouble(1))
    sums.foreach(s => assert(math.abs(s - 1.0) < 1e-9, s"in-weight sum $s"))
  }

  test("WC: preserves the edge multiset") {
    val before = edges.collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    val after = EdgeWeights.weightedCascade(edges).collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    assert(before == after)
  }

  test("apply dispatches by model name") {
    assert(EdgeWeights("TV", edges, 1).columns.toSeq == Seq("src", "dst", "weight"))
    assert(EdgeWeights("UR", edges, 1).columns.toSeq == Seq("src", "dst", "weight"))
    assert(EdgeWeights("WC", edges, 1).columns.toSeq == Seq("src", "dst", "weight"))
  }

  test("apply rejects unknown model names") {
    assertThrows[IllegalArgumentException](EdgeWeights("XX", edges, 1))
  }

  test("All lists the paper's three models in row order") {
    assert(EdgeWeights.All == Seq("TV", "UR", "WC"))
  }

  test("normalizeForLT: incoming sums are at most 1 afterwards") {
    val normalized = EdgeWeights.normalizeForLT(EdgeWeights.uniformRandom(edges, seed = 9))
    val sums = normalized.groupBy("dst").sum("weight").collect().map(_.getDouble(1))
    sums.foreach(s => assert(s <= 1.0 + 1e-9, s"in-weight sum $s exceeds 1"))
  }

  test("normalizeForLT: leaves already-feasible weights untouched") {
    val wc = EdgeWeights.weightedCascade(edges)
    val normalized = EdgeWeights.normalizeForLT(wc)
    val before = wc.collect().map(r => (r.getInt(0), r.getInt(1)) -> r.getDouble(2)).toMap
    val after = normalized.collect().map(r => (r.getInt(0), r.getInt(1)) -> r.getDouble(2)).toMap
    before.foreach { case (k, w) => assert(math.abs(after(k) - w) < 1e-9) }
  }

  test("normalizeForLT agrees with DuckDB") {
    val ur = EdgeWeights.uniformRandom(edges, seed = 9)
    Oracle.assertEquivalent(
      EdgeWeights.normalizeForLT(ur),
      "SELECT w.src as src, w.dst as dst, " +
        "cast(w.weight as double) / greatest(1.0, s.in_sum) as weight FROM w " +
        "JOIN (SELECT dst, sum(cast(weight as double)) as in_sum FROM w GROUP BY dst) s " +
        "ON w.dst = s.dst",
      "w" -> ur,
    )
  }

  test("TV weights survive the DataFrame → CSR conversion intact") {
    val tv = EdgeWeights.trivalency(edges, seed = 5)
    val triples = GraphOps.toTriples(tv)
    val fromDf = tv.collect().map(r => (r.getInt(0), r.getInt(1)) -> r.getDouble(2)).toMap
    triples.foreach { case (u, v, w) => assert(fromDf((u, v)) == w) }
  }
}
