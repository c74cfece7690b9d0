package repro.core

import repro.{PropHelpers, SparkSpec}

/** CSR construction, invariants, degree math, DataFrame round-trip. */
class CsrGraphSpec extends SparkSpec with PropHelpers {

  private val triangle = Seq((0, 1, 0.5), (1, 2, 0.25), (2, 0, 0.75))

  /** The boxed builder `fromTriples` replaced (filter through a
    * `HashSet[Long]`, then `sortBy` on the (src, dst) key), kept as the
    * reference the counting sort must reproduce array for array.
    */
  private def referenceBuild(n: Int, triples: Seq[(Int, Int, Double)]): CsrGraph = {
    val seen = new java.util.HashSet[Long]()
    val uniq = triples.filter { case (u, v, _) =>
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u,$v) out of range [0,$n)")
      seen.add((u.toLong << 32) | (v.toLong & 0xffffffffL))
    }
    val sorted = uniq.sortBy { case (u, v, _) => (u, v) }
    val offsets = new Array[Int](n + 1)
    sorted.foreach { case (u, _, _) => offsets(u + 1) += 1 }
    (0 until n).foreach(v => offsets(v + 1) += offsets(v))
    new CsrGraph(n, offsets, sorted.map(_._2).toArray, sorted.map(_._3).toArray)
  }

  private def assertSameArrays(a: CsrGraph, b: CsrGraph, clue: => String): Unit = {
    assert(a.n == b.n, clue)
    assert(a.offsets.toSeq == b.offsets.toSeq, s"offsets: $clue")
    assert(a.targets.toSeq == b.targets.toSeq, s"targets: $clue")
    // Compare bits, so a different one of two conflicting weights shows.
    assert(a.weights.map(java.lang.Double.doubleToRawLongBits).toSeq ==
      b.weights.map(java.lang.Double.doubleToRawLongBits).toSeq, s"weights: $clue")
  }

  test("fromTriples builds correct offsets for a triangle") {
    val g = CsrGraph.fromTriples(3, triangle)
    assert(g.offsets.toSeq == Seq(0, 1, 2, 3))
  }

  test("fromTriples stores targets and weights in row order") {
    val g = CsrGraph.fromTriples(3, triangle)
    assert(g.targets.toSeq == Seq(1, 2, 0))
    assert(g.weights.toSeq == Seq(0.5, 0.25, 0.75))
  }

  test("m is the number of directed edges") {
    assert(CsrGraph.fromTriples(3, triangle).m == 3)
  }

  test("outDegree matches the triple multiset") {
    val g = CsrGraph.fromTriples(4, Seq((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (2, 1, 1.0)))
    assert(g.outDegree(0) == 3)
    assert(g.outDegree(1) == 0)
    assert(g.outDegree(2) == 1)
    assert(g.outDegree(3) == 0)
  }

  test("inDegrees matches the triple multiset") {
    val g = CsrGraph.fromTriples(4, Seq((0, 1, 1.0), (0, 2, 1.0), (3, 1, 1.0)))
    assert(g.inDegrees.toSeq == Seq(0, 2, 1, 0))
  }

  test("inWeightSums sums incoming weights") {
    val g = CsrGraph.fromTriples(3, Seq((0, 2, 0.25), (1, 2, 0.5)))
    assert(g.inWeightSums.toSeq == Seq(0.0, 0.0, 0.75))
  }

  test("targets within a row are sorted") {
    val g = CsrGraph.fromTriples(4, Seq((0, 3, 1.0), (0, 1, 2.0), (0, 2, 3.0)))
    assert(g.targets.toSeq == Seq(1, 2, 3))
    assert(g.weights.toSeq == Seq(2.0, 3.0, 1.0))
  }

  test("duplicate (src, dst) pairs are dropped keeping the first weight") {
    val g = CsrGraph.fromTriples(2, Seq((0, 1, 0.9), (0, 1, 0.1)))
    assert(g.m == 1)
    assert(g.weights.toSeq == Seq(0.9))
  }

  test("counting-sort builder equals the reference builder on random triples") {
    val fixed = Seq(
      1 -> Nil,
      1 -> Seq((0, 0, 0.5), (0, 0, 0.25)),
      2 -> Seq((1, 0, 0.1), (0, 1, 0.2), (1, 0, 0.3), (1, 1, 0.4), (0, 1, 0.5)),
      5 -> Seq((4, 4, 1.0), (4, 0, 0.5), (4, 4, 0.0), (0, 4, 0.75)),
    )
    for ((n, triples) <- fixed)
      assertSameArrays(CsrGraph.fromTriples(n, triples), referenceBuild(n, triples), s"n=$n $triples")
    // Few distinct ids relative to the edge count, so repeated pairs with
    // conflicting weights, self-loops and empty rows are all common.
    forAllRandom(iters = 300) { rnd =>
      val n = 1 + rnd.nextInt(12)
      val triples = Seq.fill(rnd.nextInt(80)) {
        val w = if (rnd.nextInt(4) == 0) rnd.nextInt(3).toDouble else rnd.nextDouble()
        (rnd.nextInt(n), rnd.nextInt(n), w)
      }
      assertSameArrays(CsrGraph.fromTriples(n, triples), referenceBuild(n, triples), s"n=$n $triples")
    }
  }

  test("non-finite weights are rejected with a message naming the edge") {
    for (w <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val e = intercept[IllegalArgumentException](
        CsrGraph.fromTriples(3, Seq((0, 1, 0.5), (1, 2, w), (2, 0, 0.25))))
      assert(e.getMessage.contains("edge (1,2)") && e.getMessage.contains(w.toString), e.getMessage)
    }
    // A repeated pair is rejected too, although the builder would drop it.
    assertThrows[IllegalArgumentException](CsrGraph.fromTriples(2, Seq((0, 1, 0.5), (0, 1, Double.NaN))))
  }

  test("out-of-range node ids are rejected") {
    assertThrows[IllegalArgumentException](CsrGraph.fromTriples(2, Seq((0, 2, 1.0))))
    assertThrows[IllegalArgumentException](CsrGraph.fromTriples(2, Seq((-1, 0, 1.0))))
  }

  test("empty graph has n rows and zero edges") {
    val g = CsrGraph.fromTriples(5, Nil)
    assert(g.n == 5 && g.m == 0)
    assert(g.offsets.toSeq == Seq.fill(6)(0))
  }

  test("edgeTriples round-trips the (deduplicated, sorted) input") {
    val g = CsrGraph.fromTriples(3, triangle)
    assert(g.edgeTriples.toSet == triangle.toSet)
  }

  test("mapWeights rewrites every weight and preserves structure") {
    val g = CsrGraph.fromTriples(3, triangle).mapWeights((_, _, w) => w * 2)
    assert(g.weights.toSeq == Seq(1.0, 0.5, 1.5))
    assert(g.targets.toSeq == Seq(1, 2, 0))
  }

  test("mapWeights sees the correct (src, dst) for each edge") {
    val g = CsrGraph.fromTriples(3, triangle).mapWeights((u, v, _) => u * 10.0 + v)
    assert(g.edgeTriples.toSet == Set((0, 1, 1.0), (1, 2, 12.0), (2, 0, 20.0)))
  }

  test("constructor validates offsets length") {
    assertThrows[IllegalArgumentException](
      new CsrGraph(2, Array(0, 0), Array.emptyIntArray, Array.emptyDoubleArray))
  }

  test("constructor validates offsets endpoints") {
    assertThrows[IllegalArgumentException](
      new CsrGraph(1, Array(0, 1), Array.emptyIntArray, Array.emptyDoubleArray))
  }

  test("constructor validates weights length") {
    assertThrows[IllegalArgumentException](
      new CsrGraph(1, Array(0, 1), Array(0), Array.emptyDoubleArray))
  }

  test("fromDataFrame equals fromTriples on the same edges") {
    import spark.implicits._
    val df = triangle.toDF("src", "dst", "weight")
    val a = CsrGraph.fromDataFrame(df, 3)
    val b = CsrGraph.fromTriples(3, triangle)
    assert(a.offsets.toSeq == b.offsets.toSeq)
    assert(a.targets.toSeq == b.targets.toSeq)
    assert(a.weights.toSeq == b.weights.toSeq)
  }

  test("random graphs satisfy CSR invariants") {
    forAllRandom(iters = 50) { rnd =>
      val n = 1 + rnd.nextInt(30)
      val edges = Seq.fill(rnd.nextInt(60))((rnd.nextInt(n), rnd.nextInt(n), rnd.nextDouble()))
      val g = CsrGraph.fromTriples(n, edges)
      assert(g.offsets.sliding(2).forall(p => p(0) <= p(1)), "offsets must be monotone")
      assert(g.m == edges.map(e => (e._1, e._2)).distinct.size)
      assert((0 until g.n).map(g.outDegree).sum == g.m)
      assert(g.inDegrees.sum == g.m)
    }
  }

  test("degree sums agree between CSR and DataFrame aggregation") {
    import spark.implicits._
    val edges = Seq((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (3, 0, 1.0))
    val g = CsrGraph.fromTriples(4, edges)
    val df = edges.toDF("src", "dst", "weight")
    val dfOut = df.groupBy("src").count().collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    (0 until 4).foreach(v => assert(g.outDegree(v).toLong == dfOut.getOrElse(v, 0L)))
  }
}
