package repro.core

import repro.{PropHelpers, SparkSpec}
import repro.graph.{Generators, GraphOps}
import repro.im.CsrEstimator
import repro.weights.EdgeWeights

/** The memoised live-edge worlds behind `CsrEstimator` (IC) against the
  * per-trial `IcSimulator`: every world's count equals the simulator's, the
  * sums are the same `Long`, and σ̂ is the same `Double` bit for bit,
  * whatever rows earlier calls happened to record.
  */
class LiveEdgeWorldsSpec extends SparkSpec with PropHelpers {

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  /** Checks every seed set on one fresh worlds object and one fresh
    * estimator, in the given order, so rows recorded by earlier sets are
    * reused by later ones.
    */
  private def assertAgrees(g: CsrGraph, trials: Int, seed: Long, seedSets: Iterable[Array[Int]]): Unit = {
    val sim = new IcSimulator(g, seed)
    val worlds = new LiveEdgeWorlds(g, trials, seed)
    val est = new CsrEstimator(g, trials, seed)
    for (s <- seedSets) {
      val want = Array.tabulate(trials)(t => sim.activatedCount(s, t.toLong))
      val wantSum = want.map(_.toLong).sum
      val label = s"seeds ${s.mkString(",")}, trials $trials"
      val sigma = est.sigma(s.toSeq)
      assert(bits(sigma) == bits(wantSum.toDouble / trials), label)
      assert(bits(sigma) == bits(sim.meanInfluence(s, trials)), label)
      assert(worlds.activatedSum(s) == wantSum, label)
      for (t <- 0 until trials) assert(worlds.activatedCount(s, t) == want(t), s"$label, world $t")
    }
  }

  private def randomGraph(rnd: scala.util.Random, n: Int, m: Int): CsrGraph =
    CsrGraph.fromTriples(n, Seq.fill(m) {
      val w = rnd.nextInt(4) match { case 0 => 0.0; case 1 => 1.0; case _ => rnd.nextDouble() }
      (rnd.nextInt(n), rnd.nextInt(n), w)
    })

  // Table 2's graph: random 7-regular, n = 5,000, 100 worlds.
  private lazy val table2Edges =
    GraphOps.symmetrize(Generators.randomRegular(spark, 5000, 7, seed = 21)).persist()

  for (ewm <- Seq("TV", "WC")) {
    test(s"every singleton of the Table 2 graph matches IcSimulator in every world ($ewm)") {
      val g = CsrGraph.fromTriples(5000, GraphOps.toTriples(EdgeWeights(ewm, table2Edges, seed = 31)))
      assertAgrees(g, 100, 7, (0 until g.n).map(v => Array(v)))
    }
  }

  test("trials 1, 2 and 100 match IcSimulator") {
    val g = randomGraph(new scala.util.Random(1), 60, 400)
    val sets = Seq(Array(0), Array(3, 17, 42), Array(59), (0 until 60).toArray)
    for (trials <- Seq(1, 2, 100)) assertAgrees(g, trials, 5, sets)
  }

  test("duplicate and empty seed sets") {
    val g = randomGraph(new scala.util.Random(2), 30, 150)
    assertAgrees(g, 20, 9, Seq(Array.empty[Int], Array(4, 4, 4), Array(1, 2, 1, 2), Array.empty[Int]))
    val est = new CsrEstimator(g, 20, 9)
    assert(est.sigma(Seq.empty) == 0.0)
    assert(bits(est.sigma(Seq(4, 4, 7, 4))) == bits(est.sigma(Seq(4, 7))))
  }

  test("zero-out-degree nodes") {
    // 3 and 4 are sinks, 5 is isolated.
    val g = CsrGraph.fromTriples(6, Seq((0, 1, 0.7), (1, 3, 0.6), (0, 4, 0.5), (2, 3, 0.9)))
    assertAgrees(g, 50, 3, Seq(Array(3), Array(5), Array(0), Array(4, 5), Array(0, 2)))
    assert(new CsrEstimator(g, 50, 3).sigma(Seq(5)) == 1.0)
  }

  test("weight 0 edges are never live and weight 1 edges always are") {
    val path = (0 until 39).map(i => (i, i + 1, 1.0))
    val dead = (0 until 39).map(i => (i, i + 1, 0.0))
    val live = CsrGraph.fromTriples(40, path)
    val none = CsrGraph.fromTriples(40, dead)
    // 100 worlds of a 39-edge live path record 3,900 targets: liveTo grows.
    assertAgrees(live, 100, 4, Seq(Array(0), Array(20), Array(39)))
    assertAgrees(none, 100, 4, Seq(Array(0), Array(20)))
    assert(new CsrEstimator(live, 100, 4).sigma(Seq(0)) == 40.0)
    assert(new CsrEstimator(none, 100, 4).sigma(Seq(0, 1)) == 2.0)
  }

  test("self-loops") {
    val g = CsrGraph.fromTriples(4, Seq((0, 0, 1.0), (0, 1, 0.5), (1, 1, 0.3), (1, 2, 0.8), (3, 3, 0.0)))
    assertAgrees(g, 40, 6, Seq(Array(0), Array(1), Array(3), Array(0, 3)))
  }

  test("random graphs, seed sets and trial counts match IcSimulator") {
    forAllRandom(iters = 150) { rnd =>
      val n = 1 + rnd.nextInt(40)
      val g = randomGraph(rnd, n, rnd.nextInt(200))
      val trials = 1 + rnd.nextInt(30)
      val sets = Seq.fill(1 + rnd.nextInt(6))(Array.fill(rnd.nextInt(5))(rnd.nextInt(n)))
      assertAgrees(g, trials, rnd.nextLong(), sets)
    }
  }

  test("σ̂ does not depend on which rows earlier calls recorded") {
    forAllRandom(iters = 30, seed = 77) { rnd =>
      val g = randomGraph(rnd, 2 + rnd.nextInt(50), rnd.nextInt(250))
      val sets = Seq.fill(10)(Seq.fill(1 + rnd.nextInt(3))(rnd.nextInt(g.n)))
      val fresh = sets.map(s => new CsrEstimator(g, 25, 8).sigma(s))
      // every node is a seed in every world, so this records every row
      val full = new CsrEstimator(g, 25, 8)
      full.sigma(0 until g.n)
      val reversed = new CsrEstimator(g, 25, 8)
      val backwards = sets.reverse.map(reversed.sigma).reverse
      assert(sets.map(full.sigma).map(bits) == fresh.map(bits))
      assert(backwards.map(bits) == fresh.map(bits))
    }
  }

  test("seed ids are checked once per call with the id and n") {
    val g = CsrGraph.fromTriples(4, Seq((0, 1, 1.0)))
    val worlds = new LiveEdgeWorlds(g, 3, 1)
    for (bad <- Seq(-1, 4)) {
      val calls: Seq[() => Any] = Seq(() => worlds.activatedSum(Array(0, bad)), () => worlds.activatedCount(Array(bad), 0))
      calls.foreach { call =>
        val e = intercept[IllegalArgumentException](call())
        assert(e.getMessage == s"seed id $bad is outside [0, 4)", e.getMessage)
      }
    }
    assert(worlds.activatedSum(Array(0)) == 6) // a rejected call leaves the worlds usable
    for (bad <- Seq(-1, 3)) assertThrows[IllegalArgumentException](worlds.activatedCount(Array(0), bad))
  }

  test("an offsets table that overflows Int indexing is rejected before allocating") {
    val g = CsrGraph.fromTriples(50000, Seq.empty)
    for (make <- Seq(() => new LiveEdgeWorlds(g, 50000, 1), () => new CsrEstimator(g, 50000, 1))) {
      val e = intercept[IllegalArgumentException](make())
      assert(e.getMessage.contains("n = 50000") && e.getMessage.contains("trials = 50000"), e.getMessage)
    }
    // LT keeps the per-trial simulator and needs no offsets table.
    assert(new CsrEstimator(g, 50000, 1, LinearThreshold).sigma(Seq.empty) == 0.0)
  }
}
