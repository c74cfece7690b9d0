package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers
import repro.baselines.BoxedFrontier

/** Reusable-state simulators vs the boxed-frontier reference paths.
  * The epoch-marking scheme must never leak state across trials or across
  * changing seed sets — every test interleaves calls to provoke staleness.
  */
class SimulatorsSpec extends AnyFunSuite with PropHelpers {

  private def randomGraph(rnd: scala.util.Random, n: Int, m: Int): CsrGraph =
    CsrGraph.fromTriples(n, Seq.fill(m)((rnd.nextInt(n), rnd.nextInt(n), rnd.nextDouble()))
      .filter(e => e._1 != e._2))

  private def randomLtGraph(rnd: scala.util.Random, n: Int, m: Int): CsrGraph = {
    val raw = Seq.fill(m)((rnd.nextInt(n), rnd.nextInt(n), rnd.nextDouble()))
      .filter(e => e._1 != e._2)
    val sums = raw.groupBy(_._2).map { case (v, es) => v -> es.map(_._3).sum }
    CsrGraph.fromTriples(n, raw.map { case (u, v, w) => (u, v, w / math.max(1.0, sums(v))) })
  }

  private def boxed(g: CsrGraph) = BoxedFrontier.buildAdjacency(g.edgeTriples)

  test("IcSimulator matches IndependentCascade.activatedCount across sequential trials") {
    forAllRandom(iters = 40) { rnd =>
      val g = randomGraph(rnd, 3 + rnd.nextInt(25), rnd.nextInt(120))
      val adj = boxed(g)
      val seeds = Array.fill(1 + rnd.nextInt(3))(rnd.nextInt(g.n))
      val sim = new IcSimulator(g, 7)
      (0 until 20).foreach { t =>
        assert(sim.activatedCount(seeds, t.toLong) ==
          BoxedFrontier.activatedCountIC(adj, seeds.toSeq, t.toLong, 7), s"trial $t")
      }
    }
  }

  test("LtSimulator matches LinearThreshold.activatedCount across sequential trials") {
    forAllRandom(iters = 40) { rnd =>
      val g = randomLtGraph(rnd, 3 + rnd.nextInt(25), rnd.nextInt(120))
      val adj = boxed(g)
      val seeds = Array.fill(1 + rnd.nextInt(3))(rnd.nextInt(g.n))
      val sim = new LtSimulator(g, 7)
      (0 until 20).foreach { t =>
        assert(sim.activatedCount(seeds, t.toLong) ==
          BoxedFrontier.activatedCountLT(adj, seeds.toSeq, t.toLong, 7), s"trial $t")
      }
    }
  }

  test("IcSimulator is immune to stale state when seed sets change between calls") {
    forAllRandom(iters = 40) { rnd =>
      val g = randomGraph(rnd, 5 + rnd.nextInt(20), rnd.nextInt(120))
      val adj = boxed(g)
      val sim = new IcSimulator(g, 11)
      (0 until 15).foreach { i =>
        val seeds = Array.fill(1 + rnd.nextInt(4))(rnd.nextInt(g.n))
        val t = rnd.nextInt(8).toLong // deliberately repeat trial indices
        assert(sim.activatedCount(seeds, t) ==
          BoxedFrontier.activatedCountIC(adj, seeds.toSeq, t, 11), s"call $i")
      }
    }
  }

  test("LtSimulator is immune to stale accumulator state across calls") {
    forAllRandom(iters = 40) { rnd =>
      val g = randomLtGraph(rnd, 5 + rnd.nextInt(20), rnd.nextInt(120))
      val adj = boxed(g)
      val sim = new LtSimulator(g, 13)
      (0 until 15).foreach { i =>
        val seeds = Array.fill(1 + rnd.nextInt(4))(rnd.nextInt(g.n))
        val t = rnd.nextInt(8).toLong
        assert(sim.activatedCount(seeds, t) ==
          BoxedFrontier.activatedCountLT(adj, seeds.toSeq, t, 13), s"call $i")
      }
    }
  }

  test("simulate on a reused simulator records the same steps as the boxed frontier") {
    for (model <- Seq(IndependentCascade, LinearThreshold)) {
      forAllRandom(iters = 40) { rnd =>
        val g =
          if (model == IndependentCascade) randomGraph(rnd, 5 + rnd.nextInt(30), rnd.nextInt(150))
          else randomLtGraph(rnd, 5 + rnd.nextInt(30), rnd.nextInt(150))
        val adj = boxed(g)
        val sim = model.simulator(g, 31)
        (0 until 15).foreach { i =>
          val seeds = Array.fill(rnd.nextInt(5))(rnd.nextInt(g.n))
          val t = rnd.nextInt(6).toLong // repeated trial ids, changing seed sets
          if (rnd.nextBoolean()) sim.activatedCount(Array(rnd.nextInt(g.n)), rnd.nextInt(6).toLong)
          val got = sim.simulate(seeds, t)
          val want =
            if (model == IndependentCascade) BoxedFrontier.simulateIC(g.n, adj, seeds.toSeq, t, 31)
            else BoxedFrontier.simulateLT(g.n, adj, seeds.toSeq, t, 31)
          assert(got.activationStep.toSeq == want.activationStep.toSeq, s"$model call $i")
          assert(got.newPerStep.toSeq == want.newPerStep.toSeq, s"$model call $i")
        }
      }
    }
  }

  test("seed ids outside [0, n) are rejected with the id and n") {
    val g = CsrGraph.fromTriples(4, Seq((0, 1, 1.0)))
    for (model <- Seq(IndependentCascade, LinearThreshold); bad <- Seq(-1, 4)) {
      val sim = model.simulator(g, 1)
      val calls: Seq[() => Any] = Seq(
        () => sim.activatedCount(Array(0, bad), 0),
        () => sim.simulate(Array(bad), 0),
        () => model.simulate(g, Array(bad), 0, 1),
      )
      calls.foreach { call =>
        val e = intercept[IllegalArgumentException](call())
        assert(e.getMessage.contains(s"seed id $bad ") && e.getMessage.contains("[0, 4)"), e.getMessage)
      }
      assert(sim.activatedCount(Array(0), 0) == 2) // a rejected call leaves the simulator usable
    }
  }

  test("repeating the same trial on one simulator instance is idempotent") {
    val rnd = new scala.util.Random(3)
    val g = randomGraph(rnd, 30, 150)
    val sim = new IcSimulator(g, 17)
    val seeds = Array(0, 5)
    val first = sim.activatedCount(seeds, 4)
    (0 until 10).foreach(_ => assert(sim.activatedCount(seeds, 4) == first))
  }

  test("IcSimulator.meanInfluence equals the static meanInfluence") {
    val rnd = new scala.util.Random(9)
    val g = randomGraph(rnd, 40, 200)
    val seeds = Array(1, 2)
    assert(new IcSimulator(g, 19).meanInfluence(seeds, 50) ==
      IndependentCascade.meanInfluence(g, seeds, 50, 19))
  }

  test("LtSimulator.meanInfluence equals the static meanInfluence") {
    val rnd = new scala.util.Random(9)
    val g = randomLtGraph(rnd, 40, 200)
    val seeds = Array(1, 2)
    assert(new LtSimulator(g, 19).meanInfluence(seeds, 50) ==
      LinearThreshold.meanInfluence(g, seeds, 50, 19))
  }

  test("meanInfluence rejects non-positive trials") {
    val g = CsrGraph.fromTriples(2, Seq((0, 1, 0.5)))
    assertThrows[IllegalArgumentException](new IcSimulator(g, 1).meanInfluence(Array(0), 0))
    assertThrows[IllegalArgumentException](new LtSimulator(g, 1).meanInfluence(Array(0), 0))
  }

  test("duplicate seeds are deduplicated by both simulators") {
    val g = CsrGraph.fromTriples(3, Seq((0, 1, 0.0)))
    assert(new IcSimulator(g, 1).activatedCount(Array(0, 0, 0), 0) == 1)
    assert(new LtSimulator(g, 1).activatedCount(Array(0, 0, 0), 0) == 1)
  }

  test("empty seed set activates nothing on either simulator") {
    val g = CsrGraph.fromTriples(3, Seq((0, 1, 1.0)))
    assert(new IcSimulator(g, 1).activatedCount(Array.empty, 0) == 0)
    assert(new LtSimulator(g, 1).activatedCount(Array.empty, 0) == 0)
  }
}
