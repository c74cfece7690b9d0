package repro.perfbench

import repro.baselines.BoxedFrontier
import repro.core.{CsrGraph, IcSimulator, IndependentCascade, LinearThreshold, LtSimulator, SimResult}
import repro.experiments.Table1
import repro.graph.Generators

/** Workload `sim_grid`: Table 1's nine IC cells (ER / WS / Facebook
  * substitute × TV / UR / WC, 100 seeds) on `IcSimulator`, plus one LT cell
  * per graph on WC weights on `LtSimulator`, each with a fixed trial count.
  *
  * Large cascades and the heaviest input pipeline (3 graphs × 3 weightings):
  * it stresses repro.graph, repro.weights, `CsrGraph.fromTriples` and kernel
  * throughput. One pass runs the twelve cells in a fixed order; an operation
  * is one cell, its latency samples are single trials. The traced run also
  * measures the Spark layer on the Facebook substitute ([[SparkMc]]).
  */
object SimGrid {

  private final class Cell(val b: Built, val ewm: String, val lt: Boolean, val seeds: Array[Int], worlds: Long) {
    val g: CsrGraph = b.csr(ewm)
    val name: String = s"${b.name}_$ewm"
    val layer: String = if (lt) "core.lt" else "core.ic"
    val count: Long => Int =
      if (lt) { val s = new LtSimulator(g, worlds); t => s.activatedCount(seeds, t) }
      else { val s = new IcSimulator(g, worlds); t => s.activatedCount(seeds, t) }
    def simulate(t: Long): SimResult =
      if (lt) LinearThreshold.simulate(g, seeds, t, worlds) else IndependentCascade.simulate(g, seeds, t, worlds)
    def boxed(adj: Map[Int, Vector[(Int, Double)]], t: Long): SimResult =
      if (lt) BoxedFrontier.simulateLT(b.n, adj, seeds.toSeq, t, worlds)
      else BoxedFrontier.simulateIC(b.n, adj, seeds.toSeq, t, worlds)
    var refActivations = 0L // Σ over one pass's trials, from `simulate`
    var refEdges = 0L
    val tracedNs = Seq.newBuilder[Long] // cell wall time of each warm traced pass
  }

  def run(ctx: Ctx): Outcome = {
    import ctx.spark
    val smoke = ctx.smoke
    val trials = if (smoke) 20 else 200
    val nSeeds = if (smoke) 20 else 100
    val worlds = ctx.derive("worlds")
    val ewms = Seq("TV", "UR", "WC")

    val (graphs, buildS) = ctx.buildPhase {
      if (smoke) Seq(
        ctx.build("ER", 400, Generators.erdosRenyi(spark, 400, 0.03, ctx.derive("gen-ER")), ewms),
        ctx.build("WS", 400, Generators.wattsStrogatz(spark, 400, 6, 0.1, ctx.derive("gen-WS")), ewms),
        ctx.build("FB", 800, Generators.chungLuPowerLaw(spark, 800, 6000, 0.66, ctx.derive("gen-FB")), ewms),
      )
      else Seq(
        ctx.build("ER", 2000, Generators.erdosRenyi(spark, 2000, 0.01, ctx.derive("gen-ER")), ewms),
        ctx.build("WS", 2000, Generators.wattsStrogatz(spark, 2000, 10, 0.1, ctx.derive("gen-WS")), ewms),
        ctx.build("FB", 4039, Generators.chungLuPowerLaw(spark, 4039, 88234, 0.66, ctx.derive("gen-FB")), ewms),
      )
    }

    val seedSets = graphs.map(b => b.name -> Table1.pickSeeds(b.n, nSeeds, ctx.derive(s"seeds-${b.name}"))).toMap
    val cells =
      (for (b <- graphs; ewm <- ewms) yield new Cell(b, ewm, lt = false, seedSets(b.name), worlds)) ++
        graphs.map(b => new Cell(b, "WC", lt = true, seedSets(b.name), worlds))

    // Untimed reference pass: exact activations and edges scanned per cell.
    val refCounts = cells.map { c =>
      Array.tabulate(trials) { t =>
        val r = c.simulate(t.toLong)
        c.refActivations += r.totalActivated
        c.refEdges += Ctx.edgesScanned(c.g, r.activationStep)
        r.totalActivated
      }
    }

    val latencies = Array.newBuilder[Long]
    var attempted, failed = 0L
    val passS = ctx.measure { pass =>
      val lat = new Array[Long](cells.size * trials)
      var k = 0
      for (c <- cells) {
        var sum = 0L
        val start = System.nanoTime()
        ctx.tracer.span(c.layer + ".cell", "cell" -> c.name) {
          var t = 0
          while (t < trials) {
            val a = System.nanoTime()
            sum += c.count(t.toLong)
            lat(k) = System.nanoTime() - a
            k += 1
            t += 1
          }
        }
        if (ctx.tracer.enabled && ctx.warm(pass)) c.tracedNs += System.nanoTime() - start
        attempted += 1
        if (!ctx.attempt(sum == c.refActivations, s"${c.layer} ${c.name} pass $pass: $sum activations, simulate gives ${c.refActivations}"))
          failed += 1
      }
      if (ctx.warm(pass)) latencies ++= lat
    }

    // Untimed output checks: a fresh simulator's count of every trial equals
    // `simulate`'s; on sampled trials it also equals the size of the
    // activated set and the boxed baseline's count. A failing cell fails
    // every pass it ran in.
    val passes = passS.size
    val adjacency = cells.groupBy(c => (c.b.name, c.ewm)).map { case (k, cs) =>
      k -> BoxedFrontier.buildAdjacency(cs.head.b.triples(cs.head.ewm))
    }
    for ((c, ref) <- cells.zip(refCounts)) {
      val adj = adjacency((c.b.name, c.ewm))
      val fresh = new Cell(c.b, c.ewm, c.lt, c.seeds, worlds)
      val ok = ctx.attempt(
        (0 until trials).forall(t => fresh.count(t.toLong) == ref(t)) &&
          (0 until 3).forall(t => c.simulate(t.toLong).activatedSet.size == ref(t) && c.boxed(adj, t.toLong).totalActivated == ref(t)),
        s"${c.layer} ${c.name}: simulator, simulate and boxed counts disagree")
      if (!ok) failed += passes
    }

    val detail = Map.newBuilder[String, Double]
    val layers = Map.newBuilder[String, Double]
    for ((layer, cs) <- cells.groupBy(_.layer)) {
      val edges = cs.map(_.refEdges).sum.toDouble
      val n = cs.size.toDouble * trials
      layers += s"$layer.trials" -> n
      layers += s"$layer.edges_per_trial" -> edges / n
      layers += s"$layer.activations_per_trial" -> cs.map(_.refActivations).sum / n
      val tracedNs = cs.map(_.tracedNs.result())
      if (tracedNs.forall(_.nonEmpty)) {
        val ns = cs.zip(tracedNs).map { case (c, xs) => Stats.median(xs.map(_.toDouble)) }
        layers += s"$layer.medges_per_s" -> edges * 1e3 / ns.sum
        for ((c, cellNs) <- cs.zip(ns)) {
          detail += s"$layer.ns_per_edge.${c.name}" -> cellNs / c.refEdges
          detail += s"$layer.edges_per_trial.${c.name}" -> c.refEdges.toDouble / trials
          detail += s"$layer.activations_per_trial.${c.name}" -> c.refActivations.toDouble / trials
        }
      }
    }
    var exact: Map[String, Any] = cells.map(c => s"${c.layer}.${c.name}" -> Seq(c.refActivations, c.refEdges)).toMap

    if (ctx.traced) {
      val fb = graphs.find(_.name == "FB").get
      val s = SparkMc.run(ctx, fb.csr("WC"), seedSets("FB"))
      attempted += s.attempted
      failed += s.failed
      layers ++= s.layers
      detail ++= s.detail
      exact ++= s.exact
    }

    Outcome(buildS, passS, latencies.result(), attempted, failed, layers.result(), detail.result(), exact)
  }
}
