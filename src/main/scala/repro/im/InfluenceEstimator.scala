package repro.im

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import repro.baselines.{BoxedFrontier, FullScan}
import repro.core.{CsrGraph, IndependentCascade, LinearThreshold, LiveEdgeWorlds, Model}
import repro.spark.MonteCarlo

/** Monte-Carlo influence function σ̂(S) with a pluggable simulation backend —
  * the "CELF with different backends" axis of the paper's Table 2.
  *
  * Every backend evaluates the *same* fixed set of live-edge/threshold
  * worlds (trials 0 until `trials` with the shared counter-based RNG), so:
  *   - all backends return bit-identical σ̂ for the same S (tested), and
  *   - for IC, σ̂ is an average of per-world reachability coverages, hence
  *     monotone submodular, making lazy (CELF) and full greedy provably
  *     pick identical seed sets.
  */
trait InfluenceEstimator {
  /** Backend name as it appears in benchmark output. */
  def name: String

  /** Estimated expected number of activated nodes for seed set `seeds`. */
  def sigma(seeds: Seq[Int]): Double
}

/** σ̂ via the CSR frontier engine (the CyNetDiff analog): per-evaluation
  * cost is proportional to the touched edges, not to graph size — the
  * property Table 2 measures.
  *
  * IC memoises its worlds ([[LiveEdgeWorlds]]): each node's live out-edges
  * are sampled once per world and every later σ̂ call follows only those,
  * which CyNetDiff does not do. LT runs the reusable [[repro.core.LtSimulator]]
  * per world, since its thresholds accumulate over in-edges rather than
  * deciding each edge by its own coin.
  */
final class CsrEstimator(g: CsrGraph, trials: Int, seed: Long, model: Model = IndependentCascade)
    extends InfluenceEstimator {
  require(trials > 0, "trials must be positive")
  private val mean: Array[Int] => Double = model match {
    case IndependentCascade => new LiveEdgeWorlds(g, trials, seed).meanInfluence
    case LinearThreshold =>
      val sim = model.simulator(g, seed)
      seeds => sim.meanInfluence(seeds, trials)
  }
  val name: String = "csr"
  def sigma(seeds: Seq[Int]): Double = mean(seeds.toArray)
}

/** The trial loop the two baseline backends share: σ̂ is the mean of
  * `count(seeds, trial)` over trials [0, trials).
  */
sealed abstract class BaselineEstimator(trials: Int) extends InfluenceEstimator {
  require(trials > 0, "trials must be positive")
  protected def count(seeds: Seq[Int], trial: Long): Int
  final def sigma(seeds: Seq[Int]): Double = {
    var sum = 0L
    var t = 0
    while (t < trials) { sum += count(seeds, t.toLong); t += 1 }
    sum.toDouble / trials
  }
}

/** σ̂ via the boxed-frontier baseline (the pure-Python analog). */
final class BoxedEstimator(n: Int, triples: Seq[(Int, Int, Double)], trials: Int, seed: Long, model: Model = IndependentCascade)
    extends BaselineEstimator(trials) {
  private val adj = BoxedFrontier.buildAdjacency(triples)
  val name: String = "boxed"
  protected def count(seeds: Seq[Int], trial: Long): Int = model match {
    case IndependentCascade => BoxedFrontier.activatedCountIC(adj, seeds, trial, seed)
    case LinearThreshold    => BoxedFrontier.activatedCountLT(adj, seeds, trial, seed)
  }
}

/** σ̂ via the full-scan baseline (the NDlib analog) — the backend the paper
  * reports as not finishing CELF within its time budget.
  */
final class FullScanEstimator(n: Int, triples: Seq[(Int, Int, Double)], trials: Int, seed: Long, model: Model = IndependentCascade)
    extends BaselineEstimator(trials) {
  private val adj = FullScan.buildAdjacency(triples)
  val name: String = "fullscan"
  protected def count(seeds: Seq[Int], trial: Long): Int = model match {
    case IndependentCascade => FullScan.activatedCountIC(n, adj, seeds, trial, seed)
    case LinearThreshold    => FullScan.activatedCountLT(n, adj, seeds, trial, seed)
  }
}

/** σ̂ with trials fanned out over the Spark cluster — same worlds, same
  * value, different execution substrate (see [[repro.spark.MonteCarlo]]).
  *
  * The graph is broadcast once, when the estimator is built, and every σ̂
  * call reuses it; `close()` destroys the broadcast, after which `sigma`
  * fails. CELF makes thousands of calls, so a broadcast per call would pile
  * up blocks for the cleaner.
  */
final class SparkEstimator(spark: SparkSession, g: CsrGraph, trials: Int, seed: Long, model: Model = IndependentCascade)
    extends InfluenceEstimator with AutoCloseable {
  require(trials > 0, "trials must be positive")
  private[im] val graph: Broadcast[CsrGraph] = spark.sparkContext.broadcast(g)
  val name: String = "spark"
  def sigma(seeds: Seq[Int]): Double =
    MonteCarlo.influence(spark, graph, seeds.toArray, trials, seed, model)
  def close(): Unit = graph.destroy()
}
