package repro.perfbench

import org.apache.spark.perfbench.SparkProbe
import repro.core.{CsrGraph, IndependentCascade}
import repro.experiments.Table1
import repro.im.{CsrEstimator, SparkEstimator}
import repro.spark.MonteCarlo

/** The Spark layer, measured in `sim_grid`'s traced run on its Facebook
  * substitute with WC weights and the same 100 seeds. Two rounds, the first
  * warming the JIT; each is
  *   - a fan-out of a few large jobs: `MonteCarlo.influence` (one simulator
  *     per partition), then `MonteCarlo.activations` → `activationCounts`
  *     (heatmap) + `stepCurve` (allocates per trial and shuffles);
  *   - a series of single-seed `SparkEstimator.sigma` calls: many small jobs,
  *     each re-broadcasting the graph.
  * It feeds per-layer metrics only: on a shared 4-vCPU host the latency of
  * these chains of small jobs spread by more than the largest end-to-end
  * bound from one run to the next.
  */
object SparkMc {

  final case class Result(
      attempted: Long,
      failed: Long,
      layers: Map[String, Double],
      detail: Map[String, Double],
      exact: Map[String, Any],
  )

  private final case class Round(
      influence: Double,
      heatTotal: Long,
      curveLast: Double,
      sigmas: Seq[Double],
      latNs: Array[Long],
      fanoutNs: Long,
      wallNs: Long,
      spark: SparkCounters.Snap,
      broadcastsCreated: Long,
      peakLive: Int,
  )

  def run(ctx: Ctx, g: CsrGraph, seeds: Array[Int]): Result = {
    import ctx.spark
    val fanoutTrials = if (ctx.smoke) 20 else 200
    val sigmaTrials = if (ctx.smoke) 20 else 100
    val sigmaSeeds = Table1.pickSeeds(g.n, if (ctx.smoke) 5 else 25, ctx.derive("sigma-seeds-FB")).toSeq
    val worlds = ctx.derive("worlds")

    val rounds = (0 until 2).map { r =>
      val snap0 = ctx.sparkSnap()
      val p0 = System.nanoTime()
      val (influence, heat, curve) = ctx.tracer.span("spark.mc.fanout", "round" -> r.toString) {
        val influence = ctx.tracer.span("spark.mc.influence") {
          MonteCarlo.influence(spark, g, seeds, fanoutTrials, worlds, MonteCarlo.IC)
        }
        ctx.tracer.span("spark.mc.activations") {
          val acts = MonteCarlo.activations(spark, g, seeds, fanoutTrials, worlds, MonteCarlo.IC)
          (influence, MonteCarlo.activationCounts(acts).collect(), MonteCarlo.stepCurve(acts, fanoutTrials).collect())
        }
      }
      val fanoutNs = System.nanoTime() - p0
      val idBefore = broadcastId(ctx)
      var peakLive = 0
      val est = new SparkEstimator(spark, g, sigmaTrials, worlds)
      val lat = new Array[Long](sigmaSeeds.size)
      val sigmas = sigmaSeeds.zipWithIndex.map { case (v, i) =>
        val s = ctx.tracer.span("spark.mc.sigma", "round" -> r.toString, "seed" -> v.toString) {
          val a = System.nanoTime()
          val s = est.sigma(Seq(v))
          lat(i) = System.nanoTime() - a
          s
        }
        peakLive = peakLive.max(SparkProbe.liveBroadcasts())
        s
      }
      val wallNs = System.nanoTime() - p0
      Round(
        influence,
        heat.map(_.getLong(1)).sum,
        curve.maxBy(_.getInt(0)).getDouble(1),
        sigmas,
        lat,
        fanoutNs,
        wallNs,
        ctx.sparkSnap() - snap0,
        broadcastId(ctx) - idBefore - 1,
        peakLive,
      )
    }

    // Untimed output checks. References come from the local engine: the
    // Spark σ̂ equals `CsrEstimator`'s bit for bit, the heatmap total equals
    // the activation rows (Spark count and local `simulate` sum), and the
    // step curve ends at the influence.
    val localInfluence = new CsrEstimator(g, fanoutTrials, worlds).sigma(seeds.toSeq)
    val localSigma = {
      val est = new CsrEstimator(g, sigmaTrials, worlds)
      sigmaSeeds.map(v => est.sigma(Seq(v)))
    }
    val localRows = (0 until fanoutTrials).map(t => IndependentCascade.simulate(g, seeds, t.toLong, worlds).totalActivated.toLong).sum
    val sparkRows = MonteCarlo.activations(spark, g, seeds, fanoutTrials, worlds, MonteCarlo.IC).count()
    var attempted, failed = 0L
    for ((p, r) <- rounds.zipWithIndex) {
      attempted += 1 + p.sigmas.size
      if (!ctx.attempt(
            p.influence == localInfluence && p.heatTotal == sparkRows && sparkRows == localRows &&
              p.curveLast == p.influence,
            s"spark.mc fan-out round $r: influence ${p.influence} vs local $localInfluence, " +
              s"heatmap ${p.heatTotal} vs rows $sparkRows / $localRows, curve end ${p.curveLast}"))
        failed += 1
      for (((s, l), v) <- p.sigmas.zip(localSigma).zip(sigmaSeeds))
        if (!ctx.attempt(s == l, s"spark.mc σ̂({$v}) round $r: spark $s vs local $l")) failed += 1
    }

    val Seq(cold, warm) = rounds
    Result(
      attempted,
      failed,
      Map(
        "spark.mc.jobs" -> cold.spark.jobs.toDouble,
        "spark.mc.tasks" -> cold.spark.tasks.toDouble,
        "spark.mc.busy_frac" -> warm.spark.runTimeMs * 1e6 / (warm.wallNs * ctx.threads.toDouble),
        "spark.mc.activation_rows" -> sparkRows.toDouble,
        "spark.broadcast_blocks_live" -> cold.peakLive.toDouble,
        "spark.broadcasts_created" -> cold.broadcastsCreated.toDouble,
      ),
      Map(
        "spark.mc.fanout_ms" -> warm.fanoutNs / 1e6,
        "spark.mc.sigma_calls" -> sigmaSeeds.size.toDouble,
        "spark.mc.sigma_ms_p50" -> Stats.percentile(warm.latNs, 50) / 1e6,
        "spark.mc.sigma_ms_max" -> warm.latNs.max / 1e6,
      ),
      Map(
        "spark.mc.activation_rows" -> sparkRows,
        "spark.mc.jobs_tasks_broadcasts" -> rounds.map(p => Seq(p.spark.jobs, p.spark.tasks, p.broadcastsCreated)),
      ),
    )
  }

  /** Id of a fresh broadcast (destroyed at once). Ids are sequential, so two
    * readings bracket the number of broadcasts created in between.
    */
  private def broadcastId(ctx: Ctx): Long = {
    val b = ctx.spark.sparkContext.broadcast(0)
    b.destroy()
    b.id
  }
}
