package repro.perfbench

import org.apache.spark.perfbench.SparkProbe
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{CsrGraph, Rng}
import repro.graph.GraphOps
import repro.weights.EdgeWeights

/** What a workload hands back to [[Main]].
  *
  * @param buildS    generate → CSR wall time for every graph the workload uses
  * @param passS     wall time of each measured pass, the cold first pass first
  * @param opNs      latency of every operation of the warm passes (pass 2 on)
  * @param attempted operations attempted (cells, CELF runs, σ̂ calls, fan-outs)
  * @param failed    operations that threw or failed their output check
  * @param layers    workload-specific per-layer metrics (aggregate names)
  * @param detail    per-graph / per-cell metrics, written to the trace file
  * @param exact     counts that must repeat exactly for one workload seed
  */
final case class Outcome(
    buildS: Double,
    passS: Seq[Double],
    opNs: Array[Long],
    attempted: Long,
    failed: Long,
    layers: Map[String, Double],
    detail: Map[String, Double],
    exact: Map[String, Any],
)

/** One graph after the input pipeline: a CSR and the collected triples per
  * edge-weight model (the triples feed the untimed boxed-baseline checks).
  */
final case class Built(name: String, n: Int, csr: Map[String, CsrGraph], triples: Map[String, Seq[(Int, Int, Double)]])

/** Everything a workload needs from the run: the live session, the workload
  * seed every input derives from, the measuring budget and the tracing hooks.
  */
final class Ctx(
    val spark: SparkSession,
    val seed: Long,
    val seconds: Double,
    val threads: Int,
    val smoke: Boolean,
    val tracer: Tracer,
    val counters: Option[SparkCounters],
) {

  /** Generator, weighting, seed-set and world seeds: all derived from the
    * workload seed, so one `--seed` fixes every input.
    */
  def derive(tag: String): Long = Rng.mix64(seed ^ Rng.mix64(tag.hashCode.toLong))

  def traced: Boolean = counters.isDefined

  /** Per-phase readings (JVM GC and heap, CSR sizes, Spark build counts)
    * and the traced flag of each measured pass, for [[Main]].
    */
  val readings = scala.collection.mutable.LinkedHashMap.empty[String, Double]
  var passTraced: Seq[Boolean] = Nil
  var builds = 0

  /** Whether pass `i` counts toward `work_s` and the latency percentiles:
    * all but the first, which warms the JIT.
    */
  def warm(i: Int): Boolean = i > 0

  /** Time the whole input pipeline of a workload: every `build` call.
    * Readings keep the last phase's values; span totals cover all phases.
    */
  def buildPhase[A](body: => A): (A, Double) = {
    builds += 1
    readings --= Seq("core.csr_edges", "core.csr_bytes_computed")
    val gc0 = Jvm.gcMs
    val snap0 = sparkSnap()
    val t0 = System.nanoTime()
    val built = body
    val seconds = (System.nanoTime() - t0) / 1e9
    val spark = sparkSnap() - snap0
    readings ++= Seq(
      "jvm.gc_ms.build" -> (Jvm.gcMs - gc0).toDouble,
      "jvm.heap_used_mb.build" -> Jvm.heapUsedMb,
      "spark.build.jobs" -> spark.jobs.toDouble,
      "spark.build.tasks" -> spark.tasks.toDouble,
      "spark.build.shuffle_write_bytes" -> spark.shuffleWriteBytes.toDouble,
    )
    (built, seconds)
  }

  /** Spark counters now, after every finished job's events are delivered;
    * zeros while tracing is off.
    */
  def sparkSnap(): SparkCounters.Snap = counters match {
    case Some(c) if tracer.enabled => SparkProbe.drainListenerBus(spark.sparkContext); c.snapshot
    case _ => SparkCounters.Snap(0, 0, 0, 0)
  }

  /** Generate → symmetrize → weight + collect → CSR for one graph.
    *
    * Generate and symmetrize are persisted and counted so each stage's time
    * is its own; this is done in untraced runs too, so both do the same work.
    */
  def build(name: String, n: Int, generate: => DataFrame, ewms: Seq[String]): Built = {
    val undirected = tracer.span("graph.generate", "graph" -> name) {
      val df = generate.persist(); df.count(); df
    }
    val directed = tracer.span("graph.symmetrize", "graph" -> name) {
      val df = GraphOps.symmetrize(undirected).persist(); df.count(); df
    }
    val ewmSeed = derive(s"ewm-$name")
    val perEwm = ewms.map { ewm =>
      val triples = tracer.span("weights.apply_collect", "graph" -> name, "ewm" -> ewm) {
        GraphOps.toTriples(EdgeWeights(ewm, directed, ewmSeed))
      }
      val g = tracer.span("core.csr_build", "graph" -> name, "ewm" -> ewm)(CsrGraph.fromTriples(n, triples))
      // Bytes of the CSR arrays, computed from their lengths.
      add("core.csr_edges", g.m)
      add("core.csr_bytes_computed", 4.0 * (g.n + 1) + 12.0 * g.m)
      (ewm, g, triples)
    }
    directed.unpersist(blocking = true)
    undirected.unpersist(blocking = true)
    Built(name, n, perEwm.map(x => x._1 -> x._2).toMap, perEwm.map(x => x._1 -> x._3).toMap)
  }

  /** Run `pass(i)` for i = 0, 1, … until at least three passes are done and
    * `seconds` have gone by since the first (cold) pass ended. Returns each
    * pass's wall time; `passTraced` says which passes were traced.
    *
    * In a traced run every other pass runs with spans and the Spark listener
    * off, so the run can report the tracing overhead on the same JVM.
    */
  def measure(pass: Int => Unit): Seq[Double] = {
    val gc0 = Jvm.gcMs
    val times = Seq.newBuilder[Double]
    val tracedFlags = Seq.newBuilder[Boolean]
    var i = 0
    var warmStart = 0L
    while (i < 3 || System.nanoTime() - warmStart < seconds * 1e9) {
      val on = traced && i % 2 == 0
      setTracing(on)
      val t0 = System.nanoTime()
      pass(i)
      times += (System.nanoTime() - t0) / 1e9
      tracedFlags += on
      if (i == 0) warmStart = System.nanoTime()
      i += 1
    }
    setTracing(traced)
    readings ++= Seq("jvm.gc_ms.work" -> (Jvm.gcMs - gc0).toDouble, "jvm.heap_used_mb.work" -> Jvm.heapUsedMb)
    passTraced = tracedFlags.result()
    times.result()
  }

  private def add(key: String, x: Double): Unit = readings(key) = readings.getOrElse(key, 0.0) + x

  private def setTracing(on: Boolean): Unit = counters.foreach { c =>
    if (on != tracer.enabled) {
      if (on) spark.sparkContext.addSparkListener(c)
      else { SparkProbe.drainListenerBus(spark.sparkContext); spark.sparkContext.removeSparkListener(c) }
      tracer.enabled = on
    }
  }

  /** Count one operation's outcome; an exception counts as a failure. */
  def attempt(ok: => Boolean, what: => String): Boolean = {
    val passed =
      try ok
      catch { case e: Exception => Console.err.println(s"[perfbench] $what threw: $e"); false }
    if (!passed) println(s"# FAILED: $what")
    passed
  }
}

object Ctx {

  /** Σ out-degree over the nodes a trial activated: the edges the frontier
    * kernel scans in that trial (exact, since the RNG is counter-based).
    */
  def edgesScanned(g: CsrGraph, activationStep: Array[Int]): Long = {
    var e = 0L
    var v = 0
    while (v < activationStep.length) {
      if (activationStep(v) >= 0) e += g.outDegree(v)
      v += 1
    }
    e
  }
}
