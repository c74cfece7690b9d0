package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession

/** Benchmark entry point: one workload in one fresh JVM.
  *
  * {{{
  * Main --workload sim_grid|celf_regular --seed N --seconds S --trace 0|1
  *      [--smoke] [--out DIR] [--git SHA] [--source-hash H]
  * }}}
  *
  * Sets a Spark session up three times (setup_s is the median), builds the
  * workload's graphs, then repeats the workload's fixed pass for `--seconds`.
  * Prints `# ` lines for people, then one JSON result line; writes the full
  * run record (provenance, exact counts, per-graph/per-cell metrics and, when
  * traced, the spans) to `DIR/runs/`.
  */
object Main {

  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "build_s" -> "s",
    "job_s" -> "s",
    "work_s" -> "s",
    "op_ms_p50" -> "ms",
    "op_ms_p90" -> "ms",
  )

  /** Per-layer metrics of the traced run. Metrics of a layer the workload
    * does not run read 0; every time-valued metric here is taken on all
    * workloads.
    */
  val PerLayer: Seq[(String, String)] = Seq(
    "spark.session_ms" -> "ms",
    "spark.warmup_ms" -> "ms",
    "graph.generate_ms" -> "ms",
    "graph.symmetrize_ms" -> "ms",
    "weights.apply_collect_ms" -> "ms",
    "core.csr_build_ms" -> "ms",
    "core.csr_edges" -> "count",
    "core.csr_bytes_computed" -> "bytes",
    "spark.build.jobs" -> "count",
    "spark.build.tasks" -> "count",
    "spark.build.shuffle_write_bytes" -> "bytes",
    "core.ic.trials" -> "count",
    "core.ic.edges_per_trial" -> "edges",
    "core.ic.activations_per_trial" -> "nodes",
    "core.ic.medges_per_s" -> "Medges/s",
    "core.lt.trials" -> "count",
    "core.lt.edges_per_trial" -> "edges",
    "core.lt.activations_per_trial" -> "nodes",
    "core.lt.medges_per_s" -> "Medges/s",
    "im.celf.runs" -> "count",
    "im.celf.evals_round0" -> "count",
    "im.celf.evals_lazy" -> "count",
    "im.celf.round0_share" -> "ratio",
    "im.sigma_per_s" -> "1/s",
    "spark.mc.jobs" -> "count",
    "spark.mc.tasks" -> "count",
    "spark.mc.busy_frac" -> "ratio",
    "spark.mc.activation_rows" -> "count",
    "spark.broadcast_blocks_live" -> "count",
    "spark.broadcasts_created" -> "count",
    "jvm.gc_ms" -> "ms",
    "jvm.heap_used_mb.build" -> "MB",
    "jvm.heap_used_mb.work" -> "MB",
    "trace.overhead_pct" -> "%",
  )

  private val Setups = 3

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val workload = opts("workload")
    val run: Ctx => Outcome = workload match {
      case "sim_grid" => SimGrid.run
      case "celf_regular" => CelfRegular.run
      case other => throw new IllegalArgumentException(s"unknown workload: $other")
    }
    val seed = opts("seed").toLong
    val seconds = opts("seconds").toDouble
    val traced = opts("trace") == "1"
    val smoke = opts.contains("smoke")
    val out = Paths.get(opts.getOrElse("out", ".bench_build"))
    val nproc = Runtime.getRuntime.availableProcessors
    // Half the processors: the driver thread, the JIT and the GC keep the
    // rest. On a 4-vCPU VM, 2 threads built the graphs no slower than 4.
    val threads = (nproc / 2).max(1).min(4)

    // Setup: session start, then a small warm-up job; repeated, stopping the
    // previous session each time, and the last session kept for the run.
    var spark: SparkSession = null
    val setups = (0 until Setups).map { _ =>
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      spark = session(threads, out)
      val t1 = System.nanoTime()
      warmUp(spark, threads)
      ((t1 - t0) / 1e6, (System.nanoTime() - t1) / 1e6)
    }
    try {
      val counters = if (traced) Some(new SparkCounters) else None
      counters.foreach(spark.sparkContext.addSparkListener)
      val ctx = new Ctx(spark, seed, seconds, threads, smoke, new Tracer(traced), counters)
      val setupDoneS = uptimeS
      val o = run(ctx)
      val runDoneS = uptimeS

      val warm = o.passS.drop(1)
      val e2e = Map(
        "setup_s" -> Stats.median(setups.map { case (a, b) => (a + b) / 1e3 }),
        "build_s" -> o.buildS,
        "job_s" -> (o.buildS + o.passS.head),
        "work_s" -> Stats.median(warm),
        "op_ms_p50" -> Stats.percentile(o.opNs, 50) / 1e6,
        "op_ms_p90" -> Stats.percentile(o.opNs, 90) / 1e6,
      )
      val tracedWarm = o.passS.zip(ctx.passTraced).drop(1)
      val overheadPct =
        if (!traced) 0.0
        else 100 * (Stats.median(tracedWarm.filter(_._2).map(_._1)) / Stats.median(tracedWarm.filterNot(_._2).map(_._1)) - 1)
      val r = ctx.readings
      val common = Map(
        "spark.session_ms" -> Stats.median(setups.map(_._1)),
        "spark.warmup_ms" -> Stats.median(setups.map(_._2)),
        "graph.generate_ms" -> ctx.tracer.totalMs("graph.generate") / ctx.builds,
        "graph.symmetrize_ms" -> ctx.tracer.totalMs("graph.symmetrize") / ctx.builds,
        "weights.apply_collect_ms" -> ctx.tracer.totalMs("weights.apply_collect") / ctx.builds,
        "core.csr_build_ms" -> ctx.tracer.totalMs("core.csr_build") / ctx.builds,
        "jvm.gc_ms" -> (r("jvm.gc_ms.build") + r("jvm.gc_ms.work")),
        "trace.overhead_pct" -> overheadPct,
      ) ++ r.filter { case (k, _) => PerLayer.exists(_._1 == k) }
      val layers = PerLayer.map { case (k, _) => k -> common.getOrElse(k, o.layers.getOrElse(k, 0.0)) }.toMap
      val unknown = o.layers.keySet -- PerLayer.map(_._1)
      require(unknown.isEmpty, s"workload reported unlisted per-layer metrics: $unknown")

      val units = (EndToEnd ++ PerLayer).toMap
      val shown = if (traced) layers else e2e
      val metrics = shown.map { case (k, v) => k -> Map("value" -> v, "unit" -> units(k)) }
      val failFrac = o.failed.toDouble / o.attempted
      val provenance = Map(
        "workload" -> workload,
        "workload_seed" -> seed,
        "seconds" -> seconds,
        "trace" -> traced,
        "smoke" -> smoke,
        "nproc" -> nproc,
        "spark_threads" -> threads,
        "spark_version" -> spark.version,
        "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
        "git_sha" -> opts.getOrElse("git", "unknown"),
        "source_hash" -> opts.getOrElse("source-hash", "unknown"),
      )

      println(s"# provenance ${Json.write(provenance)}")
      for ((k, unit) <- EndToEnd) println(f"# $k%-10s ${e2e(k)}%.6f $unit")
      println(f"# fail_frac  $failFrac%.6f ratio (${o.failed} of ${o.attempted} operations)")
      println(s"# passes ${o.passS.size}: ${o.passS.map(s => f"$s%.3f").mkString(" ")} s; op samples ${o.opNs.length}")
      if (traced) {
        for ((k, unit) <- PerLayer) println(f"# ${k}%-32s ${layers(k)}%.6f $unit")
        println(f"# tracing overhead on warm passes: $overheadPct%+.2f%%")
      }

      val record = Map(
        "provenance" -> provenance,
        "end_to_end" -> e2e,
        "fail_frac" -> failFrac,
        "attempted" -> o.attempted,
        "failed" -> o.failed,
        "pass_s" -> o.passS,
        "pass_traced" -> ctx.passTraced,
        "setup_ms" -> setups.map { case (a, b) => Seq(a, b) },
        // JVM uptime at the end of setup and at the end of the workload
        // (passes and checks): where a run's wall time goes.
        "uptime_s" -> Map("setup_done" -> setupDoneS, "workload_done" -> runDoneS),
        "exact" -> o.exact,
      ) ++ (if (!traced) Map.empty
            else Map(
              "per_layer" -> layers,
              "detail" -> (o.detail ++ spanDetail(ctx.tracer, ctx.builds) ++ r),
              "span_summary" -> ctx.tracer.summary,
              "spans" -> ctx.tracer.spans.map(s =>
                Map("id" -> s.id, "parent" -> s.parent, "name" -> s.name, "start_ms" -> s.startNs / 1e6, "ms" -> s.ms, "attrs" -> s.attrs)),
            ))
      val dir = out.resolve("runs")
      Files.createDirectories(dir)
      val file = dir.resolve(s"$workload-seed$seed-trace${if (traced) 1 else 0}${if (smoke) "-smoke" else ""}.json")
      Files.write(file, Json.write(record).getBytes(StandardCharsets.UTF_8))
      println(s"# run record: $file")

      println(Json.write(Map("correct" -> (o.failed == 0), "attempted" -> o.attempted, "failed" -> o.failed, "metrics" -> metrics)))
    } finally spark.stop()
  }

  /** Per-graph / per-weighting build times from the spans, named
    * `<layer>_ms.<graph>[_<ewm>]`, averaged over the workload's builds.
    */
  private def spanDetail(t: Tracer, builds: Int): Map[String, Double] =
    t.spans
      .filter(s => s.attrs.contains("graph"))
      .groupBy(s => s"${s.name}_ms.${s.attrs("graph")}${s.attrs.get("ewm").map("_" + _).getOrElse("")}")
      .map { case (k, ss) => k -> ss.map(_.ms).sum / builds }

  private def uptimeS: Double = java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime / 1e3

  private def session(threads: Int, out: java.nio.file.Path): SparkSession =
    SparkSession.builder()
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", out.resolve("spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", out.resolve("spark-warehouse").toAbsolutePath.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      // Shuffle partitions sized to the local threads: with Spark's default
      // of 200 the sim_grid build is ~3x slower, nearly all of it per-task
      // overhead on these 10^4–10^5-row inputs.
      .config("spark.sql.shuffle.partitions", threads)
      .getOrCreate()

  /** A fixed small job: a shuffle, a collect and a broadcast. */
  private def warmUp(spark: SparkSession, threads: Int): Unit = {
    val sc = spark.sparkContext
    val b = sc.broadcast((0 until 1000).toArray)
    spark.range(0, 100000, 1, threads).selectExpr("id % 97 as k").groupBy("k").count().collect()
    sc.parallelize(0 until 1000, threads).map(i => b.value(i)).reduce(_ + _)
    b.destroy()
  }

  private def parse(args: Array[String]): Map[String, String] = {
    val it = args.iterator.buffered
    val m = Map.newBuilder[String, String]
    while (it.hasNext) {
      val k = it.next()
      require(k.startsWith("--"), s"unexpected argument: $k")
      val v = if (it.hasNext && !it.head.startsWith("--")) it.next() else "true"
      m += k.drop(2) -> v
    }
    val opts = m.result()
    for (k <- Seq("workload", "seed", "seconds", "trace")) require(opts.contains(k), s"missing --$k")
    opts
  }
}
