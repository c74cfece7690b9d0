package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** One timed call into a layer. `parent` is the enclosing span's id (-1 at
  * the top); `attrs` name the graph, weighting or cell the call worked on.
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long, attrs: Map[String, String]) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** In-memory span recorder for the traced run. The benchmark wraps its own
  * calls into each module with `span`; nothing is recorded inside the program.
  * When disabled, `span` only runs its body.
  */
final class Tracer(var enabled: Boolean) {
  private val done = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0

  def span[A](name: String, attrs: (String, String)*)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val start = System.nanoTime()
      try body
      finally {
        done += Span(id, parent, name, start, System.nanoTime(), attrs.toMap)
        open = open.tail
      }
    }

  def spans: Seq[Span] = done.sortBy(_.id).toSeq

  /** Total duration of every span named `name`, in ms. */
  def totalMs(name: String): Double = done.iterator.filter(_.name == name).map(_.ms).sum

  /** Per span name: count, total ms and self ms (total minus child spans). */
  def summary: Map[String, Map[String, Any]] = {
    val childMs = done.groupBy(_.parent).map { case (p, cs) => p -> cs.map(_.ms).sum }
    done.groupBy(_.name).map { case (name, ss) =>
      name -> Map(
        "count" -> ss.size,
        "total_ms" -> ss.map(_.ms).sum,
        "self_ms" -> ss.map(s => s.ms - childMs.getOrElse(s.id, 0.0)).sum,
      )
    }
  }
}

/** Spark work counters fed by a listener the benchmark registers. */
final class SparkCounters extends SparkListener {
  private val jobs, tasks, shuffleWriteBytes, runTimeMs = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      shuffleWriteBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      runTimeMs.addAndGet(m.executorRunTime)
    }
  }

  def snapshot: SparkCounters.Snap = SparkCounters.Snap(jobs.get, tasks.get, shuffleWriteBytes.get, runTimeMs.get)
}

object SparkCounters {
  final case class Snap(jobs: Long, tasks: Long, shuffleWriteBytes: Long, runTimeMs: Long) {
    def -(o: Snap): Snap = Snap(jobs - o.jobs, tasks - o.tasks, shuffleWriteBytes - o.shuffleWriteBytes, runTimeMs - o.runTimeMs)
  }
}

/** Process-wide JVM readings: cumulative GC time and current heap use. */
object Jvm {
  def gcMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum
  def heapUsedMb: Double = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank percentile, `p` in (0, 100]. */
  def percentile(xs: Array[Long], p: Double): Long = {
    require(xs.nonEmpty, "percentile of nothing")
    val s = xs.sorted
    s(math.max(0, math.ceil(p / 100 * s.length).toInt - 1))
  }
}

/** Minimal JSON writer for the result line and the run records. */
object Json {
  def write(v: Any): String = v match {
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number in JSON output: $d")
      d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: scala.collection.Map[_, _] =>
      m.toSeq.sortBy(_._1.toString).map { case (k, x) => quote(k.toString) + ":" + write(x) }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(write).mkString("[", ",", "]")
    case other => throw new IllegalArgumentException(s"cannot write ${other.getClass} as JSON")
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }
}
