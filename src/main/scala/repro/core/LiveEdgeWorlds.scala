package repro.core

/** Independent-cascade influence over the fixed worlds [0, trials), with each
  * world's live edges sampled once and reused by every later seed set.
  *
  * With counter-based coins, IC world t is a fixed live-edge graph (Kempe et
  * al. 2003): edge (u, v) at CSR slot j is live iff
  * `Rng.coin(seed, t, u, v) < g.weights(j)`, the test [[IcSimulator]] makes.
  * CELF evaluates the same worlds thousands of times, so the first time any
  * traversal pops node u, u's live out-targets are recorded for every world
  * (the reuse behind pruned Monte-Carlo, Ohsaka et al. AAAI 2014). From then
  * on a traversal of u in world t reads only its live targets: no coin, and
  * no look at the dead edges, which are most of them under TV and WC weights.
  *
  * Layout, node-major: row u spans `liveOff(u * (trials + 1) + t)` for
  * t in [0, trials]; world t's live targets of u are
  * `liveTo(liveOff(row + t) until liveOff(row + t + 1))`, in CSR order. A row
  * not yet recorded holds -1. Memory: n·(trials + 1) ints of offsets plus one
  * int per live (edge, world) pair among the recorded rows.
  *
  * Each world's traversal is the epoch-marked BFS of [[IcSimulator]] over
  * live targets, so every per-world count, and hence σ̂, equals
  * [[IcSimulator]]'s exactly.
  *
  * Not thread-safe; create one per thread.
  */
final class LiveEdgeWorlds(g: CsrGraph, trials: Int, seed: Long) {
  require(trials > 0, "trials must be positive")
  require(g.n.toLong * (trials + 1L) <= LiveEdgeWorlds.MaxArray,
    s"n = ${g.n} and trials = $trials need n·(trials + 1) = ${g.n.toLong * (trials + 1L)} " +
      s"live-edge offsets, more than the largest array (${LiveEdgeWorlds.MaxArray} ints)")

  private val stride = trials + 1
  private val liveOff = new Array[Int](g.n * stride)
  java.util.Arrays.fill(liveOff, -1)
  private var liveTo = new Array[Int](math.max(16, g.m))
  private var liveSize = 0
  private val mark = new Array[Long](g.n) // epoch of the world that last activated the node
  private val queue = new Array[Int](g.n)
  private var base = 0L

  /** Σ over worlds t in [0, trials) of the number of nodes `seeds` (ids in
    * [0, n); duplicates count once) activate in world t.
    */
  def activatedSum(seeds: Array[Int]): Long = {
    checkSeeds(seeds)
    var sum = 0L
    var t = 0
    while (t < trials) { sum += count(seeds, t); t += 1 }
    sum
  }

  /** Mean activated count over the worlds: the same `Long` sum and division
    * as [[Simulator.meanInfluence]], so the two agree bit for bit.
    */
  def meanInfluence(seeds: Array[Int]): Double = activatedSum(seeds).toDouble / trials

  /** Number of nodes `seeds` activate in world `world` in [0, trials). */
  def activatedCount(seeds: Array[Int], world: Int): Int = {
    require(world >= 0 && world < trials, s"world $world is outside [0, $trials)")
    checkSeeds(seeds)
    count(seeds, world)
  }

  private def checkSeeds(seeds: Array[Int]): Unit = {
    var i = 0
    while (i < seeds.length) { Simulator.checkSeed(seeds(i), g.n); i += 1 }
  }

  private def count(seeds: Array[Int], t: Int): Int = {
    base += 1
    val b = base
    var hi = 0
    var i = 0
    while (i < seeds.length) {
      val s = seeds(i)
      if (mark(s) < b) { mark(s) = b; queue(hi) = s; hi += 1 }
      i += 1
    }
    var lo = 0
    while (lo < hi) {
      val u = queue(lo); lo += 1
      val at = u * stride + t
      if (liveOff(at) < 0) record(u)
      val to = liveTo
      var j = liveOff(at)
      val end = liveOff(at + 1)
      while (j < end) {
        val v = to(j)
        if (mark(v) < b) { mark(v) = b; queue(hi) = v; hi += 1 }
        j += 1
      }
    }
    hi
  }

  /** Records u's live out-targets in every world. */
  private def record(u: Int): Unit = {
    val row = u * stride
    val start = g.offsets(u)
    val end = g.offsets(u + 1)
    var t = 0
    while (t < trials) {
      liveOff(row + t) = liveSize
      var j = start
      while (j < end) {
        val v = g.targets(j)
        if (Rng.coin(seed, t.toLong, u, v) < g.weights(j)) {
          if (liveSize == liveTo.length) grow()
          liveTo(liveSize) = v
          liveSize += 1
        }
        j += 1
      }
      t += 1
    }
    liveOff(row + trials) = liveSize
  }

  private def grow(): Unit = {
    val cap = math.min(LiveEdgeWorlds.MaxArray, 2L * liveTo.length)
    if (cap <= liveSize)
      throw new IllegalStateException(
        s"more than ${LiveEdgeWorlds.MaxArray} live (edge, world) pairs; lower trials")
    liveTo = java.util.Arrays.copyOf(liveTo, cap.toInt)
  }
}

object LiveEdgeWorlds {

  /** Largest array length every JVM allocates. */
  private val MaxArray: Int = Int.MaxValue - 8
}
