package repro.core

/** Reusable-state frontier simulator of one diffusion model over one graph —
  * the reproduction of the paper's core engine.
  *
  * Implements Observation 1: a node activated at time t must have an
  * in-neighbor activated at t-1, so only the out-edges of newly activated
  * nodes are ever scanned. The queue is one flat FIFO in activation (BFS)
  * order.
  *
  * The paper's engine keeps its working arrays inside the model object and
  * reuses them across the thousands of simulations a CELF run performs; a
  * fresh-allocation-per-trial implementation pays O(n) allocation + zeroing
  * per cascade, which swamps the real work exactly when cascades are tiny —
  * the case Observation 1 is about. These simulators allocate per-graph
  * state once and use an epoch-marking scheme so *nothing* is reset between
  * trials: per-trial cost is strictly proportional to the edges incident to
  * activated nodes. All state is primitive arrays — no boxing, no hashing.
  *
  * Each trial starts at a new epoch base, n + 1 above the last, and a node
  * activated at step t is marked base + t (its activator's mark + 1). So
  * `mark < base` means "not yet active in this trial", and the marks are the
  * activation steps: [[simulate]] reads them back from the queue after the
  * loop, with no per-step bookkeeping inside it.
  *
  * Not thread-safe; create one per thread/partition.
  */
sealed trait Simulator {

  /** Number of nodes activated in trial `trial` (selects the random world)
    * from `seeds` (ids in [0, n); duplicates count once).
    */
  def activatedCount(seeds: Array[Int], trial: Long): Int

  /** Per-node activation steps and per-step counts of the same trial that
    * [[activatedCount]] runs.
    */
  def simulate(seeds: Array[Int], trial: Long): SimResult

  /** Mean activated count over trials [0, trials). */
  final def meanInfluence(seeds: Array[Int], trials: Int): Double = {
    require(trials > 0, "trials must be positive")
    var sum = 0L
    var t = 0
    while (t < trials) { sum += activatedCount(seeds, t.toLong); t += 1 }
    sum.toDouble / trials
  }
}

private object Simulator {

  def checkSeed(s: Int, n: Int): Unit =
    if (s < 0 || s >= n) throw new IllegalArgumentException(s"seed id $s is outside [0, $n)")

  /** The trial whose `count` activated nodes are queue[0, count), marked
    * base + step.
    */
  def result(n: Int, queue: Array[Int], count: Int, mark: Array[Long], base: Long): SimResult = {
    val step = Array.fill(n)(-1)
    // steps are non-decreasing in queue order; with no seeds, one empty step 0
    val newPerStep = new Array[Int](if (count == 0) 1 else (mark(queue(count - 1)) - base).toInt + 1)
    var i = 0
    while (i < count) {
      val v = queue(i)
      val t = (mark(v) - base).toInt
      step(v) = t
      newPerStep(t) += 1
      i += 1
    }
    SimResult(step, newPerStep)
  }
}

/** Independent-cascade simulator: edge (u, v) is live in a trial's world iff
  * `Rng.coin(seed, trial, u, v) < weight`; the activated set is what the
  * seeds reach over live edges.
  */
final class IcSimulator(g: CsrGraph, seed: Long) extends Simulator {
  private val mark = new Array[Long](g.n) // epoch base + activation step
  private val queue = new Array[Int](g.n) // last trial's nodes in activation order
  private var base = 0L

  def activatedCount(seeds: Array[Int], trial: Long): Int = {
    base += g.n + 1L
    val b = base
    var hi = 0
    var i = 0
    while (i < seeds.length) {
      val s = seeds(i)
      Simulator.checkSeed(s, g.n)
      if (mark(s) < b) { mark(s) = b; queue(hi) = s; hi += 1 }
      i += 1
    }
    var lo = 0
    while (lo < hi) {
      val u = queue(lo); lo += 1
      val next = mark(u) + 1
      var j = g.offsets(u)
      val end = g.offsets(u + 1)
      while (j < end) {
        val v = g.targets(j)
        if (mark(v) < b && Rng.coin(seed, trial, u, v) < g.weights(j)) {
          mark(v) = next
          queue(hi) = v; hi += 1
        }
        j += 1
      }
    }
    hi
  }

  def simulate(seeds: Array[Int], trial: Long): SimResult = {
    val count = activatedCount(seeds, trial)
    Simulator.result(g.n, queue, count, mark, base)
  }
}

/** Linear-threshold simulator. Each node v draws a threshold θ_v uniformly in
  * [0,1) per trial (via the counter-based RNG, so every implementation sees
  * the same thresholds) and activates once the summed weight of its active
  * in-neighbors reaches θ_v. Instead of re-scanning in-neighborhoods, it
  * forward-pushes: when u activates, w(u,v) is added to an accumulator at
  * each out-neighbor v, and v activates the moment its accumulator crosses
  * its threshold — the same frontier discipline as IC. The accumulator uses
  * the same epoch marking, so stale values from earlier trials are never
  * read.
  *
  * Weights must satisfy Σ_{u in in(v)} w(u,v) <= 1 (see
  * [[repro.weights.EdgeWeights.normalizeForLT]]); the simulator itself does
  * not require it but the model is only well-defined under it.
  */
final class LtSimulator(g: CsrGraph, seed: Long) extends Simulator {
  private val mark = new Array[Long](g.n) // epoch base + activation step
  private val accMark = new Array[Long](g.n) // epoch base when acc was last written
  private val acc = new Array[Double](g.n)
  private val queue = new Array[Int](g.n) // last trial's nodes in activation order
  private var base = 0L

  def activatedCount(seeds: Array[Int], trial: Long): Int = {
    base += g.n + 1L
    val b = base
    var hi = 0
    var i = 0
    while (i < seeds.length) {
      val s = seeds(i)
      Simulator.checkSeed(s, g.n)
      if (mark(s) < b) { mark(s) = b; queue(hi) = s; hi += 1 }
      i += 1
    }
    var lo = 0
    while (lo < hi) {
      val u = queue(lo); lo += 1
      val next = mark(u) + 1
      var j = g.offsets(u)
      val end = g.offsets(u + 1)
      while (j < end) {
        val v = g.targets(j)
        if (mark(v) < b) {
          val prev = if (accMark(v) == b) acc(v) else 0.0
          val cur = prev + g.weights(j)
          acc(v) = cur
          accMark(v) = b
          if (cur >= Rng.threshold(seed, trial, v)) {
            mark(v) = next
            queue(hi) = v; hi += 1
          }
        }
        j += 1
      }
    }
    hi
  }

  def simulate(seeds: Array[Int], trial: Long): SimResult = {
    val count = activatedCount(seeds, trial)
    Simulator.result(g.n, queue, count, mark, base)
  }
}
