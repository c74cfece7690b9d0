package repro.core

import org.apache.spark.sql.DataFrame
import repro.graph.GraphOps

/** Compressed-sparse-row directed graph with per-edge weights.
  *
  * This is the data-structure contribution of the paper mapped onto the JVM:
  * out-neighbors of every node stored contiguously in primitive arrays (no
  * boxing, no pointer chasing), with `offsets(v) until offsets(v+1)` indexing
  * the slice of `targets`/`weights` belonging to node `v`. Immutable once
  * built — ideal for the repeated traversals diffusion simulation performs.
  *
  * @param n       number of nodes; node ids are 0 until n
  * @param offsets length n+1; CSR row pointers into `targets`/`weights`
  * @param targets length m; out-neighbor ids, sorted within each row
  * @param weights length m; `weights(i)` is p(src, targets(i))
  */
final class CsrGraph(
    val n: Int,
    val offsets: Array[Int],
    val targets: Array[Int],
    val weights: Array[Double],
) extends Serializable {
  require(offsets.length == n + 1, s"offsets length ${offsets.length} != n+1 ${n + 1}")
  require(offsets(0) == 0, "offsets must start at 0")
  require(offsets(n) == targets.length, "offsets must end at edge count")
  require(targets.length == weights.length, "targets/weights length mismatch")

  /** Number of directed edges. */
  def m: Int = targets.length

  /** Out-degree of node v. */
  @inline def outDegree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** In-degrees of all nodes (single pass over the edge array). */
  def inDegrees: Array[Int] = {
    val d = new Array[Int](n)
    var i = 0
    while (i < targets.length) { d(targets(i)) += 1; i += 1 }
    d
  }

  /** Sum of incoming edge weights per node (LT feasibility: must be <= 1). */
  def inWeightSums: Array[Double] = {
    val s = new Array[Double](n)
    var i = 0
    while (i < targets.length) { s(targets(i)) += weights(i); i += 1 }
    s
  }

  /** Edges as (src, dst, weight) triples — for tests and cross-builds. */
  def edgeTriples: IndexedSeq[(Int, Int, Double)] =
    for {
      u <- 0 until n
      i <- offsets(u) until offsets(u + 1)
    } yield (u, targets(i), weights(i))

  /** Graph with every weight replaced by `f(src, dst, w)`; same structure. */
  def mapWeights(f: (Int, Int, Double) => Double): CsrGraph = {
    val w2 = new Array[Double](m)
    var u = 0
    while (u < n) {
      var i = offsets(u)
      while (i < offsets(u + 1)) { w2(i) = f(u, targets(i), weights(i)); i += 1 }
      u += 1
    }
    new CsrGraph(n, offsets, targets, w2)
  }
}

object CsrGraph {

  /** Build from (src, dst, weight) triples. Rows are sorted by target, and
    * of repeated (src, dst) pairs only the first in input order is kept.
    *
    * A counting sort over primitive arrays: the triples are copied once into
    * `src`/`dst`/`weight` arrays (rejecting out-of-range ids and non-finite
    * weights on the way), then placed by two stable counting passes, first
    * by `dst` and then by `src`. Rows end up sorted by target with repeated
    * pairs still in input order, so one scan keeps each pair's first weight.
    * O(n + m) time, no boxing after the copy.
    *
    * @param n       node count (ids must lie in [0, n))
    * @param triples directed, weighted edges; weights must be finite
    */
  def fromTriples(n: Int, triples: Seq[(Int, Int, Double)]): CsrGraph = {
    val m0 = triples.size
    val src = new Array[Int](m0)
    val dst = new Array[Int](m0)
    val wt = new Array[Double](m0)
    // Counts per dst / src, then (after the prefix sums) the slot the next
    // edge into v / out of u takes in its counting pass.
    val next = new Array[Int](n + 1)
    val rowEnd = new Array[Int](n + 1)
    val it = triples.iterator
    var i = 0
    while (it.hasNext) {
      val t = it.next()
      val u = t._1
      val v = t._2
      val w = t._3
      if (u < 0 || u >= n || v < 0 || v >= n)
        throw new IllegalArgumentException(s"edge ($u,$v) out of range [0,$n)")
      if (!java.lang.Double.isFinite(w))
        throw new IllegalArgumentException(s"edge ($u,$v) has non-finite weight $w")
      src(i) = u
      dst(i) = v
      wt(i) = w
      next(v + 1) += 1
      rowEnd(u + 1) += 1
      i += 1
    }
    var v = 0
    while (v < n) { next(v + 1) += next(v); rowEnd(v + 1) += rowEnd(v); v += 1 }

    // Pass 1, stable by dst.
    val src1 = new Array[Int](m0)
    val dst1 = new Array[Int](m0)
    val wt1 = new Array[Double](m0)
    i = 0
    while (i < m0) {
      val p = next(dst(i))
      next(dst(i)) = p + 1
      src1(p) = src(i); dst1(p) = dst(i); wt1(p) = wt(i)
      i += 1
    }
    // Pass 2, stable by src: rows sorted by dst, repeated pairs in input order.
    // Afterwards rowEnd(u) is the end of row u.
    val targets = new Array[Int](m0)
    val weights = new Array[Double](m0)
    i = 0
    while (i < m0) {
      val p = rowEnd(src1(i))
      rowEnd(src1(i)) = p + 1
      targets(p) = dst1(i); weights(p) = wt1(i)
      i += 1
    }
    // Keep the first of each run of equal targets in a row, compacting in place.
    val offsets = new Array[Int](n + 1)
    var k = 0
    i = 0
    var u = 0
    while (u < n) {
      var prev = -1
      while (i < rowEnd(u)) {
        if (targets(i) != prev) {
          prev = targets(i)
          targets(k) = prev; weights(k) = weights(i)
          k += 1
        }
        i += 1
      }
      offsets(u + 1) = k
      u += 1
    }
    if (k == m0) new CsrGraph(n, offsets, targets, weights)
    else new CsrGraph(n, offsets, java.util.Arrays.copyOf(targets, k), java.util.Arrays.copyOf(weights, k))
  }

  /** Build from a weighted edge DataFrame with columns (src, dst, weight).
    *
    * Mirrors the paper's NetworkX→CSR conversion utilities: the DataFrame is
    * the "high-level" graph object, the CSR is the simulation structure.
    * Collects to the driver through [[repro.graph.GraphOps.toTriples]] —
    * diffusion graphs here are single-machine scale by design (the paper's
    * setting).
    */
  def fromDataFrame(edges: DataFrame, n: Int): CsrGraph =
    fromTriples(n, GraphOps.toTriples(edges))
}
