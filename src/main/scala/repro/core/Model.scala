package repro.core

/** A diffusion model: the factory of its reusable frontier [[Simulator]].
  * Serializable so Spark tasks can carry it to executors.
  */
sealed trait Model extends Serializable {

  /** A simulator of this model over `g` whose random worlds derive from the
    * experiment-level RNG `seed`.
    */
  def simulator(g: CsrGraph, seed: Long): Simulator

  /** One trial on a fresh simulator; see [[Simulator.simulate]]. */
  final def simulate(g: CsrGraph, seeds: Array[Int], trial: Long, seed: Long): SimResult =
    simulator(g, seed).simulate(seeds, trial)

  /** Mean activated count over `trials` worlds (local σ̂). */
  final def meanInfluence(g: CsrGraph, seeds: Array[Int], trials: Int, seed: Long): Double =
    simulator(g, seed).meanInfluence(seeds, trials)
}

/** Independent cascade; see [[IcSimulator]]. */
case object IndependentCascade extends Model {
  def simulator(g: CsrGraph, seed: Long): IcSimulator = new IcSimulator(g, seed)
}

/** Linear threshold; see [[LtSimulator]]. */
case object LinearThreshold extends Model {
  def simulator(g: CsrGraph, seed: Long): LtSimulator = new LtSimulator(g, seed)
}
