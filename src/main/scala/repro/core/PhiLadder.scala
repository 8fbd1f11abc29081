package repro.core

/** One guess φ_j = (1+ε)^j of OPT and the candidate set built for it. */
final class Rung(val j: Int, val phi: Double, val state: CandidateState)

/** The geometric guesses of OPT that SieveStreaming (Badanidiyuru et al.,
  * KDD'14) keeps and MTTS (Algorithm 2) inherits: one candidate per
  * φ ∈ Φ = { (1+ε)^j : δmax ≤ (1+ε)^j ≤ 2·k·δmax }. Each algorithm applies its
  * own admission threshold to the rungs.
  */
final class PhiLadder(engine: KSirEngine, q: QueryVector, k: Int, epsilon: Double) {

  private val logBase = math.log1p(epsilon)
  private var deltaMax = 0.0
  private var current: IndexedSeq[Rung] = IndexedSeq.empty

  /** The rungs in ascending j, so in ascending φ. */
  def rungs: IndexedSeq[Rung] = current

  /** Offer a singleton score δ(e, x). When it is a new maximum δmax, move Φ
    * to the range δmax spans: rungs that fall outside are dropped, new ones
    * start with an empty candidate.
    */
  def raise(delta: Double): Unit = if (delta > deltaMax) {
    deltaMax = delta
    val jLo = math.ceil(math.log(deltaMax) / logBase - 1e-9).toInt
    val jHi = math.floor(math.log(2.0 * k * deltaMax) / logBase + 1e-9).toInt
    val kept = current.iterator.map(r => r.j -> r).toMap
    current = (jLo to jHi).map { j =>
      kept.getOrElse(j, new Rung(j, math.pow(1.0 + epsilon, j), new CandidateState(engine, q)))
    }
  }

  /** The candidate with the highest f(S, x); the lowest φ wins a tie. */
  def best: Option[CandidateState] = current.iterator.map(_.state).maxByOption(_.score)
}
