package repro.data

/** A discrete distribution ready for inverse-transform sampling: the
  * cumulative sums of `weights(i) / norm` in index order. Pass `norm = 1.0`
  * for weights that are already normalised, so the sums stay exactly those
  * of the raw weights.
  */
final class Cdf(weights: Array[Double], norm: Double) {

  private val cum: Array[Double] = {
    val c = new Array[Double](weights.length)
    var acc = 0.0
    var i = 0
    while (i < weights.length) { acc += weights(i) / norm; c(i) = acc; i += 1 }
    c
  }

  /** The first index whose cumulative value reaches u (binary search), for u
    * drawn uniformly from [0, 1); the last index when rounding leaves the
    * total just below u.
    */
  def draw(u: Double): Int = {
    var lo = 0
    var hi = cum.length - 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (cum(mid) < u) lo = mid + 1 else hi = mid
    }
    lo
  }
}
