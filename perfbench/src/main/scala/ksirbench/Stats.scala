package ksirbench

import scala.collection.mutable

/** Growable sample of durations (nanoseconds) or other measurements. */
final class Samples {
  private val buf = mutable.ArrayBuffer.empty[Double]

  def +=(v: Double): Unit = buf += v
  def size: Int = buf.length
  def sum: Double = buf.sum
  def mean: Double = if (buf.isEmpty) 0.0 else buf.sum / buf.length
  def values: IndexedSeq[Double] = buf.toIndexedSeq

  /** Nearest-rank percentile, `p` in (0, 100]; 0 on an empty sample. */
  def percentile(p: Double): Double = Stats.percentile(buf.toArray, p)
}

object Stats {

  def percentile(xs: Array[Double], p: Double): Double = {
    if (xs.isEmpty) return 0.0
    val sorted = xs.sorted
    val rank = math.ceil(p / 100.0 * sorted.length).toInt
    sorted(math.min(sorted.length - 1, math.max(0, rank - 1)))
  }

  def median(xs: Seq[Double]): Double = percentile(xs.toArray, 50.0)

  /** Least-squares fit y = b1·x1 + b2·x2 through the origin; returns
    * (b1, b2), or zeros when the two columns are collinear.
    */
  def fit2(x1: Array[Double], x2: Array[Double], y: Array[Double]): (Double, Double) = {
    var s11, s12, s22, s1y, s2y = 0.0
    var i = 0
    while (i < y.length) {
      s11 += x1(i) * x1(i); s12 += x1(i) * x2(i); s22 += x2(i) * x2(i)
      s1y += x1(i) * y(i); s2y += x2(i) * y(i)
      i += 1
    }
    val det = s11 * s22 - s12 * s12
    if (math.abs(det) <= 1e-12 * s11 * s22) (0.0, 0.0)
    else ((s1y * s22 - s2y * s12) / det, (s2y * s11 - s1y * s12) / det)
  }
}

/** Minimal JSON rendering for the result line, run record and trace file. */
object Json {

  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c => sb.append(c)
    }
    sb.append('"').toString
  }

  /** Finite doubles with every digit; non-finite values become null. */
  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null"
    else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
    else d.toString

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  def arr(items: Seq[String]): String = items.mkString("[", ", ", "]")
}
