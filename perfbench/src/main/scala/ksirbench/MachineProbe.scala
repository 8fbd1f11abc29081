package ksirbench

/** A fixed reference computation (hash-map traversal, sorting, logarithms)
  * timed every 50 ms between the measured calls. The machine the benchmark
  * runs on drifts in speed by ±15% over minutes; dividing each call's time by
  * the kernel's current time (median of its last five runs) and multiplying
  * by [[MachineProbe.ReferenceNs]] reports every call at one reference speed,
  * which narrows the run-to-run spread. The program never runs this code, so a
  * change to the program moves the reported times as it moves the raw ones.
  */
final class MachineProbe {
  private val rnd = new scala.util.Random(12345L)
  private val map = scala.collection.mutable.LongMap.empty[Array[Double]]
  (0 until 20000).foreach(i => map(rnd.nextLong()) = Array(rnd.nextDouble(), rnd.nextDouble()))
  private val data = Array.fill(4000)(rnd.nextDouble())
  private var sink = 0.0
  private var lastNs = 0L
  val samples = new Samples

  private def kernel(): Double = {
    var s = 0.0
    map.valuesIterator.foreach(a => s += a(0) * a(1))
    val c = data.clone()
    java.util.Arrays.sort(c)
    var i = 0
    while (i < c.length) { s += math.log1p(c(i)); i += 1 }
    s
  }

  private val recent = new Array[Double](5)
  private var n = 0

  /** Times the kernel when at least `everyMs` have passed since the last time. */
  def maybe(everyMs: Long = 50): Unit = {
    val now = System.nanoTime()
    if (now - lastNs >= everyMs * 1000000L) {
      sink += kernel()
      lastNs = System.nanoTime()
      samples += (lastNs - now).toDouble
      recent(n % recent.length) = (lastNs - now).toDouble
      n += 1
    }
  }

  /** Median of the last few kernel times, in ns. */
  def current: Double = {
    if (n == 0) maybe()
    val r = recent.take(math.min(n, recent.length)).sorted
    r(r.length / 2)
  }
}

object MachineProbe {
  /** Kernel time that defines the reference speed (about this machine's). */
  val ReferenceNs = 1e6
}
