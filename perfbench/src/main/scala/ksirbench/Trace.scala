package ksirbench

import scala.collection.mutable

/** One span around a call into a layer; `request` groups the spans of one
  * query (its index) or one bucket (its end time). Calls do not nest.
  */
final case class Span(name: String, startNs: Long, endNs: Long, request: Long)

/** Times calls into the program. Every call's duration is kept for the
  * end-to-end metrics; a traced recorder also keeps a span per call in
  * memory, written out once the run ends.
  */
final class Recorder(val traced: Boolean) {

  private val spans = mutable.ArrayBuffer.empty[Span]

  /** Duration of the last completed [[time]] call, in nanoseconds. */
  var lastNs: Long = 0L

  def time[A](name: String, request: Long)(f: => A): A = {
    val t0 = System.nanoTime()
    try f
    finally {
      val t1 = System.nanoTime()
      lastNs = t1 - t0
      if (traced) spans += Span(name, t0, t1, request)
    }
  }

  def toJsonLines: Iterator[String] = spans.iterator.map { s =>
    Json.obj(Seq(
      "name" -> Json.str(s.name), "start_ns" -> s.startNs.toString,
      "end_ns" -> s.endNs.toString, "request" -> s.request.toString))
  }
}
