package repro.spark

import org.apache.spark.api.java.Optional
import org.apache.spark.sql.streaming.{GroupStateTimeout, TestGroupState}
import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** Equation 4 sums over the set of elements referring to e: a parent named
  * twice in one element's refs gains one child, and an element never counts
  * as its own child. Both Algorithm 1 implementations must agree on that.
  */
class ReferenceSetSpec extends AnyFunSuite {

  private val model = new TopicModel(2, 4, Array(
    Array(0.5, 0.5, 0.0, 0.0),
    Array(0.0, 0.0, 0.5, 0.5),
  ))
  private val (window, lambda, eta) = (10L, 0.5, 2.0)

  private val parent = Element(1, 1, Array(0, 2), Array.empty, Array(0 -> 0.6, 1 -> 0.4))
  private val child = Element(2, 2, Array(1), Array(1L, 1L, 2L), Array(0 -> 1.0))
  private val buckets = Seq(Bucket(1, Seq(parent)), Bucket(2, Seq(child)))

  /** δ_i per (topic, id) from Equations 2–4, child counted once. */
  private def expected(eng: KSirEngine): Map[(Int, Long), Double] = {
    def r(e: Element, t: Int) = eng.activeElement(e.id).get.semantic(t)
    val inf = (1 - lambda) / eta * 0.6 * 1.0
    Map(
      (0, 1L) -> (lambda * r(parent, 0) + inf),
      (1, 1L) -> lambda * r(parent, 1),
      (0, 2L) -> lambda * r(child, 0),
    )
  }

  test("KSirEngine counts a repeated or self reference once") {
    val eng = new KSirEngine(model, window, lambda, eta)
    buckets.foreach(eng.advance)
    assert(eng.childCount(1) == 1)
    assert(eng.childCount(2) == 0)
    val got = (0 until model.z).flatMap(t => eng.rankedList(t).map { case (d, id) => (t, id) -> d }).toMap
    assert(got == expected(eng))
  }

  test("the streaming operator (events + updateTopic) counts a repeated or self reference once") {
    val eng = new KSirEngine(model, window, lambda, eta)
    buckets.foreach(eng.advance)
    val update = StreamingRankedLists.updateTopic(window, lambda, eta, topN = 10) _
    val events = StreamingRankedLists.events(model, buckets, 10)
    val got = (0 until model.z).flatMap { t =>
      val s = TestGroupState.create[TopicListState](Optional.empty[TopicListState](),
        GroupStateTimeout.NoTimeout, 0L, Optional.empty[Long](), false)
      buckets.map(b => update(t, events.filter(e => e.topic == t && e.bucketEnd == b.endTs).iterator, s).toSeq)
        .last.map(r => (t, r.elem) -> r.delta)
    }.toMap
    assert(got.keySet == expected(eng).keySet)
    got.foreach { case (k, d) => assert(math.abs(d - expected(eng)(k)) < 1e-12, s"$k: $d") }
  }
}
