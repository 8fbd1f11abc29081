package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Sliding-window / active-set semantics (§3.1) and Algorithm 1 ranked-list
  * maintenance, checked against from-scratch recomputation.
  */
class KSirEngineSpec extends AnyFunSuite {

  private val model = new TopicModel(2, 4, Array(
    Array(0.5, 0.5, 0.0, 0.0),
    Array(0.0, 0.0, 0.5, 0.5),
  ))

  private def el(id: Long, ts: Long, words: Seq[Int], topics: Seq[(Int, Double)], refs: Seq[Long] = Seq.empty) =
    Element(id, ts, words.toArray, refs.toArray, topics.toArray)

  private def mk(window: Long = 4): KSirEngine = new KSirEngine(model, window, 0.5, 2.0)

  test("an unreferenced element expires once it leaves the window") {
    val eng = mk()
    eng.advance(Bucket(1, Seq(el(1, 1, Seq(0), Seq(0 -> 1.0)))))
    (2L to 4L).foreach(t => eng.advance(Bucket(t, Seq.empty)))
    assert(eng.activeElement(1).isDefined, "still inside the window at t=4")
    eng.advance(Bucket(5, Seq.empty))
    assert(eng.activeElement(1).isEmpty, "expired at t=5 (window start 2)")
  }

  test("a referred element stays active beyond its own window") {
    val eng = mk()
    eng.advance(Bucket(1, Seq(el(1, 1, Seq(0), Seq(0 -> 1.0)))))
    eng.advance(Bucket(4, Seq(el(2, 4, Seq(1), Seq(0 -> 1.0), refs = Seq(1)))))
    (5L to 7L).foreach(t => eng.advance(Bucket(t, Seq.empty)))
    assert(eng.activeElement(1).isDefined, "kept alive by the t=4 reference until t=7")
    eng.advance(Bucket(8, Seq.empty))
    assert(eng.activeElement(1).isEmpty, "reference itself expired at t=8")
  }

  test("a discarded element is resurrected when referred again") {
    val eng = mk()
    eng.advance(Bucket(1, Seq(el(1, 1, Seq(0), Seq(0 -> 1.0)))))
    (2L to 6L).foreach(t => eng.advance(Bucket(t, Seq.empty)))
    assert(eng.activeElement(1).isEmpty)
    eng.advance(Bucket(7, Seq(el(2, 7, Seq(1), Seq(0 -> 1.0), refs = Seq(1)))))
    assert(eng.activeElement(1).isDefined, "resurrected by the new reference")
    assert(eng.activeElement(1).get.children.map(_.childId).toSeq == Seq(2L))
  }

  test("children drop out of the influence score as the window slides") {
    val eng = mk(window = 3)
    eng.advance(Bucket(1, Seq(el(1, 1, Seq(0), Seq(0 -> 1.0)))))
    eng.advance(Bucket(2, Seq(el(2, 2, Seq(1), Seq(0 -> 1.0), refs = Seq(1)))))
    val withChild = eng.activeElement(1).get.influence(0)
    assert(withChild == 1.0, s"I = p(e1)·p(e2) = 1, got $withChild")
    eng.advance(Bucket(3, Seq(el(3, 3, Seq(1), Seq(0 -> 1.0), refs = Seq(1)))))
    assert(eng.activeElement(1).get.influence(0) == 2.0)
    eng.advance(Bucket(4, Seq.empty)) // window [2,4]: both children still in
    assert(eng.activeElement(1).get.influence(0) == 2.0)
    eng.advance(Bucket(5, Seq.empty)) // window [3,5]: child e2 expires
    assert(eng.activeElement(1).get.influence(0) == 1.0)
  }

  test("element appears in exactly the ranked lists of its topic support") {
    val eng = mk()
    eng.advance(Bucket(1, Seq(
      el(1, 1, Seq(0), Seq(0 -> 1.0)),
      el(2, 1, Seq(2), Seq(1 -> 1.0)),
      el(3, 1, Seq(0, 2), Seq(0 -> 0.5, 1 -> 0.5)),
    )))
    assert(eng.rankedList(0).map(_._2).toSet == Set(1L, 3L))
    assert(eng.rankedList(1).map(_._2).toSet == Set(2L, 3L))
  }

  test("ranked lists are sorted descending by score") {
    val eng = PropStreams.engine(3)
    (0 until 8).foreach { t =>
      val scores = eng.rankedList(t).map(_._1).toSeq
      assert(scores == scores.sorted(Ordering[Double].reverse), s"topic $t out of order")
    }
  }

  test("ranked-list scores equal recomputed δ_i for every active element") {
    val eng = PropStreams.engine(2)
    (0 until 8).foreach { t =>
      eng.rankedList(t).foreach { case (score, id) =>
        val ae = eng.activeElement(id).get
        assert(math.abs(score - ae.delta(t)) < 1e-9, s"e$id on topic $t")
      }
    }
  }

  test("ranked lists contain exactly the active elements with p_i > 0") {
    val eng = PropStreams.engine(4)
    (0 until 8).foreach { t =>
      val listed = eng.rankedList(t).map(_._2).toSet
      val expected = eng.activeElements.filter(_.elem.pTopic(t) > 0).map(_.elem.id).toSet
      assert(listed == expected, s"topic $t")
    }
  }

  test("incremental maintenance matches a from-scratch engine replay") {
    // Feed the same stream in different bucket sizes; final state must agree.
    val g = repro.data.SocialStreamGen.generate(
      repro.data.StreamConfig("replay", 80, 100, 6, 5, 1.5, 600, 600, seed = 9L))
    val fine = new KSirEngine(g.model, 300, 0.5, 5.0)
    val coarse = new KSirEngine(g.model, 300, 0.5, 5.0)
    Bucket.bucketize(g.elements, 50, 600).foreach(fine.advance)
    Bucket.bucketize(g.elements, 300, 600).foreach(coarse.advance)
    // Note: bucket size changes *when* expiry is evaluated, but at a common
    // multiple of both sizes (t=600) the active sets and scores must agree
    // unless an element was discarded-and-resurrected differently — our
    // resurrection rule makes the final states identical.
    assert(fine.activeElements.map(_.elem.id).toSet == coarse.activeElements.map(_.elem.id).toSet)
    (0 until 6).foreach { t =>
      val a = fine.rankedList(t).toSeq
      val b = coarse.rankedList(t).toSeq
      assert(a.map(_._2) == b.map(_._2), s"topic $t ids differ")
      a.zip(b).foreach { case ((s1, _), (s2, _)) => assert(math.abs(s1 - s2) < 1e-9) }
    }
  }

  test("advance rejects non-advancing buckets") {
    val eng = mk()
    eng.advance(Bucket(5, Seq.empty))
    intercept[IllegalArgumentException](eng.advance(Bucket(5, Seq.empty)))
  }

  test("advance rejects a duplicate element id") {
    val eng = mk()
    eng.advance(Bucket(1, Seq(el(1, 1, Seq(0), Seq(0 -> 1.0)))))
    intercept[IllegalArgumentException](eng.advance(Bucket(2, Seq(el(1, 2, Seq(1), Seq(0 -> 1.0))))))
    val same = mk()
    intercept[IllegalArgumentException](same.advance(Bucket(1, Seq(
      el(1, 1, Seq(0), Seq(0 -> 1.0)), el(1, 1, Seq(1), Seq(0 -> 1.0))))))
  }

  test("advance rejects an element outside (previous now, bucket end]") {
    intercept[IllegalArgumentException](mk().advance(Bucket(5, Seq(el(1, 100, Seq(0), Seq(0 -> 1.0))))))
    val eng = mk(window = 10)
    eng.advance(Bucket(5, Seq(el(1, 5, Seq(0), Seq(0 -> 1.0)))))
    intercept[IllegalArgumentException](eng.advance(Bucket(10, Seq(el(2, 5, Seq(0), Seq(0 -> 1.0))))))
    eng.advance(Bucket(10, Seq(el(2, 6, Seq(0), Seq(0 -> 1.0)), el(3, 10, Seq(0), Seq(0 -> 1.0)))))
    assert(eng.activeCount == 3)
  }

  test("engine rejects invalid parameters") {
    intercept[IllegalArgumentException](new KSirEngine(model, 0, 0.5, 1.0))
    intercept[IllegalArgumentException](new KSirEngine(model, 10, 1.5, 1.0))
    intercept[IllegalArgumentException](new KSirEngine(model, 10, 0.5, 0.0))
  }

  test("childCount reports in-window referrers") {
    val eng = mk()
    eng.advance(Bucket(1, Seq(el(1, 1, Seq(0), Seq(0 -> 1.0)))))
    eng.advance(Bucket(2, Seq(
      el(2, 2, Seq(1), Seq(0 -> 1.0), refs = Seq(1)),
      el(3, 2, Seq(1), Seq(0 -> 1.0), refs = Seq(1)),
    )))
    assert(eng.childCount(1) == 2)
    assert(eng.childCount(99) == 0)
  }
}
