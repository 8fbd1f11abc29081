package repro.spark

import org.apache.spark.api.java.Optional
import org.apache.spark.sql.streaming.{GroupStateTimeout, TestGroupState}
import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** Both Algorithm 1 implementations — the driver engine and the streaming
  * operator (`updateTopic` fed by `events`, run without a Spark session) —
  * against Algorithm 1 computed from scratch after every bucket:
  * A_t = W_t ∪ refs(W_t), and
  * δ_i(e) = λ·R_i(e) + (1−λ)/η · p_i(e)·Σ_{c ∈ W_t, e ∈ refs(c)} p_i(c).
  * A reference counts only if the parent precedes the child in (ts, id)
  * order, whatever order a bucket lists its elements in.
  */
class AlgorithmOneReferenceSpec extends AnyFunSuite {

  private val (lambda, eta) = (0.5, 2.0)

  /** A_t and every RL_i as (δ_i, id) in rank order. */
  private type State = (Set[Long], IndexedSeq[Seq[(Double, Long)]])

  private def naive(model: TopicModel, seen: Seq[Element], now: Long, window: Long): State = {
    val byId = seen.map(e => e.id -> e).toMap
    val inWindow = seen.filter(_.ts >= now - window + 1).sortBy(e => (e.ts, e.id))
    def precedes(p: Element, c: Element) = p.ts < c.ts || (p.ts == c.ts && p.id < c.id)
    val children: Map[Long, Seq[Element]] = inWindow
      .flatMap(c => c.refs.distinct.flatMap(byId.get).filter(precedes(_, c)).map(p => p.id -> c))
      .groupMap(_._1)(_._2)
    val active = inWindow.map(_.id).toSet ++ children.keySet
    val lists = (0 until model.z).map { t =>
      active.toSeq.map(byId).filter(_.pTopic(t) > 0).map { e =>
        val pe = e.pTopic(t)
        val r = e.words.groupBy(identity).toSeq.sortBy(_._1).map { case (w, occ) =>
          val p = model.pWord(t, w) * pe
          if (p > 0.0) -occ.length * p * math.log(p) else 0.0
        }.sum
        val s = children.getOrElse(e.id, Seq.empty).map(_.pTopic(t)).sum
        (lambda * r + (1.0 - lambda) / eta * pe * s, e.id)
      }.sortBy { case (d, id) => (-d, -id) }
    }
    (active, lists)
  }

  private def engineStates(model: TopicModel, buckets: Seq[Bucket], window: Long): Seq[State] = {
    val eng = new KSirEngine(model, window, lambda, eta)
    buckets.map { b =>
      eng.advance(b)
      (eng.activeElements.map(_.elem.id).toSet, (0 until model.z).map(eng.rankedList(_).toSeq))
    }
  }

  /** `updateTopic` per topic, one call per bucket, as the streaming query
    * would run it; A_t is the union of the per-topic states.
    */
  private def streamStates(model: TopicModel, buckets: Seq[Bucket], window: Long): Seq[State] = {
    val update = StreamingRankedLists.updateTopic(window, lambda, eta, topN = Int.MaxValue) _
    val events = StreamingRankedLists.events(model, buckets, Int.MaxValue).groupBy(e => (e.topic, e.bucketEnd))
    val states = IndexedSeq.fill(model.z)(TestGroupState.create[TopicListState](
      Optional.empty[TopicListState](), GroupStateTimeout.NoTimeout, 0L, Optional.empty[Long](), false))
    buckets.map { b =>
      val lists = (0 until model.z).map { t =>
        update(t, events.getOrElse((t, b.endTs), Seq.empty).iterator, states(t)).map(r => (r.delta, r.elem)).toSeq
      }
      (states.flatMap(_.getOption.toSeq.flatMap(_.elems.keySet)).toSet, lists)
    }
  }

  private def check(name: String, model: TopicModel, buckets: Seq[Bucket], window: Long, got: Seq[State]): Unit =
    buckets.zip(got).foldLeft(Seq.empty[Element]) { case (seen0, (b, (active, lists))) =>
      val seen = seen0 ++ b.elements
      val (wantActive, wantLists) = naive(model, seen, b.endTs, window)
      val at = s"$name, bucket ${b.endTs}"
      assert(active == wantActive, s"$at: A_t")
      wantLists.indices.foreach { t =>
        assert(lists(t).map(_._2) == wantLists(t).map(_._2), s"$at: RL_$t ids")
        lists(t).zip(wantLists(t)).foreach { case ((d, id), (w, _)) =>
          assert(math.abs(d - w) < 1e-9, s"$at: RL_$t δ of e$id is $d, want $w")
        }
      }
      seen
    }

  /** Checks both implementations; returns the engine's states. */
  private def checkBoth(name: String, model: TopicModel, buckets: Seq[Bucket], window: Long): Seq[State] = {
    val engine = engineStates(model, buckets, window)
    check(s"$name (engine)", model, buckets, window, engine)
    check(s"$name (stream)", model, buckets, window, streamStates(model, buckets, window))
    engine
  }

  private val tiny = new TopicModel(2, 4, Array(
    Array(0.5, 0.5, 0.0, 0.0),
    Array(0.0, 0.0, 0.5, 0.5),
  ))

  test("a bucket that lists a child before its parent still counts the reference") {
    val parent = Element(1, 1, Array(0, 2), Array.empty, Array(0 -> 0.6, 1 -> 0.4))
    val child = Element(2, 2, Array(1), Array(1L), Array(0 -> 1.0))
    checkBoth("child first", tiny, Seq(Bucket(2, Seq(child, parent))), window = 10)
  }

  test("a same-ts parent with the larger id does not count, even when listed first") {
    val parent = Element(2, 1, Array(0, 2), Array.empty, Array(0 -> 0.6, 1 -> 0.4))
    val child = Element(1, 1, Array(1), Array(2L), Array(0 -> 1.0))
    checkBoth("larger-id parent first", tiny, Seq(Bucket(1, Seq(parent, child))), window = 10)
  }

  /** A random stream over a random model: ids rise with ts, some buckets are
    * empty and some gaps outlast the window, and refs reach back up to
    * `lookbackIds` ids (to elements that may have expired, so they are
    * resurrected), to same-ts elements on either side, to the element
    * itself, twice to one parent, and to ids that never arrive. Each bucket
    * lists its elements in shuffled order.
    */
  private def randomStream(seed: Long, n: Int, bucketLength: Long, gap: Long, lookbackIds: Int)
      : (TopicModel, Seq[Bucket]) = {
    val rnd = new scala.util.Random(seed)
    val (z, vocab) = (3, 8)
    val model = new TopicModel(z, vocab, Array.fill(z) {
      val row = Array.fill(vocab)(if (rnd.nextInt(4) == 0) 0.0 else rnd.nextDouble())
      row(rnd.nextInt(vocab)) += 0.1
      row.map(_ / row.sum)
    })
    var ts = 1L
    val elements = (1 to n).map { i =>
      ts += (if (rnd.nextInt(12) == 0) gap else rnd.nextInt(3).toLong)
      val topics = rnd.shuffle((0 until z).toList).take(1 + rnd.nextInt(z)).sorted
      val weights = topics.map(_ => 0.05 + rnd.nextDouble())
      val refs = Array.fill(rnd.nextInt(3))(rnd.nextInt(6) match {
        case 0 => i.toLong
        case 1 => (i + 1 + rnd.nextInt(2)).toLong
        case 2 => 10000L + rnd.nextInt(10)
        case _ => math.max(1, i - 1 - rnd.nextInt(lookbackIds)).toLong
      })
      Element(i.toLong, ts, Array.fill(1 + rnd.nextInt(5))(rnd.nextInt(vocab)),
        if (rnd.nextInt(8) == 0) refs ++ refs else refs,
        topics.zip(weights.map(_ / weights.sum)).toArray)
    }
    val buckets = Bucket.bucketize(elements, bucketLength, elements.last.ts)
      .map(b => b.copy(elements = rnd.shuffle(b.elements)))
    (model, buckets)
  }

  /** Elements back in A_t after having left it, over a run of states. */
  private def resurrections(states: Seq[State]): Int = {
    val (_, _, count) = states.foldLeft((Set.empty[Long], Set.empty[Long], 0)) {
      case ((ever, prev, n), (active, _)) =>
        (ever ++ active, active, n + active.count(id => ever(id) && !prev(id)))
    }
    count
  }

  Seq(
    ("window 20 > bucket 5, refs reach further back", 20L, 5L, 40L, 40),
    ("window 3 < bucket 5", 3L, 5L, 8L, 15),
    ("window 30, bucket 10, near refs", 30L, 10L, 60L, 6),
  ).foreach { case (name, window, bucketLength, gap, lookbackIds) =>
    test(s"both implementations match from-scratch Algorithm 1 after every bucket: $name") {
      var resurrected = 0
      (1L to 6L).foreach { seed =>
        val (model, buckets) = randomStream(seed, 120, bucketLength, gap, lookbackIds)
        resurrected += resurrections(checkBoth(s"seed $seed", model, buckets, window))
      }
      if (window > bucketLength) assert(resurrected > 0, "the streams should resurrect some elements")
    }
  }
}
