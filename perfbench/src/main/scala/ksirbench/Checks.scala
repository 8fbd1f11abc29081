package ksirbench

import repro.core._
import scala.collection.mutable

/** Output checks. Each returns the mismatches it found (empty when the
  * output is correct), so a caller can count them and a test can show that
  * a corrupted output is caught.
  */
object Checks {

  val Tol = 1e-9

  /** A_t and every ranked list RL_i as (δ_i, id) in rank order. */
  final case class ListState(active: Set[Long], lists: IndexedSeq[Seq[(Double, Long)]])

  def engineState(engine: KSirEngine): ListState =
    ListState(engine.activeElements.map(_.elem.id).toSet,
      (0 until engine.model.z).map(t => engine.rankedList(t).toSeq))

  /** Algorithm 1's state at time `now`, computed from scratch from the
    * stream instead of incrementally: A_t = W_t ∪ refs(W_t), and
    * δ_i(e) = λ·R_i(e) + (1−λ)/η · p_i(e)·Σ_{c ∈ W_t, e ∈ refs(c)} p_i(c).
    * `byId` holds the whole stream; only elements with ts ≤ now count.
    */
  def reference(
      model: TopicModel,
      byId: collection.Map[Long, Element],
      windowElems: Seq[Element],
      now: Long,
      window: Long,
      lambda: Double,
      eta: Double,
  ): ListState = {
    val start = now - window + 1
    val inWindow = windowElems.filter(e => e.ts >= start && e.ts <= now).sortBy(e => (e.ts, e.id))
    // Children per parent in arrival order; a reference counts only if the
    // parent arrived before the child (references point back in time).
    val children = mutable.LongMap.empty[mutable.ArrayBuffer[Element]]
    inWindow.foreach { c =>
      c.refs.distinct.foreach { pid =>
        byId.get(pid).foreach { p =>
          if (p.ts < c.ts || (p.ts == c.ts && p.id < c.id))
            children.getOrElseUpdate(pid, mutable.ArrayBuffer.empty) += c
        }
      }
    }
    val active = inWindow.map(_.id).toSet ++ children.keys
    val lists = Array.fill(model.z)(mutable.ArrayBuffer.empty[(Double, Long)])
    active.foreach { id =>
      val e = byId(id)
      e.topics.foreach { case (t, pe) =>
        var r = 0.0
        e.wordFreqs.foreach { case (w, freq) =>
          val p = model.pWord(t, w) * pe
          r += (if (p > 0.0) -freq * p * math.log(p) else 0.0)
        }
        var s = 0.0
        children.get(id).foreach(_.foreach(c => s += c.pTopic(t)))
        lists(t) += ((lambda * r + (1.0 - lambda) / eta * pe * s, id))
      }
    }
    ListState(active, lists.toIndexedSeq.map(_.sortBy { case (d, id) => (-d, -id) }.toSeq))
  }

  /** Ids and order must match exactly, scores to within [[Tol]]. */
  def compareLists(want: ListState, got: ListState): Seq[String] = {
    val errs = mutable.ArrayBuffer.empty[String]
    if (want.active != got.active) {
      val missing = (want.active -- got.active).take(5)
      val extra = (got.active -- want.active).take(5)
      errs += s"A_t differs: ${want.active.size} expected, ${got.active.size} held; missing $missing, extra $extra"
    }
    want.lists.indices.foreach { t =>
      val w = want.lists(t)
      val g = if (t < got.lists.length) got.lists(t) else Seq.empty
      if (w.map(_._2) != g.map(_._2)) {
        val at = w.map(_._2).zipAll(g.map(_._2), -1L, -1L).indexWhere { case (a, b) => a != b }
        errs += s"RL_$t ids differ at rank $at (${w.size} expected, ${g.size} held)"
      } else {
        w.zip(g).find { case ((a, _), (b, _)) => math.abs(a - b) > Tol }.foreach { case ((a, id), (b, _)) =>
          errs += s"RL_$t score of $id: $b held, $a expected"
        }
      }
    }
    errs.toSeq
  }

  /** |S| ≤ k, distinct active ids, and (for set-valued k-SIR methods) the
    * reported score equal to f(S, x) recomputed by the engine.
    */
  def query(engine: KSirEngine, q: QueryVector, k: Int, ids: Seq[Long], score: Option[Double]): Seq[String] = {
    val errs = mutable.ArrayBuffer.empty[String]
    if (ids.size > k) errs += s"|S| = ${ids.size} > k = $k"
    if (ids.distinct.size != ids.size) errs += "duplicate ids in S"
    ids.filter(id => engine.activeElement(id).isEmpty).take(3).foreach(id => errs += s"id $id is not active")
    score.foreach { s =>
      val f = engine.evaluate(ids, q)
      if (!(math.abs(f - s) <= Tol)) errs += s"reported f(S,x) = $s, recomputed $f"
    }
    errs.toSeq
  }

  /** Emitted top-N per topic, as (topic, rank, id, δ) rows of one bucket,
    * against the engine's ranked lists after the same bucket.
    */
  def sparkRows(engine: KSirEngine, rows: Seq[(Int, Int, Long, Double)], topN: Int): Seq[String] = {
    val byTopic = rows.groupBy(_._1)
    (0 until engine.model.z).flatMap { t =>
      val got = byTopic.getOrElse(t, Seq.empty).sortBy(_._2).map(r => (r._3, r._4))
      val want = engine.rankedList(t).take(topN).map { case (s, id) => (id, s) }.toSeq
      if (got.map(_._1) != want.map(_._1)) Seq(s"topic $t: stream ${got.map(_._1)} vs engine ${want.map(_._1)}")
      else got.zip(want).collect {
        case ((id, a), (_, b)) if !(math.abs(a - b) <= Tol) => s"topic $t: δ of $id is $a in the stream, $b in the engine"
      }
    }
  }
}
