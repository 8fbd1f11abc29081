package repro.core

import scala.collection.mutable

/** A reference from a child element within the current window to a parent.
  * The child's topic distribution is snapshotted so influence scores can be
  * recomputed without a lookup race during expiry.
  */
final case class ChildRef(childId: Long, childTs: Long, childTopics: Array[(Int, Double)])

/** An element held in the active window together with all per-topic state the
  * ranked lists need: the static semantic score `R_i(e)`, the word weights
  * `σ_i(w,e)`, the time-varying singleton influence `I_{i,t}(e)`, and the
  * timestamp `t_e` when the element was last referred to (its own arrival
  * counts, per Algorithm 1).
  *
  * All per-topic arrays are aligned with `elem.topics` (the element's sparse
  * topic support).
  */
final class ActiveElement(val elem: Element, model: TopicModel, lambda: Double, eta: Double) {

  /** Last time this element was posted or referred to (t_e in Algorithm 1). */
  var lastReferred: Long = elem.ts

  /** In-window children: elements of W_t that refer to this element. */
  val children = mutable.ArrayBuffer.empty[ChildRef]

  /** σ_i(w,e) for each distinct word, one array per supported topic. */
  val sigma: Array[Array[(Int, Double)]] =
    elem.topics.map { case (i, pe) => ActiveElement.sigma(model, elem, i, pe) }

  /** R_i(e): semantic score per supported topic (static). */
  val rScore: Array[Double] = sigma.map(ActiveElement.rScore)

  /** Σ_{c ∈ children} p_i(c) per supported topic; I_{i,t}(e) = p_i(e)·sum. */
  private val childPSum: Array[Double] = new Array[Double](elem.topics.length)

  /** The δ_i each ranked list RL_i currently files this element under, so
    * the engine can find its tuples again to move or remove them.
    */
  private[core] val filed: Array[Double] = new Array[Double](elem.topics.length)

  private def entryIdx(topic: Int): Int = VectorOps.indexOf(elem.topics, topic)

  /** I_{i,t}(e) for the singleton set (Equation 4 with S = {e}). */
  def influence(topic: Int): Double = {
    val j = entryIdx(topic)
    if (j < 0) 0.0 else elem.topics(j)._2 * childPSum(j)
  }

  /** R_i(e), 0 outside the element's topic support. */
  def semantic(topic: Int): Double = {
    val j = entryIdx(topic)
    if (j < 0) 0.0 else rScore(j)
  }

  /** δ_i(e) = f_i({e}) = λ·R_i(e) + (1-λ)/η·I_{i,t}(e). */
  def delta(topic: Int): Double = {
    val j = entryIdx(topic)
    if (j < 0) 0.0 else deltaAt(j)
  }

  /** δ_i(e) for the j-th entry of the topic support. */
  private[core] def deltaAt(j: Int): Double =
    lambda * rScore(j) + (1.0 - lambda) / eta * elem.topics(j)._2 * childPSum(j)

  /** σ_i(w,e) pairs for a topic, empty outside the support. */
  def sigmaFor(topic: Int): Array[(Int, Double)] = {
    val j = entryIdx(topic)
    if (j < 0) Array.empty else sigma(j)
  }

  private[core] def addChild(c: ChildRef): Unit = {
    children += c
    var j = 0
    while (j < elem.topics.length) {
      childPSum(j) += VectorOps.valueAt(c.childTopics, elem.topics(j)._1)
      j += 1
    }
  }

  /** Drop children with ts < windowStart; returns true if any were dropped. */
  private[core] def expireChildren(windowStart: Long): Boolean = {
    val before = children.length
    if (before == 0) return false
    val kept = children.filter(_.childTs >= windowStart)
    if (kept.length == before) return false
    children.clear(); children ++= kept
    // Recompute sums from scratch to avoid float drift accumulating.
    var j = 0
    while (j < elem.topics.length) {
      var s = 0.0
      kept.foreach(c => s += VectorOps.valueAt(c.childTopics, elem.topics(j)._1))
      childPSum(j) = s
      j += 1
    }
    true
  }
}

object ActiveElement {

  /** σ_i(w,e) = −γ(w,e)·p_i(w,e)·log p_i(w,e), p_i(w,e) = p_i(w)·p_i(e), for
    * each distinct word of e in word order (Equation 3's word weights).
    */
  def sigma(model: TopicModel, e: Element, topic: Int, pe: Double): Array[(Int, Double)] =
    e.wordFreqs.map { case (w, freq) =>
      val p = model.pWord(topic, w) * pe
      (w, if (p > 0.0) -freq * p * math.log(p) else 0.0)
    }

  /** R_i(e) = Σ_w σ_i(w,e), summed in word order. */
  def rScore(sigma: Array[(Int, Double)]): Double = sigma.map(_._2).sum
}

/** The k-SIR maintenance engine (Figure 4): the Active Window `A_t`, the
  * per-topic Ranked Lists `RL_1..RL_z` (Algorithm 1), and the scoring
  * parameters. The stream is ingested in buckets of equal time length via
  * [[advance]]; queries run against the current state via MTTS / MTTD / the
  * baselines, all of which take the engine as their input.
  *
  * @param model  the topic model oracle
  * @param window window length T of the sliding window
  * @param lambda semantic-vs-influence trade-off λ (Equation 2)
  * @param eta    scale adjustment η (Equation 2)
  */
final class KSirEngine(
    val model: TopicModel,
    val window: Long,
    val lambda: Double,
    val eta: Double,
) {
  require(window > 0, "window length must be positive")
  require(lambda >= 0 && lambda <= 1, "λ must lie in [0,1]")
  require(eta > 0, "η must be positive")

  private val active = mutable.LongMap.empty[ActiveElement]

  /** All elements ever seen, so a reference to a previously-discarded
    * element can resurrect it (the paper's A_t = W_t ∪ refs(W_t) readmits
    * any element a window element refers to — e.g. e2 leaves A_6 but is back
    * in A_8 of Table 1 via e7's reference). A production system would bound
    * this by the maximum reference lookback; the repro keeps the stream.
    */
  private val archive = mutable.LongMap.empty[Element]

  /** Ranked list per topic: (score, id) ordered descending by score (ties by
    * id, descending, so ordering is total and deterministic).
    */
  private val lists: Array[mutable.TreeSet[(Double, Long)]] =
    Array.fill(model.z)(mutable.TreeSet.empty[(Double, Long)](
      Ordering.Tuple2(Ordering[Double].reverse, Ordering[Long].reverse)))

  private var nowTs: Long = 0L

  /** Current time t (end of the last ingested bucket). */
  def now: Long = nowTs

  /** Number of active elements n_t. */
  def activeCount: Int = active.size

  def activeElements: Iterator[ActiveElement] = active.valuesIterator

  def activeElement(id: Long): Option[ActiveElement] = active.get(id)

  /** Total references received inside the window by any active element —
    * used by the influence-aware baselines and the Table 6 metric.
    */
  def childCount(id: Long): Int = active.get(id).map(_.children.length).getOrElse(0)

  /** Ingest one bucket B_t and slide the window to `bucket.endTs`
    * (Algorithm 1, lines 3–13). Rejects (`require`) an element whose ts lies
    * outside (`now`, `bucket.endTs`] or whose id was ingested before.
    */
  def advance(bucket: Bucket): Unit = {
    require(bucket.endTs > nowTs, s"buckets must advance time: ${bucket.endTs} <= $nowTs")
    bucket.elements.foreach { e =>
      require(e.ts > nowTs && e.ts <= bucket.endTs,
        s"element ${e.id} has ts ${e.ts} outside its bucket ($nowTs, ${bucket.endTs}]")
    }
    nowTs = bucket.endTs
    val windowStart = nowTs - window + 1

    // Insert each element and propagate its references to parents, in
    // timestamp order (references always point strictly backwards in time,
    // so parents are inserted before their children's refs are applied).
    bucket.elements.sortBy(e => (e.ts, e.id)).foreach { e =>
      require(archive.put(e.id, e).isEmpty, s"duplicate element id ${e.id}")
      val ae = new ActiveElement(e, model, lambda, eta)
      active(e.id) = ae
      insertIntoLists(ae)
      e.parents.foreach { pid =>
        val parentOpt = active.get(pid).orElse {
          // Resurrect a discarded element the moment it is referred again:
          // it re-enters A_t with no in-window children (any earlier child
          // would have kept it active in the first place).
          archive.get(pid).map { pe =>
            val revived = new ActiveElement(pe, model, lambda, eta)
            active(pid) = revived
            insertIntoLists(revived)
            revived
          }
        }
        parentOpt.foreach { parent =>
          parent.addChild(ChildRef(e.id, e.ts, e.topics))
          parent.lastReferred = math.max(parent.lastReferred, e.ts)
          refreshLists(parent)
        }
      }
    }

    // Expire: drop elements never referred to after t-T+1; for survivors,
    // drop expired children and refresh their influence scores. (The paper's
    // Algorithm 1 only deletes expired tuples; refreshing parents of expired
    // children is required for δ_i to match Equation 4 exactly — see DESIGN.)
    val expired = active.valuesIterator.filter(_.lastReferred < windowStart).map(_.elem.id).toArray
    expired.foreach { id =>
      removeFromLists(active(id))
      active.remove(id)
    }
    active.valuesIterator.foreach { ae =>
      if (ae.expireChildren(windowStart)) refreshLists(ae)
    }
  }

  private def insertIntoLists(ae: ActiveElement): Unit = {
    var j = 0
    while (j < ae.elem.topics.length) {
      val s = ae.deltaAt(j)
      ae.filed(j) = s
      lists(ae.elem.topics(j)._1).add((s, ae.elem.id))
      j += 1
    }
  }

  private def refreshLists(ae: ActiveElement): Unit = {
    var j = 0
    while (j < ae.elem.topics.length) {
      val topic = ae.elem.topics(j)._1
      val s = ae.deltaAt(j)
      if (s != ae.filed(j)) {
        lists(topic).remove((ae.filed(j), ae.elem.id))
        lists(topic).add((s, ae.elem.id))
        ae.filed(j) = s
      }
      j += 1
    }
  }

  private def removeFromLists(ae: ActiveElement): Unit = {
    var j = 0
    while (j < ae.elem.topics.length) {
      lists(ae.elem.topics(j)._1).remove((ae.filed(j), ae.elem.id))
      j += 1
    }
  }

  /** Sorted (score desc) snapshot iterator over RL_i. */
  def rankedList(topic: Int): Iterator[(Double, Long)] = lists(topic).iterator

  /** Size of RL_i. */
  def rankedListSize(topic: Int): Int = lists(topic).size

  /** δ(e, x) = Σ_i x_i δ_i(e) for an active element. */
  def deltaScore(ae: ActiveElement, q: QueryVector): Double = {
    var s = 0.0
    q.entries.foreach { case (i, xi) => s += xi * ae.delta(i) }
    s
  }

  /** Evaluate f(S, x) from scratch (used by tests and set-valued baselines). */
  def evaluate(ids: Iterable[Long], q: QueryVector): Double = {
    val cs = new CandidateState(this, q)
    ids.foreach(id => active.get(id).foreach(cs.add))
    cs.score
  }
}
