package repro.core

import scala.collection.mutable

/** Incremental state of a candidate set S for a fixed query vector x, giving
  * O(l·d) marginal-gain evaluation Δ(e|S) and O(l·d) insertion — the costs
  * the paper's complexity analyses assume.
  *
  * Per query topic i it tracks:
  *  - the best covered weight `max_{e∈S} σ_i(w,e)` per word (Equation 3);
  *  - per influenced element c, the complement product
  *    `Π_{e'∈S∩c.ref} (1 − p_i(e'⇝c))`, so that adding e with propagation
  *    probability p contributes `prod·p` to `I_{i,t}` (Equation 4).
  */
final class CandidateState(engine: KSirEngine, val q: QueryVector) {

  private val lambda = engine.lambda
  private val etaInv = (1.0 - engine.lambda) / engine.eta

  // One map per non-zero query entry, keyed by word id.
  private val covered: Array[mutable.LongMap[Double]] =
    Array.fill(q.entries.length)(mutable.LongMap.empty[Double])

  // One map per non-zero query entry, keyed by influenced child id.
  private val prodComp: Array[mutable.LongMap[Double]] =
    Array.fill(q.entries.length)(mutable.LongMap.empty[Double])

  private val memberIds = mutable.ArrayBuffer.empty[Long]
  private var fScore = 0.0

  def members: Seq[Long] = memberIds.toSeq
  def size: Int = memberIds.length
  def score: Double = fScore
  def contains(id: Long): Boolean = memberIds.contains(id)

  /** Δ(e|S) = f(S ∪ {e}, x) − f(S, x). Does not mutate state. */
  def gain(ae: ActiveElement): Double = delta(ae, commit = false)

  /** Add e to S, updating coverage state and the cached f(S, x).
    * Idempotent: S is a set, so re-adding a member is a no-op.
    */
  def add(ae: ActiveElement): Unit = {
    if (memberIds.contains(ae.elem.id)) return
    fScore += delta(ae, commit = true)
    memberIds += ae.elem.id
  }

  /** Δ(e|S); with `commit`, also records e's word coverage and influence in
    * the state. σ has one entry per distinct word and e one entry per child,
    * so recording as the loop goes cannot change the Δ it returns.
    */
  private def delta(ae: ActiveElement, commit: Boolean): Double = {
    var total = 0.0
    var qi = 0
    while (qi < q.entries.length) {
      val (topic, xi) = q.entries(qi)
      val ei = VectorOps.indexOf(ae.elem.topics, topic)
      val pe = if (ei < 0) 0.0 else ae.elem.topics(ei)._2
      if (pe > 0.0) {
        var dR = 0.0
        val sig = ae.sigma(ei)
        var j = 0
        while (j < sig.length) {
          val (w, s) = sig(j)
          val c = covered(qi).getOrElse(w.toLong, 0.0)
          if (s > c) {
            dR += s - c
            if (commit) covered(qi)(w.toLong) = s
          }
          j += 1
        }
        var dI = 0.0
        ae.children.foreach { c =>
          val pc = c.pTopic(topic)
          if (pc > 0.0) {
            val p = pe * pc
            val prod = prodComp(qi).getOrElse(c.id, 1.0)
            dI += prod * p
            if (commit) prodComp(qi)(c.id) = prod * (1.0 - p)
          }
        }
        total += xi * (lambda * dR + etaInv * dI)
      }
      qi += 1
    }
    total
  }
}

/** Result of one k-SIR query execution, with the instrumentation the paper's
  * efficiency figures report: how many distinct elements were evaluated
  * (marginal-gain computations touch them) and how many were retrieved from
  * the ranked lists.
  */
final case class KSirResult(elements: Seq[Long], score: Double, evaluated: Int, retrieved: Int)

/** Traversal state over the ranked lists RL_i for the topics with x_i > 0:
  * the `RL_i.first` / `RL_i.next` operations of §4.1, including the
  * cross-list "visited" marking so each element is retrieved at most once.
  */
final class RankedListCursor(engine: KSirEngine, q: QueryVector) {

  private val visited = mutable.HashSet.empty[Long]
  private val iters: Array[Iterator[(Double, Long)]] =
    q.entries.map { case (i, _) => engine.rankedList(i) }
  // Current head of each list: (δ_i(e), id), or null when exhausted.
  private val heads: Array[(Double, Long)] = new Array[(Double, Long)](q.entries.length)
  var retrievedCount: Int = 0

  q.entries.indices.foreach(advanceList)

  private def advanceList(j: Int): Unit = {
    var next: (Double, Long) = null
    val it = iters(j)
    while (next == null && it.hasNext) {
      val cand = it.next()
      if (!visited.contains(cand._2)) next = cand
    }
    heads(j) = next
  }

  /** Upper bound UB(x) = Σ_i x_i·δ_i(e^(i)) on any unretrieved element. */
  def upperBound: Double = {
    var ub = 0.0
    var j = 0
    while (j < heads.length) {
      if (heads(j) != null) ub += q.entries(j)._2 * heads(j)._1
      j += 1
    }
    ub
  }

  def exhausted: Boolean = heads.forall(_ == null)

  /** Pop the element with the maximum x_i·δ_i(e^(i)) across lists, marking it
    * visited in every list. Returns null when all lists are exhausted.
    */
  def popMax(): ActiveElement = {
    var best = -1
    var bestVal = -1.0
    var j = 0
    while (j < heads.length) {
      if (heads(j) != null) {
        val v = q.entries(j)._2 * heads(j)._1
        if (v > bestVal) { bestVal = v; best = j }
      }
      j += 1
    }
    if (best < 0) return null
    val id = heads(best)._2
    visited.add(id)
    retrievedCount += 1
    // The popped element may also be the head of other lists: skip it there.
    var i = 0
    while (i < heads.length) {
      if (heads(i) != null && heads(i)._2 == id) advanceList(i)
      i += 1
    }
    engine.activeElement(id).orNull
  }
}
