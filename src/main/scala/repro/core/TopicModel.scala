package repro.core

/** A probabilistic topic model used as a black-box oracle, exactly as the
  * paper treats it: it provides the topic-word probabilities `p_i(w)` and is
  * used to infer topic distributions of documents and keyword queries.
  *
  * @param z         number of topics
  * @param vocabSize vocabulary size m
  * @param topicWord `topicWord(i)(w) = p_i(w)`; each row sums to 1
  */
final class TopicModel(
    val z: Int,
    val vocabSize: Int,
    val topicWord: Array[Array[Double]],
) {
  require(topicWord.length == z, s"expected $z topic rows, got ${topicWord.length}")
  require(topicWord.forall(_.length == vocabSize), "topic-word rows must span the vocabulary")

  /** p_i(w): probability of word w on topic i. */
  def pWord(i: Int, w: Int): Double = topicWord(i)(w)

  /** Infer a sparse topic distribution for a bag of words, used both for the
    * query-by-keyword paradigm (keywords as a pseudo-document, §3.2) and for
    * elements when a pre-assigned distribution is not available. A simple
    * one-step posterior with a uniform topic prior:
    * `p(θ_i | doc) ∝ Σ_w γ(w) · p_i(w)`, truncated to `maxTopics` entries and
    * renormalized — matching the paper's observation that elements sit on
    * very few topics (<2 on average).
    */
  def infer(words: Seq[Int], maxTopics: Int = 5): Array[(Int, Double)] = {
    val scores = new Array[Double](z)
    var i = 0
    while (i < z) {
      var s = 0.0
      words.foreach { w => if (w >= 0 && w < vocabSize) s += topicWord(i)(w) }
      scores(i) = s
      i += 1
    }
    val top = scores.zipWithIndex.filter(_._1 > 0).sortBy(-_._1).take(maxTopics)
    val norm = top.map(_._1).sum
    if (norm <= 0) Array.empty
    else top.map { case (s, t) => (t, s / norm) }.sortBy(_._1)
  }
}

/** A z-dimensional query vector x (sparse): the user's degree of interest on
  * each topic, normalized to sum to 1 (§3.2).
  */
final case class QueryVector(entries: Array[(Int, Double)]) {
  require(entries.forall(_._2 > 0), "query vector entries must be positive")

  /** d: the number of non-zero entries (used in the complexity analyses). */
  def d: Int = entries.length

  def x(i: Int): Double = VectorOps.valueAt(entries, i)

  /** Dense copy, for cosine-based baselines. */
  def dense(z: Int): Array[Double] = VectorOps.dense(entries, z)
}

object QueryVector {
  def apply(pairs: (Int, Double)*): QueryVector = QueryVector(pairs.filter(_._2 > 0).sortBy(_._1).toArray)

  /** Build a query vector from keywords via the topic model (§3.2). */
  def fromKeywords(model: TopicModel, keywords: Seq[Int], maxTopics: Int = 5): QueryVector =
    QueryVector(model.infer(keywords, maxTopics))
}

/** Math on sparse vectors: (index, value) arrays such as an element's
  * topic distribution p_i(e) or a query vector x, sorted by index.
  */
object VectorOps {

  /** Position of index i in v, or -1 when v has no entry for it. */
  def indexOf(v: Array[(Int, Double)], i: Int): Int = {
    // Vectors hold a handful of entries, so a scan beats a binary search.
    var j = 0
    while (j < v.length) { if (v(j)._1 == i) return j; j += 1 }
    -1
  }

  /** v_i, 0 when v has no entry for index i. */
  def valueAt(v: Array[(Int, Double)], i: Int): Double = {
    val j = indexOf(v, i)
    if (j < 0) 0.0 else v(j)._2
  }

  /** Dense copy of v over indices 0 until n. */
  def dense(v: Array[(Int, Double)], n: Int): Array[Double] = {
    val a = new Array[Double](n)
    v.foreach { case (i, x) => a(i) = x }
    a
  }

  def cosineSparse(a: Array[(Int, Double)], b: Array[(Int, Double)]): Double = {
    // Both sorted by index: linear merge.
    var i = 0; var j = 0; var dot = 0.0; var na = 0.0; var nb = 0.0
    while (i < a.length) { na += a(i)._2 * a(i)._2; i += 1 }
    while (j < b.length) { nb += b(j)._2 * b(j)._2; j += 1 }
    i = 0; j = 0
    while (i < a.length && j < b.length) {
      val (ia, va) = a(i); val (ib, vb) = b(j)
      if (ia == ib) { dot += va * vb; i += 1; j += 1 }
      else if (ia < ib) i += 1
      else j += 1
    }
    if (na == 0 || nb == 0) 0.0 else dot / math.sqrt(na * nb)
  }
}
