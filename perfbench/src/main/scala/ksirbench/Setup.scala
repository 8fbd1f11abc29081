package ksirbench

import repro.baselines.{Celf, DivQuery, TfIdf}
import repro.core._
import repro.data.{QueryGen, SocialStreamGen, WorkloadQuery}

/** Generated inputs of one run: the stream, its buckets, η and queries. */
final class Inputs(
    val plan: Plan,
    val gen: SocialStreamGen.Generated,
    val buckets: IndexedSeq[Bucket],
    val eta: Double,
    val queries: IndexedSeq[WorkloadQuery],
) {
  def model: TopicModel = gen.model
  lazy val byId: collection.Map[Long, Element] = {
    val m = scala.collection.mutable.LongMap.empty[Element]
    gen.elements.foreach(e => m(e.id) = e)
    m
  }
  /** Stream elements with ts in [from, to] (the stream is sorted by ts). */
  def slice(from: Long, to: Long): Seq[Element] = {
    val es = gen.elements
    def lowerBound(ts: Long): Int = {
      var lo = 0
      var hi = es.length
      while (lo < hi) { val mid = (lo + hi) >>> 1; if (es(mid).ts < ts) lo = mid + 1 else hi = mid }
      lo
    }
    es.slice(lowerBound(from), lowerBound(to + 1))
  }
  def newEngine(): KSirEngine = new KSirEngine(model, Plan.WindowT, Plan.Lambda, eta)
}

object Setup {

  /** Generate the workload's inputs from its plan (and so from the seed). */
  def inputs(plan: Plan, seed: Long): Inputs = {
    val g = SocialStreamGen.generate(plan.config)
    val buckets = Bucket.bucketize(g.elements, Plan.BucketL, plan.spanSeconds).toIndexedSeq
    // η as BenchData derives it: mean influence over mean semantic score of
    // a window filled with η = 1.
    val probe = new KSirEngine(g.model, Plan.WindowT, Plan.Lambda, eta = 1.0)
    buckets.takeWhile(_.endTs <= Plan.WindowT).foreach(probe.advance)
    var rSum = 0.0
    var iSum = 0.0
    probe.activeElements.foreach { ae =>
      ae.elem.topics.foreach { case (t, _) => rSum += ae.semantic(t); iSum += ae.influence(t) }
    }
    val eta = math.max(0.05, if (rSum > 0) iSum / rSum else 1.0)
    val nQueries = math.max(1, timedQueries(plan, buckets.length)) + plan.warmupQueries
    val queries = QueryGen.workload(g.model, nQueries + nQueries / 10 + 10, Plan.WindowT, plan.spanSeconds,
      Plan.querySeed(seed), corpus = Some(g.elements.map(_.words)))
    new Inputs(plan, g, buckets, eta, queries)
  }

  def timedQueries(plan: Plan, nBuckets: Int): Int =
    (plan.fillBuckets until nBuckets).map(plan.queriesAfter).sum + plan.finalQueries

  /** A fresh engine advanced through the set-up buckets, then warm-up
    * queries through every method so the timed phase runs JIT-compiled code.
    */
  def engine(in: Inputs): KSirEngine = {
    val engine = in.newEngine()
    in.buckets.take(in.plan.fillBuckets).foreach(engine.advance)
    val warm = in.queries.takeRight(in.plan.warmupQueries)
    warm.zipWithIndex.foreach { case (wq, i) =>
      MTTS.query(engine, wq.vector, Plan.K, Plan.Epsilon)
      MTTD.query(engine, wq.vector, Plan.K, Plan.Epsilon)
      if (i % 4 == 0) Celf.query(engine, wq.vector, Plan.K)
      if (i % 20 == 0) { TfIdf.query(engine, wq.keywords, Plan.K); DivQuery.query(engine, wq.keywords, Plan.K) }
    }
    engine
  }
}
