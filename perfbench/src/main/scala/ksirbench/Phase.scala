package ksirbench

import repro.baselines.{Celf, DivQuery, TfIdf, TfIdfIndex}
import repro.core._
import scala.collection.mutable
import scala.util.control.NonFatal

/** The timed phase of one run: a closed loop over the plan's buckets and
  * queries on one engine, then (on ingest-twitter) Spark micro-batches.
  * Only the calls into the program are timed; output checks and, when
  * traced, the standalone per-layer probes run between them.
  *
  * Spark (session included) starts only after the engine's timed work, with
  * its own mirror engine for the output check, so that its threads and
  * allocations cannot disturb the engine's timings.
  */
final class Phase(in: Inputs, engine: KSirEngine, startSpark: Option[() => SparkStage], rec: Recorder) {
  private val plan = in.plan
  private val K = Plan.K

  /** Raw per-call times (ns) by call name, for the run record. */
  val raw = mutable.LinkedHashMap.empty[String, Samples]
  // End-to-end samples (ns).
  val advanceNs = new Samples
  val sparkNs = new Samples
  val mttsNs = new Samples
  val mttdNs = new Samples
  val celfNs = new Samples
  val tfidfNs = new Samples
  val divNs = new Samples
  val mttsQuality = new Samples
  val mttdQuality = new Samples
  var arrivals = 0L
  var attempted = 0L
  var failed = 0L
  val failures = mutable.ArrayBuffer.empty[String]
  /** Wall time of the phase, Spark's set-up left out. */
  var wallNs = 0L

  // Per-layer measurements, taken only when traced.
  var refs = 0L
  var resurrections = 0L
  var expirations = 0L
  val activeAfter = new Samples
  val listEntries = new Samples
  val arrivalsPerBucket = new Samples
  val sigmaNs = new Samples // per ActiveElement build
  val retrieved = Map("mtts" -> new Samples, "mttd" -> new Samples)
  val evaluated = Map("mtts" -> new Samples, "mttd" -> new Samples, "celf" -> new Samples)
  val admitRatio = Map("mtts" -> new Samples, "mttd" -> new Samples)
  val residualNs = Map("mtts" -> new Samples, "mttd" -> new Samples)
  val mttsEvaluatedFrac = new Samples
  var popNs = 0L
  var pops = 0L
  var gainNs = 0L
  var gains = 0L
  var addNs = 0L
  var adds = 0L
  val indexBuildNs = new Samples
  val sparkEvents = new Samples
  /** Session and pipeline start, warm-up micro-batch: set-up, not timed. */
  var sparkSetupNs = 0L
  var spark: Option[SparkStage] = None
  private var sink = 0.0 // keeps standalone probe results alive
  val machineProbe = new MachineProbe

  private def fail(what: String): Unit = {
    failed += 1
    if (failures.length < 20) failures += what
  }

  /** Time one call into the program; a throw counts as a failed operation. */
  private def call[A](name: String, request: Long, samples: Samples, normalise: Boolean = true)(f: => A): Option[A] = {
    attempted += 1
    try {
      val r = rec.time(name, request)(f)
      raw.getOrElseUpdate(name, new Samples) += rec.lastNs.toDouble
      if (normalise) {
        machineProbe.maybe()
        samples += rec.lastNs * (MachineProbe.ReferenceNs / machineProbe.current)
      } else samples += rec.lastNs.toDouble
      Some(r)
    } catch {
      case NonFatal(e) => fail(s"$name #$request threw $e"); None
    }
  }

  /** An output check for an operation that already counted as attempted. */
  private def check(what: String, errs: Seq[String]): Unit =
    if (errs.nonEmpty) fail(s"$what: ${errs.take(3).mkString("; ")}")

  def run(): Phase = {
    if (rec.traced) fillRamp()
    val t0 = System.nanoTime()
    val n = in.buckets.length
    var qi = 0
    var b = plan.fillBuckets
    while (b < n) {
      val bucket = in.buckets(b)
      advance(bucket)
      val timedIdx = b - plan.fillBuckets
      if (timedIdx % plan.checkEvery == plan.checkEvery - 1 || b == n - 1) ingestCheck(bucket)
      var j = plan.queriesAfter(b)
      while (j > 0) { query(qi); qi += 1; j -= 1 }
      b += 1
    }
    var j = plan.finalQueries
    while (j > 0) { query(qi); qi += 1; j -= 1 }
    startSpark.foreach(sparkBatches)
    wallNs = System.nanoTime() - t0 - sparkSetupNs
    this
  }

  /** Micro-batches from the stream's first bucket (a warm-up), each checked
    * against a mirror engine advanced on the same bucket. Spark's times are
    * not normalised: the probe, run right after a batch, mostly measures
    * Spark's own threads winding down.
    */
  private def sparkBatches(start: () => SparkStage): Unit = {
    val t0 = System.nanoTime()
    val s = start()
    spark = Some(s)
    val mirror = in.newEngine()
    val first = in.buckets.head
    s.add(first); s.process(); mirror.advance(first)
    sparkSetupNs = System.nanoTime() - t0
    in.buckets.slice(1, 1 + plan.sparkBatches).foreach { b =>
      s.add(b)
      call("spark.StreamingRankedLists.batch", b.endTs, sparkNs, normalise = false)(s.process())
      if (rec.traced) sparkEvents += s.eventCount(b).toDouble
      mirror.advance(b)
      check(s"spark batch ${b.endTs}", Checks.sparkRows(mirror, s.rows(b), Plan.SparkTopN))
    }
    s.stop()
  }

  private def advance(bucket: Bucket): Unit = {
    var nBefore = 0
    var revived = 0
    if (rec.traced) {
      nBefore = engine.activeCount
      val own = bucket.elements.iterator.map(_.id).toSet
      revived = bucket.elements.iterator.flatMap(_.refs).toSet
        .count(p => !own(p) && in.byId.contains(p) && engine.activeElement(p).isEmpty)
    }
    call("core.KSirEngine.advance", bucket.endTs, advanceNs)(engine.advance(bucket))
    arrivals += bucket.elements.size
    if (rec.traced) {
      val nAfter = engine.activeCount
      refs += bucket.elements.iterator.map(_.refs.length.toLong).sum
      resurrections += revived
      expirations += nBefore + bucket.elements.size + revived - nAfter
      activeAfter += nAfter.toDouble
      arrivalsPerBucket += bucket.elements.size.toDouble
      listEntries += (0 until in.model.z).iterator.map(engine.rankedListSize).sum.toDouble
      // σ/R build of each arrival, standalone.
      val t0 = System.nanoTime()
      bucket.elements.foreach(e => sink += new ActiveElement(e, in.model, Plan.Lambda, in.eta).rScore.length)
      if (bucket.elements.nonEmpty) sigmaNs += (System.nanoTime() - t0).toDouble / bucket.elements.size
    }
  }

  // Per-bucket (arrivals, n_t, time) while a fresh engine fills its window.
  // With the window full n_t hardly moves, so only this ramp tells the
  // n_t term of the ingest fit apart from the per-arrival one.
  val rampArrivals = new Samples
  val rampActive = new Samples
  val rampNs = new Samples

  private def fillRamp(): Unit = {
    val e = in.newEngine()
    in.buckets.take(Plan.BucketsPerDay).foreach { b =>
      val t0 = System.nanoTime()
      e.advance(b)
      rampNs += (System.nanoTime() - t0).toDouble
      rampArrivals += b.elements.size.toDouble
      rampActive += e.activeCount.toDouble
    }
  }

  private def ingestCheck(bucket: Bucket): Unit = {
    val now = engine.now
    val want = Checks.reference(in.model, in.byId, in.slice(now - Plan.WindowT + 1, now), now,
      Plan.WindowT, Plan.Lambda, in.eta)
    check(s"ingest check at t=$now", Checks.compareLists(want, Checks.engineState(engine)))
  }

  private def query(qi: Int): Unit = {
    val wq = in.queries(qi % in.queries.length)
    val q = wq.vector
    val nT = engine.activeCount
    val mtts = call("core.MTTS.query", qi, mttsNs)(MTTS.query(engine, q, K, Plan.Epsilon))
    val mttsLast = rec.lastNs
    val mttd = call("core.MTTD.query", qi, mttdNs)(MTTD.query(engine, q, K, Plan.Epsilon))
    val mttdLast = rec.lastNs
    mtts.foreach(r => check(s"MTTS query $qi", Checks.query(engine, q, K, r.elements, Some(r.score))))
    mttd.foreach(r => check(s"MTTD query $qi", Checks.query(engine, q, K, r.elements, Some(r.score))))
    if (qi % plan.celfEvery == 0) {
      val celf = call("baselines.Celf.query", qi, celfNs)(Celf.query(engine, q, K))
      celf.foreach { c =>
        check(s"CELF query $qi", Checks.query(engine, q, K, c.elements, Some(c.score)))
        if (c.score > 0) {
          mtts.foreach(r => mttsQuality += r.score / c.score)
          mttd.foreach(r => mttdQuality += r.score / c.score)
        }
        if (rec.traced) evaluated("celf") += c.evaluated.toDouble
      }
    }
    if (qi % plan.keywordEvery == 0) {
      val tf = call("baselines.TfIdf.query", qi, tfidfNs)(TfIdf.query(engine, wq.keywords, K))
      tf.foreach(ids => check(s"TF-IDF query $qi", Checks.query(engine, q, K, ids, None)))
      val div = call("baselines.DivQuery.query", qi, divNs)(DivQuery.query(engine, wq.keywords, K))
      div.foreach(ids => check(s"DIV query $qi", Checks.query(engine, q, K, ids, None)))
      if (rec.traced) {
        val t0 = System.nanoTime()
        sink += new TfIdfIndex(engine).nDocs
        indexBuildNs += (System.nanoTime() - t0).toDouble
      }
    }
    if (rec.traced) {
      mtts.foreach { r =>
        probe(q, r, "mtts", mttsLast)
        if (nT > 0) mttsEvaluatedFrac += r.evaluated.toDouble / nT
      }
      mttd.foreach(r => probe(q, r, "mttd", mttdLast))
    }
  }

  /** Replays one query's work outside the timed call: the same number of
    * pops on a fresh cursor over the same state, then one add per result
    * element and one gain per retrieved element against the result set.
    */
  private def probe(q: QueryVector, r: KSirResult, method: String, queryNs: Long): Unit = {
    retrieved(method) += r.retrieved.toDouble
    evaluated(method) += r.evaluated.toDouble
    if (r.evaluated > 0) admitRatio(method) += r.elements.size.toDouble / r.evaluated
    val cursor = new RankedListCursor(engine, q)
    val popped = new Array[ActiveElement](r.retrieved)
    val t0 = System.nanoTime()
    var i = 0
    while (i < popped.length) { popped(i) = cursor.popMax(); i += 1 }
    val t1 = System.nanoTime()
    val cs = new CandidateState(engine, q)
    r.elements.foreach(id => engine.activeElement(id).foreach(cs.add))
    val t2 = System.nanoTime()
    var g = 0
    popped.foreach(ae => if (ae != null) { sink += cs.gain(ae); g += 1 })
    val t3 = System.nanoTime()
    popNs += t1 - t0; pops += popped.length
    addNs += t2 - t1; adds += r.elements.size
    gainNs += t3 - t2; gains += g
    val perPop = if (popped.isEmpty) 0.0 else (t1 - t0).toDouble / popped.length
    val perGain = if (g == 0) 0.0 else (t3 - t2).toDouble / g
    residualNs(method) += queryNs - r.retrieved * perPop - r.evaluated * perGain
  }
}
