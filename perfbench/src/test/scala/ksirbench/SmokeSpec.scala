package ksirbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.{SocialStreamGen, StreamConfig}

/** Every workload runs at a tiny size with its checks passing, and every
  * checker catches a deliberately corrupted output.
  * Run with: cd perfbench && sbt test
  */
class SmokeSpec extends AnyFunSuite {

  private val out = new java.io.File("../.bench_build/smoke")

  /** Metric names of one section of BENCHMARK.json. */
  private def declared(section: String): Set[String] = {
    val src = scala.io.Source.fromFile("../BENCHMARK.json", "UTF-8")
    val text = try src.mkString finally src.close()
    val start = text.indexOf("\"" + section + "\"")
    val body = text.substring(text.indexOf('[', start), text.indexOf(']', start))
    "\"name\"\\s*:\\s*\"([^\"]+)\"".r.findAllMatchIn(body).map(_.group(1)).toSet
  }

  private def run(workload: String, trace: Boolean): Outcome = {
    val opts = Opts(workload = workload, seed = 5L, seconds = 1, trace = trace, out = out)
    Runner.run(Plan(workload, opts.seed, opts.seconds).get, opts)
  }

  Plan.Workloads.foreach { w =>
    test(s"$w runs at a tiny size, passes its checks and prints every end-to-end metric") {
      val o = run(w, trace = false)
      assert(o.failed == 0, o.record)
      assert(o.correct)
      assert(o.attempted > 0)
      assert(o.metrics.map(_._1).toSet == declared("end_to_end"))
      o.metrics.foreach { case (n, m) => assert(m.value > 0, s"$n is not positive") }
    }
  }

  test("a traced run prints every per-layer metric and its tracing overhead") {
    val o = run("query-aminer", trace = true)
    assert(o.correct)
    assert(o.metrics.map(_._1).toSet == declared("per_layer"))
    assert(o.metrics.toMap.apply("trace.overhead").value > 0)
  }

  test("same seed, same quality: quality is deterministic") {
    val a = run("query-aminer", trace = false).metrics.toMap
    val b = run("query-aminer", trace = false).metrics.toMap
    assert(a("mtts_quality").value == b("mtts_quality").value)
    assert(a("mttd_quality").value == b("mttd_quality").value)
  }

  // A small stream with expiry and references, as the checkers see it.
  private val gen = SocialStreamGen.generate(StreamConfig("smoke", 600, 200, 6, 6, 1.5, 3000, 1500, seed = 41L))
  private val buckets = Bucket.bucketize(gen.elements, 100, 3000)
  private val engine = new KSirEngine(gen.model, 1000, 0.5, 2.0)
  buckets.foreach(engine.advance)
  private val byId = gen.elements.map(e => e.id -> e).toMap
  private def reference = Checks.reference(gen.model, byId, gen.elements, engine.now, 1000, 0.5, 2.0)
  private val q = QueryVector(gen.elements.last.topics)

  test("ingest check: the engine matches the from-scratch reference") {
    assert(Checks.compareLists(reference, Checks.engineState(engine)).isEmpty)
  }

  test("ingest check catches a dropped list entry") {
    val held = Checks.engineState(engine)
    val t = held.lists.indexWhere(_.size > 3)
    val dropped = held.copy(lists = held.lists.updated(t, held.lists(t).patch(2, Nil, 1)))
    assert(Checks.compareLists(reference, dropped).nonEmpty)
  }

  test("ingest check catches a wrong score and a wrong active set") {
    val held = Checks.engineState(engine)
    val t = held.lists.indexWhere(_.nonEmpty)
    val (d, id) = held.lists(t).head
    val wrongScore = held.copy(lists = held.lists.updated(t, (d + 1e-6, id) +: held.lists(t).tail))
    assert(Checks.compareLists(reference, wrongScore).nonEmpty)
    assert(Checks.compareLists(reference, held.copy(active = held.active - id)).nonEmpty)
  }

  test("query check passes a correct result and catches a wrong score, a large or inactive set") {
    val r = MTTS.query(engine, q, 5, 0.1)
    assert(r.elements.nonEmpty)
    assert(Checks.query(engine, q, 5, r.elements, Some(r.score)).isEmpty)
    assert(Checks.query(engine, q, 5, r.elements, Some(r.score + 1e-6)).nonEmpty)
    assert(Checks.query(engine, q, r.elements.size - 1, r.elements, None).nonEmpty)
    assert(Checks.query(engine, q, 5, r.elements :+ -1L, None).nonEmpty)
  }

  test("Spark check passes the engine's own lists and catches a wrong row") {
    val rows = (0 until gen.model.z).flatMap { t =>
      engine.rankedList(t).take(5).zipWithIndex.map { case ((d, id), i) => (t, i + 1, id, d) }
    }
    assert(Checks.sparkRows(engine, rows, 5).isEmpty)
    val (t, rank, id, d) = rows.head
    assert(Checks.sparkRows(engine, rows.updated(0, (t, rank, id, d + 1e-6)), 5).nonEmpty)
    assert(Checks.sparkRows(engine, rows.updated(0, (t, rank, id + 100000L, d)), 5).nonEmpty)
    assert(Checks.sparkRows(engine, rows.tail, 5).nonEmpty)
  }
}
