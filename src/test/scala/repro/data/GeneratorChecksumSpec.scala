package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Element

/** Pins the exact output of the stream and workload generators. Every bench
  * table, quality figure and golden run starts from these draws, so a change
  * to how they sample (CDF construction, search, RNG call order) must show
  * up here rather than as a silent drift in the reported numbers.
  */
class GeneratorChecksumSpec extends AnyFunSuite {

  private final class Hash {
    var h = 1125899906842597L
    def long(v: Long): Unit = h = 31 * h + v
    def double(v: Double): Unit = long(java.lang.Double.doubleToLongBits(v))
  }

  private def streamChecksum(es: Seq[Element]): Long = {
    val hs = new Hash
    es.foreach { e =>
      hs.long(e.id); hs.long(e.ts); hs.long(e.author)
      e.words.foreach(w => hs.long(w.toLong))
      e.refs.foreach(hs.long)
      e.topics.foreach { case (t, p) => hs.long(t.toLong); hs.double(p) }
    }
    hs.h
  }

  private def workloadChecksum(qs: Seq[WorkloadQuery]): Long = {
    val hs = new Hash
    qs.foreach { q =>
      q.keywords.foreach(w => hs.long(w.toLong))
      q.vector.entries.foreach { case (t, x) => hs.long(t.toLong); hs.double(x) }
      hs.long(q.ts)
    }
    hs.h
  }

  private val configs = Seq(
    StreamConfig.aminer(300, span = 30000) -> -7150263129720638673L,
    StreamConfig.reddit(300, span = 30000) -> -4600485097252969129L,
    StreamConfig.twitter(300, span = 30000) -> 5610006625186565336L,
  )

  configs.foreach { case (cfg, want) =>
    test(s"${cfg.name} stream is bit-identical to the pinned draw") {
      assert(streamChecksum(SocialStreamGen.generate(cfg).elements) == want)
    }
  }

  test("query workload is bit-identical to the pinned draw") {
    val model = SocialStreamGen.topicModel(z = 20, vocabSize = 500, seed = 3L)
    val qs = QueryGen.workload(model, 60, minTs = 100, maxTs = 5000)
    assert(qs.nonEmpty)
    assert(workloadChecksum(qs) == 5744928190323683572L)
  }
}
