package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.PaperExample
import repro.baselines.{Celf, SieveStreaming}

/** Golden tests against every number the paper derives from Table 1
  * (Examples 1–5 and the Figure 5/6 walk-throughs). The paper rounds to two
  * decimals, so assertions use the exact value we re-derived with a 0.015
  * tolerance against the paper's rounded figure where both are given.
  */
class PaperExampleSpec extends AnyFunSuite {

  private val eng = PaperExample.engineAt(8)
  private def ae(id: Long): ActiveElement = eng.activeElement(id).get

  test("topic model columns sum to 1 over the vocabulary") {
    (0 until 2).foreach { i =>
      val s = (0 until PaperExample.VocabSize).map(PaperExample.model.pWord(i, _)).sum
      assert(math.abs(s - 1.0) < 1e-9, s"topic $i sums to $s")
    }
  }

  test("active elements at t=8 are all but e4 (Example 3)") {
    assert(eng.activeCount == 7)
    assert(eng.activeElement(4).isEmpty)
    (Seq(1L, 2L, 3L, 5L, 6L, 7L, 8L)).foreach(id => assert(eng.activeElement(id).isDefined, s"e$id"))
  }

  test("Example 1: σ_2 weights of w9, w4, w11 match the paper") {
    val sig2 = ae(2).sigmaFor(1).toMap
    assert(math.abs(sig2(9) - 0.15) < 0.01)   // σ_2(w9,e2) = 0.15
    assert(math.abs(sig2(4) - 0.18) < 0.01)   // σ_2(w4,e2) = 0.18
    assert(math.abs(sig2(11) - 0.20) < 0.01)  // σ_2(w11,e2) = 0.20
    val sig7 = ae(7).sigmaFor(1).toMap
    assert(math.abs(sig7(4) - 0.17) < 0.01)   // σ_2(w4,e7) = 0.17
    assert(math.abs(sig7(11) - 0.19) < 0.01)  // σ_2(w11,e7) = 0.19
    assert(sig2(4) > sig7(4) && sig2(11) > sig7(11))
  }

  test("Example 1: R_2({e2,e7}) = 0.53 (paper-rounded)") {
    // R over a set via a pure-semantic engine evaluation (λ=1 equivalent):
    val r = semanticSetScore(Seq(2L, 7L), topic = 1)
    assert(math.abs(r - 0.53) < 0.015, s"got $r")
  }

  test("Example 1: e7 contributes nothing beyond e2 on θ2") {
    val r2 = semanticSetScore(Seq(2L), topic = 1)
    val r27 = semanticSetScore(Seq(2L, 7L), topic = 1)
    assert(math.abs(r2 - r27) < 1e-12)
  }

  test("Example 2: singleton propagation probabilities match") {
    // p_2(e3⇝e6) = 0.11·0.3 = 0.033 ≈ 0.03 ; p_2(e2⇝e7) = 0.74·0.67 ≈ 0.50
    assert(math.abs(0.11 * 0.3 - 0.03) < 0.005)
    assert(math.abs(0.74 * 0.67 - 0.50) < 0.005)
  }

  test("Example 2: I_{2,8}({e2,e3}) = 0.93 (paper-rounded)") {
    val i = influenceSetScore(Seq(2L, 3L), topic = 1)
    assert(math.abs(i - 0.93) < 0.015, s"got $i")
  }

  test("Example 2: e4's reference to e3 has expired from the window at t=8") {
    assert(!ae(3).children.exists(_.id == 4L))
    assert(ae(3).children.map(_.id).toSet == Set(6L, 8L))
  }

  test("windowed children at t=8: e1←{e5}, e2←{e7,e8}") {
    assert(ae(1).children.map(_.id).toSet == Set(5L))
    assert(ae(2).children.map(_.id).toSet == Set(7L, 8L))
  }

  test("Example 3: OPT for q_8(2, (0.5,0.5)) is {e1,e3} with f = 0.65") {
    val q = QueryVector(0 -> 0.5, 1 -> 0.5)
    val (best, opt) = bruteForce(q, 2)
    assert(best == Set(1L, 3L), s"got $best")
    assert(math.abs(opt - 0.65) < 0.015, s"got $opt")
  }

  test("Example 3: OPT for q_8(2, (0.1,0.9)) is {e1,e2} with f = 0.94") {
    val q = QueryVector(0 -> 0.1, 1 -> 0.9)
    val (best, opt) = bruteForce(q, 2)
    assert(best == Set(1L, 2L), s"got $best")
    assert(math.abs(opt - 0.94) < 0.015, s"got $opt")
  }

  test("Figure 5 walk-through: x·δ scores of the first heads match") {
    val q = QueryVector(0 -> 0.5, 1 -> 0.5)
    assert(math.abs(0.5 * ae(3).delta(0) - 0.33) < 0.015) // x1·δ1(e3)
    assert(math.abs(0.5 * ae(1).delta(1) - 0.28) < 0.015) // x2·δ2(e1)
    assert(math.abs(eng.deltaScore(ae(3), q) - 0.34) < 0.015) // δ(e3,x)
    assert(math.abs(eng.deltaScore(ae(1), q) - 0.31) < 0.015) // δ(e1,x)
  }

  test("Example 4: MTTS returns {e1,e3} at ε=0.3") {
    val q = QueryVector(0 -> 0.5, 1 -> 0.5)
    val res = MTTS.query(eng, q, k = 2, epsilon = 0.3)
    assert(res.elements.toSet == Set(1L, 3L), s"got ${res.elements}")
    assert(math.abs(res.score - 0.65) < 0.015)
  }

  test("Example 4: MTTS terminates early — not all 7 elements evaluated") {
    val q = QueryVector(0 -> 0.5, 1 -> 0.5)
    val res = MTTS.query(eng, q, k = 2, epsilon = 0.3)
    assert(res.evaluated < eng.activeCount, s"evaluated ${res.evaluated} of ${eng.activeCount}")
  }

  test("Example 5: MTTD returns {e1,e3} at ε=0.3") {
    val q = QueryVector(0 -> 0.5, 1 -> 0.5)
    val res = MTTD.query(eng, q, k = 2, epsilon = 0.3)
    assert(res.elements.toSet == Set(1L, 3L), s"got ${res.elements}")
    assert(math.abs(res.score - 0.65) < 0.015)
  }

  test("CELF matches the optimum on both Example 3 queries") {
    val q1 = QueryVector(0 -> 0.5, 1 -> 0.5)
    val q2 = QueryVector(0 -> 0.1, 1 -> 0.9)
    assert(Celf.query(eng, q1, 2).elements.toSet == Set(1L, 3L))
    assert(Celf.query(eng, q2, 2).elements.toSet == Set(1L, 2L))
  }

  test("SieveStreaming achieves at least (1/2-ε)·OPT on Example 3") {
    val q = QueryVector(0 -> 0.5, 1 -> 0.5)
    val res = SieveStreaming.query(eng, q, 2, epsilon = 0.1)
    val (_, opt) = bruteForce(q, 2)
    assert(res.score >= (0.5 - 0.1) * opt - 1e-9)
  }

  test("MTTS result for x2=(0.1,0.9) is near-optimal") {
    val q = QueryVector(0 -> 0.1, 1 -> 0.9)
    val res = MTTS.query(eng, q, 2, epsilon = 0.1)
    val (_, opt) = bruteForce(q, 2)
    assert(res.score >= (0.5 - 0.1) * opt - 1e-9)
  }

  test("MTTD result for x2=(0.1,0.9) is near-optimal") {
    val q = QueryVector(0 -> 0.1, 1 -> 0.9)
    val res = MTTD.query(eng, q, 2, epsilon = 0.1)
    val (_, opt) = bruteForce(q, 2)
    assert(res.score >= (1 - 1 / math.E - 0.1) * opt - 1e-9)
  }

  // --- helpers ---------------------------------------------------------

  /** R_i(S) via a λ=1 engine (same stream, semantic-only scoring). */
  private def semanticSetScore(ids: Seq[Long], topic: Int): Double = {
    val e = new KSirEngine(PaperExample.model, 4, lambda = 1.0, eta = 2.0)
    Bucket.bucketize(PaperExample.elements, 1, 8).foreach(e.advance)
    e.evaluate(ids, QueryVector(topic -> 1.0))
  }

  /** I_{i,t}(S) via a λ=0, η=1 engine. */
  private def influenceSetScore(ids: Seq[Long], topic: Int): Double = {
    val e = new KSirEngine(PaperExample.model, 4, lambda = 0.0, eta = 1.0)
    Bucket.bucketize(PaperExample.elements, 1, 8).foreach(e.advance)
    e.evaluate(ids, QueryVector(topic -> 1.0))
  }

  private def bruteForce(q: QueryVector, k: Int): (Set[Long], Double) = {
    val ids = eng.activeElements.map(_.elem.id).toSeq
    val best = ids.combinations(k).map(c => (c.toSet, eng.evaluate(c, q))).maxBy(_._2)
    best
  }
}
