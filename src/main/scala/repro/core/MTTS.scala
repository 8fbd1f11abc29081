package repro.core

/** MULTI-TOPIC THRESHOLDSTREAM (Algorithm 2): threshold-bucket candidates fed
  * from the ranked lists in decreasing order of x-weighted topic score, with
  * early termination once the upper bound UB(x) on unretrieved elements falls
  * below the minimum admission threshold TH of any unfilled candidate.
  *
  * Returns a (1/2 − ε)-approximation (Theorem 2) and evaluates each active
  * element at most once.
  */
object MTTS {

  def query(engine: KSirEngine, q: QueryVector, k: Int, epsilon: Double): KSirResult = {
    require(k >= 1, "k must be at least 1")
    require(epsilon > 0 && epsilon < 1, "ε must lie in (0,1)")

    val cursor = new RankedListCursor(engine, q)
    val ladder = new PhiLadder(engine, q, k, epsilon)
    var evaluated = 0

    // TH: min φ/2k over unfilled candidates, i.e. the lowest open rung's;
    // +∞ when every candidate is full (no element can be admitted anywhere).
    def threshold: Double =
      if (ladder.rungs.isEmpty) 0.0
      else ladder.rungs.find(_.state.size < k).fold(Double.PositiveInfinity)(_.phi / (2.0 * k))

    var ub = cursor.upperBound
    var th = 0.0
    while (ub >= th && !cursor.exhausted && ub > 0.0) {
      val ae = cursor.popMax()
      if (ae != null) {
        evaluated += 1
        val deltaE = engine.deltaScore(ae, q)
        ladder.raise(deltaE)
        ladder.rungs.foreach { r =>
          val tau = r.phi / (2.0 * k)
          if (deltaE >= tau && r.state.size < k && r.state.gain(ae) >= tau) r.state.add(ae)
        }
      }
      th = threshold
      ub = cursor.upperBound
    }

    ladder.best match {
      case Some(c) => KSirResult(c.members, c.score, evaluated, cursor.retrievedCount)
      case None    => KSirResult(Seq.empty, 0.0, evaluated, cursor.retrievedCount)
    }
  }
}
