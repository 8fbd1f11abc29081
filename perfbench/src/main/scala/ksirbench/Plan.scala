package ksirbench

import repro.data.StreamConfig

/** One workload's inputs and schedule, derived from the workload name, the
  * seed and the run length. The run length sets the amount of work, not a
  * wall-clock deadline, so two builds measured with the same arguments do
  * exactly the same work.
  *
  * Every workload drives one engine with one thread in a closed loop:
  * advance a bucket, then run the queries scheduled after it. Table 4
  * defaults throughout: k = 10, ε = 0.1, T = 24 h, L = 15 min, λ = 0.5.
  *
  * @param fillBuckets   buckets advanced during set-up (the window fills)
  * @param queriesAfter  queries run after the bucket of this index
  * @param finalQueries  queries run on the last window, after all buckets
  * @param celfEvery     every n-th query also runs CELF (and quality)
  * @param keywordEvery  every n-th query also runs TF-IDF and DIV
  * @param checkEvery    the ingest check runs every n timed buckets and at the last
  * @param sparkBatches  timed Spark micro-batches, one bucket each, run
  *                      last from the stream's start after one warm-up
  *                      batch (0: no Spark)
  * @param qualityFloors enforce mtts_quality ≥ 0.93 and mttd_quality ≥ 0.97
  */
final case class Plan(
    workload: String,
    config: StreamConfig,
    fillBuckets: Int,
    queriesAfter: Int => Int,
    finalQueries: Int,
    celfEvery: Int,
    keywordEvery: Int,
    checkEvery: Int,
    warmupQueries: Int,
    sparkBatches: Int,
    qualityFloors: Boolean,
) {
  def spanSeconds: Long = config.spanSeconds
}

object Plan {

  val K = 10
  val Epsilon = 0.1
  val Lambda = 0.5
  val WindowT: Long = 24 * 3600L
  val BucketL: Long = 15 * 60L
  val Day: Long = 24 * 3600L
  val BucketsPerDay: Int = (Day / BucketL).toInt
  /** Reference lookback of BenchData's reddit/twitter streams (span / 4). */
  val Lookback18h: Long = 18 * 3600L
  /** Spark's rows of each topic's list emitted per micro-batch. */
  val SparkTopN = 10

  val Workloads: Seq[String] = Seq("query-aminer", "ingest-twitter", "mixed-reddit")

  /** Seeds of the stream and query generators, derived from `--seed`. */
  def streamSeed(workload: String, seed: Long): Long = seed * 1000003L + workload.hashCode.toLong
  def querySeed(seed: Long): Long = seed * 7919L + 97L

  /** The plan for `seconds` of measured work at 10 s ≈ the reference size. */
  def apply(workload: String, seed: Long, seconds: Int): Option[Plan] = {
    val s = seconds / 10.0
    def scaled(n: Double): Int = math.max(1, math.round(n * s).toInt)
    // 5× BenchData's element rate, over enough days for > 1000 timed buckets.
    val longDays = 1 + math.max(1, math.ceil(11 * s).toInt)
    val ss = streamSeed(workload, seed)
    workload match {
      case "query-aminer" =>
        // BenchData.aminer: 12k elements over 3 days, n_t ≈ 9.5k. Bursts of
        // queries at 20 evenly spaced buckets after the window fills.
        val cfg = StreamConfig.aminer(12000, 3 * Day, ss)
        val timed = 2 * BucketsPerDay
        val burstAt = (0 until 20).map(i => BucketsPerDay + (i + 1) * timed / 20 - 1).toSet
        val burst = scaled(55)
        Some(Plan(workload, cfg, BucketsPerDay, b => if (burstAt(b)) burst else 0, 0,
          celfEvery = 1, keywordEvery = 10, checkEvery = 64, warmupQueries = 60,
          sparkBatches = 0, qualityFloors = true))
      case "ingest-twitter" =>
        // A Spark micro-batch costs seconds (per-partition state-store work
        // at Spark's default 200 shuffle partitions), so few are affordable.
        val cfg = StreamConfig.twitter(20000 * longDays, longDays * Day, ss).copy(refLookback = Lookback18h)
        Some(Plan(workload, cfg, BucketsPerDay, _ => 0, scaled(1000),
          celfEvery = 5, keywordEvery = 12, checkEvery = 128, warmupQueries = 60,
          sparkBatches = math.max(2, math.round(2 * s).toInt), qualityFloors = false))
      case "mixed-reddit" =>
        val cfg = StreamConfig.reddit(20000 * longDays, longDays * Day, ss).copy(refLookback = Lookback18h)
        Some(Plan(workload, cfg, BucketsPerDay, _ => 1, 0,
          celfEvery = 5, keywordEvery = 12, checkEvery = 128, warmupQueries = 60,
          sparkBatches = 0, qualityFloors = false))
      case _ => None
    }
  }
}
