package ksirbench

import repro.core.KSirEngine
import scala.jdk.CollectionConverters._

/** Turns a measured phase into the printed metrics and the run record. */
object Report {

  val QualityFloorMtts = 0.93
  val QualityFloorMttd = 0.97

  private def ms(ns: Double): Double = ns / 1e6

  def endToEnd(plan: Plan, p: Phase, setupS: Double, heapMb: Double): Outcome = {
    val advanceS = p.advanceNs.sum / 1e9
    val listUpdate = if (plan.sparkBatches > 0) p.sparkNs else p.advanceNs
    val metrics = Seq(
      "setup_s" -> Metric(setupS, "s"),
      "heap_mb" -> Metric(heapMb, "MB"),
      "ingest_elems_per_s" -> Metric(if (advanceS > 0) p.arrivals / advanceS else 0.0, "elem/s"),
      "advance_ms_p50" -> Metric(ms(p.advanceNs.percentile(50)), "ms"),
      "list_update_ms_p50" -> Metric(ms(listUpdate.percentile(50)), "ms"),
      "mtts_ms_p50" -> Metric(ms(p.mttsNs.percentile(50)), "ms"),
      "mttd_ms_p50" -> Metric(ms(p.mttdNs.percentile(50)), "ms"),
      "celf_ms_p50" -> Metric(ms(p.celfNs.percentile(50)), "ms"),
      "tfidf_ms_p50" -> Metric(ms(p.tfidfNs.percentile(50)), "ms"),
      "div_ms_p50" -> Metric(ms(p.divNs.percentile(50)), "ms"),
      "mtts_quality" -> Metric(p.mttsQuality.mean, "ratio"),
      "mttd_quality" -> Metric(p.mttdQuality.mean, "ratio"),
    )
    Outcome(verdict(plan, p), p.attempted, p.failed, metrics, Nil)
  }

  /** Correct when no operation failed, every timed layer ran, and (where
    * the plan asks) MTTS and MTTD keep their quality floors against CELF.
    */
  def verdict(plan: Plan, p: Phase): Boolean = {
    val missing = Seq("advance" -> p.advanceNs, "MTTS" -> p.mttsNs, "MTTD" -> p.mttdNs, "CELF" -> p.celfNs,
      "TF-IDF" -> p.tfidfNs, "DIV" -> p.divNs, "quality" -> p.mttsQuality) ++
      (if (plan.sparkBatches > 0) Seq("Spark" -> p.sparkNs) else Nil)
    val problems = missing.collect { case (n, s) if s.size == 0 => s"no timed $n samples" } ++
      (if (plan.qualityFloors && p.mttsQuality.mean < QualityFloorMtts)
        Seq(f"mtts_quality ${p.mttsQuality.mean}%.4f below $QualityFloorMtts") else Nil) ++
      (if (plan.qualityFloors && p.mttdQuality.mean < QualityFloorMttd)
        Seq(f"mttd_quality ${p.mttdQuality.mean}%.4f below $QualityFloorMttd") else Nil)
    (problems ++ p.failures).foreach(m => System.err.println(s"CHECK FAILED: $m"))
    problems.isEmpty && p.failed == 0
  }

  def perLayer(plan: Plan, p: Phase, plain: Phase, gcMs: Long, gcCount: Long): Outcome = {
    val spark = p.spark
    val advTotal = p.advanceNs.sum
    // Share of advance time explained by the n_t term of a fit (no
    // intercept) of per-bucket time on (arrivals, n_t) over the timed
    // buckets and a window-filling ramp. Both fits use raw times.
    val timedNs = p.raw.get("core.KSirEngine.advance").map(_.values).getOrElse(IndexedSeq.empty)
    val nT = p.activeAfter.values
    val (_, bN) = Stats.fit2((p.rampArrivals.values ++ p.arrivalsPerBucket.values).toArray,
      (p.rampActive.values ++ nT).toArray, (p.rampNs.values ++ timedNs).toArray)
    val nTShare = if (timedNs.nonEmpty) bN * nT.sum / timedNs.sum else 0.0
    def perCall(ns: Long, calls: Long): Double = if (calls == 0) 0.0 else ns.toDouble / calls
    val progress = spark.map(_.progress).getOrElse(Nil)
    def durShare(key: String): Double = {
      val tot = progress.map(pr => Option(pr.durationMs.get("triggerExecution")).map(_.toLong).getOrElse(0L)).sum
      val part = progress.map(pr => Option(pr.durationMs.get(key)).map(_.toLong).getOrElse(0L)).sum
      if (tot > 0) part.toDouble / tot else 0.0
    }
    val stateOps = progress.flatMap(_.stateOperators.headOption)
    val batches = p.sparkNs.size.toDouble
    val (tasks, emptyTasks) = spark.map(s => (s.counter.tasks, s.counter.empty)).getOrElse((0L, 0L))
    val metrics = Seq(
      "ingest.arrivals" -> Metric(p.arrivals.toDouble, "count"),
      "ingest.refs" -> Metric(p.refs.toDouble, "count"),
      "ingest.resurrections" -> Metric(p.resurrections.toDouble, "count"),
      "ingest.expirations" -> Metric(p.expirations.toDouble, "count"),
      "ingest.active_mean" -> Metric(p.activeAfter.mean, "count"),
      "ingest.list_entries_mean" -> Metric(p.listEntries.mean, "count"),
      "ingest.advance_ms_total" -> Metric(ms(advTotal), "ms"),
      "ingest.ns_per_arrival" -> Metric(if (p.arrivals > 0) advTotal / p.arrivals else 0.0, "ns"),
      "ingest.n_t_share" -> Metric(nTShare, "ratio"),
      "element.sigma_build_ns" -> Metric(p.sigmaNs.mean, "ns"),
      "cursor.retrieved_per_query.mtts" -> Metric(p.retrieved("mtts").mean, "count"),
      "cursor.retrieved_per_query.mttd" -> Metric(p.retrieved("mttd").mean, "count"),
      "cursor.pop_ns" -> Metric(perCall(p.popNs, p.pops), "ns"),
      "scoring.gain_ns" -> Metric(perCall(p.gainNs, p.gains), "ns"),
      "scoring.add_ns" -> Metric(perCall(p.addNs, p.adds), "ns"),
      "scoring.evaluated_per_query.mtts" -> Metric(p.evaluated("mtts").mean, "count"),
      "scoring.evaluated_per_query.mttd" -> Metric(p.evaluated("mttd").mean, "count"),
      "scoring.evaluated_per_query.celf" -> Metric(p.evaluated("celf").mean, "count"),
      "mtts.evaluated_frac" -> Metric(p.mttsEvaluatedFrac.mean, "ratio"),
      "mtts.admit_ratio" -> Metric(p.admitRatio("mtts").mean, "ratio"),
      "mttd.admit_ratio" -> Metric(p.admitRatio("mttd").mean, "ratio"),
      "mtts.residual_ms" -> Metric(ms(p.residualNs("mtts").mean), "ms"),
      "mttd.residual_ms" -> Metric(ms(p.residualNs("mttd").mean), "ms"),
      "tfidf.index_build_ms" -> Metric(ms(p.indexBuildNs.percentile(50)), "ms"),
      "spark.batches" -> Metric(batches, "count"),
      "spark.events_per_batch" -> Metric(p.sparkEvents.mean, "count"),
      "spark.add_batch_share" -> Metric(durShare("addBatch"), "ratio"),
      "spark.wal_commit_share" -> Metric(durShare("walCommit"), "ratio"),
      "spark.state_rows" -> Metric(stateOps.lastOption.map(_.numRowsTotal.toDouble).getOrElse(0.0), "count"),
      "spark.state_memory_bytes" -> Metric(stateOps.lastOption.map(_.memoryUsedBytes.toDouble).getOrElse(0.0), "bytes"),
      "spark.tasks_per_batch" -> Metric(if (batches > 0) tasks / batches else 0.0, "count"),
      "spark.empty_task_share" -> Metric(if (tasks > 0) emptyTasks.toDouble / tasks else 0.0, "ratio"),
      // Tails from the plain phase: too unsteady on a shared machine to
      // carry an end-to-end bound, and free of tracing overhead here.
      "tail.advance_ms_p99" -> Metric(ms(plain.advanceNs.percentile(99)), "ms"),
      "tail.mtts_ms_p99" -> Metric(ms(plain.mttsNs.percentile(99)), "ms"),
      "tail.mttd_ms_p99" -> Metric(ms(plain.mttdNs.percentile(99)), "ms"),
      "jvm.gc_ms" -> Metric(gcMs.toDouble, "ms"),
      "jvm.gc_count" -> Metric(gcCount.toDouble, "count"),
      "trace.overhead" -> Metric(if (plain.wallNs > 0) p.wallNs.toDouble / plain.wallNs else 0.0, "ratio"),
    )
    val ok = verdict(plan, p) && verdict(plan, plain)
    Outcome(ok, p.attempted + plain.attempted, p.failed + plain.failed, metrics, Nil)
  }

  /** Metadata of the run, written next to the result. */
  def record(plan: Plan, opts: Opts, in: Inputs, engine: KSirEngine, p: Phase, setupSecs: Seq[Double],
      out: Outcome): Seq[(String, String)] = {
    val rt = java.lang.management.ManagementFactory.getRuntimeMXBean
    val counts = Seq("advance" -> p.advanceNs, "spark_batch" -> p.sparkNs, "mtts" -> p.mttsNs,
      "mttd" -> p.mttdNs, "celf" -> p.celfNs, "tfidf" -> p.tfidfNs, "div" -> p.divNs, "quality" -> p.mttsQuality)
    Seq(
      "workload" -> Json.str(plan.workload),
      "seed" -> opts.seed.toString,
      "seconds" -> opts.seconds.toString,
      "trace" -> opts.trace.toString,
      "git_sha" -> Json.str(opts.gitSha),
      "source_hash" -> Json.str(opts.sourceHash),
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "jvm" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}"),
      "jvm_flags" -> Json.arr(rt.getInputArguments.asScala.toSeq.map(Json.str)),
      "elements" -> in.gen.elements.size.toString,
      "span_s" -> plan.spanSeconds.toString,
      "buckets" -> in.buckets.size.toString,
      "setup_buckets" -> plan.fillBuckets.toString,
      "T_s" -> Plan.WindowT.toString,
      "L_s" -> Plan.BucketL.toString,
      "k" -> Plan.K.toString,
      "epsilon" -> Json.num(Plan.Epsilon),
      "lambda" -> Json.num(Plan.Lambda),
      "eta" -> Json.num(in.eta),
      "ref_lookback_s" -> plan.config.refLookback.toString,
      "n_t_end" -> engine.activeCount.toString,
      "setup_reps_s" -> Json.arr(setupSecs.map(Json.num)),
      "samples" -> Json.obj(counts.map { case (n, s) => n -> s.size.toString }),
      "phase_wall_s" -> Json.num(p.wallNs / 1e9),
      "machine_probe_ms_p50" -> Json.num(p.machineProbe.samples.percentile(50) / 1e6),
      "raw_ms_p50" -> Json.obj(p.raw.toSeq.map { case (n, s) => n -> Json.num(s.percentile(50) / 1e6) }),
      "failures" -> Json.arr(p.failures.toSeq.map(Json.str)),
      "correct" -> out.correct.toString,
      "attempted" -> out.attempted.toString,
      "failed" -> out.failed.toString,
      "metrics" -> Json.obj(out.metrics.map { case (n, m) =>
        n -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit)))
      }),
    )
  }
}
