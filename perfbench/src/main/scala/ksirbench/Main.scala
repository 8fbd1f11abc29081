package ksirbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** Command-line options; see README.md. */
final case class Opts(
    workload: String = "",
    seed: Long = 1L,
    seconds: Int = 10,
    trace: Boolean = false,
    out: File = new File(".bench_build"),
    gitSha: String = "unknown",
    sourceHash: String = "unknown",
)

object Opts {
  def parse(args: List[String], o: Opts = Opts()): Either[String, Opts] = args match {
    case Nil => if (o.workload.isEmpty) Left("--workload is required") else Right(o)
    case "--workload" :: v :: rest => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest => v.toLongOption.toRight(s"bad --seed $v").flatMap(s => parse(rest, o.copy(seed = s)))
    case "--seconds" :: v :: rest =>
      v.toIntOption.filter(_ > 0).toRight(s"bad --seconds $v").flatMap(s => parse(rest, o.copy(seconds = s)))
    case "--trace" :: v :: rest if v == "0" || v == "1" => parse(rest, o.copy(trace = v == "1"))
    case "--out" :: v :: rest => parse(rest, o.copy(out = new File(v)))
    case "--git-sha" :: v :: rest => parse(rest, o.copy(gitSha = v))
    case "--source-hash" :: v :: rest => parse(rest, o.copy(sourceHash = v))
    case other :: _ => Left(s"unknown or incomplete option $other")
  }
}

/** A metric as printed: value and unit. */
final case class Metric(value: Double, unit: String)

final case class Outcome(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[(String, Metric)],
    record: Seq[(String, String)])

object Main {

  def main(args: Array[String]): Unit = {
    val opts = Opts.parse(args.toList) match {
      case Right(o) => o
      case Left(msg) =>
        System.err.println(s"$msg\nusage: --workload <${Plan.Workloads.mkString("|")}> --seed <n> --seconds <s> --trace <0|1>")
        sys.exit(2)
    }
    val plan = Plan(opts.workload, opts.seed, opts.seconds).getOrElse {
      System.err.println(s"unknown workload ${opts.workload}; one of ${Plan.Workloads.mkString(", ")}")
      sys.exit(2)
    }
    val out = Runner.run(plan, opts)
    val json = Json.obj(Seq(
      "correct" -> out.correct.toString,
      "attempted" -> out.attempted.toString,
      "failed" -> out.failed.toString,
      "metrics" -> Json.obj(out.metrics.map { case (n, m) =>
        n -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit)))
      }),
    ))
    println(json)
    System.out.flush()
    sys.exit(if (out.correct) 0 else 1)
  }
}

object Runner {

  val SetupReps = 3

  def run(plan: Plan, opts: Opts): Outcome = {
    val work = new File(opts.out, "run")
    work.mkdirs()
    // Set up several times and keep the median; the last set-ups are the
    // ones measured (two when traced: one plain run, one traced run).
    val setupSecs = scala.collection.mutable.ArrayBuffer.empty[Double]
    var prepared = List.empty[(Inputs, repro.core.KSirEngine)]
    (0 until SetupReps).foreach { _ =>
      val t0 = System.nanoTime()
      val in = Setup.inputs(plan, opts.seed)
      val eng = Setup.engine(in)
      setupSecs += (System.nanoTime() - t0) / 1e9
      prepared = ((in, eng) :: prepared).take(if (opts.trace) 2 else 1)
    }
    // Compact the heap before measuring, so every run starts the timed phase
    // from the same heap layout whatever the set-up left behind.
    System.gc()
    var sparkSession: Option[org.apache.spark.sql.SparkSession] = None
    def stage(in: Inputs): Option[() => SparkStage] =
      if (plan.sparkBatches == 0) None
      else Some { () =>
        if (sparkSession.isEmpty) sparkSession = Some(SparkStage.session(work))
        new SparkStage(sparkSession.get, in, work)
      }

    try {
      if (!opts.trace) {
        val (in, engine) = prepared.head
        prepared = Nil
        val phase = new Phase(in, engine, stage(in), new Recorder(traced = false)).run()
        val heapMb = heapAfterGc()
        val setupS = Stats.median(setupSecs.toSeq) + phase.sparkSetupNs / 1e9
        val outcome = Report.endToEnd(plan, phase, setupS, heapMb)
        // Keep the engine reachable until the heap has been measured.
        val record = Report.record(plan, opts, in, engine, phase, setupSecs.toSeq, outcome)
        writeRecord(opts, record)
        outcome.copy(record = record)
      } else {
        val (inT, engineT) = prepared.head
        val (inU, engineU) = prepared.last
        prepared = Nil
        val plain = new Phase(inU, engineU, stage(inU), new Recorder(traced = false)).run()
        val rec = new Recorder(traced = true)
        val gc0 = gcTotals()
        val traced = new Phase(inT, engineT, stage(inT), rec).run()
        val gc1 = gcTotals()
        val outcome = Report.perLayer(plan, traced, plain, gc1._1 - gc0._1, gc1._2 - gc0._2)
        val record = Report.record(plan, opts, inT, engineT, traced, setupSecs.toSeq, outcome)
        writeRecord(opts, record)
        writeSpans(opts, rec)
        outcome.copy(record = record)
      }
    } finally {
      sparkSession.foreach(_.stop())
      Files.deleteTree(work)
    }
  }

  def heapAfterGc(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  def gcTotals(): (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionTime).filter(_ >= 0).sum, beans.map(_.getCollectionCount).filter(_ >= 0).sum)
  }

  private def writeRecord(opts: Opts, record: Seq[(String, String)]): Unit = {
    val dir = new File(opts.out, "records")
    dir.mkdirs()
    val f = new File(dir, s"${opts.workload}-seed${opts.seed}-trace${if (opts.trace) 1 else 0}.json")
    val w = new PrintWriter(f, "UTF-8")
    try w.println(Json.obj(record)) finally w.close()
    System.err.println(s"run record: ${f.getPath}")
  }

  private def writeSpans(opts: Opts, rec: Recorder): Unit = {
    val dir = new File(opts.out, "traces")
    dir.mkdirs()
    val f = new File(dir, s"${opts.workload}-seed${opts.seed}.jsonl")
    val w = new PrintWriter(f, "UTF-8")
    try rec.toJsonLines.foreach(w.println) finally w.close()
    System.err.println(s"spans: ${f.getPath}")
  }
}
