package ksirbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.StreamingQuery
import repro.core.Bucket
import repro.spark.{StreamingRankedLists, TopicEvent}

/** Counts finished tasks, and those that read and wrote no record. */
final class TaskCounter extends SparkListener {
  @volatile var tasks = 0L
  @volatile var empty = 0L
  override def onTaskEnd(end: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    val m = end.taskMetrics
    if (m != null && m.shuffleReadMetrics.recordsRead == 0 && m.inputMetrics.recordsRead == 0 &&
        m.shuffleWriteMetrics.recordsWritten == 0 && m.outputMetrics.recordsWritten == 0) empty += 1
  }
}

object SparkStage {

  /** The session as `jobs/StreamingJob` builds it: local mode on every core
    * and no Spark tuning. Only where Spark keeps files and the (unused) web
    * UI are set, so that the run stays inside its directory.
    */
  def session(dir: java.io.File): SparkSession =
    SparkSession.builder().appName("ksir-perfbench")
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .config("spark.ui.enabled", "false")
      .config("spark.local.dir", new java.io.File(dir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new java.io.File(dir, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
}

/** One running `StreamingRankedLists.pipeline`, fed one bucket per
  * micro-batch through a memory stream, with its output in a memory sink.
  */
final class SparkStage(spark: SparkSession, in: Inputs, dir: java.io.File) {
  import spark.implicits._

  private val events: Map[Long, Seq[TopicEvent]] =
    StreamingRankedLists.events(in.model, in.buckets, Plan.SparkTopN).groupBy(_.bucketEnd)
  private val input = MemoryStream[TopicEvent](spark)
  private val name = s"ranked_lists_${System.nanoTime()}"
  private val ckpt = new java.io.File(dir, s"ckpt-$name")
  val counter = new TaskCounter
  spark.sparkContext.addSparkListener(counter)

  private val query: StreamingQuery =
    StreamingRankedLists.pipeline(spark, input.toDS(), Plan.WindowT, Plan.Lambda, in.eta, Plan.SparkTopN)
      .writeStream.format("memory").queryName(name).outputMode("update")
      .option("checkpointLocation", ckpt.getAbsolutePath)
      .start()

  def eventCount(b: Bucket): Int = events.getOrElse(b.endTs, Seq.empty).size

  def add(b: Bucket): Unit = input.addData(events.getOrElse(b.endTs, Seq.empty))

  /** The micro-batch itself: everything added so far is processed. */
  def process(): Unit = query.processAllAvailable()

  /** Emitted (topic, rank, id, δ) rows for one bucket. */
  def rows(b: Bucket): Seq[(Int, Int, Long, Double)] =
    spark.table(name).where($"bucketEnd" === b.endTs).collect().toSeq
      .map(r => (r.getInt(0), r.getInt(2), r.getLong(3), r.getDouble(4)))

  /** Progress of the batches that had input, oldest first. */
  def progress: Seq[org.apache.spark.sql.streaming.StreamingQueryProgress] =
    query.recentProgress.toSeq.filter(_.numInputRows > 0)

  /** Stops the query; its progress stays readable. */
  def stop(): Unit = {
    query.stop()
    Thread.sleep(200) // task-end events reach listeners asynchronously
    spark.sparkContext.removeSparkListener(counter)
    Files.deleteTree(ckpt)
  }
}

object Files {
  def deleteTree(f: java.io.File): Unit = {
    if (f.isDirectory) Option(f.listFiles).foreach(_.foreach(deleteTree))
    f.delete()
  }
}
