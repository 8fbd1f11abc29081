package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.{BenchData, Tables}

/** spark-submit entrypoint reproducing Table 3 (dataset statistics).
  *
  * Usage: spark-submit --class repro.jobs.Table3Job repro.jar
  */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("ksir-table3")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]")).getOrCreate()
    try {
      val rows = Tables.table3(spark).map { s =>
        Seq(s.name, s.elements.toString, s.vocab.toString, f"${s.avgLen}%.1f", f"${s.avgRefs}%.2f")
      }
      BenchData.printTable(
        "Table 3: dataset statistics (synthetic streams)",
        Seq("dataset", "elements", "vocab", "avg-len", "avg-refs"),
        rows,
      )
    } finally spark.stop()
  }
}
