package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.data.{DatasetProfile, KBProfile}
import repro.harness.{PaperNumbers, Tables}

/** spark-submit entrypoint reproducing one of the paper's Tables 1–4 over
  * the synthetic dataset analogues:
  *
  *   Reproduce <1|2|3|4> [profile…]    (default: all four profiles)
  */
object Reproduce {

  val Usage: String = "usage: Reproduce <1|2|3|4> [profile...]; profiles: " +
    DatasetProfile.all.map(_.name).mkString(", ")

  /** The table number and the profiles to render it for, or a usage error. */
  def parse(args: Seq[String]): Either[String, (Int, Seq[KBProfile])] = args match {
    case Seq(t @ ("1" | "2" | "3" | "4"), names @ _*) =>
      names.filterNot(n => DatasetProfile.all.exists(_.name == n)) match {
        case Seq() => Right(t.toInt ->
          (if (names.isEmpty) DatasetProfile.all else names.map(DatasetProfile.byName)))
        case unknown => Left(s"unknown profile: ${unknown.mkString(", ")}\n$Usage")
      }
    case _ => Left(Usage)
  }

  def main(args: Array[String]): Unit = {
    val (table, profiles) = parse(args.toSeq) match {
      case Right(parsed) => parsed
      case Left(usage) => System.err.println(usage); sys.exit(2)
    }
    val spark = JobSession.build(s"minoaner-table$table")
    try {
      for (p <- profiles) {
        val b = Tables.bundle(spark, p)
        println(table match {
          case 1 => Tables.renderTable1(b, Tables.table1(b))
          case 2 => Tables.renderTable2(b, Tables.table2(b))
          case 3 => Tables.renderScoresTable("Table 3", b, PaperNumbers.table3, Tables.table3(spark, b))
          case 4 => Tables.renderScoresTable("Table 4", b, PaperNumbers.table4, Tables.table4(spark, b))
        })
        Tables.releaseBundle(b)
      }
    } finally spark.stop()
  }
}

/** SparkSession builder shared by [[Reproduce]] and the benchmark. */
object JobSession {
  def build(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}
