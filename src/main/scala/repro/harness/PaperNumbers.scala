package repro.harness

/** The paper's published numbers (Tables 1–4), keyed by the analogue
  * profile name, for side-by-side reporting in benches and jobs.
  * Triples are (precision, recall, f1) in percent; None = not reported.
  */
object PaperNumbers {

  // ---- Table 1 (dataset statistics of the REAL benchmarks) ----
  final case class T1(e1: Long, e2: Long, t1: Long, t2: Long,
                      avgTok1: Double, avgTok2: Double,
                      attrs: String, rels: String, types: String, vocab: String,
                      matches: Long)
  val table1: Map[String, T1] = Map(
    "restaurant-lite" -> T1(339, 2256, 1130, 7519, 20.44, 20.61, "7/7", "2/2", "3/3", "2/2", 89),
    "rexa-dblp-lite" -> T1(18492, 2650832, 87519, 14936373, 40.71, 59.24, "114/145", "103/123", "4/11", "4/4", 1309),
    "bbcmusic-dbpedia-lite" -> T1(58793, 256602, 456304, 8044247, 81.19, 324.75, "27/10953", "9/953", "4/59801", "4/6", 22770),
    "yago-imdb-lite" -> T1(5208100, 5328774, 27547595, 47843680, 15.56, 12.49, "65/29", "4/13", "11767/15", "3/1", 56683),
  )

  // ---- Table 2 (block statistics) ----
  final case class T2(bN: Double, bT: Double, compN: Double, compT: Double,
                      cartesian: Double, precision: Double, recall: Double, f1: Double)
  val table2: Map[String, T2] = Map(
    "restaurant-lite" -> T2(83, 625, 83, 1.80e3, 7.65e5, 4.95, 100.00, 9.43),
    "rexa-dblp-lite" -> T2(15912, 22297, 6.71e7, 6.54e8, 4.90e10, 1.81e-4, 99.77, 3.62e-4),
    "bbcmusic-dbpedia-lite" -> T2(28844, 54380, 1.25e7, 1.73e8, 1.51e10, 0.01, 99.83, 0.02),
    "yago-imdb-lite" -> T2(580518, 495973, 6.59e6, 2.28e10, 2.78e13, 2.46e-4, 99.35, 4.92e-4),
  )

  // ---- Table 3 (system comparison, P/R/F1 percent) ----
  type PRF = (Double, Double, Double)
  val table3: Map[String, Map[String, PRF]] = Map(
    "SiGMa" -> Map(
      "restaurant-lite" -> ((99.0, 94.0, 97.0)),
      "rexa-dblp-lite" -> ((97.0, 90.0, 94.0)),
      "yago-imdb-lite" -> ((98.0, 85.0, 91.0))),
    "LINDA" -> Map(
      "restaurant-lite" -> ((100.0, 63.0, 77.0))),
    "RiMOM" -> Map(
      "restaurant-lite" -> ((86.0, 77.0, 81.0)),
      "rexa-dblp-lite" -> ((80.0, 72.0, 76.0))),
    "PARIS" -> Map(
      "restaurant-lite" -> ((95.0, 88.0, 91.0)),
      "rexa-dblp-lite" -> ((93.95, 89.0, 91.41)),
      "bbcmusic-dbpedia-lite" -> ((19.40, 0.29, 0.51)),
      "yago-imdb-lite" -> ((94.0, 90.0, 92.0))),
    "BSL" -> Map(
      "restaurant-lite" -> ((100.0, 100.0, 100.0)),
      "rexa-dblp-lite" -> ((96.57, 83.96, 89.82)),
      "bbcmusic-dbpedia-lite" -> ((85.20, 36.09, 50.70)),
      "yago-imdb-lite" -> ((11.68, 4.87, 6.88))),
    "MinoanER" -> Map(
      "restaurant-lite" -> ((100.0, 100.0, 100.0)),
      "rexa-dblp-lite" -> ((96.74, 95.34, 96.04)),
      "bbcmusic-dbpedia-lite" -> ((91.44, 88.55, 89.97)),
      "yago-imdb-lite" -> ((91.02, 90.57, 90.79))),
  )

  // ---- Table 4 (matching-rule ablation, P/R/F1 percent) ----
  val table4: Map[String, Map[String, PRF]] = Map(
    "R1" -> Map(
      "restaurant-lite" -> ((100.0, 68.54, 81.33)),
      "rexa-dblp-lite" -> ((97.36, 87.47, 92.15)),
      "bbcmusic-dbpedia-lite" -> ((99.85, 66.11, 79.55)),
      "yago-imdb-lite" -> ((97.55, 66.53, 79.11))),
    "R2" -> Map(
      "restaurant-lite" -> ((100.0, 100.0, 100.0)),
      "rexa-dblp-lite" -> ((96.15, 30.56, 46.38)),
      "bbcmusic-dbpedia-lite" -> ((90.73, 37.01, 52.66)),
      "yago-imdb-lite" -> ((98.02, 69.14, 81.08))),
    "R3" -> Map(
      "restaurant-lite" -> ((98.88, 98.88, 98.88)),
      "rexa-dblp-lite" -> ((94.73, 94.73, 94.73)),
      "bbcmusic-dbpedia-lite" -> ((81.49, 81.49, 81.49)),
      "yago-imdb-lite" -> ((90.51, 90.50, 90.50))),
    "NoR4" -> Map(
      "restaurant-lite" -> ((100.0, 100.0, 100.0)),
      "rexa-dblp-lite" -> ((96.03, 96.03, 96.03)),
      "bbcmusic-dbpedia-lite" -> ((89.93, 89.93, 89.93)),
      "yago-imdb-lite" -> ((90.58, 90.57, 90.58))),
    "NoNeighbors" -> Map(
      "restaurant-lite" -> ((100.0, 100.0, 100.0)),
      "rexa-dblp-lite" -> ((96.59, 95.26, 95.92)),
      "bbcmusic-dbpedia-lite" -> ((89.22, 85.36, 87.25)),
      "yago-imdb-lite" -> ((88.05, 87.42, 87.73))),
  )
}
