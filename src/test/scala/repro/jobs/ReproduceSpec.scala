package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

import repro.data.DatasetProfile

/** The argument parse of [[Reproduce]]; pure, so no SparkSession is built. */
class ReproduceSpec extends AnyFunSuite {

  test("a table number alone renders it for all four profiles") {
    assert(Reproduce.parse(Seq("3")) === Right(3 -> DatasetProfile.all))
  }

  test("named profiles restrict the run, in the given order") {
    assert(Reproduce.parse(Seq("2", "yago-imdb-lite", "restaurant-lite")) ===
      Right(2 -> Seq("yago-imdb-lite", "restaurant-lite").map(DatasetProfile.byName)))
  }

  test("no arguments or an unknown table number is a usage error") {
    for (args <- Seq(Seq.empty, Seq("0"), Seq("5"), Seq("three"), Seq("restaurant-lite")))
      assert(Reproduce.parse(args) === Left(Reproduce.Usage), args)
  }

  test("an unknown profile name is a usage error that names it") {
    val out = Reproduce.parse(Seq("4", "restaurant-lite", "dbpedia", "imdb"))
    assert(out === Left(s"unknown profile: dbpedia, imdb\n${Reproduce.Usage}"))
  }
}
