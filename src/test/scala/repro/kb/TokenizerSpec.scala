package repro.kb

import repro.{SparkSpec, TestKBs}

class TokenizerSpec extends SparkSpec {

  test("tokenize lowercases") {
    assert(Tokenizer.tokenize("Fat Duck") === Seq("fat", "duck"))
  }

  test("tokenize splits on punctuation runs") {
    assert(Tokenizer.tokenize("a-b,,c..d") === Seq("a", "b", "c", "d"))
  }

  test("tokenize keeps digits") {
    assert(Tokenizer.tokenize("route 66") === Seq("route", "66"))
  }

  test("tokenize drops empty fragments") {
    assert(Tokenizer.tokenize("  --  x  ") === Seq("x"))
  }

  test("tokenize of empty string is empty") {
    assert(Tokenizer.tokenize("") === Seq.empty)
  }

  test("tokenize treats numbers and dates like strings") {
    assert(Tokenizer.tokenize("1992-01-01") === Seq("1992", "01", "01"))
  }

  test("normalizeName strips all non-alphanumerics and lowercases") {
    assert(Tokenizer.normalizeName("J. Lake") === "jlake")
    assert(Tokenizer.normalizeName("FAT-DUCK.") === "fatduck")
  }

  test("normalizeName is insensitive to token order only via content") {
    // order is NOT normalized — different orders give different names
    assert(Tokenizer.normalizeName("ab cd") !== Tokenizer.normalizeName("cd ab"))
  }

  test("decorated surface forms normalize to the same name") {
    assert(Tokenizer.normalizeName("nf1 nl2 nm3") === Tokenizer.normalizeName("NF1-NL2-NM3."))
  }

  test("entityTokens extracts distinct lowercase tokens from literals only") {
    val et = Tokenizer.entityTokens(TestKBs.kb1(spark)).collect()
      .map(r => (r.getLong(0), r.getString(1))).toSet
    assert(et.contains((TestKBs.Restaurant1, "fat")))
    assert(et.contains((TestKBs.Restaurant1, "duck")))
    // relation objects ("ref:2") are not tokenized
    assert(!et.exists(_._2 == "ref"))
  }

  test("entityTokens dedupes tokens within an entity") {
    val kb = KBModel.fromRows(spark, Seq(
      (1L, "a", "x x x", None), (1L, "b", "x", None)))
    val et = Tokenizer.entityTokens(kb).collect()
    assert(et.length === 1)
  }

  test("averageTokens on figure-1 KB1") {
    val et = Tokenizer.entityTokens(TestKBs.kb1(spark))
    // per-entity distinct token counts: R1=5 (fat duck michelin restaurant bray),
    // JohnLakeA=4 (j lake chef cook), Bray=4 (bray village berkshire england),
    // UK=2 (united kingdom)
    assert(math.abs(Tokenizer.averageTokens(et) - (5 + 4 + 4 + 2) / 4.0) < 1e-9)
  }

  test("averageTokens of an empty frame is 0") {
    val kb = KBModel.fromRows(spark, Seq((1L, "p", "ref:2", Some(2L))))
    assert(Tokenizer.averageTokens(Tokenizer.entityTokens(kb)) === 0.0)
  }
}
