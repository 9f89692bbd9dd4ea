#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "common/csv.h"
#include "common/inline_callback.h"
#include "common/json.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/string_util.h"

namespace blockoptr {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing key");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), "missing key");
  EXPECT_EQ(st.ToString(), "NotFound: missing key");
}

TEST(StatusTest, EveryFactoryMapsToItsCode) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value_or(-1), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(9);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 9);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBelowBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng rng(5);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 6000; ++i) ++counts[rng.NextBelow(6)];
  EXPECT_EQ(counts.size(), 6u);
  for (const auto& [v, n] : counts) {
    (void)v;
    EXPECT_GT(n, 700);  // roughly uniform
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(13);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.NextGaussian(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(21);
  Rng child = parent.Fork();
  // The child stream should not mirror the parent stream.
  EXPECT_NE(parent.Next(), child.Next());
}

TEST(ZipfTest, ZeroSkewIsUniform) {
  Rng rng(3);
  ZipfGenerator zipf(10, 0.0);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Next(rng)];
  for (const auto& [v, n] : counts) {
    (void)v;
    EXPECT_NEAR(n, 2000, 300);
  }
}

TEST(ZipfTest, SkewConcentratesOnLowRanks) {
  Rng rng(3);
  ZipfGenerator zipf(100, 1.2);
  std::map<uint64_t, int> counts;
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Next(rng)];
  // Rank 0 should dominate and ranks should be monotonically popular.
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], n / 10);
}

class ZipfSkewSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSkewSweep, TopRankShareGrowsWithSkew) {
  double s = GetParam();
  Rng rng(31);
  ZipfGenerator zipf(50, s);
  int top = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Next(rng) == 0) ++top;
  }
  // Analytic share of rank 0: 1 / (H_{n,s}).
  double hns = 0;
  for (int k = 1; k <= 50; ++k) hns += 1.0 / std::pow(k, s);
  double expected = 1.0 / hns;
  EXPECT_NEAR(static_cast<double>(top) / n, expected, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfSkewSweep,
                         ::testing::Values(0.2, 0.5, 0.8, 1.0, 1.5, 2.0));

TEST(SampleWithoutReplacementTest, ProducesDistinctValuesInRange) {
  Rng rng(37);
  for (int trial = 0; trial < 100; ++trial) {
    auto sample = SampleWithoutReplacement(rng, 20, 8);
    ASSERT_EQ(sample.size(), 8u);
    std::set<uint64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 8u);
    for (uint64_t v : sample) EXPECT_LT(v, 20u);
  }
}

TEST(SampleWithoutReplacementTest, FullSampleIsPermutation) {
  Rng rng(41);
  auto sample = SampleWithoutReplacement(rng, 10, 10);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

// ---------------------------------------------------------------------------
// String utilities
// ---------------------------------------------------------------------------

TEST(StringUtilTest, SplitBasic) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitPreservesEmptyFields) {
  auto parts = Split(",x,,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitEmptyStringYieldsOneField) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::vector<std::string> v = {"x", "y", "zz"};
  EXPECT_EQ(Split(Join(v, "|"), '|'), v);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("Org1-client2", "Org1"));
  EXPECT_FALSE(StartsWith("Org1", "Org1-client"));
  EXPECT_TRUE(EndsWith("block.json", ".json"));
  EXPECT_FALSE(EndsWith("json", "block.json"));
}

TEST(StringUtilTest, Formatting) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatPercent(0.257, 1), "25.7%");
  EXPECT_EQ(ZeroPad(42, 6), "000042");
}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

TEST(CsvTest, PlainRow) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.WriteRow({"a", "b", "c"});
  EXPECT_EQ(out.str(), "a,b,c\n");
}

TEST(CsvTest, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::EscapeField("plain"), "plain");
  EXPECT_EQ(CsvWriter::EscapeField("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::EscapeField("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::EscapeField("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvTest, RoundTripThroughReader) {
  std::ostringstream out;
  CsvWriter writer(out);
  std::vector<std::string> row = {"x,y", "he said \"no\"", "multi\nline", ""};
  writer.WriteRow(row);
  auto parsed = CsvReader::ParseDocument(out.str());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0], row);
}

TEST(CsvTest, ParsesMultipleRowsAndCrlf) {
  auto parsed = CsvReader::ParseDocument("a,b\r\nc,d\r\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[1][1], "d");
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  auto parsed = CsvReader::ParseDocument("\"oops");
  EXPECT_FALSE(parsed.ok());
}

TEST(CsvTest, ParseLineRejectsEmbeddedNewline) {
  auto parsed = CsvReader::ParseLine("a,\"b\nc\"");
  EXPECT_FALSE(parsed.ok());
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(JsonTest, DumpPrimitives) {
  EXPECT_EQ(JsonValue(nullptr).Dump(), "null");
  EXPECT_EQ(JsonValue(true).Dump(), "true");
  EXPECT_EQ(JsonValue(42).Dump(), "42");
  EXPECT_EQ(JsonValue(2.5).Dump(), "2.5");
  EXPECT_EQ(JsonValue("hi").Dump(), "\"hi\"");
}

TEST(JsonTest, EscapesStrings) {
  EXPECT_EQ(JsonValue("a\"b\\c\n").Dump(), "\"a\\\"b\\\\c\\n\"");
}

TEST(JsonTest, DumpNestedStructure) {
  JsonValue::Object obj;
  obj["list"] = JsonValue(JsonValue::Array{JsonValue(1), JsonValue(2)});
  obj["name"] = JsonValue("x");
  EXPECT_EQ(JsonValue(obj).Dump(), "{\"list\":[1,2],\"name\":\"x\"}");
}

TEST(JsonTest, ParseRoundTrip) {
  std::string doc =
      "{\"a\":[1,2.5,null,true],\"b\":{\"c\":\"\\u0041\\n\"},\"d\":-3}";
  auto parsed = JsonValue::Parse(doc);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)["d"].as_number(), -3);
  EXPECT_EQ((*parsed)["b"]["c"].as_string(), "A\n");
  EXPECT_EQ((*parsed)["a"].as_array().size(), 4u);
  // Dump then re-parse must be stable.
  auto reparsed = JsonValue::Parse(parsed->Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->Dump(), parsed->Dump());
}

TEST(JsonTest, MissingObjectKeyIsNull) {
  auto parsed = JsonValue::Parse("{\"x\":1}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE((*parsed)["missing"].is_null());
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(JsonValue::Parse("123 trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("nul").ok());
}

TEST(JsonTest, ObjectKeepsMembersSortedAndUnique) {
  JsonValue::Object obj;
  obj["b"] = JsonValue(2);
  obj["d"] = JsonValue(4);
  obj["a"] = JsonValue(1);
  obj["c"] = JsonValue(3);
  obj["b"] = JsonValue(20);
  EXPECT_EQ(obj.size(), 4u);
  EXPECT_EQ(JsonValue(obj).Dump(), "{\"a\":1,\"b\":20,\"c\":3,\"d\":4}");
  ASSERT_NE(obj.find("c"), obj.end());
  EXPECT_EQ(obj.find("c")->second.as_number(), 3);
  EXPECT_EQ(obj.find("e"), obj.end());
  // The parser sorts members once; of duplicate keys the last one wins.
  auto parsed = JsonValue::Parse("{\"z\":1,\"a\":2,\"m\":3,\"a\":4}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Dump(), "{\"a\":4,\"m\":3,\"z\":1}");
}

TEST(JsonTest, DeepNestingIsAnErrorNotACrash) {
  // The parser recurses once per level; a million levels would overflow
  // the stack without the depth cap.
  for (const std::string& open : {std::string("["), std::string("{\"k\":")}) {
    std::string deep;
    for (int i = 0; i < 1000000; ++i) deep += open;
    auto parsed = JsonValue::Parse(deep);
    ASSERT_FALSE(parsed.ok());
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << parsed.status();
  }
  const int max = JsonValue::kMaxParseDepth;
  const std::string at_cap = std::string(max, '[') + std::string(max, ']');
  EXPECT_TRUE(JsonValue::Parse(at_cap).ok());
  EXPECT_FALSE(JsonValue::Parse("[" + at_cap + "]").ok());
}

TEST(JsonTest, PrettyPrintIndents) {
  auto parsed = JsonValue::Parse("{\"a\":[1]}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE(parsed->DumpPretty().find("\n  "), std::string::npos);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, MergeMatchesCombinedStream) {
  RunningStats a, b, all;
  Rng rng(55);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble() * 10;
    (i % 2 ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(PercentileTest, NearestRank) {
  PercentileTracker p;
  for (int i = 1; i <= 100; ++i) p.Add(i);
  EXPECT_EQ(p.Percentile(50), 50);
  EXPECT_EQ(p.Percentile(95), 95);
  EXPECT_EQ(p.Percentile(0), 1);
  EXPECT_EQ(p.Percentile(100), 100);
}

TEST(PercentileTest, EmptyReturnsZero) {
  PercentileTracker p;
  EXPECT_EQ(p.Percentile(50), 0.0);
  EXPECT_EQ(p.Percentile(0), 0.0);
  EXPECT_EQ(p.Percentile(100), 0.0);
}

TEST(PercentileTest, SingleElementCoversWholeRange) {
  PercentileTracker p;
  p.Add(42.0);
  EXPECT_EQ(p.Percentile(0), 42.0);
  EXPECT_EQ(p.Percentile(50), 42.0);
  EXPECT_EQ(p.Percentile(100), 42.0);
  EXPECT_EQ(p.Median(), 42.0);
}

TEST(IntervalCounterTest, BucketsByInterval) {
  IntervalCounter c(1.0);
  c.Add(0.1);
  c.Add(0.9);
  c.Add(1.5);
  c.Add(5.0);
  EXPECT_EQ(c.CountAt(0), 2u);
  EXPECT_EQ(c.CountAt(1), 1u);
  EXPECT_EQ(c.CountAt(2), 0u);
  EXPECT_EQ(c.CountAt(5), 1u);
  EXPECT_EQ(c.num_intervals(), 6u);
}

TEST(IntervalCounterTest, RateScalesByWidth) {
  IntervalCounter c(0.5);
  c.Add(0.1);
  c.Add(0.2);
  EXPECT_DOUBLE_EQ(c.RateAt(0), 4.0);  // 2 events / 0.5s
}

TEST(IntervalCounterTest, NegativeTimesClampToZero) {
  IntervalCounter c(1.0);
  c.Add(-2.0);
  EXPECT_EQ(c.CountAt(0), 1u);
}

TEST(IntervalCounterTest, EmptyCounterHasNoIntervals) {
  IntervalCounter c(1.0);
  EXPECT_EQ(c.num_intervals(), 0u);
  EXPECT_EQ(c.CountAt(0), 0u);
  EXPECT_DOUBLE_EQ(c.RateAt(0), 0.0);
}

TEST(IntervalCounterTest, OutOfRangeIndexIsZeroNotUb) {
  IntervalCounter c(2.0);
  c.Add(1.0);
  EXPECT_EQ(c.CountAt(1), 0u);
  EXPECT_EQ(c.CountAt(1000000), 0u);
  EXPECT_DOUBLE_EQ(c.RateAt(1000000), 0.0);
}

// ---------------------------------------------------------------------------
// InlineCallback
// ---------------------------------------------------------------------------

TEST(InlineCallbackTest, DefaultIsEmpty) {
  InlineCallback cb;
  EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InlineCallbackTest, InvokesStoredCallable) {
  int hits = 0;
  InlineCallback cb([&hits] { ++hits; });
  EXPECT_TRUE(static_cast<bool>(cb));
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallbackTest, MutableLambdaKeepsStateAcrossCalls) {
  int observed = 0;
  InlineCallback cb([n = 0, &observed]() mutable { observed = ++n; });
  cb();
  cb();
  cb();
  EXPECT_EQ(observed, 3);
}

TEST(InlineCallbackTest, MoveTransfersOwnership) {
  int hits = 0;
  InlineCallback a([&hits] { ++hits; });
  InlineCallback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(InlineCallbackTest, MoveAssignReplacesAndDestroysOldTarget) {
  auto tracker = std::make_shared<int>(0);
  int hits = 0;
  InlineCallback a([t = tracker] { (void)t; });
  EXPECT_EQ(tracker.use_count(), 2);
  InlineCallback b([&hits] { ++hits; });
  a = std::move(b);
  // The old target (holding the shared_ptr) was destroyed by the
  // assignment.
  EXPECT_EQ(tracker.use_count(), 1);
  a();
  EXPECT_EQ(hits, 1);
}

TEST(InlineCallbackTest, DestructionReleasesCapturedState) {
  auto tracker = std::make_shared<int>(0);
  {
    InlineCallback cb([t = tracker] { (void)t; });
    EXPECT_EQ(tracker.use_count(), 2);
  }
  EXPECT_EQ(tracker.use_count(), 1);
}

TEST(InlineCallbackTest, HoldsMoveOnlyCallables) {
  auto value = std::make_unique<int>(41);
  int got = 0;
  InlineCallback cb([v = std::move(value), &got] { got = *v + 1; });
  cb();
  EXPECT_EQ(got, 42);
}

TEST(InlineCallbackTest, AcceptsStdFunction) {
  int hits = 0;
  std::function<void()> fn = [&hits] { ++hits; };
  InlineCallback cb(std::move(fn));
  cb();
  EXPECT_EQ(hits, 1);
}

TEST(InlineCallbackTest, CapacityFitsPipelineClosures) {
  // The engine-wide contract: anything up to the inline capacity stores
  // without a heap allocation (there is no heap fallback — oversized
  // callables fail to compile).
  struct Big {
    unsigned char payload[kInlineCallbackCapacity - 2 * sizeof(void*)];
  };
  Big big{};
  big.payload[0] = 7;
  int got = 0;
  InlineCallback cb([big, &got] { got = big.payload[0]; });
  cb();
  EXPECT_EQ(got, 7);
}

}  // namespace
}  // namespace blockoptr
