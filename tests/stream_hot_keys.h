// The stream's hot-key exports, read back for tests, and the ranking they
// must reproduce: the 32 keys with the highest exact Kfreq of the batch
// pipeline over the same ledger, failures descending, then key string.
#ifndef BLOCKOPTR_TESTS_STREAM_HOT_KEYS_H_
#define BLOCKOPTR_TESTS_STREAM_HOT_KEYS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "blockopt/log/preprocess.h"
#include "blockopt/metrics/metrics.h"
#include "blockopt/stream/export.h"
#include "ledger/ledger.h"
#include "telemetry/export.h"

namespace blockoptr {

using KeyCounts = std::vector<std::pair<std::string, uint64_t>>;

/// The first 32 keys of the batch Kfreq ranking over `ledger`.
inline KeyCounts BatchTopKfreq(const Ledger& ledger) {
  const LogMetrics batch =
      ComputeMetrics(ExtractBlockchainLog(ledger), MetricsOptions{});
  KeyCounts ranked(batch.key_freq.begin(), batch.key_freq.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (ranked.size() > 32) ranked.resize(32);
  return ranked;
}

/// The "hot_keys" entries of StreamStateJson, in export order. Each entry
/// must carry exactly a key and a count.
inline KeyCounts ExportedHotKeysJson(const StreamEngine& engine) {
  const JsonValue state = StreamStateJson(engine);
  KeyCounts keys;
  for (const JsonValue& h : state["hot_keys"].as_array()) {
    EXPECT_EQ(h.as_object().size(), 2u) << h.Dump();
    keys.emplace_back(h["key"].as_string(),
                      static_cast<uint64_t>(h["count"].as_number()));
  }
  return keys;
}

/// The stream.hot_key_failures lines of AppendStreamPrometheus, in order.
inline std::vector<std::string> ExportedHotKeyLines(
    const StreamEngine& engine) {
  std::ostringstream prom;
  AppendStreamPrometheus(engine, prom);
  const std::string prefix =
      PrometheusMetricName("stream.hot_key_failures") + "{";
  std::vector<std::string> lines;
  std::istringstream in(prom.str());
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) lines.push_back(line);
  }
  return lines;
}

/// The Prometheus lines `ranked` must export as.
inline std::vector<std::string> HotKeyLines(const KeyCounts& ranked) {
  const std::string name = PrometheusMetricName("stream.hot_key_failures");
  std::vector<std::string> lines;
  for (const auto& [key, count] : ranked) {
    lines.push_back(name + "{key=\"" + PrometheusEscapeLabel(key) + "\"} " +
                    std::to_string(count));
  }
  return lines;
}

/// Both hot-key exports of `engine` list BatchTopKfreq(ledger).
inline void ExpectHotKeyExportsMatchBatch(const StreamEngine& engine,
                                          const Ledger& ledger) {
  const KeyCounts expected = BatchTopKfreq(ledger);
  ASSERT_FALSE(expected.empty()) << "the run has no failed transaction";
  EXPECT_EQ(ExportedHotKeysJson(engine), expected);
  EXPECT_EQ(ExportedHotKeyLines(engine), HotKeyLines(expected));
}

}  // namespace blockoptr

#endif  // BLOCKOPTR_TESTS_STREAM_HOT_KEYS_H_
