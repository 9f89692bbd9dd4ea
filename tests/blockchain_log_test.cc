#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "blockopt/log/blockchain_log.h"
#include "blockopt/log/export.h"
#include "blockopt/log/preprocess.h"
#include "common/csv.h"
#include "driver/experiment.h"
#include "workload/synthetic.h"

namespace blockoptr {
namespace {

/// Runs a small synthetic experiment once per suite (expensive setup).
class LogFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticConfig wl;
    wl.num_txs = 400;
    ExperimentConfig cfg;
    cfg.network = NetworkConfig::Defaults();
    cfg.chaincodes = {"genchain"};
    for (auto& [k, v] : SyntheticSeedState(wl)) {
      cfg.seeds.push_back(SeedEntry{"genchain", k, v});
    }
    cfg.schedule = GenerateSynthetic(wl);
    auto out = RunExperiment(cfg);
    ASSERT_TRUE(out.ok());
    ledger_ = new Ledger(std::move(out->ledger));
  }
  static void TearDownTestSuite() {
    delete ledger_;
    ledger_ = nullptr;
  }

  static Ledger* ledger_;
};

Ledger* LogFixture::ledger_ = nullptr;

TEST_F(LogFixture, RawExtractionIncludesConfig) {
  BlockchainLog raw = ExtractRawLog(*ledger_);
  EXPECT_EQ(raw.size(), ledger_->NumTransactions());
  EXPECT_TRUE(raw[0].is_config);  // genesis
}

TEST_F(LogFixture, CleaningRemovesConfigAndRenumbers) {
  BlockchainLog log = ExtractRawLog(*ledger_);
  CleanLog(log);
  EXPECT_EQ(log.size(), ledger_->NumTransactions() - 1);
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_FALSE(log[i].is_config);
    EXPECT_EQ(log[i].commit_order, i);  // dense renumbering
  }
}

TEST_F(LogFixture, NineAttributesArePopulated) {
  BlockchainLog log = ExtractBlockchainLog(*ledger_);
  ASSERT_FALSE(log.empty());
  bool saw_failed = false;
  for (const auto& e : log.entries()) {
    EXPECT_FALSE(e.activity.empty());                    // (2)
    EXPECT_FALSE(e.args.empty());                        // (3)
    EXPECT_FALSE(e.endorsers.empty());                   // (4)
    EXPECT_FALSE(e.invoker_client.empty());              // (5)
    EXPECT_FALSE(e.invoker_org.empty());
    EXPECT_GE(e.commit_timestamp, e.client_timestamp);   // (1)
    saw_failed |= e.failed();                            // (7)
  }
  EXPECT_TRUE(saw_failed);
}

TEST_F(LogFixture, TxTypesMatchActivities) {
  BlockchainLog log = ExtractBlockchainLog(*ledger_);
  for (const auto& e : log.entries()) {
    if (e.activity == "Read") {
      EXPECT_EQ(e.tx_type, TxType::kRead);
    } else if (e.activity == "Write") {
      EXPECT_EQ(e.tx_type, TxType::kWrite);
    } else if (e.activity == "Update") {
      EXPECT_EQ(e.tx_type, TxType::kUpdate);
    } else if (e.activity == "RangeRead") {
      EXPECT_EQ(e.tx_type, TxType::kRangeRead);
    } else if (e.activity == "Delete") {
      EXPECT_EQ(e.tx_type, TxType::kDelete);
    }
  }
}

TEST_F(LogFixture, CommitOrderFollowsBlockOrder) {
  BlockchainLog log = ExtractBlockchainLog(*ledger_);
  for (size_t i = 1; i < log.size(); ++i) {
    EXPECT_GE(log[i].block_num, log[i - 1].block_num);
    if (log[i].block_num == log[i - 1].block_num) {
      EXPECT_GT(log[i].tx_pos, log[i - 1].tx_pos);
    }
  }
}

TEST_F(LogFixture, KeyHelpersStripNothing) {
  BlockchainLog log = ExtractBlockchainLog(*ledger_);
  for (const auto& e : log.entries()) {
    if (e.activity == "Update") {
      auto wk = e.WriteKeys();
      ASSERT_EQ(wk.size(), 1u);
      EXPECT_EQ(wk[0].rfind("genchain~", 0), 0u);  // namespaced key
      auto all = e.AccessedKeys();
      EXPECT_FALSE(all.empty());
    }
  }
}

TEST_F(LogFixture, CsvExportHasHeaderAndAllRows) {
  BlockchainLog log = ExtractBlockchainLog(*ledger_);
  std::ostringstream out;
  WriteLogCsv(log, out);
  auto parsed = CsvReader::ParseDocument(out.str());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), log.size() + 1);
  EXPECT_EQ((*parsed)[0][0], "commit_order");
  EXPECT_EQ((*parsed)[0][2], "activity");
  // Spot-check the first data row.
  EXPECT_EQ((*parsed)[1][2], log[0].activity);
}

TEST_F(LogFixture, JsonRoundTripPreservesEverything) {
  BlockchainLog log = ExtractBlockchainLog(*ledger_);
  JsonValue json = LogToJson(log);
  // Serialize to text and back — the full offline-artefact cycle.
  auto reparsed_json = JsonValue::Parse(json.Dump());
  ASSERT_TRUE(reparsed_json.ok());
  auto restored = ParseLogJson(*reparsed_json);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    const auto& a = log[i];
    const auto& b = (*restored)[i];
    EXPECT_EQ(a.activity, b.activity);
    EXPECT_EQ(a.args, b.args);
    EXPECT_EQ(a.endorsers, b.endorsers);
    EXPECT_EQ(a.invoker_client, b.invoker_client);
    EXPECT_EQ(a.read_keys, b.read_keys);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.delete_keys, b.delete_keys);
    EXPECT_EQ(a.range_bounds, b.range_bounds);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.tx_type, b.tx_type);
    EXPECT_EQ(a.commit_order, b.commit_order);
    EXPECT_EQ(a.block_num, b.block_num);
    EXPECT_NEAR(a.client_timestamp, b.client_timestamp, 1e-9);
  }
}

TEST(LogExportTest, ParseRejectsMalformedDocuments) {
  auto bad = JsonValue::Parse("{\"nope\":1}");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(ParseLogJson(*bad).ok());
}

TEST(LogExportTest, ParseNamesTheEntryAndFieldThatIsMissingOrMistyped) {
  auto expect_error = [](const JsonValue& json, const std::string& entry,
                         const std::string& field) {
    auto log = ParseLogJson(json);
    ASSERT_FALSE(log.ok());
    EXPECT_TRUE(log.status().IsInvalidArgument()) << log.status();
    EXPECT_NE(log.status().message().find(entry), std::string::npos)
        << log.status();
    EXPECT_NE(log.status().message().find(field), std::string::npos)
        << log.status();
  };
  auto empty_entry = JsonValue::Parse("{\"entries\":[{}]}");
  ASSERT_TRUE(empty_entry.ok());
  expect_error(*empty_entry, "log entry 0", "activity");

  BlockchainLogEntry e;
  e.activity = "Put";
  e.writes = {{"k", "v"}};
  JsonValue json = LogToJson(BlockchainLog({e, e}));
  ASSERT_TRUE(ParseLogJson(json).ok());
  JsonValue::Object& second =
      json.as_object()["entries"].as_array()[1].as_object();
  second["tx_id"] = JsonValue("x");
  expect_error(json, "log entry 1", "tx_id");
  second["tx_id"] = JsonValue(-1);
  expect_error(json, "log entry 1", "tx_id");
  second["tx_id"] = JsonValue(7);
  second["writes"].as_array()[0].as_object()["value"] = JsonValue(1);
  expect_error(json, "log entry 1", "writes");
}

TEST(LogEntryTest, FailedHelper) {
  BlockchainLogEntry e;
  e.status = TxStatus::kValid;
  EXPECT_FALSE(e.failed());
  e.status = TxStatus::kMvccReadConflict;
  EXPECT_TRUE(e.failed());
  e.status = TxStatus::kPhantomReadConflict;
  EXPECT_TRUE(e.failed());
  e.status = TxStatus::kEndorsementPolicyFailure;
  EXPECT_TRUE(e.failed());
  e.status = TxStatus::kConfig;
  EXPECT_FALSE(e.failed());
}

}  // namespace
}  // namespace blockoptr
