#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "blockopt/log/preprocess.h"
#include "blockopt/metrics/metrics.h"
#include "common/csv.h"
#include "common/json.h"
#include "common/rng.h"
#include "driver/experiment.h"
#include "fabric/endorsement_policy.h"
#include "reorder/conflict_graph.h"
#include "sim/service_station.h"
#include "sim/simulator.h"
#include "workload/synthetic.h"

namespace blockoptr {
namespace {

// ---------------------------------------------------------------------------
// End-to-end invariants swept over workload type x orderer scheduler
// ---------------------------------------------------------------------------

using ExperimentParam = std::tuple<SyntheticWorkloadType, std::string>;

class ExperimentInvariants
    : public ::testing::TestWithParam<ExperimentParam> {};

TEST_P(ExperimentInvariants, HoldAcrossTheSweep) {
  auto [type, scheduler] = GetParam();
  SyntheticConfig wl;
  wl.type = type;
  wl.num_txs = 1200;
  ExperimentConfig cfg;
  cfg.network = NetworkConfig::Defaults();
  cfg.chaincodes = {"genchain"};
  for (auto& [k, v] : SyntheticSeedState(wl)) {
    cfg.seeds.push_back(SeedEntry{"genchain", k, v});
  }
  cfg.schedule = GenerateSynthetic(wl);
  cfg.orderer_scheduler = scheduler;

  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();

  // 1. Conservation: every scheduled request resolves exactly once.
  EXPECT_EQ(out->report.total_committed() + out->report.early_aborts(),
            1200u);
  // 2. Status counts add up.
  EXPECT_EQ(out->report.successful() + out->report.failed(),
            out->report.total_committed());
  // 3. The chain verifies end to end.
  EXPECT_TRUE(out->ledger.VerifyChain().ok());
  // 4. Commit timestamps never precede client timestamps, and block
  //    commit order is monotone.
  double prev_commit = 0;
  out->ledger.ForEachTransaction(
      [&](const Block& block, const Transaction& tx) {
        if (tx.is_config) return;
        EXPECT_GE(tx.commit_timestamp, tx.client_timestamp);
        EXPECT_GE(block.commit_timestamp, prev_commit);
        prev_commit = block.commit_timestamp;
      });
  // 5. The extracted log matches the ledger's non-config population.
  BlockchainLog log = ExtractBlockchainLog(out->ledger);
  EXPECT_EQ(log.size(), out->report.total_committed());
  // 6. Metrics are internally consistent.
  LogMetrics m = ComputeMetrics(log, {});
  EXPECT_EQ(m.total_txs, log.size());
  EXPECT_EQ(m.failed_txs,
            m.mvcc_failures + m.phantom_failures + m.endorsement_failures);
  EXPECT_LE(m.intra_block_conflicts + m.inter_block_conflicts,
            m.mvcc_failures + m.phantom_failures);
  EXPECT_GE(m.SuccessRate(), 0.0);
  EXPECT_LE(m.SuccessRate(), 1.0);
  // 7. Every valid transaction carries a policy-satisfying endorsement.
  for (const auto& e : log.entries()) {
    if (e.status != TxStatus::kValid) continue;
    std::set<std::string> signers(e.endorsers.begin(), e.endorsers.end());
    EXPECT_TRUE(
        cfg.network.endorsement_policy.IsSatisfiedBy(signers))
        << "tx " << e.tx_id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExperimentInvariants,
    ::testing::Combine(
        ::testing::Values(SyntheticWorkloadType::kUniform,
                          SyntheticWorkloadType::kReadHeavy,
                          SyntheticWorkloadType::kInsertHeavy,
                          SyntheticWorkloadType::kUpdateHeavy,
                          SyntheticWorkloadType::kRangeReadHeavy),
        ::testing::Values("", "fabricpp", "fabricsharp")));

// ---------------------------------------------------------------------------
// Serialization round-trips under randomized inputs
// ---------------------------------------------------------------------------

std::string RandomField(Rng& rng) {
  static const char kAlphabet[] =
      "abcXYZ019 ,\"\n\r\t|~=;'<>&\\{}";
  std::string s;
  size_t len = rng.NextBelow(20);
  for (size_t i = 0; i < len; ++i) {
    s += kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)];
  }
  return s;
}

TEST(SerializationProperty, CsvRoundTripsRandomRows) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::string> row;
    size_t fields = 1 + rng.NextBelow(6);
    for (size_t i = 0; i < fields; ++i) row.push_back(RandomField(rng));
    std::ostringstream out;
    CsvWriter writer(out);
    writer.WriteRow(row);
    auto parsed = CsvReader::ParseDocument(out.str());
    ASSERT_TRUE(parsed.ok()) << out.str();
    ASSERT_EQ(parsed->size(), 1u);
    EXPECT_EQ((*parsed)[0], row);
  }
}

/// Doubles of every shape Dump must spell: fractions, integers on both
/// sides of the 1e15 integer-format cutoff, any exponent, -0.0, NaN and
/// ±inf (the last two have no JSON spelling and must come out as null).
double RandomDouble(Rng& rng) {
  switch (rng.NextBelow(7)) {
    case 0:
      return (rng.NextDouble() - 0.5) * 1e4;
    case 1:
      return std::floor(1e15 * (0.5 + rng.NextDouble()));
    case 2:
      return std::ldexp(rng.NextDouble() - 0.5,
                        static_cast<int>(rng.NextInRange(-1070, 1020)));
    case 3:
      return -0.0;
    case 4:
      return std::numeric_limits<double>::quiet_NaN();
    case 5:
      return std::numeric_limits<double>::infinity();
    default:
      return -std::numeric_limits<double>::infinity();
  }
}

JsonValue RandomJson(Rng& rng, int depth) {
  switch (depth <= 0 ? rng.NextBelow(3) : rng.NextBelow(5)) {
    case 0:
      return JsonValue(RandomField(rng));
    case 1:
      if (rng.NextBool(0.5)) return JsonValue(RandomDouble(rng));
      return JsonValue(static_cast<int64_t>(rng.NextInRange(-5000, 5000)));
    case 2:
      return rng.NextBool(0.5) ? JsonValue(true) : JsonValue(nullptr);
    case 3: {
      JsonValue::Array arr;
      size_t n = rng.NextBelow(4);
      for (size_t i = 0; i < n; ++i) arr.push_back(RandomJson(rng, depth - 1));
      return JsonValue(std::move(arr));
    }
    default: {
      JsonValue::Object obj;
      size_t n = rng.NextBelow(4);
      for (size_t i = 0; i < n; ++i) {
        obj["k" + std::to_string(i) + RandomField(rng)] =
            RandomJson(rng, depth - 1);
      }
      return JsonValue(std::move(obj));
    }
  }
}

TEST(SerializationProperty, JsonRoundTripsRandomDocuments) {
  Rng rng(7777);
  for (int trial = 0; trial < 200; ++trial) {
    JsonValue doc = RandomJson(rng, 3);
    auto parsed = JsonValue::Parse(doc.Dump());
    ASSERT_TRUE(parsed.ok()) << doc.Dump();
    EXPECT_EQ(parsed->Dump(), doc.Dump());
    // Pretty form parses back to the same document too.
    auto pretty = JsonValue::Parse(doc.DumpPretty());
    ASSERT_TRUE(pretty.ok());
    EXPECT_EQ(pretty->Dump(), doc.Dump());
  }
}

// ---------------------------------------------------------------------------
// Endorsement-policy properties
// ---------------------------------------------------------------------------

TEST(PolicyProperty, SatisfactionIsMonotone) {
  // Adding endorsers never invalidates a satisfying set.
  Rng rng(99);
  for (int preset = 1; preset <= 4; ++preset) {
    for (int orgs : {2, 4, 6}) {
      EndorsementPolicy policy = EndorsementPolicy::Preset(preset, orgs);
      for (const auto& minimal : policy.MinimalSatisfyingSets()) {
        std::set<std::string> grown = minimal;
        grown.insert("Org" + std::to_string(
                                 1 + rng.NextBelow(
                                         static_cast<uint64_t>(orgs))));
        EXPECT_TRUE(policy.IsSatisfiedBy(grown));
      }
    }
  }
}

TEST(PolicyProperty, MandatoryOrgsAppearInEveryMinimalSet) {
  for (int preset = 1; preset <= 4; ++preset) {
    EndorsementPolicy policy = EndorsementPolicy::Preset(preset, 4);
    auto mandatory = policy.MandatoryOrgs();
    for (const auto& set : policy.MinimalSatisfyingSets()) {
      for (const auto& org : mandatory) {
        EXPECT_TRUE(set.count(org)) << policy.ToString();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Conflict-graph scheduling properties
// ---------------------------------------------------------------------------

TEST(ConflictGraphProperty, SerializableOrderRespectsPrecedence) {
  Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    // Random batch over a small keyspace.
    size_t n = 3 + rng.NextBelow(12);
    std::vector<ReadWriteSet> sets(n);
    for (auto& rw : sets) {
      size_t reads = rng.NextBelow(3);
      for (size_t r = 0; r < reads; ++r) {
        rw.reads.push_back(
            ReadItem{"k" + std::to_string(rng.NextBelow(5)), Version{0, 0}});
      }
      if (rng.NextBool(0.7)) {
        rw.writes.push_back(WriteItem{
            "k" + std::to_string(rng.NextBelow(5)), "v", false});
      }
    }
    std::vector<const ReadWriteSet*> ptrs;
    for (const auto& rw : sets) ptrs.push_back(&rw);
    ConflictGraph graph(ptrs);
    auto aborted = graph.BreakCycles();
    std::vector<bool> alive(n, true);
    for (int a : aborted) alive[static_cast<size_t>(a)] = false;
    auto order = graph.SerializableOrder(alive);

    // Every surviving transaction appears exactly once…
    std::set<int> seen(order.begin(), order.end());
    size_t alive_count = 0;
    for (bool a : alive) alive_count += a ? 1 : 0;
    EXPECT_EQ(seen.size(), order.size());
    EXPECT_EQ(order.size(), alive_count);

    // …and for every conflict edge i -> j among survivors, j precedes i.
    std::vector<size_t> position(n, 0);
    for (size_t pos = 0; pos < order.size(); ++pos) {
      position[static_cast<size_t>(order[pos])] = pos;
    }
    for (size_t i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      for (int j : graph.InvalidatedBy(static_cast<int>(i))) {
        if (!alive[static_cast<size_t>(j)]) continue;
        EXPECT_LT(position[static_cast<size_t>(j)], position[i])
            << "trial " << trial;
      }
    }
  }
}

/// Cycle breaking restated over StronglyConnectedComponents(): each round
/// builds the graph over the survivors in arrival order (the edges among
/// them and Tarjan's visiting order are those of the full graph with the
/// aborted nodes skipped), takes the first SCC with more than one member
/// in emission order, and drops its member of highest degree — edges to
/// survivors plus edges from the other SCC members, the first member in
/// SCC order on a tie.
std::vector<int> ReferenceBreakCycles(const std::vector<ReadWriteSet>& sets) {
  std::vector<int> survivors(sets.size());
  for (size_t i = 0; i < sets.size(); ++i) survivors[i] = static_cast<int>(i);
  std::vector<int> aborted;
  for (;;) {
    std::vector<const ReadWriteSet*> ptrs;
    for (int s : survivors) ptrs.push_back(&sets[static_cast<size_t>(s)]);
    const ConflictGraph graph(ptrs);
    const auto sccs = graph.StronglyConnectedComponents();
    const std::vector<int>* cycle = nullptr;
    for (const auto& scc : sccs) {
      if (scc.size() > 1) {
        cycle = &scc;
        break;
      }
    }
    if (cycle == nullptr) break;
    int victim = (*cycle)[0];
    size_t best_degree = 0;
    for (int v : *cycle) {
      size_t degree = graph.InvalidatedBy(v).size();
      for (int u : *cycle) {
        const std::vector<int>& succ = graph.InvalidatedBy(u);
        if (u != v && std::binary_search(succ.begin(), succ.end(), v)) {
          ++degree;
        }
      }
      if (degree > best_degree) {
        best_degree = degree;
        victim = v;
      }
    }
    aborted.push_back(survivors[static_cast<size_t>(victim)]);
    survivors.erase(survivors.begin() + victim);
  }
  std::sort(aborted.begin(), aborted.end());
  return aborted;
}

TEST(ConflictGraphProperty, BreakCyclesMatchesTheFirstSccReference) {
  // 200 batches of 2-300 transactions, alternating two shapes: a hot key
  // that most transactions read and write, plus random other keys; and
  // the small-keyspace mix above.
  Rng rng(2323);
  size_t total_aborted = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const bool hot = trial % 2 == 0;
    const size_t n = 2 + rng.NextBelow(299);
    std::vector<ReadWriteSet> sets(n);
    for (auto& rw : sets) {
      if (hot) {
        if (rng.NextBool(0.6)) {
          rw.reads.push_back(ReadItem{"hot", Version{0, 0}});
          rw.writes.push_back(WriteItem{"hot", "v", false});
        }
        for (size_t r = rng.NextBelow(3); r > 0; --r) {
          rw.reads.push_back(ReadItem{"k" + std::to_string(rng.NextBelow(40)),
                                      Version{0, 0}});
        }
        if (rng.NextBool(0.5)) {
          rw.writes.push_back(WriteItem{
              "k" + std::to_string(rng.NextBelow(40)), "v", false});
        }
      } else {
        for (size_t r = rng.NextBelow(3); r > 0; --r) {
          rw.reads.push_back(ReadItem{"k" + std::to_string(rng.NextBelow(5)),
                                      Version{0, 0}});
        }
        if (rng.NextBool(0.7)) {
          rw.writes.push_back(WriteItem{
              "k" + std::to_string(rng.NextBelow(5)), "v", false});
        }
      }
    }
    std::vector<const ReadWriteSet*> ptrs;
    for (const auto& rw : sets) ptrs.push_back(&rw);
    ConflictGraph graph(ptrs);
    const std::vector<int> aborted = graph.BreakCycles();
    const std::vector<int> expected = ReferenceBreakCycles(sets);
    ASSERT_EQ(aborted, expected) << "trial " << trial << ", " << n << " txs";
    total_aborted += aborted.size();

    std::vector<bool> alive(n, true);
    for (int a : expected) alive[static_cast<size_t>(a)] = false;
    const ConflictGraph fresh(ptrs);
    EXPECT_EQ(graph.SerializableOrder(alive), fresh.SerializableOrder(alive))
        << "trial " << trial;
  }
  // The batches are cyclic enough to exercise many victims per batch.
  EXPECT_GT(total_aborted, 200u * 20u);
}

// ---------------------------------------------------------------------------
// ServiceStation queueing invariants
// ---------------------------------------------------------------------------

TEST(ServiceStationInvariants, FifoCompletionOrderUnderEqualServiceTimes) {
  // With equal service times, a FIFO station must complete jobs in
  // submission order regardless of the number of servers.
  for (int servers : {1, 2, 3}) {
    Simulator sim;
    ServiceStation station(&sim, "peer", servers);
    std::vector<int> completion_order;
    const int n = 12;
    for (int i = 0; i < n; ++i) {
      station.Submit(2.5, [&completion_order, i]() {
        completion_order.push_back(i);
      });
    }
    sim.Run();
    ASSERT_EQ(completion_order.size(), static_cast<size_t>(n))
        << "servers=" << servers;
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(completion_order[static_cast<size_t>(i)], i)
          << "servers=" << servers;
    }
  }
}

TEST(ServiceStationInvariants, BusyTimeEqualsSumOfServiceTimes) {
  // busy_time() is a conservation quantity: queueing delays change when
  // work happens, never how much of it there is.
  Rng rng(7);
  Simulator sim;
  ServiceStation station(&sim, "endorser", 2);
  double expected = 0;
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    const double service = 0.001 + rng.NextDouble() * 0.5;
    expected += service;
    station.Submit(service, [&completed]() { ++completed; });
  }
  sim.Run();
  EXPECT_DOUBLE_EQ(station.busy_time(), expected);
  EXPECT_EQ(completed, 50);
}

TEST(ServiceStationInvariants, CurrentDelayIsZeroWhenIdle) {
  Simulator sim;
  ServiceStation station(&sim, "orderer", 1);
  EXPECT_EQ(station.CurrentDelay(), 0.0);  // nothing ever submitted

  station.Submit(4.0, []() {});
  station.Submit(4.0, []() {});
  EXPECT_GT(station.CurrentDelay(), 0.0);  // backlogged now

  sim.Run();  // drain; Now() advances past the last completion
  EXPECT_EQ(station.CurrentDelay(), 0.0);
}

TEST(ServiceStationInvariants, GrowMidStreamOnlyAffectsLaterSubmissions) {
  // One server, two 10s jobs at t=0 (A done at 10, B at 20). At t=5 the
  // station grows to two servers and receives C (10s): the new server is
  // free immediately, so C completes at 15 — while A and B keep their
  // original schedule.
  Simulator sim;
  ServiceStation station(&sim, "client", 1);
  std::map<std::string, SimTime> done_at;
  station.Submit(10.0, [&]() { done_at["A"] = sim.Now(); });
  station.Submit(10.0, [&]() { done_at["B"] = sim.Now(); });
  sim.ScheduleAt(5.0, [&]() {
    station.set_servers(2);
    station.Submit(10.0, [&]() { done_at["C"] = sim.Now(); });
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(done_at.at("A"), 10.0);
  EXPECT_DOUBLE_EQ(done_at.at("B"), 20.0);
  EXPECT_DOUBLE_EQ(done_at.at("C"), 15.0);
}

TEST(ServiceStationInvariants, ShrinkMidStreamOnlyAffectsLaterSubmissions) {
  // Three servers take three 10s jobs at t=0 (all done at 10). At t=1 the
  // station shrinks to one server; a fourth job must wait for the one
  // remaining server (free at 10) instead of running immediately — and
  // the in-flight jobs still complete on their original schedule.
  Simulator sim;
  ServiceStation station(&sim, "peer", 3);
  std::vector<SimTime> first_three;
  for (int i = 0; i < 3; ++i) {
    station.Submit(10.0, [&]() { first_three.push_back(sim.Now()); });
  }
  SimTime d_done = -1;
  sim.ScheduleAt(1.0, [&]() {
    station.set_servers(1);
    EXPECT_EQ(station.servers(), 1);
    station.Submit(10.0, [&]() { d_done = sim.Now(); });
  });
  sim.Run();
  ASSERT_EQ(first_three.size(), 3u);
  for (SimTime t : first_three) EXPECT_DOUBLE_EQ(t, 10.0);
  EXPECT_DOUBLE_EQ(d_done, 20.0);
}

}  // namespace
}  // namespace blockoptr
