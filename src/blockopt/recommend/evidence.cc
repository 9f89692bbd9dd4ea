#include "blockopt/recommend/evidence.h"

#include <cstdio>

namespace blockoptr {

namespace {

std::string StationEvidence(const StationAttribution& st) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s util %.2f over %s",
                st.station.c_str(), st.utilization,
                FormatEvidenceWindow(st.window_start, st.window_end).c_str());
  return buf;
}

/// Flight-recorder citation for `stage`: how much of committed end-to-end
/// latency the stage occupies on the causal chain, and how much of that
/// was queueing. "" when txtrace was off or the stage never appeared.
std::string CriticalPathEvidence(const BottleneckReport& report,
                                 const std::string& stage) {
  for (const auto& cps : report.critical_path) {
    if (cps.stage != stage || cps.share <= 0) continue;
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "; critical-path share %.0f%% (wait %.0f%%)",
                  100.0 * cps.share, 100.0 * cps.wait_share);
    return buf;
  }
  return "";
}

const SeriesSummary* FindSeries(const BottleneckReport& report,
                                const std::string& name) {
  for (const auto& s : report.series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

/// Highest-utilization station of `stage` whose name mentions one of the
/// recommendation's orgs (falls back to the stage's top station).
const StationAttribution* StationForOrgs(const BottleneckReport& report,
                                         const std::string& stage,
                                         const std::vector<std::string>& orgs) {
  for (const auto& st : report.stations) {  // sorted by utilization desc
    if (st.stage != stage) continue;
    for (const auto& org : orgs) {
      if (st.station.find(org) != std::string::npos) return &st;
    }
  }
  return report.ForStage(stage);
}

std::string ConflictEvidence(const BottleneckReport& report) {
  const SeriesSummary* s =
      FindSeries(report, "pipeline.mvcc_conflicts_per_s");
  if (s == nullptr || s->peak <= 0) return "";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "MVCC+phantom conflict rate peaked at %.1f/s over %s",
                s->peak,
                FormatEvidenceWindow(s->window_start, s->window_end).c_str());
  return buf;
}

}  // namespace

std::string TelemetryEvidenceFor(const Recommendation& rec,
                                 const BottleneckReport& report) {
  char buf[200];
  switch (rec.type) {
    case RecommendationType::kEndorserRestructuring:
    case RecommendationType::kSmartContractPartitioning: {
      const StationAttribution* st =
          StationForOrgs(report, station_stage::kEndorse, rec.orgs);
      if (st != nullptr) {
        return StationEvidence(*st) +
               CriticalPathEvidence(report, st->stage);
      }
      break;
    }
    case RecommendationType::kClientResourceBoost: {
      const StationAttribution* st =
          StationForOrgs(report, station_stage::kSubmit, rec.orgs);
      if (st != nullptr) {
        return StationEvidence(*st) +
               CriticalPathEvidence(report, st->stage);
      }
      break;
    }
    case RecommendationType::kBlockSizeAdaptation: {
      const SeriesSummary* fill = FindSeries(report, "orderer.block_fill");
      const StationAttribution* orderer =
          report.ForStage(station_stage::kOrder);
      if (fill != nullptr && orderer != nullptr) {
        std::snprintf(buf, sizeof(buf),
                      "block fill mean %.2f; %s", fill->mean,
                      StationEvidence(*orderer).c_str());
        return buf + CriticalPathEvidence(report, orderer->stage);
      }
      if (orderer != nullptr) {
        return StationEvidence(*orderer) +
               CriticalPathEvidence(report, orderer->stage);
      }
      break;
    }
    case RecommendationType::kTransactionRateControl: {
      std::string conflicts = ConflictEvidence(report);
      const StationAttribution* top = report.Top();
      if (top != nullptr && !conflicts.empty()) {
        std::snprintf(buf, sizeof(buf), "%s; %s",
                      StationEvidence(*top).c_str(), conflicts.c_str());
        return buf;
      }
      if (top != nullptr) return StationEvidence(*top);
      return conflicts;
    }
    case RecommendationType::kActivityReordering:
    case RecommendationType::kProcessModelPruning:
    case RecommendationType::kDeltaWrites:
    case RecommendationType::kDataModelAlteration: {
      // Conflict-driven rules: cite the conflict-rate peak window.
      std::string conflicts = ConflictEvidence(report);
      if (!conflicts.empty()) return conflicts;
      break;
    }
  }
  // Fallback: the run's overall bottleneck, if any was attributed.
  if (!report.bottleneck_station.empty()) {
    std::snprintf(
        buf, sizeof(buf), "bottleneck %s util %.2f over %s",
        report.bottleneck_station.c_str(), report.bottleneck_utilization,
        FormatEvidenceWindow(report.window_start, report.window_end)
            .c_str());
    return buf;
  }
  return "";
}

void AttachTelemetryEvidence(std::vector<Recommendation>& recs,
                             const BottleneckReport& report) {
  for (auto& rec : recs) {
    std::string evidence = TelemetryEvidenceFor(rec, report);
    if (evidence.empty()) continue;
    if (!rec.detail.empty()) rec.detail += " — ";
    rec.detail += "observed: " + evidence;
  }
}

}  // namespace blockoptr
