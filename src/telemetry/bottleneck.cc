#include "telemetry/bottleneck.h"

#include <algorithm>
#include <cstdio>

namespace blockoptr {

namespace {

/// Near-peak threshold for evidence windows: the longest stretch where the
/// series stays within 10% of its peak (but never below half of it, so a
/// noisy low-peak series does not produce a run-wide "window").
double EvidenceThreshold(double peak) {
  return std::max(0.5 * peak, 0.9 * peak - 1e-12);
}

}  // namespace

const StationAttribution* BottleneckReport::ForStage(
    const std::string& stage) const {
  for (const auto& st : stations) {
    if (st.stage == stage) return &st;  // stations are sorted by util desc
  }
  return nullptr;
}

std::string FormatEvidenceWindow(double start_s, double end_s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "[%.1fs,%.1fs]", start_s, end_s);
  return buf;
}

BottleneckReport ComputeBottleneckReport(
    const Telemetry& telemetry, double run_duration_s,
    const std::vector<FaultWindow>* fault_windows) {
  BottleneckReport report;

  // Queueing evidence: per-station utilization with evidence windows.
  const Sampler* sampler = telemetry.sampler();
  if (sampler != nullptr) {
    for (const auto& track : sampler->stations()) {
      StationAttribution attr;
      attr.station = track.name;
      attr.stage = track.stage;
      // Whole-run totals come from the Finalize() snapshots, not the
      // ServiceStation pointer: the simulated network is destroyed when
      // the run returns, while the telemetry stays readable.
      if (run_duration_s > 0) {
        attr.utilization = std::clamp(
            track.total_busy_s /
                (run_duration_s * static_cast<double>(track.servers)),
            0.0, 1.0);
      }
      attr.peak_utilization = track.utilization.Max();
      TimeSeries::Window w = track.utilization.LongestWindowAbove(
          EvidenceThreshold(attr.peak_utilization));
      if (w.found) {
        attr.window_start = w.start;
        attr.window_end = w.end;
      }
      attr.mean_wait_s = track.total_wait_mean_s;
      attr.mean_service_s =
          track.total_jobs
              ? track.total_busy_s / static_cast<double>(track.total_jobs)
              : 0.0;
      attr.queue_peak_s = track.queue_depth_s.Max();
      report.stations.push_back(std::move(attr));
    }
    std::sort(report.stations.begin(), report.stations.end(),
              [](const StationAttribution& a, const StationAttribution& b) {
                if (a.utilization != b.utilization) {
                  return a.utilization > b.utilization;
                }
                return a.station < b.station;
              });

    for (const auto& series : sampler->series()) {
      SeriesSummary s;
      s.name = series.name();
      s.mean = series.Mean();
      s.peak = series.Max();
      TimeSeries::Window w =
          series.LongestWindowAbove(EvidenceThreshold(s.peak));
      if (w.found) {
        s.window_start = w.start;
        s.window_end = w.end;
      }
      report.series.push_back(std::move(s));
    }
  }

  // Causal-chain evidence: the flight recorder's critical-path shares
  // partition committed latency exactly.
  double critical_wait_share = 0;
  const TxTraceRecorder* txrec = telemetry.txtrace();
  if (txrec != nullptr && txrec->summary().committed > 0) {
    const TxTraceSummary& ts = txrec->summary();
    for (int i = 0; i < kNumCriticalStages; ++i) {
      BottleneckReport::CriticalPathShare cps;
      cps.stage = CriticalStageName(i);
      cps.share = ts.StageShare(i);
      cps.wait_share = ts.stages[i].wait_share();
      report.critical_path.push_back(std::move(cps));
    }
    int dom = ts.DominantStage();
    if (dom >= 0) {
      report.critical_path_stage = CriticalStageName(dom);
      report.critical_path_share = ts.StageShare(dom);
      critical_wait_share = ts.stages[dom].wait_share();
    }
  }

  // Attribution: a saturated station wins; otherwise fall back to the
  // dominant critical-path stage (the run is latency-bound, not
  // capacity-bound).
  const StationAttribution* top = report.Top();
  if (top != nullptr && top->utilization >= kSaturationThreshold) {
    report.saturated = true;
    report.bottleneck_station = top->station;
    report.bottleneck_stage = top->stage;
    report.bottleneck_utilization = top->utilization;
    report.window_start = top->window_start;
    report.window_end = top->window_end;
  } else if (!report.critical_path_stage.empty()) {
    report.bottleneck_stage = report.critical_path_stage;
    const StationAttribution* st = report.ForStage(report.bottleneck_stage);
    if (st != nullptr) {
      report.bottleneck_station = st->station;
      report.bottleneck_utilization = st->utilization;
      report.window_start = st->window_start;
      report.window_end = st->window_end;
    }
  } else if (top != nullptr) {
    report.bottleneck_station = top->station;
    report.bottleneck_stage = top->stage;
    report.bottleneck_utilization = top->utilization;
    report.window_start = top->window_start;
    report.window_end = top->window_end;
  }

  char buf[256];
  const double top_util = top != nullptr ? top->utilization : 0.0;
  if (report.saturated) {
    std::snprintf(buf, sizeof(buf),
                  "%s saturated: utilization %.2f over %s (stage: %s)",
                  report.bottleneck_station.c_str(),
                  report.bottleneck_utilization,
                  FormatEvidenceWindow(report.window_start,
                                       report.window_end)
                      .c_str(),
                  report.bottleneck_stage.c_str());
    report.summary = buf;
    // A saturated station should also dominate the critical path; when it
    // does not, the verdict is queueing elsewhere.
    if (!report.critical_path_stage.empty()) {
      std::snprintf(buf, sizeof(buf),
                    "; critical path: %.0f%% of committed latency in '%s' "
                    "(wait share %.0f%%)",
                    100.0 * report.critical_path_share,
                    report.critical_path_stage.c_str(),
                    100.0 * critical_wait_share);
      report.summary += buf;
    }
  } else if (!report.critical_path_stage.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "no station saturated (top utilization %.2f); stage '%s' "
                  "dominates end-to-end time (%.0f%% of committed latency, "
                  "wait share %.0f%%)",
                  top_util, report.critical_path_stage.c_str(),
                  100.0 * report.critical_path_share,
                  100.0 * critical_wait_share);
    report.summary = buf;
  } else if (top != nullptr) {
    std::snprintf(buf, sizeof(buf),
                  "no station saturated (top utilization %.2f at %s)",
                  top_util, top->station.c_str());
    report.summary = buf;
  } else {
    report.summary = "no telemetry evidence recorded";
  }

  // Fault attribution: when faults were injected, the verdict names the
  // one whose active window best overlaps the bottleneck evidence window
  // (falling back to the longest window when nothing overlaps — e.g. the
  // evidence window is empty because the sampler was off).
  if (fault_windows != nullptr && !fault_windows->empty()) {
    report.faults = *fault_windows;
    const FaultWindow* cause = nullptr;
    double best_overlap = 0;
    for (const auto& f : report.faults) {
      double overlap = std::min(f.end, report.window_end) -
                       std::max(f.start, report.window_start);
      if (cause == nullptr || overlap > best_overlap) {
        cause = &f;
        best_overlap = overlap;
      }
    }
    if (best_overlap <= 0) {
      for (const auto& f : report.faults) {
        if (cause == nullptr || f.end - f.start > cause->end - cause->start) {
          cause = &f;
        }
      }
    }
    report.active_fault = cause->name;
    report.summary = "fault '" + cause->name + "' active over " +
                     FormatEvidenceWindow(cause->start, cause->end) + ": " +
                     report.summary;
  }
  return report;
}

std::string FormatBottleneckTable(const BottleneckReport& report) {
  if (report.stations.empty()) return "";
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-24s %-9s %6s %6s %10s %10s  %s\n",
                "station", "stage", "util", "peak", "wait(s)", "svc(s)",
                "evidence window");
  out += line;
  for (const auto& st : report.stations) {
    std::snprintf(line, sizeof(line),
                  "%-24s %-9s %6.3f %6.3f %10.6f %10.6f  %s\n",
                  st.station.c_str(), st.stage.c_str(), st.utilization,
                  st.peak_utilization, st.mean_wait_s, st.mean_service_s,
                  FormatEvidenceWindow(st.window_start, st.window_end)
                      .c_str());
    out += line;
  }
  return out;
}

JsonValue BottleneckToJson(const BottleneckReport& report) {
  JsonValue::Object root;
  root["saturated"] = JsonValue(report.saturated);
  root["bottleneck_station"] = JsonValue(report.bottleneck_station);
  root["bottleneck_stage"] = JsonValue(report.bottleneck_stage);
  root["bottleneck_utilization"] = JsonValue(report.bottleneck_utilization);
  root["window_start"] = JsonValue(report.window_start);
  root["window_end"] = JsonValue(report.window_end);
  root["critical_path_stage"] = JsonValue(report.critical_path_stage);
  root["critical_path_share"] = JsonValue(report.critical_path_share);
  root["active_fault"] = JsonValue(report.active_fault);
  root["summary"] = JsonValue(report.summary);

  JsonValue::Array critical_path;
  for (const auto& cps : report.critical_path) {
    JsonValue::Object entry;
    entry["stage"] = JsonValue(cps.stage);
    entry["share"] = JsonValue(cps.share);
    entry["wait_share"] = JsonValue(cps.wait_share);
    critical_path.push_back(JsonValue(std::move(entry)));
  }
  root["critical_path"] = JsonValue(std::move(critical_path));

  JsonValue::Array faults;
  for (const auto& f : report.faults) {
    JsonValue::Object entry;
    entry["name"] = JsonValue(f.name);
    entry["start"] = JsonValue(f.start);
    entry["end"] = JsonValue(f.end);
    faults.push_back(JsonValue(std::move(entry)));
  }
  root["faults"] = JsonValue(std::move(faults));

  JsonValue::Array stations;
  for (const auto& st : report.stations) {
    JsonValue::Object entry;
    entry["station"] = JsonValue(st.station);
    entry["stage"] = JsonValue(st.stage);
    entry["utilization"] = JsonValue(st.utilization);
    entry["peak_utilization"] = JsonValue(st.peak_utilization);
    entry["window_start"] = JsonValue(st.window_start);
    entry["window_end"] = JsonValue(st.window_end);
    entry["mean_wait_s"] = JsonValue(st.mean_wait_s);
    entry["mean_service_s"] = JsonValue(st.mean_service_s);
    entry["queue_peak_s"] = JsonValue(st.queue_peak_s);
    stations.push_back(JsonValue(std::move(entry)));
  }
  root["stations"] = JsonValue(std::move(stations));

  JsonValue::Array series;
  for (const auto& s : report.series) {
    JsonValue::Object entry;
    entry["name"] = JsonValue(s.name);
    entry["mean"] = JsonValue(s.mean);
    entry["peak"] = JsonValue(s.peak);
    entry["window_start"] = JsonValue(s.window_start);
    entry["window_end"] = JsonValue(s.window_end);
    series.push_back(JsonValue(std::move(entry)));
  }
  root["series"] = JsonValue(std::move(series));
  return JsonValue(std::move(root));
}

}  // namespace blockoptr
