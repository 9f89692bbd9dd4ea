#include "telemetry/export.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>

namespace blockoptr {

namespace {

std::string PromDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// HELP text per family: the original (unsanitized) series name, escaped
/// per the exposition format (backslash and newline).
std::string PromHelpText(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void PromFamilyHeader(std::ostream& out, const std::string& prom_name,
                      const std::string& original_name, const char* type) {
  out << "# HELP " << prom_name << ' ' << PromHelpText(original_name)
      << '\n';
  out << "# TYPE " << prom_name << ' ' << type << '\n';
}

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

}  // namespace

std::string PrometheusMetricName(const std::string& name) {
  std::string out = "blockoptr_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string PrometheusEscapeLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string HtmlEscapeText(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void WriteTimeSeriesChart(std::ostream& out, const std::string& caption,
                          const TimeSeries& series) {
  constexpr double kW = 640, kH = 120, kPadL = 56, kPadR = 10, kPadT = 8,
                   kPadB = 20;
  out << "<figure><figcaption>" << HtmlEscapeText(caption)
      << "</figcaption>";
  const auto& pts = series.points();
  if (pts.empty()) {
    out << "<p class=\"empty\">(no samples)</p></figure>\n";
    return;
  }
  double t0 = pts.front().t, t1 = pts.back().t;
  double vmin = pts.front().v, vmax = pts.front().v;
  for (const auto& p : pts) {
    vmin = std::min(vmin, p.v);
    vmax = std::max(vmax, p.v);
  }
  if (vmax - vmin < 1e-12) {  // flat series: pad the range so it centers
    vmax = vmin + (vmin == 0 ? 1.0 : std::abs(vmin) * 0.5 + 1e-9);
    vmin = vmin - (vmax - vmin);
  }
  double tspan = std::max(t1 - t0, 1e-12);
  out << "<svg viewBox=\"0 0 " << kW << " " << kH
      << "\" width=\"" << kW << "\" height=\"" << kH
      << "\" role=\"img\">";
  // Frame + y extremes + x extremes.
  out << "<rect x=\"" << kPadL << "\" y=\"" << kPadT << "\" width=\""
      << (kW - kPadL - kPadR) << "\" height=\"" << (kH - kPadT - kPadB)
      << "\" class=\"frame\"/>";
  out << "<text x=\"" << (kPadL - 4) << "\" y=\"" << (kPadT + 10)
      << "\" class=\"ylab\">" << Fmt("%.4g", vmax) << "</text>";
  out << "<text x=\"" << (kPadL - 4) << "\" y=\"" << (kH - kPadB)
      << "\" class=\"ylab\">" << Fmt("%.4g", vmin) << "</text>";
  out << "<text x=\"" << kPadL << "\" y=\"" << (kH - 6)
      << "\" class=\"xlab\">" << Fmt("%.1fs", t0) << "</text>";
  out << "<text x=\"" << (kW - kPadR) << "\" y=\"" << (kH - 6)
      << "\" class=\"xlab xend\">" << Fmt("%.1fs", t1) << "</text>";
  out << "<polyline class=\"line\" points=\"";
  for (size_t i = 0; i < pts.size(); ++i) {
    double x = kPadL + (pts[i].t - t0) / tspan * (kW - kPadL - kPadR);
    double y = kPadT +
               (1.0 - (pts[i].v - vmin) / (vmax - vmin)) *
                   (kH - kPadT - kPadB);
    if (i) out << ' ';
    out << Fmt("%.2f", x) << ',' << Fmt("%.2f", y);
  }
  out << "\"/></svg></figure>\n";
}

void WritePrometheusText(const Telemetry& telemetry, std::ostream& out,
                         const std::string& channel) {
  // With a channel set, every sample line carries {channel="..."}; the
  // empty default emits exactly the historical unlabeled format.
  const std::string label =
      channel.empty()
          ? std::string()
          : "{channel=\"" + PrometheusEscapeLabel(channel) + "\"}";
  const std::string bucket_prefix =
      channel.empty()
          ? std::string("{")
          : "{channel=\"" + PrometheusEscapeLabel(channel) + "\",";
  const MetricsRegistry& metrics = telemetry.metrics();
  for (const auto& [name, c] : metrics.counters()) {
    std::string p = PrometheusMetricName(name);
    PromFamilyHeader(out, p, name, "counter");
    out << p << label << ' ' << c.value() << '\n';
  }
  for (const auto& [name, g] : metrics.gauges()) {
    std::string p = PrometheusMetricName(name);
    PromFamilyHeader(out, p, name, "gauge");
    out << p << label << ' ' << PromDouble(g.value()) << '\n';
  }
  for (const auto& [name, h] : metrics.histograms()) {
    std::string p = PrometheusMetricName(name);
    PromFamilyHeader(out, p, name, "histogram");
    uint64_t cumulative = 0;
    const auto& counts = h.bucket_counts();
    for (size_t i = 0; i < h.bounds().size(); ++i) {
      cumulative += counts[i];
      out << p << "_bucket" << bucket_prefix << "le=\""
          << PrometheusEscapeLabel(PromDouble(h.bounds()[i])) << "\"} "
          << cumulative << '\n';
    }
    out << p << "_bucket" << bucket_prefix << "le=\"+Inf\"} " << h.count()
        << '\n';
    out << p << "_sum" << label << ' ' << PromDouble(h.sum()) << '\n';
    out << p << "_count" << label << ' ' << h.count() << '\n';
  }
  const Sampler* sampler = telemetry.sampler();
  if (sampler != nullptr) {
    // Last sampled value of every series, exposed as gauges so a scrape of
    // the finished run still carries the continuous-monitoring signals.
    for (const auto& s : sampler->series()) {
      const std::string name = "ts." + s.name();
      std::string p = PrometheusMetricName(name);
      PromFamilyHeader(out, p, name, "gauge");
      out << p << label << ' ' << PromDouble(s.Last()) << '\n';
    }
    for (const auto& tr : sampler->stations()) {
      const TimeSeries* tracks[] = {&tr.utilization, &tr.queue_depth_s,
                                    &tr.wait_mean_s, &tr.service_mean_s};
      for (const TimeSeries* series : tracks) {
        const std::string name = "station." + tr.name + "." + series->name();
        std::string p = PrometheusMetricName(name);
        PromFamilyHeader(out, p, name, "gauge");
        out << p << label << ' ' << PromDouble(series->Last()) << '\n';
      }
    }
  }
  const TxTraceRecorder* txtrace = telemetry.txtrace();
  if (txtrace == nullptr) return;
  const TxTraceSummary& ts = txtrace->summary();
  const struct { const char* name; uint64_t value; } counters_out[] = {
      {"txtrace.committed", ts.committed},
      {"txtrace.aborted", ts.aborted},
      {"txtrace.events_appended", ts.events_appended},
      {"txtrace.events_evicted", ts.events_evicted},
      {"txtrace.truncated_chains", ts.truncated_chains},
  };
  for (const auto& c : counters_out) {
    std::string p = PrometheusMetricName(std::string(c.name) + "_total");
    PromFamilyHeader(out, p, c.name, "counter");
    out << p << label << ' ' << c.value << '\n';
  }
  // Per-stage critical-path shares: the causal-chain partition of total
  // committed latency (shares sum to ~1), plus each stage's queueing share.
  const std::string share_name = PrometheusMetricName("txtrace.stage_share");
  PromFamilyHeader(out, share_name, "txtrace.stage_share", "gauge");
  for (int i = 0; i < kNumCriticalStages; ++i) {
    out << share_name << bucket_prefix << "stage=\""
        << CriticalStageName(i) << "\"} " << PromDouble(ts.StageShare(i))
        << '\n';
  }
  const std::string wait_name =
      PrometheusMetricName("txtrace.stage_wait_share");
  PromFamilyHeader(out, wait_name, "txtrace.stage_wait_share", "gauge");
  for (int i = 0; i < kNumCriticalStages; ++i) {
    out << wait_name << bucket_prefix << "stage=\"" << CriticalStageName(i)
        << "\"} " << PromDouble(ts.stages[i].wait_share()) << '\n';
  }
}

namespace {

JsonValue StagePathAggJson(const StagePathAgg* stages, double latency_total) {
  JsonValue::Array arr;
  for (int i = 0; i < kNumCriticalStages; ++i) {
    JsonValue::Object entry;
    entry["stage"] = JsonValue(CriticalStageName(i));
    entry["span_s"] = JsonValue(stages[i].span_s);
    entry["service_s"] = JsonValue(stages[i].service_s);
    entry["wait_s"] = JsonValue(stages[i].wait_s);
    entry["wait_share"] = JsonValue(stages[i].wait_share());
    entry["share"] = JsonValue(
        latency_total > 0 ? stages[i].span_s / latency_total : 0.0);
    entry["count"] = JsonValue(stages[i].count);
    arr.push_back(JsonValue(std::move(entry)));
  }
  return JsonValue(std::move(arr));
}

JsonValue ExemplarJson(const TxTraceExemplar& ex) {
  JsonValue::Object entry;
  entry["tx_id"] = JsonValue(ex.tx_id);
  entry["label"] = JsonValue(ex.label);
  entry["latency_s"] = JsonValue(ex.latency_s);
  entry["truncated"] = JsonValue(ex.truncated);
  entry["nearest"] = JsonValue(ex.nearest);
  entry["events"] = JsonValue(static_cast<uint64_t>(ex.events.size()));
  JsonValue::Array stages;
  for (int i = 0; i < kNumCriticalStages; ++i) {
    JsonValue::Object s;
    s["stage"] = JsonValue(CriticalStageName(i));
    s["span_s"] = JsonValue(ex.stage_span_s[i]);
    s["service_s"] = JsonValue(ex.stage_service_s[i]);
    s["wait_s"] = JsonValue(ex.stage_wait_s[i]);
    s["share"] = JsonValue(ex.StageShare(i));
    stages.push_back(JsonValue(std::move(s)));
  }
  entry["stages"] = JsonValue(std::move(stages));
  return JsonValue(std::move(entry));
}

}  // namespace

JsonValue TxTraceSummaryJson(const TxTraceSummary& summary) {
  JsonValue::Object root;
  root["committed"] = JsonValue(summary.committed);
  root["aborted"] = JsonValue(summary.aborted);
  root["events_appended"] = JsonValue(summary.events_appended);
  root["events_evicted"] = JsonValue(summary.events_evicted);
  root["truncated_chains"] = JsonValue(summary.truncated_chains);
  root["latency_total_s"] = JsonValue(summary.latency_total_s);
  root["stages"] = StagePathAggJson(summary.stages, summary.latency_total_s);

  JsonValue::Array windows;
  for (const auto& w : summary.windows) {
    JsonValue::Object entry;
    entry["start_s"] = JsonValue(w.start_s);
    entry["end_s"] = JsonValue(w.end_s);
    entry["committed"] = JsonValue(w.committed);
    entry["aborted"] = JsonValue(w.aborted);
    entry["dropped_chains"] = JsonValue(w.dropped_chains);
    entry["p50_s"] = JsonValue(w.p50_s);
    entry["p95_s"] = JsonValue(w.p95_s);
    entry["p99_s"] = JsonValue(w.p99_s);
    entry["max_s"] = JsonValue(w.max_s);
    double window_latency = 0;
    for (int i = 0; i < kNumCriticalStages; ++i) {
      window_latency += w.stages[i].span_s;
    }
    entry["stages"] = StagePathAggJson(w.stages, window_latency);
    JsonValue::Array exemplars;
    for (const auto& ex : w.exemplars) exemplars.push_back(ExemplarJson(ex));
    for (const auto& ex : w.abort_exemplars) {
      exemplars.push_back(ExemplarJson(ex));
    }
    entry["exemplars"] = JsonValue(std::move(exemplars));
    windows.push_back(JsonValue(std::move(entry)));
  }
  root["windows"] = JsonValue(std::move(windows));
  return JsonValue(std::move(root));
}

namespace {

constexpr double kMicros = 1e6;  // trace microseconds per virtual second

/// One lifecycle event as a Chrome-trace slice on process `pid`, thread =
/// transaction id. Service time renders as the slice body ending at the
/// transition instant; zero-cost transitions become instants.
JsonValue EventSlice(const TxTraceEvent& ev, int pid) {
  const double dur = static_cast<double>(ev.dur);
  JsonValue::Object slice;
  slice["ph"] = JsonValue(dur > 0 ? "X" : "i");
  slice["name"] = JsonValue(TxStageName(ev.stage));
  slice["cat"] = JsonValue("txtrace");
  slice["pid"] = JsonValue(pid);
  slice["tid"] = JsonValue(ev.tx_id);
  slice["ts"] = JsonValue((ev.t - dur) * kMicros);
  if (dur > 0) slice["dur"] = JsonValue(dur * kMicros);
  if (dur <= 0) slice["s"] = JsonValue("t");  // instant scope
  JsonValue::Object args;
  args["tx_id"] = JsonValue(ev.tx_id);
  args["actor"] = JsonValue(static_cast<uint64_t>(ev.actor));
  args["block_seq"] = JsonValue(static_cast<uint64_t>(ev.block_seq));
  if (ev.flags & TxTraceEvent::kTruncated) {
    args["truncated"] = JsonValue(true);
  }
  if (ev.flags & TxTraceEvent::kFailed) {
    args["failed"] = JsonValue(true);
  }
  slice["args"] = JsonValue(std::move(args));
  return JsonValue(std::move(slice));
}

/// A process_name metadata event naming process `pid`.
JsonValue ProcessName(int pid, std::string name) {
  JsonValue::Object meta;
  meta["ph"] = JsonValue("M");
  meta["name"] = JsonValue("process_name");
  meta["pid"] = JsonValue(pid);
  JsonValue::Object args;
  args["name"] = JsonValue(std::move(name));
  meta["args"] = JsonValue(std::move(args));
  return JsonValue(std::move(meta));
}

/// The simulated component an event happened on, from its stage and
/// actor: the client (by index), an org's endorser or validator, the
/// orderer, the Raft cluster, or the ledger.
std::string EventComponent(const TxTraceEvent& ev) {
  const std::string actor = std::to_string(ev.actor);
  switch (ev.stage) {
    case TxStage::kSubmit:
    case TxStage::kProposalDone:
    case TxStage::kCollect:
    case TxStage::kAssembleDone:
    case TxStage::kEarlyAbort:
      return "client/" + actor;
    case TxStage::kEndorseStart:
    case TxStage::kEndorseDone:
    case TxStage::kEndorseRefused:
      return "peer/Org" + actor + "/endorser";
    case TxStage::kValidateStart:
    case TxStage::kValidateDone:
      return "peer/Org" + actor + "/validator";
    case TxStage::kOrdererEnqueue:
    case TxStage::kBlockCut:
      return "orderer";
    case TxStage::kRaftPropose:
    case TxStage::kRaftReplicate:
    case TxStage::kRaftCommit:
      return "orderer/raft";
    case TxStage::kCommit:
      return "ledger";
  }
  return "unknown";
}

}  // namespace

void WriteTxTraceRingChromeTrace(const TxTraceRecorder& recorder,
                                 std::ostream& out) {
  // A run-sized ring holds millions of events, so the document is
  // streamed one event at a time (the bytes of the equivalent JsonValue's
  // compact dump): components become processes in first-seen order, and
  // their metadata events lead the slices.
  std::map<std::string, int> pids;
  const char* sep = "";
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  recorder.ForEachRetained([&](uint64_t, const TxTraceEvent& ev) {
    std::string component = EventComponent(ev);
    auto [it, added] =
        pids.emplace(component, static_cast<int>(pids.size()) + 1);
    if (!added) return;
    out << sep << ProcessName(it->second, std::move(component)).Dump();
    sep = ",";
  });
  recorder.ForEachRetained([&](uint64_t, const TxTraceEvent& ev) {
    out << sep << EventSlice(ev, pids.at(EventComponent(ev))).Dump();
    sep = ",";
  });
  out << "]}";
}

void WriteTxTraceRingCsv(const TxTraceRecorder& recorder, std::ostream& out) {
  out << "seq,tx_id,stage,t_s,dur_s,actor,block_seq,flags\n";
  char line[160];
  recorder.ForEachRetained([&](uint64_t seq, const TxTraceEvent& ev) {
    std::snprintf(line, sizeof(line), "%llu,%llu,%s,%.9f,%.9f,%u,%u,%u\n",
                  static_cast<unsigned long long>(seq),
                  static_cast<unsigned long long>(ev.tx_id),
                  TxStageName(ev.stage), ev.t, static_cast<double>(ev.dur),
                  static_cast<unsigned>(ev.actor), ev.block_seq,
                  static_cast<unsigned>(ev.flags));
    out << line;
  });
}

void WriteTxTraceChromeTrace(const TxTraceSummary& summary,
                             std::ostream& out) {
  JsonValue::Array events;
  int pid = 0;
  char buf[160];
  for (size_t wi = 0; wi < summary.windows.size(); ++wi) {
    const TxTraceWindow& w = summary.windows[wi];
    const std::vector<TxTraceExemplar>* groups[] = {&w.exemplars,
                                                    &w.abort_exemplars};
    for (const auto* group : groups) {
      for (const auto& ex : *group) {
        ++pid;
        std::snprintf(buf, sizeof(buf),
                      "w%zu [%.1fs,%.1fs) %s tx=%llu lat=%.4fs%s%s", wi,
                      w.start_s, w.end_s, ex.label.c_str(),
                      static_cast<unsigned long long>(ex.tx_id),
                      ex.latency_s, ex.truncated ? " truncated" : "",
                      ex.nearest ? " nearest" : "");
        events.push_back(ProcessName(pid, buf));

        for (size_t i = 0; i < ex.events.size(); ++i) {
          const TxTraceEvent& ev = ex.events[i];
          events.push_back(EventSlice(ev, pid));

          // Flow arrows thread the causal chain through the exemplar:
          // "s" starts at the first event, "t" steps through the rest,
          // "f" closes at the terminal commit/abort.
          JsonValue::Object flow;
          flow["ph"] = JsonValue(i == 0 ? "s"
                                 : i + 1 == ex.events.size() ? "f" : "t");
          if (i + 1 == ex.events.size()) flow["bp"] = JsonValue("e");
          flow["id"] = JsonValue(pid);
          flow["name"] = JsonValue("txchain");
          flow["cat"] = JsonValue("txtrace");
          flow["pid"] = JsonValue(pid);
          flow["tid"] = JsonValue(ev.tx_id);
          flow["ts"] = JsonValue(ev.t * kMicros);
          events.push_back(JsonValue(std::move(flow)));
        }
      }
    }
  }
  JsonValue::Object root;
  root["traceEvents"] = JsonValue(std::move(events));
  root["displayTimeUnit"] = JsonValue("ms");
  out << JsonValue(std::move(root)).Dump();
}

JsonValue TelemetrySnapshotJson(const Telemetry& telemetry,
                                const BottleneckReport* bottleneck) {
  JsonValue root = telemetry.metrics().SnapshotJson();
  JsonValue::Object& obj = root.as_object();
  if (const Sampler* sampler = telemetry.sampler()) {
    obj["timeseries"] = sampler->ToJson();
  }
  if (const TxTraceRecorder* txtrace = telemetry.txtrace()) {
    obj["txtrace"] = TxTraceSummaryJson(txtrace->summary());
  }
  if (bottleneck != nullptr) {
    obj["bottleneck"] = BottleneckToJson(*bottleneck);
  }
  return root;
}

namespace {

constexpr const char* kCriticalPathColumns[] = {
    "stage", "share", "wait share", "span (s)", "service (s)", "wait (s)"};

/// Stage i's row of the critical-path table, one cell per column.
std::array<std::string, 6> CriticalPathCells(const TxTraceSummary& ts,
                                             int i) {
  return {CriticalStageName(i),
          Fmt("%.1f%%", 100.0 * ts.StageShare(i)),
          Fmt("%.1f%%", 100.0 * ts.stages[i].wait_share()),
          Fmt("%.4f", ts.stages[i].span_s),
          Fmt("%.4f", ts.stages[i].service_s),
          Fmt("%.4f", ts.stages[i].wait_s)};
}

}  // namespace

std::string FormatCriticalPathTable(const TxTraceSummary& summary) {
  if (summary.committed == 0) return "";
  std::string out;
  char line[160];
  const char* const* h = kCriticalPathColumns;
  std::snprintf(line, sizeof(line), "%-9s %7s %11s %12s %12s %12s\n", h[0],
                h[1], h[2], h[3], h[4], h[5]);
  out += line;
  for (int i = 0; i < kNumCriticalStages; ++i) {
    const auto c = CriticalPathCells(summary, i);
    std::snprintf(line, sizeof(line), "%-9s %7s %11s %12s %12s %12s\n",
                  c[0].c_str(), c[1].c_str(), c[2].c_str(), c[3].c_str(),
                  c[4].c_str(), c[5].c_str());
    out += line;
  }
  return out;
}

namespace {

/// One exemplar's critical-path waterfall: one row per stage at its
/// cumulative offset within the transaction's latency. The light bar is
/// the stage's span on the causal chain; the dark overlay is its modelled
/// service time (the remainder is queueing + network wait).
void WriteExemplarWaterfall(std::ostream& out, const TxTraceExemplar& ex) {
  constexpr double kW = 640, kRowH = 16, kPadL = 76, kPadR = 10, kPadT = 4,
                   kPadB = 16;
  const double kHeight = kPadT + kPadB + kRowH * kNumCriticalStages;
  char cap[160];
  std::snprintf(cap, sizeof(cap),
                "%s \xc2\xb7 tx %llu \xc2\xb7 %.4fs%s%s", ex.label.c_str(),
                static_cast<unsigned long long>(ex.tx_id), ex.latency_s,
                ex.truncated ? " \xc2\xb7 truncated" : "",
                ex.nearest ? " \xc2\xb7 nearest" : "");
  out << "<figure class=\"waterfall\"><figcaption>" << HtmlEscapeText(cap)
      << "</figcaption>";
  const double total = ex.latency_s;
  if (total <= 0) {
    out << "<p class=\"empty\">(zero-latency exemplar)</p></figure>\n";
    return;
  }
  out << "<svg viewBox=\"0 0 " << kW << " " << kHeight << "\" width=\""
      << kW << "\" height=\"" << kHeight << "\" role=\"img\">";
  const double plot_w = kW - kPadL - kPadR;
  double cum = 0;
  for (int i = 0; i < kNumCriticalStages; ++i) {
    double y = kPadT + kRowH * i;
    double x = kPadL + cum / total * plot_w;
    double span_w = ex.stage_span_s[i] / total * plot_w;
    double svc = std::min(ex.stage_service_s[i], ex.stage_span_s[i]);
    double svc_w = svc / total * plot_w;
    out << "<text x=\"" << (kPadL - 4) << "\" y=\"" << Fmt("%.1f", y + 12)
        << "\" class=\"wlab\">" << CriticalStageName(i) << "</text>";
    out << "<rect x=\"" << Fmt("%.2f", x) << "\" y=\"" << Fmt("%.1f", y + 2)
        << "\" width=\"" << Fmt("%.2f", span_w)
        << "\" height=\"12\" class=\"wait\"/>";
    if (svc_w > 0) {
      out << "<rect x=\"" << Fmt("%.2f", x) << "\" y=\""
          << Fmt("%.1f", y + 2) << "\" width=\"" << Fmt("%.2f", svc_w)
          << "\" height=\"12\" class=\"svc\"/>";
    }
    out << "<text x=\"" << Fmt("%.2f", x + span_w + 4) << "\" y=\""
        << Fmt("%.1f", y + 12) << "\" class=\"wshare\">"
        << Fmt("%.0f%%", 100.0 * ex.StageShare(i)) << "</text>";
    cum += ex.stage_span_s[i];
  }
  out << "<text x=\"" << kPadL << "\" y=\"" << Fmt("%.1f", kHeight - 4)
      << "\" class=\"xlab\">0s</text>";
  out << "<text x=\"" << (kW - kPadR) << "\" y=\""
      << Fmt("%.1f", kHeight - 4) << "\" class=\"xlab xend\">"
      << Fmt("%.4fs", total) << "</text>";
  out << "</svg></figure>\n";
}

}  // namespace

void WriteHtmlReport(std::ostream& out, const std::string& title,
                     const HtmlSummaryRows& summary,
                     const Telemetry& telemetry,
                     const BottleneckReport& bottleneck,
                     const std::string& extra_sections_html) {
  out << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
         "<meta charset=\"utf-8\">\n<title>"
      << HtmlEscapeText(title)
      << "</title>\n<style>\n"
         "body{font:14px/1.45 system-ui,sans-serif;margin:24px;"
         "color:#1f2937;max-width:760px}\n"
         "h1{font-size:20px}h2{font-size:16px;margin-top:28px}\n"
         "table{border-collapse:collapse;margin:8px 0}\n"
         "th,td{border:1px solid #d1d5db;padding:3px 8px;text-align:right}\n"
         "th:first-child,td:first-child{text-align:left}\n"
         "figure{margin:12px 0}\n"
         "figcaption{font-size:12px;color:#6b7280;margin-bottom:2px}\n"
         ".frame{fill:none;stroke:#e5e7eb}\n"
         ".line{fill:none;stroke:#2563eb;stroke-width:1.5}\n"
         ".ylab{font-size:10px;fill:#6b7280;text-anchor:end}\n"
         ".xlab{font-size:10px;fill:#6b7280}\n"
         ".xend{text-anchor:end}\n"
         ".verdict{background:#eff6ff;border:1px solid #bfdbfe;"
         "padding:8px 12px;border-radius:4px}\n"
         ".empty{color:#9ca3af;font-size:12px}\n"
         ".wait{fill:#bfdbfe}\n"
         ".svc{fill:#2563eb}\n"
         ".wlab{font-size:10px;fill:#374151;text-anchor:end}\n"
         ".wshare{font-size:10px;fill:#6b7280}\n"
         "</style>\n</head>\n<body>\n<h1>"
      << HtmlEscapeText(title) << "</h1>\n";

  if (!summary.empty()) {
    out << "<h2>Run summary</h2>\n<table>\n";
    for (const auto& [key, value] : summary) {
      out << "<tr><td>" << HtmlEscapeText(key) << "</td><td>"
          << HtmlEscapeText(value) << "</td></tr>\n";
    }
    out << "</table>\n";
  }

  out << "<h2>Bottleneck attribution</h2>\n<p class=\"verdict\">"
      << HtmlEscapeText(bottleneck.summary) << "</p>\n";
  if (!bottleneck.stations.empty()) {
    out << "<table>\n<tr><th>station</th><th>stage</th><th>util</th>"
           "<th>peak</th><th>wait mean (s)</th><th>service mean (s)</th>"
           "<th>queue peak (s)</th><th>evidence window</th></tr>\n";
    for (const auto& st : bottleneck.stations) {
      out << "<tr><td>" << HtmlEscapeText(st.station) << "</td><td>"
          << HtmlEscapeText(st.stage) << "</td><td>"
          << Fmt("%.3f", st.utilization) << "</td><td>"
          << Fmt("%.3f", st.peak_utilization) << "</td><td>"
          << Fmt("%.6f", st.mean_wait_s) << "</td><td>"
          << Fmt("%.6f", st.mean_service_s) << "</td><td>"
          << Fmt("%.4f", st.queue_peak_s) << "</td><td>"
          << HtmlEscapeText(
                 FormatEvidenceWindow(st.window_start, st.window_end))
          << "</td></tr>\n";
    }
    out << "</table>\n";
  }

  const TxTraceRecorder* txtrace = telemetry.txtrace();
  if (txtrace != nullptr) {
    const TxTraceSummary& ts = txtrace->summary();
    out << "<h2>Critical path (flight recorder)</h2>\n";
    if (ts.committed > 0) {
      out << "<table>\n<tr>";
      for (const char* heading : kCriticalPathColumns) {
        out << "<th>" << heading << "</th>";
      }
      out << "</tr>\n";
      for (int i = 0; i < kNumCriticalStages; ++i) {
        out << "<tr>";
        for (const std::string& cell : CriticalPathCells(ts, i)) {
          out << "<td>" << cell << "</td>";
        }
        out << "</tr>\n";
      }
      out << "</table>\n";
      out << "<h2>Tail-latency exemplars</h2>\n";
      for (const auto& w : ts.windows) {
        char head[200];
        std::snprintf(head, sizeof(head),
                      "window [%.1fs,%.1fs): %llu committed, %llu aborted "
                      "— p50 %.4fs, p95 %.4fs, p99 %.4fs, max %.4fs",
                      w.start_s, w.end_s,
                      static_cast<unsigned long long>(w.committed),
                      static_cast<unsigned long long>(w.aborted), w.p50_s,
                      w.p95_s, w.p99_s, w.max_s);
        out << "<h3>" << HtmlEscapeText(head) << "</h3>\n";
        const std::vector<TxTraceExemplar>* groups[] = {&w.exemplars,
                                                        &w.abort_exemplars};
        for (const auto* group : groups) {
          for (const auto& ex : *group) WriteExemplarWaterfall(out, ex);
        }
      }
    } else {
      out << "<p class=\"empty\">no transactions committed while the "
             "flight recorder was on</p>\n";
    }
  }

  const Sampler* sampler = telemetry.sampler();
  if (sampler != nullptr &&
      (!sampler->series().empty() || !sampler->stations().empty())) {
    out << "<h2>Time series</h2>\n";
    for (const auto& s : sampler->series()) {
      WriteTimeSeriesChart(out, s.name(), s);
    }
    for (const auto& tr : sampler->stations()) {
      const TimeSeries* tracks[] = {&tr.utilization, &tr.queue_depth_s,
                                    &tr.wait_mean_s, &tr.service_mean_s};
      for (const TimeSeries* series : tracks) {
        WriteTimeSeriesChart(out, tr.name + " \xc2\xb7 " + series->name(),
                      *series);
      }
    }
  } else {
    out << "<p class=\"empty\">sampler disabled: no time series "
           "recorded</p>\n";
  }
  out << extra_sections_html;
  out << "</body>\n</html>\n";
}

}  // namespace blockoptr
