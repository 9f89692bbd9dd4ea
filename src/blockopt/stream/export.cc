#include "blockopt/stream/export.h"

#include <cstdio>
#include <sstream>

#include "telemetry/export.h"

namespace blockoptr {

namespace {

JsonValue RecommendationJson(const Recommendation& rec) {
  JsonValue::Object o;
  o["type"] = std::string(RecommendationTypeName(rec.type));
  o["detail"] = rec.detail;
  if (!rec.activities.empty()) {
    JsonValue::Array a;
    for (const auto& s : rec.activities) a.emplace_back(s);
    o["activities"] = std::move(a);
  }
  if (!rec.keys.empty()) {
    JsonValue::Array a;
    for (const auto& s : rec.keys) a.emplace_back(s);
    o["keys"] = std::move(a);
  }
  if (!rec.orgs.empty()) {
    JsonValue::Array a;
    for (const auto& s : rec.orgs) a.emplace_back(s);
    o["orgs"] = std::move(a);
  }
  if (rec.suggested_block_count > 0) {
    o["suggested_block_count"] = static_cast<uint64_t>(
        rec.suggested_block_count);
  }
  if (rec.suggested_rate_tps > 0) {
    o["suggested_rate_tps"] = rec.suggested_rate_tps;
  }
  return JsonValue(std::move(o));
}

/// Keys listed in the hot_keys export: the top of the exact Kfreq ranking.
constexpr size_t kExportedHotKeys = 32;

std::string FmtDouble(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

}  // namespace

JsonValue StreamStateJson(const StreamEngine& engine) {
  const StreamOptions& opts = engine.options();
  JsonValue::Object root;

  JsonValue::Object config;
  config["window_s"] = opts.window_s;
  config["apply"] = opts.apply;
  config["ring_capacity"] = static_cast<uint64_t>(opts.ring_capacity);
  config["pane_rows"] = static_cast<uint64_t>(opts.pane_rows);
  config["conflict_window"] = static_cast<uint64_t>(opts.conflict_window);
  config["series_capacity"] = static_cast<uint64_t>(opts.series_capacity);
  config["max_events"] = static_cast<uint64_t>(opts.max_events);
  root["config"] = std::move(config);

  const MetricsAccumulator& acc = engine.cumulative();
  JsonValue::Object cumulative;
  cumulative["total_txs"] = acc.total_txs();
  cumulative["failed_txs"] = acc.failed_txs();
  cumulative["mvcc_failures"] = acc.mvcc_failures();
  cumulative["phantom_failures"] = acc.phantom_failures();
  cumulative["endorsement_failures"] = acc.endorsement_failures();
  cumulative["conflicts"] = acc.conflicts_detected();
  cumulative["intra_block_conflicts"] = acc.intra_block_conflicts();
  cumulative["inter_block_conflicts"] = acc.inter_block_conflicts();
  cumulative["reorderable_conflicts"] = acc.reorderable_conflicts();
  cumulative["delta_candidates"] = acc.delta_candidates();
  root["cumulative"] = std::move(cumulative);

  root["blocks_seen"] = engine.blocks_seen();
  root["entries_seen"] = engine.entries_seen();
  root["ring_overflow"] = engine.ring_overflow();
  root["evaluations"] = engine.evaluations();

  JsonValue::Object panes;
  panes["sealed"] = engine.panes_sealed();
  panes["merges"] = engine.pane_merges();
  panes["retained"] = static_cast<uint64_t>(engine.sealed_pane_count());
  panes["retained_rows"] = engine.sealed_rows();
  panes["open_rows"] = engine.open_pane_rows();
  root["panes"] = std::move(panes);

  root["applied"] = engine.applied();
  if (engine.applied()) {
    root["apply_time"] = engine.apply_time();
    root["applied_recommendation"] =
        RecommendationJson(engine.applied_recommendation());
  }

  JsonValue::Array active;
  for (const Recommendation& rec : engine.recommender().active()) {
    active.push_back(RecommendationJson(rec));
  }
  root["active_recommendations"] = std::move(active);

  JsonValue::Array events;
  for (const RecommendationEvent& event : engine.recommender().events()) {
    JsonValue::Object e;
    e["kind"] = std::string(RecommendationEventKindName(event.kind));
    e["sim_time"] = event.sim_time;
    e["window_start"] = event.window_start;
    e["window_end"] = event.window_end;
    e["recommendation"] = RecommendationJson(event.recommendation);
    events.emplace_back(std::move(e));
  }
  root["events"] = std::move(events);
  root["events_dropped"] = engine.recommender().events_dropped();

  JsonValue::Array hot;
  for (const KeyFailures& k :
       engine.cumulative().TopFailureKeys(kExportedHotKeys)) {
    JsonValue::Object h;
    h["key"] = std::string(k.key);
    h["count"] = k.failures;
    hot.emplace_back(std::move(h));
  }
  root["hot_keys"] = std::move(hot);

  JsonValue::Object graph;
  graph["nodes"] = static_cast<uint64_t>(engine.conflict_graph().size());
  graph["edges"] =
      static_cast<uint64_t>(engine.conflict_graph().EdgeCount());
  graph["capacity"] =
      static_cast<uint64_t>(engine.conflict_graph().max_nodes());
  root["conflict_window"] = std::move(graph);

  JsonValue::Object series;
  for (const TimeSeries* s : engine.AllSeries()) {
    series[s->name()] = s->ToJson();
  }
  root["series"] = std::move(series);

  return JsonValue(std::move(root));
}

void AppendStreamPrometheus(const StreamEngine& engine, std::ostream& out) {
  const auto counter = [&](const std::string& name, uint64_t v) {
    const std::string p = PrometheusMetricName(name);
    out << "# HELP " << p << ' ' << name << "\n# TYPE " << p
        << " counter\n" << p << ' ' << v << '\n';
  };
  const auto gauge = [&](const std::string& name, double v) {
    const std::string p = PrometheusMetricName(name);
    out << "# HELP " << p << ' ' << name << "\n# TYPE " << p << " gauge\n"
        << p << ' ' << FmtDouble("%.10g", v) << '\n';
  };

  const MetricsAccumulator& acc = engine.cumulative();
  counter("stream.total_txs", acc.total_txs());
  counter("stream.failed_txs", acc.failed_txs());
  counter("stream.mvcc_failures", acc.mvcc_failures());
  counter("stream.phantom_failures", acc.phantom_failures());
  counter("stream.endorsement_failures", acc.endorsement_failures());
  counter("stream.conflicts", acc.conflicts_detected());
  counter("stream.blocks_seen", engine.blocks_seen());
  counter("stream.evaluations", engine.evaluations());
  counter("stream.ring_overflow", engine.ring_overflow());
  counter("stream.panes_sealed", engine.panes_sealed());
  counter("stream.pane_merges", engine.pane_merges());
  counter("stream.events_dropped", engine.recommender().events_dropped());
  gauge("stream.applied", engine.applied() ? 1 : 0);
  gauge("stream.conflict_window_nodes",
        static_cast<double>(engine.conflict_graph().size()));
  gauge("stream.conflict_window_edges",
        static_cast<double>(engine.conflict_graph().EdgeCount()));

  // Last value of every stream series (same convention as the sampler's
  // `ts.*` gauges).
  for (const TimeSeries* s : engine.AllSeries()) {
    gauge("ts." + s->name(), s->Last());
  }

  // One labelled gauge per recommendation type: 1 while active. The
  // label set is the currently active types only, so a scrape diff shows
  // advice flips.
  {
    const std::string name = "stream.recommendation_active";
    const std::string p = PrometheusMetricName(name);
    out << "# HELP " << p << ' ' << name << "\n# TYPE " << p << " gauge\n";
    for (const Recommendation& rec : engine.recommender().active()) {
      out << p << "{type=\""
          << PrometheusEscapeLabel(
                 std::string(RecommendationTypeName(rec.type)))
          << "\"} 1\n";
    }
  }

  // The keys with the most failed transactions: one labelled gauge per
  // key (keys are workload strings — escaping is load-bearing here).
  {
    const std::string name = "stream.hot_key_failures";
    const std::string p = PrometheusMetricName(name);
    out << "# HELP " << p << ' ' << name << "\n# TYPE " << p << " gauge\n";
    for (const KeyFailures& k :
         engine.cumulative().TopFailureKeys(kExportedHotKeys)) {
      out << p << "{key=\"" << PrometheusEscapeLabel(std::string(k.key))
          << "\"} " << k.failures << '\n';
    }
  }
}

std::string StreamHtmlSection(const StreamEngine& engine) {
  std::ostringstream out;
  out << "<h2>Streaming analysis</h2>\n<table>\n";
  const auto row = [&](const std::string& k, const std::string& v) {
    out << "<tr><td>" << HtmlEscapeText(k) << "</td><td>"
        << HtmlEscapeText(v) << "</td></tr>\n";
  };
  const MetricsAccumulator& acc = engine.cumulative();
  row("window (s)", FmtDouble("%.3g", engine.options().window_s));
  row("blocks seen", std::to_string(engine.blocks_seen()));
  row("transactions seen", std::to_string(engine.entries_seen()));
  row("window evaluations", std::to_string(engine.evaluations()));
  row("panes sealed / merges",
      std::to_string(engine.panes_sealed()) + " / " +
          std::to_string(engine.pane_merges()));
  row("failed transactions", std::to_string(acc.failed_txs()));
  row("conflicts detected", std::to_string(acc.conflicts_detected()));
  row("conflict window (nodes/edges)",
      std::to_string(engine.conflict_graph().size()) + " / " +
          std::to_string(engine.conflict_graph().EdgeCount()));
  if (engine.applied()) {
    row("applied mid-run",
        std::string(RecommendationTypeName(
            engine.applied_recommendation().type)) +
            " at t=" + FmtDouble("%.3f", engine.apply_time()) + "s");
  }
  out << "</table>\n";

  const auto& active = engine.recommender().active();
  if (!active.empty()) {
    out << "<h2>Active recommendations (last window)</h2>\n"
           "<table>\n<tr><th>type</th><th>detail</th></tr>\n";
    for (const Recommendation& rec : active) {
      out << "<tr><td>"
          << HtmlEscapeText(std::string(RecommendationTypeName(rec.type)))
          << "</td><td>" << HtmlEscapeText(rec.detail) << "</td></tr>\n";
    }
    out << "</table>\n";
  }

  const auto& events = engine.recommender().events();
  if (!events.empty()) {
    out << "<h2>Recommendation events</h2>\n"
           "<table>\n<tr><th>t (s)</th><th>kind</th><th>type</th>"
           "<th>evidence window</th></tr>\n";
    for (const RecommendationEvent& event : events) {
      out << "<tr><td>" << FmtDouble("%.3f", event.sim_time) << "</td><td>"
          << HtmlEscapeText(
                 std::string(RecommendationEventKindName(event.kind)))
          << "</td><td>"
          << HtmlEscapeText(std::string(
                 RecommendationTypeName(event.recommendation.type)))
          << "</td><td>[" << FmtDouble("%.3f", event.window_start) << ", "
          << FmtDouble("%.3f", event.window_end) << "]</td></tr>\n";
    }
    out << "</table>\n";
  }

  out << "<h2>Stream time series</h2>\n";
  for (const TimeSeries* s : engine.AllSeries()) {
    WriteTimeSeriesChart(out, s->name(), *s);
  }
  return out.str();
}

}  // namespace blockoptr
