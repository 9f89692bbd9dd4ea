#ifndef BLOCKOPTR_TELEMETRY_EXPORT_H_
#define BLOCKOPTR_TELEMETRY_EXPORT_H_

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "telemetry/bottleneck.h"
#include "telemetry/telemetry.h"

namespace blockoptr {

/// Sanitized Prometheus metric name ([a-zA-Z_:][a-zA-Z0-9_:]*) with the
/// `blockoptr_` prefix. Dots, slashes and anything else collapse to '_'.
std::string PrometheusMetricName(const std::string& name);

/// Escapes a Prometheus label value per the text exposition format:
/// backslash, double quote, and newline become `\\`, `\"`, `\n`.
std::string PrometheusEscapeLabel(const std::string& value);

/// One inline SVG line chart of a series (an empty figure when the series
/// has no samples). Shared by the HTML report and extra report sections.
void WriteTimeSeriesChart(std::ostream& out, const std::string& caption,
                          const TimeSeries& series);

/// HTML entity escaping (&, <, >, ") for report text.
std::string HtmlEscapeText(const std::string& s);

/// Prometheus text exposition of the run's metrics: counters, gauges, and
/// histograms (cumulative `_bucket{le=...}` / `_sum` / `_count` form),
/// plus the last sampled value of every sampler series as a gauge. Names
/// are prefixed `blockoptr_` and sanitized to the Prometheus charset.
/// Byte-deterministic: registry maps are ordered and sampler order is
/// registration order. A non-empty `channel` stamps every sample line with
/// a `channel="..."` label (multi-channel runs concatenate one exposition
/// per channel); the default empty channel emits no label at all, keeping
/// single-channel output byte-identical to the unlabeled format.
void WritePrometheusText(const Telemetry& telemetry, std::ostream& out,
                         const std::string& channel = std::string());

/// The run's full machine-readable snapshot: the MetricsRegistry snapshot
/// (counters/gauges/histograms) extended with a "timeseries" section
/// (sampler series + station tracks), a "txtrace" section when the flight
/// recorder ran, and, when given, a "bottleneck" section. This is what
/// `--metrics-out` writes.
JsonValue TelemetrySnapshotJson(const Telemetry& telemetry,
                                const BottleneckReport* bottleneck = nullptr);

/// Machine-readable flight-recorder summary: run-level critical-path
/// aggregates plus per-window quantiles, per-stage shares, and exemplar
/// descriptors (full event chains travel in the Chrome trace, not here).
JsonValue TxTraceSummaryJson(const TxTraceSummary& summary);

/// Chrome-trace (chrome://tracing / Perfetto) export of every retained
/// tail-latency exemplar: one process per exemplar, one slice per
/// lifecycle event (service time as the slice duration), with flow arrows
/// threading each causal chain submit -> ... -> commit. This is what
/// `--txtrace-out` writes. Byte-deterministic for a given run.
void WriteTxTraceChromeTrace(const TxTraceSummary& summary,
                             std::ostream& out);

/// Chrome-trace export of every event still in the recorder's ring, oldest
/// first: one slice per event (drawn like WriteTxTraceChromeTrace's), one
/// process per simulated component (client, endorser, orderer, Raft,
/// validator, ledger; worked out from the event's stage and actor), thread
/// = transaction id. This is what `--trace-out` writes.
void WriteTxTraceRingChromeTrace(const TxTraceRecorder& recorder,
                                 std::ostream& out);

/// CSV dump of the recorder's ring, oldest first: a
/// `seq,tx_id,stage,t_s,dur_s,actor,block_seq,flags` header, then one row
/// per retained event. This is what `--trace-csv` writes.
void WriteTxTraceRingCsv(const TxTraceRecorder& recorder, std::ostream& out);

/// Fixed-width critical-path table: one row per stage with its share of
/// committed latency, wait share, and span/service/wait seconds (the HTML
/// report's columns). "" when nothing committed.
std::string FormatCriticalPathTable(const TxTraceSummary& summary);

/// Key/value rows rendered at the top of the HTML report (throughput,
/// success rate, ...).
using HtmlSummaryRows = std::vector<std::pair<std::string, std::string>>;

/// A self-contained single-file HTML report: run summary, bottleneck
/// attribution (summary sentence + station table), the critical-path table
/// and tail-latency waterfalls when the flight recorder ran, and one
/// inline SVG chart per sampled series (pipeline series first, then every
/// station's utilization / queue-depth / wait / service series). No
/// external assets, no scripts; byte-deterministic for a given run.
/// `extra_sections_html` (pre-escaped HTML, e.g. the streaming-analysis
/// section) is appended verbatim before </body>.
void WriteHtmlReport(std::ostream& out, const std::string& title,
                     const HtmlSummaryRows& summary,
                     const Telemetry& telemetry,
                     const BottleneckReport& bottleneck,
                     const std::string& extra_sections_html = std::string());

}  // namespace blockoptr

#endif  // BLOCKOPTR_TELEMETRY_EXPORT_H_
