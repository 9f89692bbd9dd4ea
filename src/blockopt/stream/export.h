#ifndef BLOCKOPTR_BLOCKOPT_STREAM_EXPORT_H_
#define BLOCKOPTR_BLOCKOPT_STREAM_EXPORT_H_

#include <ostream>
#include <string>

#include "blockopt/stream/stream_engine.h"
#include "common/json.h"

namespace blockoptr {

/// The engine's full machine-readable state: configuration, cumulative
/// counters, windowed series, active recommendations, the bounded event
/// log, the 32 keys with the highest exact Kfreq (failures descending,
/// then key string), conflict-window stats, and the applied
/// recommendation (if any). This becomes the "stream" section of
/// --metrics-out. Byte-deterministic for a given committed block
/// sequence.
JsonValue StreamStateJson(const StreamEngine& engine);

/// Appends the stream families to a Prometheus text exposition:
/// counters/gauges for the engine state, one gauge per series last
/// value, per-recommendation-type active gauges (labelled), and the
/// failures of the same 32 keys as StreamStateJson (key label, escaped).
void AppendStreamPrometheus(const StreamEngine& engine, std::ostream& out);

/// The "Streaming analysis" HTML report section (h2 blocks: summary,
/// active recommendations, event log, series charts). Pass the result as
/// WriteHtmlReport's extra_sections_html.
std::string StreamHtmlSection(const StreamEngine& engine);

}  // namespace blockoptr

#endif  // BLOCKOPTR_BLOCKOPT_STREAM_EXPORT_H_
