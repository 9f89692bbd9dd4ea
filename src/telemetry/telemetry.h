#ifndef BLOCKOPTR_TELEMETRY_TELEMETRY_H_
#define BLOCKOPTR_TELEMETRY_TELEMETRY_H_

#include <cstddef>
#include <memory>

#include "telemetry/metrics.h"
#include "telemetry/sampler.h"
#include "telemetry/txtrace.h"

namespace blockoptr {

/// Which aspects of a telemetry-enabled run are recorded. The aspects are
/// independent so high-frequency runs can keep the cheap continuous
/// sampler while shedding the per-transaction costs:
///   - txtrace:       the per-transaction flight recorder: packed
///                    lifecycle events in a fixed ring, with critical-path
///                    extraction and tail-latency exemplars. Every trace
///                    export (--trace-out, --trace-csv, --txtrace-out) and
///                    the stage table derive from it.
///   - event_metrics: per-event counter/gauge updates at every pipeline
///                    touch point (map lookups by dotted name).
///   - sampling:      the continuous Sampler — one tick per period
///                    regardless of load, so its cost is O(sim-time), not
///                    O(transactions).
struct TelemetryOptions {
  bool event_metrics = true;
  /// Sampler period in virtual seconds; <= 0 disables the sampler.
  double sample_period_s = 0.5;
  /// Point capacity of each sampled TimeSeries.
  size_t series_capacity = 512;
  /// Flight-recorder knobs; `txtrace.enabled` is on by default (turning it
  /// off leaves one null check per hook and allocates nothing).
  TxTraceOptions txtrace;

  /// Continuous monitoring only: flight recorder and per-event metrics
  /// off, sampler on. The always-on low-overhead profile.
  static TelemetryOptions SamplerOnly() {
    TelemetryOptions opts;
    opts.event_metrics = false;
    opts.txtrace.enabled = false;
    return opts;
  }

  /// Flight recorder only: per-event metrics and the sampler off.
  static TelemetryOptions TxTraceOnly() {
    TelemetryOptions opts;
    opts.event_metrics = false;
    opts.sample_period_s = 0;
    return opts;
  }
};

/// Bundles the per-run observability state: one metrics registry, one
/// continuous sampler and one flight recorder, shared by every simulated
/// component of a network.
///
/// Components hold a nullable `Telemetry*` and cache per-aspect pointers
/// (`MetricsRegistry*` / `TxTraceRecorder*`, null when that aspect is
/// disabled), guarding every recording site with a null check — the
/// disabled path does no work and allocates nothing, so telemetry-off runs
/// behave exactly like the uninstrumented simulator.
class Telemetry {
 public:
  /// `sim` must outlive all recording calls (exports may happen later).
  explicit Telemetry(Simulator* sim, TelemetryOptions options = {})
      : options_(options) {
    if (options_.sample_period_s > 0) {
      sampler_ = std::make_unique<Sampler>(
          sim, SamplerConfig{options_.sample_period_s,
                             options_.series_capacity});
    }
    if (options_.txtrace.enabled) {
      txtrace_ = std::make_unique<TxTraceRecorder>(sim, options_.txtrace);
    }
  }

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// The per-aspect accessors components cache: null when disabled.
  MetricsRegistry* event_metrics() {
    return options_.event_metrics ? &metrics_ : nullptr;
  }
  /// Null when `sample_period_s <= 0`.
  Sampler* sampler() { return sampler_.get(); }
  const Sampler* sampler() const { return sampler_.get(); }
  /// Null unless `txtrace.enabled`.
  TxTraceRecorder* txtrace() { return txtrace_.get(); }
  const TxTraceRecorder* txtrace() const { return txtrace_.get(); }

 private:
  TelemetryOptions options_;
  MetricsRegistry metrics_;
  std::unique_ptr<Sampler> sampler_;
  std::unique_ptr<TxTraceRecorder> txtrace_;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_TELEMETRY_TELEMETRY_H_
