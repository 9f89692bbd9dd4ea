#ifndef BLOCKOPTR_TELEMETRY_TELEMETRY_H_
#define BLOCKOPTR_TELEMETRY_TELEMETRY_H_

#include <cstddef>
#include <memory>

#include "telemetry/metrics.h"
#include "telemetry/sampler.h"
#include "telemetry/txtrace.h"

namespace blockoptr {

/// Which aspects of a telemetry-enabled run are recorded. The two aspects
/// are independent so high-frequency runs can keep the cheap continuous
/// sampler while shedding the per-transaction cost:
///   - txtrace:  the per-transaction flight recorder: packed lifecycle
///               events in a fixed ring, with critical-path extraction and
///               tail-latency exemplars. Every trace export (--trace-out,
///               --trace-csv, --txtrace-out) and the stage table derive
///               from it.
///   - sampling: the continuous Sampler — one tick per period regardless
///               of load, so its cost is O(sim-time), not O(transactions).
/// The metrics registry is not an aspect: the driver fills it once at run
/// end from counts the run keeps anyway, so it records nothing per event.
struct TelemetryOptions {
  /// Sampler period in virtual seconds; <= 0 disables the sampler.
  double sample_period_s = 0.5;
  /// Point capacity of each sampled TimeSeries.
  size_t series_capacity = 512;
  /// Flight-recorder knobs; `txtrace.enabled` is on by default (turning it
  /// off leaves one null check per hook and allocates nothing).
  TxTraceOptions txtrace;

  /// Continuous monitoring only: flight recorder off, sampler on. The
  /// always-on low-overhead profile.
  static TelemetryOptions SamplerOnly() {
    TelemetryOptions opts;
    opts.txtrace.enabled = false;
    return opts;
  }

  /// Flight recorder only: the sampler off.
  static TelemetryOptions TxTraceOnly() {
    TelemetryOptions opts;
    opts.sample_period_s = 0;
    return opts;
  }
};

/// Bundles the per-run observability state: one metrics registry, one
/// continuous sampler and one flight recorder, for every simulated
/// component of a network.
///
/// Components are handed a nullable `Telemetry*` and cache the aspect
/// pointers they record into (null when that aspect is disabled), guarding
/// every recording site with a null check — the disabled path does no work
/// and allocates nothing, so telemetry-off runs behave exactly like the
/// uninstrumented simulator. No component writes the registry;
/// ChannelRun::Finish fills it once.
class Telemetry {
 public:
  /// `sim` must outlive all recording calls (exports may happen later).
  explicit Telemetry(Simulator* sim, TelemetryOptions options = {}) {
    if (options.sample_period_s > 0) {
      sampler_ = std::make_unique<Sampler>(
          sim, SamplerConfig{options.sample_period_s,
                             options.series_capacity});
    }
    if (options.txtrace.enabled) {
      txtrace_ = std::make_unique<TxTraceRecorder>(sim, options.txtrace);
    }
  }

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// The per-aspect accessors components cache. Null when
  /// `sample_period_s <= 0`.
  Sampler* sampler() { return sampler_.get(); }
  const Sampler* sampler() const { return sampler_.get(); }
  /// Null unless `txtrace.enabled`.
  TxTraceRecorder* txtrace() { return txtrace_.get(); }
  const TxTraceRecorder* txtrace() const { return txtrace_.get(); }

 private:
  MetricsRegistry metrics_;
  std::unique_ptr<Sampler> sampler_;
  std::unique_ptr<TxTraceRecorder> txtrace_;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_TELEMETRY_TELEMETRY_H_
