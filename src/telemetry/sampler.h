#ifndef BLOCKOPTR_TELEMETRY_SAMPLER_H_
#define BLOCKOPTR_TELEMETRY_SAMPLER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/json.h"
#include "sim/service_station.h"
#include "sim/simulator.h"
#include "telemetry/timeseries.h"

namespace blockoptr {

/// The pipeline stage a ServiceStation implements (AddStation's `stage`).
/// Bottleneck attribution and recommendation evidence look stations up by
/// these names.
namespace station_stage {
inline constexpr const char* kSubmit = "submit";
inline constexpr const char* kEndorse = "endorse";
inline constexpr const char* kOrder = "order";
inline constexpr const char* kValidate = "validate";
}  // namespace station_stage

struct SamplerConfig {
  /// Sampling period in virtual seconds. <= 0 disables the sampler
  /// entirely: Start() becomes a no-op, no event is ever scheduled.
  double period_s = 0.5;
  /// Point capacity of every recorded TimeSeries.
  size_t series_capacity = 512;
};

/// Continuous sim-time monitoring: a self-re-arming tick event that, every
/// `period_s` of virtual time, evaluates a set of registered sources and
/// appends one sample per source to a bounded TimeSeries.
///
/// Three source kinds cover the pipeline signals:
///   - Rate:       reads a cumulative count and records the per-second
///                 delta over the window (throughput, conflict rates).
///   - Gauge:      records an instantaneous value (queue depths).
///   - WindowMean: reads a cumulative (sum, count) pair and records
///                 delta_sum / delta_count for the window (block fill).
/// ServiceStations get a four-series track: utilization (busy-time share
/// of the window across servers, clamped to [0,1]), queue backlog seconds,
/// and the wait-vs-service decomposition of jobs submitted in the window.
///
/// The sampler only *reads* component state — it never perturbs the
/// simulation beyond adding its own tick events, so a sampled run commits
/// the same blocks at the same virtual times as an unsampled one. Sampling
/// is pure arithmetic over deterministic state, so series content is
/// byte-identical across `--jobs` values.
class Sampler {
 public:
  /// `sim` must outlive the sampler; sources must outlive the run.
  Sampler(Simulator* sim, SamplerConfig config);

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  bool enabled() const { return config_.period_s > 0; }
  double period() const { return config_.period_s; }
  uint64_t ticks() const { return ticks_; }

  /// Registers a windowed rate: `cumulative` is read every tick and the
  /// delta divided by the period is recorded.
  void AddRate(std::string name, std::function<uint64_t()> cumulative);
  /// Registers an instantaneous value.
  void AddGauge(std::string name, std::function<double()> value);
  /// Registers a windowed mean of cumulative (sum, count): records
  /// delta_sum / delta_count, or 0 when the window saw no observations.
  void AddWindowMean(std::string name, std::function<double()> sum,
                     std::function<uint64_t()> count);
  /// Registers a ServiceStation track (four series). `stage` is the
  /// pipeline stage the station implements (one of station_stage), used by
  /// bottleneck attribution to join stations with critical-path stages.
  void AddStation(std::string name, std::string stage,
                  const ServiceStation* station);

  /// Arms the first tick. No-op when disabled or already started, so the
  /// telemetry-off path schedules zero events.
  void Start();

  /// Snapshots whole-run station totals (busy time, wait mean, job count)
  /// and detaches from the stations and the simulator. The experiment
  /// driver calls this after the run, because the network and simulator
  /// are destroyed when RunExperiment returns while the telemetry stays
  /// readable/exportable — post-run consumers (bottleneck attribution,
  /// exports) must only read the recorded series and these snapshots.
  /// Idempotent: repeated calls leave the first snapshot untouched.
  void Finalize();
  bool finalized() const { return finalized_; }

  struct StationTrack {
    std::string name;
    std::string stage;
    const ServiceStation* station = nullptr;  // null after Finalize()
    TimeSeries utilization;
    TimeSeries queue_depth_s;
    TimeSeries wait_mean_s;
    TimeSeries service_mean_s;
    // Previous-tick cumulative snapshots for windowed deltas.
    double prev_busy = 0;
    double prev_wait_sum = 0;
    uint64_t prev_jobs = 0;
    // Whole-run totals, valid after Finalize().
    double total_busy_s = 0;
    double total_wait_mean_s = 0;
    uint64_t total_jobs = 0;
    int servers = 1;
  };

  const std::vector<TimeSeries>& series() const { return series_; }
  const std::vector<StationTrack>& stations() const { return stations_; }

  /// {"period_s":..., "ticks":..., "series": {name: series...},
  ///  "stations": {name: {"stage":..., "utilization": series, ...}}}.
  JsonValue ToJson() const;

 private:
  struct Source {
    enum class Kind { kRate, kGauge, kWindowMean };
    Kind kind = Kind::kGauge;
    std::function<double()> value;      // gauge / window-mean sum
    std::function<uint64_t()> count;    // rate / window-mean count
    double prev_sum = 0;
    uint64_t prev_count = 0;
  };

  void Tick();

  Simulator* sim_;
  SamplerConfig config_;
  bool started_ = false;
  bool finalized_ = false;
  uint64_t ticks_ = 0;
  std::vector<Source> sources_;
  std::vector<TimeSeries> series_;  // parallel to sources_
  std::vector<StationTrack> stations_;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_TELEMETRY_SAMPLER_H_
