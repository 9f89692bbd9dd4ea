#include "driver/sharded.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "driver/channel_run.h"
#include "sim/shard_runner.h"

namespace blockoptr {

namespace {

/// Hard cap on the client-capacity share other channels may claim, so a
/// saturated sibling slows a channel down (up to 4x) instead of stalling
/// it outright.
constexpr double kMaxForeignShare = 0.75;

/// The per-channel config: everything from the experiment except the
/// schedule (each channel's partition is moved into its ChannelRun) and
/// the sharding knobs (each channel is a plain single-channel run from its
/// own view). Copies field-by-field instead of whole-struct so a
/// million-request schedule is never duplicated per channel — keep in
/// sync with ExperimentConfig when adding fields.
ExperimentConfig ChannelTemplate(const ExperimentConfig& config) {
  ExperimentConfig t;
  t.network = config.network;
  t.chaincodes = config.chaincodes;
  t.seeds = config.seeds;
  t.client_manager = config.client_manager;
  t.orderer_scheduler = config.orderer_scheduler;
  t.faults = config.faults;
  t.max_sim_time = config.max_sim_time;
  t.enable_telemetry = config.enable_telemetry;
  t.telemetry_options = config.telemetry_options;
  t.stream = config.stream;
  return t;
}

}  // namespace

uint64_t ChannelSeed(uint64_t base_seed, int channel) {
  // splitmix64 of the base seed advanced by the channel index: disjoint,
  // well-mixed per-channel streams from one experiment seed.
  uint64_t z = base_seed +
               0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(channel) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<Schedule> PartitionSchedule(const Schedule& schedule,
                                        int channels,
                                        const std::vector<double>& weights) {
  if (channels <= 1) return {schedule};
  std::vector<double> w(static_cast<size_t>(channels), 1.0);
  for (size_t i = 0; i < w.size() && i < weights.size(); ++i) {
    if (weights[i] > 0) w[i] = weights[i];
  }
  double total = 0;
  for (double x : w) total += x;

  // Smooth weighted round-robin: each pick goes to the channel with the
  // highest accumulated credit, which then pays the full weight total.
  // Interleaves channels as evenly as their weights allow and depends
  // only on (request index, weights) — never on request content.
  std::vector<Schedule> parts(static_cast<size_t>(channels));
  std::vector<double> credit(static_cast<size_t>(channels), 0.0);
  for (size_t i = 0; i < parts.size(); ++i) {
    parts[i].reserve(schedule.size() / parts.size() + 1);
  }
  for (const auto& req : schedule) {
    size_t best = 0;
    for (size_t c = 0; c < credit.size(); ++c) {
      credit[c] += w[c];
      if (credit[c] > credit[best]) best = c;
    }
    credit[best] -= total;
    parts[best].push_back(req);
  }
  return parts;
}

double MinCouplingLatency(const LatencyModel& latency) {
  // The shortest causal path from "another channel occupies a shared
  // client" to an observable effect here: the proposal must be created on
  // the client, travel to an endorser, and start executing. Coupling is
  // only re-evaluated at epoch boundaries, so any epoch at or below this
  // is conservative (no coupling event can cross an epoch unseen).
  double epoch = latency.client_proposal_s + latency.network_delay_s +
                 latency.endorse_exec_s;
  return std::max(epoch, 1e-3);
}

Result<ExperimentOutput> RunShardedExperiment(const ExperimentConfig& config) {
  const int channels = config.channels;
  if (channels <= 1) {
    return Status::InvalidArgument(
        "RunShardedExperiment requires channels > 1");
  }

  std::vector<Schedule> parts =
      PartitionSchedule(config.schedule, channels, config.channel_weights);

  // A channel's flight recorder never needs more than its own partition's
  // event bound, so a ring that would keep the whole run (as --trace-out
  // requests) shrinks per channel. A ring outside [1, kMaxTxTraceRing]
  // passes through for ChannelRun to reject.
  const uint32_t ring = config.telemetry_options.txtrace.ring_capacity;
  const bool valid_ring = ring >= 1 && ring <= kMaxTxTraceRing;

  const ExperimentConfig tmpl = ChannelTemplate(config);
  std::vector<std::unique_ptr<ChannelRun>> runs;
  runs.reserve(static_cast<size_t>(channels));
  for (int c = 0; c < channels; ++c) {
    Schedule& part = parts[static_cast<size_t>(c)];
    ExperimentConfig cc = tmpl;
    cc.network.channel_index = c;
    cc.network.channel_count = channels;
    cc.network.seed = ChannelSeed(config.network.seed, c);
    if (valid_ring) {
      // At least one event, which an empty partition's bound is not.
      const uint64_t bound =
          std::max<uint64_t>(TxTraceEventBound(cc, part.size()), 1);
      cc.telemetry_options.txtrace.ring_capacity =
          static_cast<uint32_t>(std::min<uint64_t>(ring, bound));
    }
    auto run = ChannelRun::Create(cc, std::move(part));
    if (!run.ok()) return run.status();
    runs.push_back(std::move(*run));
  }

  std::vector<Shard*> shards;
  shards.reserve(runs.size());
  for (auto& run : runs) shards.push_back(run.get());

  ShardRunnerOptions options;
  options.threads = config.sim_threads;
  options.epoch_s = config.epoch_s > 0
                        ? config.epoch_s
                        : MinCouplingLatency(config.network.latency);
  options.max_time = config.max_sim_time;

  // Cross-channel coupling state: previous-boundary cumulative client
  // busy time per channel, differentiated every epoch. The shared client
  // population has `num_clients` workers, so its capacity over a window
  // is num_clients * window seconds.
  const double clients =
      static_cast<double>(runs.front()->network().num_clients());
  std::vector<double> prev_busy(runs.size(), 0.0);
  std::vector<double> delta(runs.size(), 0.0);
  double prev_epoch_end = 0.0;
  auto sync = [&](SimTime epoch_end) {
    const double window = epoch_end - prev_epoch_end;
    prev_epoch_end = epoch_end;
    if (window <= 0) return;
    double total_delta = 0;
    for (size_t c = 0; c < runs.size(); ++c) {
      double busy = runs[c]->network().client_busy_time();
      delta[c] = busy - prev_busy[c];
      prev_busy[c] = busy;
      total_delta += delta[c];
    }
    const double capacity = clients * window;
    for (size_t c = 0; c < runs.size(); ++c) {
      double foreign = (total_delta - delta[c]) / capacity;
      foreign = std::clamp(foreign, 0.0, kMaxForeignShare);
      runs[c]->network().SetClientLoadScale(1.0 / (1.0 - foreign));
    }
  };

  BLOCKOPTR_RETURN_NOT_OK(RunShards(shards, options, sync));

  // Whole-experiment view on top, full per-channel outputs below.
  ExperimentOutput out;
  out.network = config.network;
  out.network.channel_count = channels;
  out.channels.reserve(runs.size());
  for (auto& run : runs) {
    ExperimentOutput channel_out = run->Finish();
    out.report.Merge(channel_out.report);
    out.sim_end_time = std::max(out.sim_end_time, channel_out.sim_end_time);
    out.events_processed += channel_out.events_processed;
    out.queue_peak = std::max(out.queue_peak, channel_out.queue_peak);
    for (const auto& [org, count] : channel_out.endorsement_counts) {
      out.endorsement_counts[org] += count;
    }
    out.channels.push_back(std::move(channel_out));
  }
  // Fault windows are the same plan on every channel; the top level
  // carries channel 0's resolved windows as the representative set.
  out.fault_windows = out.channels.front().fault_windows;
  return out;
}

}  // namespace blockoptr
