#ifndef BLOCKOPTR_SIM_SERVICE_STATION_H_
#define BLOCKOPTR_SIM_SERVICE_STATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "sim/simulator.h"

namespace blockoptr {

/// A FIFO multi-server queueing station on top of the event simulator.
/// Endorsers, clients, the orderer, and validating peers are all modeled as
/// stations: work arrives, waits for a free server, occupies it for the
/// job's service time, then fires a completion callback.
///
/// Queueing at stations is what turns overload into latency in the model:
/// when the offered rate exceeds `servers / mean_service_time`, waiting
/// times grow without bound, which widens the endorsement-to-commit window
/// and mechanically raises MVCC failure rates (paper §6.1.4).
class ServiceStation {
 public:
  /// `sim` must outlive the station. `servers` >= 1.
  ServiceStation(Simulator* sim, std::string name, int servers = 1);

  ServiceStation(const ServiceStation&) = delete;
  ServiceStation& operator=(const ServiceStation&) = delete;

  /// Enqueues a job taking `service_time` seconds. `done` fires when the
  /// job completes. Jobs are served in submission order (FIFO).
  ///
  /// `done` is scheduled as the completion event itself, at the job's
  /// finish time: it is relocated once, into the simulator's slot pool,
  /// and fires from there in place.
  void Submit(double service_time, Simulator::Callback&& done);

  const std::string& name() const { return name_; }
  int servers() const { return static_cast<int>(server_free_at_.size()); }

  /// Changes the number of servers. Only affects jobs submitted afterwards.
  /// Used to model client-resource scaling (paper §6.1.2).
  void set_servers(int servers);

  /// Waiting time (queue delay before service) statistics.
  const RunningStats& wait_stats() const { return wait_stats_; }

  /// Total busy time across servers (for utilization estimates).
  double busy_time() const { return busy_time_; }

  /// Virtual time at which the earliest server becomes free.
  SimTime EarliestFree() const;

  /// Current backlog estimate: how far ahead of `Now()` the earliest free
  /// server is (0 when a server is idle).
  double CurrentDelay() const;

 private:
  Simulator* sim_;
  std::string name_;
  std::vector<SimTime> server_free_at_;
  RunningStats wait_stats_;
  double busy_time_ = 0;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_SIM_SERVICE_STATION_H_
