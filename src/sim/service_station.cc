#include "sim/service_station.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace blockoptr {

ServiceStation::ServiceStation(Simulator* sim, std::string name, int servers)
    : sim_(sim), name_(std::move(name)) {
  assert(servers >= 1);
  server_free_at_.assign(static_cast<size_t>(servers), 0.0);
}

void ServiceStation::set_servers(int servers) {
  assert(servers >= 1);
  server_free_at_.resize(static_cast<size_t>(servers), sim_->Now());
}

SimTime ServiceStation::EarliestFree() const {
  return *std::min_element(server_free_at_.begin(), server_free_at_.end());
}

double ServiceStation::CurrentDelay() const {
  return std::max(0.0, EarliestFree() - sim_->Now());
}

void ServiceStation::Submit(double service_time,
                            Simulator::Callback&& done) {
  assert(service_time >= 0);
  auto it = std::min_element(server_free_at_.begin(), server_free_at_.end());
  SimTime start = std::max(sim_->Now(), *it);
  SimTime finish = start + service_time;
  *it = finish;
  wait_stats_.Add(start - sim_->Now());
  busy_time_ += service_time;
  sim_->ScheduleAt(finish, std::move(done));
}

}  // namespace blockoptr
