#include "driver/client_manager.h"

#include "driver/rate_controller.h"

namespace blockoptr {

Schedule ClientManager::Prepare(Schedule schedule,
                                const ClientManagerSettings& settings) {
  if (settings.HasReordering()) {
    double rate = ScheduleRate(schedule);
    if (rate <= 0) rate = 1;
    ReorderActivities(schedule, settings.activities_first,
                      settings.activities_last, rate);
  }
  if (settings.rate_cap_tps > 0) {
    if (settings.windowed_rate_control) {
      RateController::CapRateWindowed(schedule, settings.rate_cap_tps);
    } else {
      RateController::CapRate(schedule, settings.rate_cap_tps);
    }
  }
  return schedule;
}

}  // namespace blockoptr
