#include "workload/lap_log.h"

#include <algorithm>

#include "common/rng.h"
#include "common/string_util.h"

namespace blockoptr {

const std::vector<std::string>& LapActivities() {
  static const std::vector<std::string>* kActivities =
      new std::vector<std::string>{
          "A_Create",           "A_Submitted",   "A_Concept",
          "W_CompleteApplication", "A_Accepted", "O_Create",
          "O_Sent",             "W_CallAfterOffers", "A_Validating",
          "O_Returned",         "W_ValidateApplication", "A_Incomplete",
          "A_Pending",          "A_Denied",      "A_Cancelled"};
  return *kActivities;
}

namespace {

/// "E<number>", built by append: GCC 12 at -O3 flags the inlined
/// `"E" + std::to_string(...)` with a false -Wrestrict.
std::string EmployeeName(uint64_t number) {
  std::string name = "E";
  name += std::to_string(number);
  return name;
}

}  // namespace

std::vector<LapEvent> GenerateLapEventLog(const LapLogConfig& config) {
  Rng rng(config.seed);
  ZipfGenerator employee_zipf(static_cast<uint64_t>(config.num_employees),
                              config.employee_skew);
  static const char* kLoanTypes[] = {"home", "car", "personal", "business"};

  struct Slotted {
    double slot;
    LapEvent event;
  };
  std::vector<Slotted> slots;

  const double app_spacing =
      static_cast<double>(config.num_events) / config.num_applications;

  for (int a = 0; a < config.num_applications; ++a) {
    const std::string app = "APP" + ZeroPad(static_cast<uint64_t>(a), 6);
    const std::string primary = EmployeeName(employee_zipf.Next(rng) + 1);
    const std::string loan_type =
        kLoanTypes[rng.NextBelow(4)];
    const int amount = static_cast<int>(rng.NextInRange(5, 500)) * 1000;

    // Build this application's activity sequence from the process flow.
    std::vector<std::string> seq = {
        "A_Create",   "A_Submitted",          "A_Concept",
        "W_CompleteApplication", "A_Accepted", "O_Create",
        "O_Sent",     "W_CallAfterOffers",    "A_Validating"};
    // Validation loop: documents may come back incomplete.
    int loops = 0;
    while (rng.NextBool(0.3) && loops < 3) {
      seq.push_back("O_Returned");
      seq.push_back("W_ValidateApplication");
      seq.push_back("A_Incomplete");
      ++loops;
    }
    seq.push_back("O_Returned");
    seq.push_back("W_ValidateApplication");
    double u = rng.NextDouble();
    seq.push_back(u < 0.55 ? "A_Pending" : (u < 0.80 ? "A_Denied"
                                                     : "A_Cancelled"));

    double pos = a * app_spacing;
    for (const auto& activity : seq) {
      Slotted s;
      s.slot = pos;
      // Events of one application are minutes apart in the source log —
      // far wider than the commit latency — so the contention BlockOptR
      // finds is *across* applications on the busy employee's key, not
      // within a case.
      pos += 30.0 + rng.NextDouble() * 270.0;
      s.event.application = app;
      // The primary employee handles most of the case; occasional handoffs.
      s.event.employee =
          rng.NextBool(0.8)
              ? primary
              : EmployeeName(employee_zipf.Next(rng) + 1);
      s.event.activity = activity;
      s.event.loan_type = loan_type;
      s.event.amount = amount;
      slots.push_back(std::move(s));
    }
  }

  std::stable_sort(slots.begin(), slots.end(),
                   [](const Slotted& x, const Slotted& y) {
                     return x.slot < y.slot;
                   });
  std::vector<LapEvent> log;
  log.reserve(std::min(slots.size(), static_cast<size_t>(config.num_events)));
  for (auto& s : slots) {
    if (log.size() >= static_cast<size_t>(config.num_events)) break;
    log.push_back(std::move(s.event));
  }
  return log;
}

Schedule LapScheduleFromLog(const std::vector<LapEvent>& log, double send_rate,
                            const std::string& chaincode) {
  Schedule schedule;
  schedule.reserve(log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    const LapEvent& ev = log[i];
    ClientRequest req;
    req.request_id = i;
    req.send_time = static_cast<double>(i) / send_rate;
    req.chaincode = chaincode;
    req.function = ev.activity;
    req.args = {ev.employee, ev.application, ev.loan_type,
                std::to_string(ev.amount)};
    schedule.push_back(std::move(req));
  }
  return schedule;
}

}  // namespace blockoptr
