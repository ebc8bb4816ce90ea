#include "policy/libra_dollar.hpp"

#include <algorithm>

namespace utilrisk::policy {

economy::Money LibraDollarPolicy::quote(
    const workload::Job& job, const std::vector<cluster::NodeId>& nodes,
    double /*share*/) const {
  // RESMax_j: processor-seconds node j offers over the job's deadline
  // window. RESFree_ij deducts (a) every existing reservation, each of
  // which expires at its own deadline, and (b) the new job's own
  // reservation (its estimate) — per §5.2.
  const sim::SimTime now = simulator().now();
  const double window = job.deadline_duration;
  economy::Money max_price = 0.0;
  for (cluster::NodeId node : nodes) {
    double committed = job.estimated_runtime;  // the new job's deduction
    cluster().for_each_task(node, [&](const cluster::TaskView& task) {
      const double remaining_window =
          std::clamp(task.deadline - now, 0.0, window);
      committed += task.share * remaining_window;
      return true;
    });
    const double res_free = window - committed;
    max_price = std::max(max_price, economy::libra_dollar_node_price(
                                        window, res_free, pricing()));
  }
  return economy::libra_dollar_quote(job, max_price);
}

}  // namespace utilrisk::policy
