#include "policy/libra_riskd.hpp"

#include <algorithm>

#include "sim/time.hpp"

namespace utilrisk::policy {

bool LibraRiskDPolicy::node_eligible(cluster::NodeId node,
                                     const workload::Job& job,
                                     double share) const {
  if (!LibraPolicy::node_eligible(node, job, share)) return false;

  const double total_after = cluster().committed_share(node) + share;
  const sim::SimTime now = simulator().now();

  // Project resident tasks at the post-placement proportional rates.
  const bool residents_meet_deadlines =
      cluster().for_each_task(node, [&](const cluster::TaskView& task) {
        if (task.overran_estimate()) return false;  // unknowable remainder
        const double rate = task.share / std::max(total_after, task.share);
        const double remaining = task.estimated_work - task.done_work;
        return !(now + remaining / rate > task.deadline + sim::kTimeEpsilon);
      });
  if (!residents_meet_deadlines) return false;

  // Project the new job itself on this node.
  const double new_rate = share / std::max(total_after, share);
  if (now + job.estimated_runtime / new_rate >
      job.absolute_deadline() + sim::kTimeEpsilon) {
    return false;
  }
  return true;
}

}  // namespace utilrisk::policy
