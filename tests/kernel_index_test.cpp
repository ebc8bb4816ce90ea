// Property tests for the O(log n) kernel indexes: every indexed structure
// (free-node bitmap, finish index, share index) is checked against a
// naive O(n) reference model under seeded random operation sequences. The
// indexes exist purely for speed — any observable divergence from the
// naive answer is a determinism bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "cluster/free_index.hpp"
#include "cluster/space_shared.hpp"
#include "cluster/time_shared.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace utilrisk::cluster {
namespace {

workload::Job make_job(workload::JobId id, std::uint32_t procs,
                       double runtime, double estimate = -1.0,
                       double deadline_factor = 8.0) {
  workload::Job job;
  job.id = id;
  job.procs = procs;
  job.actual_runtime = runtime;
  job.estimated_runtime = estimate < 0.0 ? runtime : estimate;
  job.deadline_duration = runtime * deadline_factor;
  return job;
}

// ------------------------------------------------------------ FreeNodeIndex

TEST(FreeNodeIndexTest, BasicInsertEraseMin) {
  FreeNodeIndex index(100);
  EXPECT_TRUE(index.empty());
  index.insert(42);
  index.insert(7);
  index.insert(99);
  EXPECT_EQ(index.size(), 3u);
  EXPECT_TRUE(index.contains(7));
  EXPECT_FALSE(index.contains(8));
  EXPECT_EQ(index.min(), 7u);
  index.erase(7);
  EXPECT_EQ(index.min(), 42u);
  EXPECT_EQ(index.pop_min(), 42u);
  EXPECT_EQ(index.pop_min(), 99u);
  EXPECT_TRUE(index.empty());
}

TEST(FreeNodeIndexTest, MultiLevelBoundaries) {
  // 100k ids exercise all three bitmap levels; the word boundaries (63/64,
  // 4095/4096) are where carry propagation between levels can go wrong.
  FreeNodeIndex index(100000);
  for (NodeId id : {0u, 63u, 64u, 4095u, 4096u, 99999u}) index.insert(id);
  EXPECT_EQ(index.min(), 0u);
  index.erase(0);
  EXPECT_EQ(index.min(), 63u);
  index.erase(63);
  EXPECT_EQ(index.min(), 64u);
  index.erase(64);
  EXPECT_EQ(index.min(), 4095u);
  index.erase(4095);
  EXPECT_EQ(index.min(), 4096u);
  index.erase(4096);
  EXPECT_EQ(index.min(), 99999u);
}

TEST(FreeNodeIndexTest, RandomOpsMatchOrderedSet) {
  FreeNodeIndex index(8192);
  std::set<NodeId> reference;
  sim::Rng rng(20260808);
  for (int step = 0; step < 20000; ++step) {
    const NodeId id = static_cast<NodeId>(rng.uniform_int(0, 8191));
    if (reference.contains(id)) {
      index.erase(id);
      reference.erase(id);
    } else {
      index.insert(id);
      reference.insert(id);
    }
    ASSERT_EQ(index.size(), reference.size());
    if (!reference.empty()) {
      ASSERT_EQ(index.min(), *reference.begin()) << "step " << step;
    }
  }
}

// ------------------------------------- SpaceSharedCluster vs naive reference

/// Naive O(n) model of the space-shared executor: an ordered free set and
/// a flat running list, with every query answered by full rescan.
struct NaiveSpaceModel {
  struct Run {
    std::uint32_t procs = 0;
    sim::SimTime estimated_finish = 0.0;
    sim::SimTime actual_finish = 0.0;
    std::vector<NodeId> nodes;
  };

  std::uint32_t total = 0;
  std::set<NodeId> free;  // up and unoccupied
  std::set<NodeId> down;
  std::map<workload::JobId, Run> running;

  explicit NaiveSpaceModel(std::uint32_t node_count) : total(node_count) {
    for (NodeId id = 0; id < node_count; ++id) free.insert(id);
  }

  void start(const workload::Job& job, sim::SimTime now) {
    Run run;
    run.procs = job.procs;
    run.estimated_finish = now + job.estimated_runtime;
    run.actual_finish = now + job.actual_runtime;
    // Deterministic placement contract: lowest free ids first.
    for (std::uint32_t i = 0; i < job.procs; ++i) {
      run.nodes.push_back(*free.begin());
      free.erase(free.begin());
    }
    running.emplace(job.id, std::move(run));
  }

  void release(const Run& run) {
    for (NodeId id : run.nodes) {
      if (!down.contains(id)) free.insert(id);
    }
  }

  void finish_due(sim::SimTime now) {
    for (auto it = running.begin(); it != running.end();) {
      if (it->second.actual_finish <= now + sim::kTimeEpsilon) {
        release(it->second);
        it = running.erase(it);
      } else {
        ++it;
      }
    }
  }

  void cancel(workload::JobId id) {
    auto it = running.find(id);
    release(it->second);
    running.erase(it);
  }

  /// Returns the job killed by taking `id` down, if any.
  std::optional<workload::JobId> node_down(NodeId id) {
    down.insert(id);
    free.erase(id);
    for (auto& [job, run] : running) {
      if (std::find(run.nodes.begin(), run.nodes.end(), id) !=
          run.nodes.end()) {
        const workload::JobId killed = job;  // erase frees the key
        release(run);
        free.erase(id);  // the dead node stays out of the pool
        running.erase(killed);
        return killed;
      }
    }
    return std::nullopt;
  }

  void node_up(NodeId id) {
    down.erase(id);
    free.insert(id);
  }

  [[nodiscard]] std::uint32_t up_procs() const {
    return total - static_cast<std::uint32_t>(down.size());
  }

  /// Full-rescan EASY shadow time: sort running jobs by (estimated finish,
  /// id) and accumulate until `procs` fit.
  [[nodiscard]] sim::SimTime availability(std::uint32_t procs,
                                          sim::SimTime now) const {
    if (procs > up_procs()) return sim::kTimeNever;
    std::uint32_t available = static_cast<std::uint32_t>(free.size());
    if (procs <= available) return now;
    std::vector<std::pair<sim::SimTime, workload::JobId>> order;
    for (const auto& [job, run] : running) {
      order.emplace_back(run.estimated_finish, job);
    }
    std::sort(order.begin(), order.end());
    for (const auto& [finish, job] : order) {
      available += running.at(job).procs;
      if (available >= procs) return std::max(finish, now);
    }
    return sim::kTimeNever;
  }

  [[nodiscard]] std::uint32_t free_by(sim::SimTime when) const {
    std::uint32_t available = static_cast<std::uint32_t>(free.size());
    for (const auto& [job, run] : running) {
      if (run.estimated_finish <= when + sim::kTimeEpsilon) {
        available += run.procs;
      }
    }
    return std::min(available, total);
  }
};

TEST(SpaceSharedPropertyTest, IndexedMatchesNaiveReference) {
  constexpr std::uint32_t kNodes = 64;
  sim::Simulator simk;
  SpaceSharedCluster cluster(simk, {.node_count = kNodes});
  NaiveSpaceModel naive(kNodes);
  sim::Rng rng(0xB0B);
  workload::JobId next_id = 1;
  std::vector<workload::JobId> live;  // started and not yet known-finished

  for (int step = 0; step < 3000; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.45) {
      // Start a job if it fits.
      const auto procs = static_cast<std::uint32_t>(rng.uniform_int(1, 12));
      const double runtime = rng.uniform(5.0, 400.0);
      const double estimate = rng.uniform(2.0, 500.0);
      workload::Job job = make_job(next_id++, procs, runtime, estimate);
      if (cluster.can_start(procs)) {
        ASSERT_GE(naive.free.size(), procs);
        cluster.start(job, {});
        naive.start(job, simk.now());
        live.push_back(job.id);
      } else {
        ASSERT_LT(naive.free.size(), procs);
      }
    } else if (roll < 0.60 && !live.empty()) {
      // Cancel a random live job (it may already have finished).
      const std::size_t pick = rng.uniform_int(0, live.size() - 1);
      const workload::JobId victim = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      const bool cancelled = cluster.cancel(victim);
      ASSERT_EQ(cancelled, naive.running.contains(victim));
      if (cancelled) naive.cancel(victim);
    } else if (roll < 0.70) {
      // Toggle a random node.
      const NodeId id = static_cast<NodeId>(rng.uniform_int(0, kNodes - 1));
      if (cluster.is_up(id)) {
        const auto kill = cluster.node_down(id);
        const auto expected = naive.node_down(id);
        ASSERT_EQ(kill.has_value(), expected.has_value()) << "node " << id;
        if (kill) {
          ASSERT_EQ(kill->job.id, *expected);
        }
      } else {
        cluster.node_up(id);
        naive.node_up(id);
      }
    } else {
      // Advance time; completions fire inside run().
      const double until = simk.now() + rng.uniform(1.0, 60.0);
      simk.run(until);
      naive.finish_due(simk.now());
    }

    // Invariants after every step.
    ASSERT_EQ(cluster.free_procs(), naive.free.size()) << "step " << step;
    ASSERT_EQ(cluster.running_count(), naive.running.size());
    ASSERT_EQ(cluster.up_procs(), naive.up_procs());
    for (std::uint32_t procs : {1u, 4u, 16u, kNodes}) {
      ASSERT_DOUBLE_EQ(cluster.estimated_availability(procs),
                       naive.availability(procs, simk.now()))
          << "step " << step << " procs " << procs;
    }
    for (double dt : {0.0, 10.0, 100.0, 1000.0}) {
      ASSERT_EQ(cluster.estimated_procs_free_by(simk.now() + dt),
                naive.free_by(simk.now() + dt))
          << "step " << step << " dt " << dt;
    }
    // running_jobs() order = (estimated finish, id), straight from the
    // finish index; verify against a full re-sort of the naive model.
    const auto jobs = cluster.running_jobs();
    std::vector<std::pair<sim::SimTime, workload::JobId>> expected;
    for (const auto& [job, run] : naive.running) {
      expected.emplace_back(run.estimated_finish, job);
    }
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(jobs.size(), expected.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_EQ(jobs[i].id, expected[i].second) << "step " << step;
      ASSERT_DOUBLE_EQ(jobs[i].estimated_finish, expected[i].first);
    }
  }
}

// -------------------------------------- TimeSharedCluster vs naive reference

/// Drives a TimeSharedCluster through a seeded random mix of start,
/// cancel, node_down, node_up and clock advances, checking after every
/// step that the share index visits exactly the best-fit order of a full
/// scan and that each up node with tasks has exactly one live completion.
/// With `short_job_fraction` 0 every job stays resident and the index
/// changes only through start/cancel/node_down/node_up; otherwise that
/// fraction of jobs is short enough to complete while the clock advances,
/// so outages interleave with completions.
void expect_share_index_matches_full_scan(std::uint64_t seed,
                                          double short_job_fraction) {
  constexpr std::uint32_t kNodes = 48;
  sim::Simulator simk;
  TimeSharedCluster cluster(simk, {.node_count = kNodes});
  sim::Rng rng(seed);
  workload::JobId next_id = 1;
  std::vector<workload::JobId> live;
  const auto forget = [&live](workload::JobId id) {
    live.erase(std::find(live.begin(), live.end(), id));
  };

  for (int step = 0; step < 1500; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.5) {
      const auto procs = static_cast<std::uint32_t>(rng.uniform_int(1, 8));
      const double share = rng.uniform(0.05, 0.4);
      // Pick the `procs` least-committed up nodes with headroom, the way
      // Libra's best-fit admission does, via a full scan.
      std::vector<std::pair<double, NodeId>> eligible;
      for (NodeId id = 0; id < kNodes; ++id) {
        if (!cluster.is_up(id)) continue;
        const double committed = cluster.committed_share(id);
        if (committed + share <= 1.0 + TimeSharedCluster::kShareEpsilon) {
          eligible.emplace_back(committed, id);
        }
      }
      if (eligible.size() < procs) continue;
      std::sort(eligible.begin(), eligible.end());
      std::vector<NodeId> nodes;
      for (std::uint32_t i = 0; i < procs; ++i) {
        nodes.push_back(eligible[i].second);
      }
      const bool short_job =
          short_job_fraction > 0.0 && rng.bernoulli(short_job_fraction);
      const double runtime = short_job ? rng.uniform(1.0, 40.0) : 1e9;
      workload::Job job = make_job(next_id++, procs, runtime, runtime);
      cluster.start(job, nodes, share,
                    [&](workload::JobId id, sim::SimTime) { forget(id); });
      live.push_back(job.id);
    } else if (roll < 0.7 && !live.empty()) {
      const std::size_t pick = rng.uniform_int(0, live.size() - 1);
      const workload::JobId victim = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      EXPECT_TRUE(cluster.cancel(victim));
    } else if (roll < 0.85) {
      const NodeId id = static_cast<NodeId>(rng.uniform_int(0, kNodes - 1));
      if (cluster.is_up(id)) {
        for (const FailureKill& kill : cluster.node_down(id)) {
          forget(kill.job.id);
        }
      } else {
        cluster.node_up(id);
      }
    } else {
      simk.run(simk.now() + rng.uniform(1.0, 50.0));
    }
    ASSERT_EQ(cluster.running_count(), live.size()) << "step " << step;

    // Reference order: full scan of up nodes, sorted best-fit (committed
    // desc, id asc) — exactly what the old per-admission sort produced.
    std::vector<std::pair<double, NodeId>> reference;
    std::size_t busy_nodes = 0;
    for (NodeId id = 0; id < kNodes; ++id) {
      if (cluster.is_up(id)) {
        reference.emplace_back(cluster.committed_share(id), id);
        // A visit that stops at the first task reports a busy node.
        if (!cluster.for_each_task(id, [](TaskView) { return false; })) {
          ++busy_nodes;
        }
      }
    }
    ASSERT_EQ(simk.pending_events(), busy_nodes)
        << "one live completion per busy node, step " << step;
    std::sort(reference.begin(), reference.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });

    std::vector<std::pair<double, NodeId>> visited;
    cluster.for_each_up_node_best_fit(2.0, [&](NodeId id, double committed) {
      visited.emplace_back(committed, id);
      return true;
    });
    ASSERT_EQ(visited.size(), reference.size()) << "step " << step;
    for (std::size_t i = 0; i < visited.size(); ++i) {
      ASSERT_EQ(visited[i].second, reference[i].second) << "step " << step;
      ASSERT_DOUBLE_EQ(visited[i].first, reference[i].first);
    }

    // Bounded visit skips exactly the nodes above the bound.
    const double bound = rng.uniform(0.0, 1.0);
    std::vector<NodeId> bounded;
    cluster.for_each_up_node_best_fit(bound, [&](NodeId id, double) {
      bounded.push_back(id);
      return true;
    });
    std::vector<NodeId> bounded_expected;
    for (const auto& [committed, id] : reference) {
      if (committed <= bound) bounded_expected.push_back(id);
    }
    ASSERT_EQ(bounded, bounded_expected) << "step " << step;
  }
}

TEST(TimeSharedPropertyTest, ShareIndexMatchesFullScan) {
  expect_share_index_matches_full_scan(0xCAFE, /*short_job_fraction=*/0.0);
}

TEST(TimeSharedPropertyTest, ShareIndexMatchesFullScanAcrossCompletions) {
  expect_share_index_matches_full_scan(0xBEEF, /*short_job_fraction=*/0.6);
}

TEST(TimeSharedPropertyTest, RejectsDuplicateNodeIds) {
  sim::Simulator simk;
  TimeSharedCluster cluster(simk, {.node_count = 8});
  const workload::Job job = make_job(1, 3, 100.0);
  EXPECT_THROW(cluster.start(job, {2, 5, 2}, 0.5, {}), std::logic_error);
  // The throw happened before any state mutation (validate-then-commit):
  // the same nodes remain fully available.
  for (NodeId id : {2u, 5u}) EXPECT_DOUBLE_EQ(cluster.committed_share(id), 0.0);
  cluster.start(job, {2, 5, 7}, 0.5, {});
  EXPECT_EQ(cluster.running_count(), 1u);
}

}  // namespace
}  // namespace utilrisk::cluster
