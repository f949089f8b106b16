// The sparse part-to-instance matching of plan_bounded_migration must give
// exactly the plan of the dense m×m greedy scan it replaced.  The dense
// planner below is that scan, kept verbatim as the executable
// specification; random instances cover overlap ties, parts with no
// requests (zero-overlap leftovers), empty instances, budgets of 0..K and
// capacity limits tight enough to skip moves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "nfv/common/rng.h"
#include "nfv/scheduling/algorithm.h"
#include "nfv/scheduling/migration.h"

namespace nfv::sched {
namespace {

double spread(const std::vector<double>& loads) {
  if (loads.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(loads.begin(), loads.end());
  return *hi - *lo;
}

MigrationPlan dense_plan(const SchedulingProblem& problem,
                         const std::vector<std::uint32_t>& current,
                         const Schedule& target, std::uint32_t budget,
                         double capacity_limit) {
  const std::size_t n = problem.request_count();
  const std::uint32_t m = problem.instance_count;
  std::vector<double> overlap(static_cast<std::size_t>(m) * m, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    overlap[static_cast<std::size_t>(target.instance_of[r]) * m + current[r]] +=
        problem.effective_rate(r);
  }
  MigrationPlan plan;
  std::vector<std::uint32_t> instance_of_part(
      m, std::numeric_limits<std::uint32_t>::max());
  std::vector<bool> part_taken(m, false);
  std::vector<bool> instance_taken(m, false);
  for (std::uint32_t round = 0; round < m; ++round) {
    double best = -1.0;
    std::uint32_t best_p = 0;
    std::uint32_t best_k = 0;
    for (std::uint32_t p = 0; p < m; ++p) {
      if (part_taken[p]) continue;
      for (std::uint32_t k = 0; k < m; ++k) {
        if (instance_taken[k]) continue;
        const double o = overlap[static_cast<std::size_t>(p) * m + k];
        if (o > best) {
          best = o;
          best_p = p;
          best_k = k;
        }
      }
    }
    part_taken[best_p] = true;
    instance_taken[best_k] = true;
    instance_of_part[best_p] = best_k;
  }
  plan.part_of_instance.assign(m, 0);
  for (std::uint32_t p = 0; p < m; ++p) {
    plan.part_of_instance[instance_of_part[p]] = p;
  }
  std::vector<double> load(m, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    load[current[r]] += problem.effective_rate(r);
  }
  plan.imbalance_before = spread(load);
  std::vector<std::size_t> mismatched;
  for (std::size_t r = 0; r < n; ++r) {
    if (instance_of_part[target.instance_of[r]] != current[r]) {
      mismatched.push_back(r);
    }
  }
  std::stable_sort(mismatched.begin(), mismatched.end(),
                   [&](std::size_t a, std::size_t b) {
                     return problem.effective_rate(a) >
                            problem.effective_rate(b);
                   });
  for (const std::size_t r : mismatched) {
    if (plan.moves.size() >= budget) break;
    const std::uint32_t from = current[r];
    const std::uint32_t to = instance_of_part[target.instance_of[r]];
    const double rate = problem.effective_rate(r);
    if (capacity_limit > 0.0 && load[to] + rate > capacity_limit) continue;
    load[from] -= rate;
    load[to] += rate;
    plan.moves.push_back({r, from, to});
  }
  plan.imbalance_after = spread(load);
  return plan;
}

void expect_same(const MigrationPlan& sparse, const MigrationPlan& dense,
                 int round) {
  ASSERT_EQ(sparse.part_of_instance, dense.part_of_instance) << round;
  ASSERT_EQ(sparse.moves, dense.moves) << round;
  // Bit-identical, not merely close.
  ASSERT_EQ(sparse.imbalance_before, dense.imbalance_before) << round;
  ASSERT_EQ(sparse.imbalance_after, dense.imbalance_after) << round;
}

TEST(SparseMigration, MatchesDenseScanOnRandomInstances) {
  Rng rng(31);
  Rng unused(1);
  int zero_overlap_parts = 0;
  int capacity_skips = 0;
  for (int round = 0; round < 600; ++round) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 90));
    const auto m = static_cast<std::uint32_t>(rng.uniform_int(1, 14));
    SchedulingProblem p;
    p.instance_count = m;
    p.service_rate = 1000.0;
    const bool duplicates = round % 2 == 0;
    for (std::size_t r = 0; r < n; ++r) {
      p.arrival_rates.push_back(
          duplicates ? static_cast<double>(rng.uniform_int(1, 3))
                     : rng.uniform(0.5, 50.0));
      if (round % 3 == 0) p.delivery_probs.push_back(rng.uniform(0.8, 1.0));
    }
    // Live assignment: some rounds crowd a few instances, leaving others
    // empty.
    const auto live_span = static_cast<std::int64_t>(
        round % 4 == 0 ? std::max<std::uint32_t>(1, m / 3) : m);
    std::vector<std::uint32_t> current(n);
    for (auto& k : current) {
      k = static_cast<std::uint32_t>(rng.uniform_int(0, live_span - 1));
    }
    // Target: RCKK's, or a random one that leaves parts unused.
    Schedule target;
    if (round % 3 == 1) {
      target = RckkScheduling{}.schedule(p, unused);
    } else {
      const auto part_span = static_cast<std::int64_t>(
          round % 3 == 2 ? std::max<std::uint32_t>(1, m / 2) : m);
      target.instance_of.resize(n);
      for (auto& k : target.instance_of) {
        k = static_cast<std::uint32_t>(rng.uniform_int(0, part_span - 1));
      }
    }
    std::vector<bool> part_used(m, false);
    for (const std::uint32_t k : target.instance_of) part_used[k] = true;
    zero_overlap_parts += static_cast<int>(
        std::count(part_used.begin(), part_used.end(), false));

    const auto budget = static_cast<std::uint32_t>(rng.uniform_int(0, 12));
    // Capacity: none, loose, or tight (just above the mean load).
    const double mean = p.total_effective_rate() / m;
    const double caps[] = {0.0, 10.0 * mean, 1.05 * mean};
    const double cap = caps[round % 3];

    const MigrationPlan sparse =
        plan_bounded_migration(p, current, target, budget, cap);
    const MigrationPlan dense = dense_plan(p, current, target, budget, cap);
    expect_same(sparse, dense, round);
    if (cap > 0.0 && budget > 0) {
      const MigrationPlan uncapped =
          plan_bounded_migration(p, current, target, budget, 0.0);
      if (uncapped.moves != sparse.moves) ++capacity_skips;
    }
  }
  EXPECT_GT(zero_overlap_parts, 100);
  EXPECT_GT(capacity_skips, 20);
}

TEST(SparseMigration, ZeroOverlapPartsPairWithLeftoverInstancesAscending) {
  // Every request sits on instance 2 and targets part 1: part 1 claims
  // instance 2, then the empty parts 0, 2, 3 take instances 0, 1, 3.
  SchedulingProblem p;
  p.arrival_rates = {5.0, 4.0, 3.0};
  p.instance_count = 4;
  p.service_rate = 100.0;
  const std::vector<std::uint32_t> current = {2, 2, 2};
  Schedule target;
  target.instance_of = {1, 1, 1};
  const MigrationPlan plan = plan_bounded_migration(p, current, target, 4);
  EXPECT_EQ(plan.part_of_instance, (std::vector<std::uint32_t>{0, 2, 1, 3}));
  EXPECT_TRUE(plan.moves.empty());
  expect_same(plan, dense_plan(p, current, target, 4, 0.0), 0);
}

}  // namespace
}  // namespace nfv::sched
