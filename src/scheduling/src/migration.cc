#include "nfv/scheduling/migration.h"

#include <algorithm>
#include <limits>

#include "nfv/common/error.h"

namespace nfv::sched {

namespace {

double spread(const std::vector<double>& loads) {
  if (loads.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(loads.begin(), loads.end());
  return *hi - *lo;
}

}  // namespace

MigrationPlan plan_bounded_migration(const SchedulingProblem& problem,
                                     const std::vector<std::uint32_t>& current,
                                     const Schedule& target,
                                     std::uint32_t budget,
                                     double capacity_limit) {
  const std::size_t n = problem.request_count();
  const std::uint32_t m = problem.instance_count;
  NFV_REQUIRE(current.size() == n);
  NFV_REQUIRE(target.instance_of.size() == n);
  for (std::size_t r = 0; r < n; ++r) {
    NFV_REQUIRE(current[r] < m);
    NFV_REQUIRE(target.instance_of[r] < m);
  }

  std::vector<double> rate(n);
  for (std::size_t r = 0; r < n; ++r) rate[r] = problem.effective_rate(r);

  // Effective-load overlap between target part p and live instance k, for
  // the at most n (part, instance) cells some request lands in.  Requests
  // are bucketed by part (a stable counting sort), so each cell sums its
  // requests in request order, as a dense m×m accumulation would.
  std::vector<std::uint32_t> part_start(static_cast<std::size_t>(m) + 1, 0);
  for (std::size_t r = 0; r < n; ++r) ++part_start[target.instance_of[r] + 1];
  for (std::uint32_t p = 0; p < m; ++p) part_start[p + 1] += part_start[p];
  std::vector<std::uint32_t> by_part(n);
  {
    std::vector<std::uint32_t> fill(part_start.begin(), part_start.end() - 1);
    for (std::size_t r = 0; r < n; ++r) {
      by_part[fill[target.instance_of[r]]++] = static_cast<std::uint32_t>(r);
    }
  }
  struct Cell {
    double overlap;
    std::uint32_t part;
    std::uint32_t instance;
  };
  std::vector<Cell> cells;
  cells.reserve(n);
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> cell_part(m, kNone);  // part of cell_index[k]
  std::vector<std::uint32_t> cell_index(m, 0);
  for (std::uint32_t p = 0; p < m; ++p) {
    for (std::uint32_t i = part_start[p]; i < part_start[p + 1]; ++i) {
      const std::uint32_t r = by_part[i];
      const std::uint32_t k = current[r];
      if (cell_part[k] != p) {
        cell_part[k] = p;
        cell_index[k] = static_cast<std::uint32_t>(cells.size());
        cells.push_back(Cell{0.0, p, k});
      }
      cells[cell_index[k]].overlap += rate[r];
    }
  }

  // Greedy maximum-overlap matching of parts to instances; ties break on
  // the lower part then the lower instance, so the result is deterministic.
  // Each round takes the free (part, instance) pair first in (overlap desc,
  // part asc, instance asc) order: the sorted cells while any free one
  // overlaps, then the lowest free part with the lowest free instance,
  // which the ascending sweep below pairs up.  O(n log n + m) in all.
  std::sort(cells.begin(), cells.end(), [](const Cell& a, const Cell& b) {
    if (a.overlap != b.overlap) return a.overlap > b.overlap;
    if (a.part != b.part) return a.part < b.part;
    return a.instance < b.instance;
  });
  MigrationPlan plan;
  std::vector<std::uint32_t> instance_of_part(m, kNone);
  std::vector<bool> instance_taken(m, false);
  for (const Cell& c : cells) {
    if (instance_of_part[c.part] != kNone || instance_taken[c.instance]) {
      continue;
    }
    instance_of_part[c.part] = c.instance;
    instance_taken[c.instance] = true;
  }
  std::uint32_t free_instance = 0;
  for (std::uint32_t p = 0; p < m; ++p) {
    if (instance_of_part[p] != kNone) continue;
    while (instance_taken[free_instance]) ++free_instance;
    instance_of_part[p] = free_instance;
    instance_taken[free_instance] = true;
  }
  plan.part_of_instance.assign(m, 0);
  for (std::uint32_t p = 0; p < m; ++p) {
    plan.part_of_instance[instance_of_part[p]] = p;
  }

  // Current effective loads, and the instance each request should end on.
  std::vector<double> load(m, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    load[current[r]] += rate[r];
  }
  plan.imbalance_before = spread(load);

  std::vector<std::size_t> mismatched;
  for (std::size_t r = 0; r < n; ++r) {
    if (instance_of_part[target.instance_of[r]] != current[r]) {
      mismatched.push_back(r);
    }
  }
  // Heaviest first; the lower position on ties (a stable sort's order).
  std::sort(mismatched.begin(), mismatched.end(),
            [&](std::size_t a, std::size_t b) {
              return rate[a] != rate[b] ? rate[a] > rate[b] : a < b;
            });

  for (const std::size_t r : mismatched) {
    if (plan.moves.size() >= budget) break;
    const std::uint32_t from = current[r];
    const std::uint32_t to = instance_of_part[target.instance_of[r]];
    if (capacity_limit > 0.0 && load[to] + rate[r] > capacity_limit) continue;
    load[from] -= rate[r];
    load[to] += rate[r];
    plan.moves.push_back({r, from, to});
  }
  plan.imbalance_after = spread(load);
  return plan;
}

}  // namespace nfv::sched
