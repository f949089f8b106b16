// The flat KK kernel must reproduce the Partition/PartitionHeap reference
// bit for bit: same pops, same combines, same final request sets.  Both
// pairings (RCKK's reverse, forward KK's identity) run on random
// instances that stress head ties (duplicate rates), m = 1, m ≥ n and
// mixed per-request delivery probabilities.
#include <gtest/gtest.h>

#include <vector>

#include "kk_util.h"
#include "nfv/common/rng.h"
#include "nfv/scheduling/algorithm.h"

namespace nfv::sched::detail {
namespace {

/// The reference loop: PartitionHeap + combine(), one combine per pop pair.
template <typename Combine>
Schedule reference_kk(const SchedulingProblem& problem, Combine combine) {
  PartitionHeap heap{initial_partitions(problem)};
  Schedule out;
  while (heap.size() > 1) {
    const Partition a = heap.pop();
    const Partition b = heap.pop();
    heap.push(combine(a, b));
    ++out.work;
  }
  out.instance_of = to_assignment(heap.top(), problem.request_count());
  return out;
}

SchedulingProblem random_problem(Rng& rng, int round) {
  SchedulingProblem p;
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 80));
  // Every fifth round has at least as many instances as requests.
  p.instance_count =
      round % 5 == 0
          ? static_cast<std::uint32_t>(
                n + static_cast<std::size_t>(rng.uniform_int(0, 3)))
          : static_cast<std::uint32_t>(rng.uniform_int(1, 12));
  // Half the rounds draw rates from a tiny set, so heads tie constantly
  // (before and after normalization).
  const bool duplicates = round % 2 == 0;
  const bool mixed_p = round % 3 == 0;
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double rate = duplicates
                            ? static_cast<double>(rng.uniform_int(1, 4)) * 2.5
                            : rng.uniform(1.0, 100.0);
    p.arrival_rates.push_back(rate);
    total += rate;
    if (mixed_p) {
      p.delivery_probs.push_back(
          duplicates ? (rng.uniform_int(0, 1) == 0 ? 0.5 : 1.0)
                     : rng.uniform(0.9, 1.0));
    }
  }
  p.delivery_prob = 0.98;
  p.service_rate = 1.2 * total / p.instance_count;
  p.validate();
  return p;
}

TEST(FlatKk, MatchesReferenceOnRandomInstances) {
  Rng rng(2024);
  int ties_seen = 0;
  for (int round = 0; round < 600; ++round) {
    const SchedulingProblem problem = random_problem(rng, round);
    const std::size_t n = problem.request_count();
    const Schedule flat_rev = flat_kk(problem, ReversePairing{});
    const Schedule ref_rev = reference_kk(problem, combine_reverse);
    ASSERT_EQ(flat_rev.instance_of, ref_rev.instance_of)
        << "reverse, round " << round << " n=" << n
        << " m=" << problem.instance_count;
    ASSERT_EQ(flat_rev.work, ref_rev.work);
    ASSERT_EQ(flat_rev.work, n - 1);

    const Schedule flat_fwd = flat_kk(problem, ForwardPairing{});
    const Schedule ref_fwd = reference_kk(problem, combine_forward);
    ASSERT_EQ(flat_fwd.instance_of, ref_fwd.instance_of)
        << "forward, round " << round;
    ASSERT_EQ(flat_fwd.work, ref_fwd.work);

    for (std::size_t r = 1; r < n; ++r) {
      if (problem.effective_rate(r) == problem.effective_rate(0)) {
        ++ties_seen;
        break;
      }
    }
  }
  EXPECT_GT(ties_seen, 100);  // the tie-heavy half really ties
}

TEST(FlatKk, SchedulersRunTheFlatKernel) {
  // The registered schedulers (m ≥ 2) give the reference assignment.
  Rng rng(7);
  Rng unused(1);
  for (int round = 1; round < 200; ++round) {
    const SchedulingProblem problem = random_problem(rng, round);
    if (problem.instance_count < 2) continue;
    EXPECT_EQ(RckkScheduling{}.schedule(problem, unused).instance_of,
              reference_kk(problem, combine_reverse).instance_of);
    EXPECT_EQ(KkForwardScheduling{}.schedule(problem, unused).instance_of,
              reference_kk(problem, combine_forward).instance_of);
  }
}

TEST(FlatKk, SingleRequestAndSingleInstance) {
  SchedulingProblem one;
  one.arrival_rates = {4.0};
  one.instance_count = 3;
  one.service_rate = 10.0;
  const Schedule s = flat_kk(one, ReversePairing{});
  EXPECT_EQ(s.instance_of, std::vector<std::uint32_t>{0});
  EXPECT_EQ(s.work, 0u);

  SchedulingProblem m1;
  m1.arrival_rates = {4.0, 3.0, 3.0, 1.0};
  m1.instance_count = 1;
  m1.service_rate = 20.0;
  const Schedule t = flat_kk(m1, ReversePairing{});
  EXPECT_EQ(t.instance_of, std::vector<std::uint32_t>(4, 0));
  EXPECT_EQ(t.work, 3u);
}

}  // namespace
}  // namespace nfv::sched::detail
