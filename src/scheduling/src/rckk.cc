// RCKK — Algorithm 2 of the paper, verbatim: reverse-order m-way
// Karmarkar-Karp differencing with request-set tracking.
#include "nfv/obs/metrics.h"
#include "nfv/obs/trace.h"
#include "nfv/scheduling/algorithm.h"
#include "kk_util.h"

namespace nfv::sched {

Schedule RckkScheduling::schedule(const SchedulingProblem& problem,
                                  Rng& /*rng*/) const {
  const obs::ScopedSpan span("sched.rckk.schedule");
  problem.validate();
  Schedule out;
  if (problem.instance_count == 1) {
    out.instance_of.assign(problem.request_count(), 0);
    out.work = problem.request_count();
    obs::count("sched.rckk.runs");
    obs::count("sched.rckk.combines", out.work);
    return out;
  }
  // Lines 2-6 — combine the two partitions with the largest leading values
  // in reverse order, normalize, reinsert — on the flat kernel.
  out = detail::flat_kk(problem, detail::ReversePairing{});
  out.validate(problem);
  obs::count("sched.rckk.runs");
  obs::count("sched.rckk.combines", out.work);
  return out;
}

}  // namespace nfv::sched
