// Consolidation study (the paper's Fig. 1 motivation): an operator has a
// rack of servers and a fixed VNF estate — how many servers can each
// placement policy switch off, and what does that do to per-request
// latency?
//
//   $ ./datacenter_consolidation [seed]
#include <cstdio>
#include <cstdlib>

#include "nfv/common/table.h"
#include "nfv/core/joint_optimizer.h"
#include "nfv/topology/builders.h"
#include "nfv/workload/generator.h"

namespace {

nfv::core::SystemModel build_model(std::uint64_t seed) {
  nfv::Rng rng(seed);
  nfv::core::SystemModel model;
  // A 16-server rack behind one ToR switch; heterogeneous capacities
  // (older and newer servers side by side).
  model.topology = nfv::topo::make_star(
      16, nfv::topo::CapacitySpec{1500.0, 5000.0},
      nfv::topo::LinkSpec{150e-6}, rng);
  nfv::workload::WorkloadConfig wcfg;
  wcfg.vnf_count = 20;
  wcfg.request_count = 300;
  wcfg.chain_template_count = 12;  // a dozen service offerings
  wcfg.service_headroom = 1.15;
  model.workload = nfv::workload::WorkloadGenerator(wcfg).generate(rng);
  return model;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  const nfv::core::SystemModel model = build_model(seed);

  std::printf(
      "Consolidating %zu VNFs (%0.0f capacity units of demand) on a "
      "16-server rack\n\n",
      model.workload.vnfs.size(), model.workload.total_demand());

  nfv::Table table({"policy", "servers on", "avg utilization %",
                    "avg request latency", "rejection %"});
  table.set_precision(3);
  for (const auto* placer : {"BFDSU", "BFD", "FFD", "NAH", "WFD"}) {
    nfv::core::JointConfig cfg;
    cfg.placement_algorithm = placer;
    cfg.scheduling_algorithm = "RCKK";
    const auto result = nfv::core::JointOptimizer(cfg).run(model, seed);
    if (!result.feasible) {
      table.add_row({std::string(placer), std::string("-"),
                     std::string("infeasible"), std::string("-"),
                     std::string("-")});
      continue;
    }
    table.add_row({std::string(placer),
                   static_cast<long long>(
                       result.placement_metrics.nodes_in_service),
                   100.0 * result.placement_metrics.avg_utilization_of_used,
                   result.avg_total_latency,
                   100.0 * result.job_rejection_rate});
  }
  std::fputs(table.markdown().c_str(), stdout);
  std::puts(
      "\nEvery server not in service can be powered down; BFDSU keeps the\n"
      "same workload on the fewest, fullest servers (the paper's\n"
      "inter-server -> intra-server processing conversion of Fig. 1).");
  return 0;
}
