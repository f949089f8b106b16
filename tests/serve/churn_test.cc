// Node-churn semantics of the serving engine (DESIGN.md §13): the
// evacuation ladder (re-place → scale out → park → shed), backoff-gated
// retries, the sustained-overload degradation mode, the availability
// integral, and the trace-level validity rules for NODE_DOWN/NODE_UP.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "nfv/serve/engine.h"
#include "nfv/workload/event_stream.h"

namespace nfv::serve {
namespace {

using workload::StreamEvent;
using workload::StreamEventKind;
using workload::TraceParseError;

topo::Topology make_topo(const std::vector<double>& capacities) {
  topo::Topology t;
  std::vector<NodeId> ids;
  ids.reserve(capacities.size());
  for (const double c : capacities) ids.push_back(t.add_compute(c));
  for (std::size_t i = 1; i < ids.size(); ++i) {
    t.connect_nodes(ids[0], ids[i], 1e-4);
  }
  t.freeze();
  return t;
}

std::vector<workload::Vnf> make_vnfs(std::size_t n, double demand,
                                     double mu) {
  std::vector<workload::Vnf> vnfs(n);
  for (std::size_t f = 0; f < n; ++f) {
    vnfs[f].id = VnfId(static_cast<std::uint32_t>(f));
    vnfs[f].name = "F" + std::to_string(f);
    vnfs[f].demand_per_instance = demand;
    vnfs[f].service_rate = mu;
  }
  return vnfs;
}

StreamEvent arrive(double t, std::uint32_t id, double rate,
                   std::vector<std::uint32_t> chain) {
  StreamEvent e;
  e.time = t;
  e.kind = StreamEventKind::kArrive;
  e.request = id;
  e.rate = rate;
  e.delivery_prob = 1.0;
  e.chain = std::move(chain);
  return e;
}

StreamEvent depart(double t, std::uint32_t id) {
  StreamEvent e;
  e.time = t;
  e.kind = StreamEventKind::kDepart;
  e.request = id;
  return e;
}

StreamEvent node_event(double t, StreamEventKind kind, std::uint32_t node) {
  StreamEvent e;
  e.time = t;
  e.kind = kind;
  e.node = node;
  return e;
}

StreamEvent node_down(double t, std::uint32_t node) {
  return node_event(t, StreamEventKind::kNodeDown, node);
}

StreamEvent node_up(double t, std::uint32_t node) {
  return node_event(t, StreamEventKind::kNodeUp, node);
}

ServeConfig zero_headroom() {
  ServeConfig cfg;
  cfg.headroom = 0.0;
  cfg.degraded_headroom = 0.25;
  return cfg;
}

TEST(ServeChurn, EvacuationReplacesBrokenHopsOnSurvivors) {
  // One instance fits per node; losing node 0 must rebuild the hop on
  // node 1 and keep the request live the whole time.
  ServeEngine engine(make_topo({100.0, 100.0}), make_vnfs(1, 60.0, 10.0),
                     zero_headroom());
  engine.on_event(arrive(0.0, 1, 5.0, {0}));
  const auto down = engine.on_event(node_down(1.0, 0));
  EXPECT_EQ(down.decision, Decision::kNodeDown);
  EXPECT_EQ(down.evacuated, 1u);
  EXPECT_GE(down.evacuation_migrations, 1u);

  const ServeSummary s = engine.summary();
  EXPECT_EQ(s.node_downs, 1u);
  EXPECT_EQ(s.instances_closed, 1u);
  EXPECT_EQ(s.evacuated_requests, 1u);
  EXPECT_EQ(s.live_requests, 1u);
  EXPECT_EQ(s.parked, 0u);
  const auto snap = engine.snapshot();
  ASSERT_EQ(snap.instances.size(), 1u);
  EXPECT_EQ(snap.instances[0].node, 1u);
  EXPECT_EQ(snap.nodes_down, std::vector<std::uint32_t>{0});
}

TEST(ServeChurn, ParkedRequestRetriesAfterBackoffOnRejoin) {
  // Only node: the evacuated request has nowhere to go, parks with
  // not_before = index + retry_backoff_base, and re-admits only once the
  // event index passes the gate (not merely when the node rejoins).
  ServeConfig cfg = zero_headroom();
  cfg.retry_backoff_base = 4;
  ServeEngine engine(make_topo({100.0}), make_vnfs(1, 60.0, 10.0), cfg);
  engine.on_event(arrive(0.0, 1, 5.0, {0}));          // index 0
  const auto down = engine.on_event(node_down(1.0, 0));  // index 1 → gate 5
  EXPECT_EQ(down.parked, 1u);
  EXPECT_EQ(engine.snapshot().retrying, std::vector<std::uint32_t>{1});

  const auto up = engine.on_event(node_up(2.0, 0));   // index 2: still gated
  EXPECT_EQ(up.retry_admitted, 0u);
  EXPECT_EQ(engine.snapshot().retrying, std::vector<std::uint32_t>{1});

  engine.on_event(arrive(3.0, 2, 1.0, {0}));          // index 3
  engine.on_event(depart(4.0, 2));                    // index 4
  const auto gate = engine.on_event(arrive(5.0, 3, 1.0, {0}));  // index 5
  EXPECT_EQ(gate.retry_admitted, 1u);

  const ServeSummary s = engine.summary();
  EXPECT_EQ(s.parked, 1u);
  EXPECT_EQ(s.retry_admitted, 1u);
  EXPECT_EQ(s.retry_queued, 0u);
  EXPECT_EQ(s.live_requests, 2u);  // requests 1 and 3
}

TEST(ServeChurn, TotalOutageParksEverythingAndRecovers) {
  // Every node goes down while four requests are live: nothing can stay
  // placed, so every request parks (none is lost), and the first node to
  // rejoin takes retries once the backoff gate passes.  One 60-unit
  // instance fits per node.
  ServeConfig cfg = zero_headroom();
  cfg.retry_backoff_base = 4;
  ServeEngine engine(make_topo({100.0, 100.0, 100.0}),
                     make_vnfs(2, 60.0, 10.0), cfg);
  engine.on_event(arrive(0.0, 1, 3.0, {0}));      // index 0
  engine.on_event(arrive(0.1, 2, 3.0, {1}));      // index 1
  engine.on_event(arrive(0.2, 3, 2.0, {0, 1}));   // index 2
  engine.on_event(arrive(0.3, 4, 1.0, {0}));      // index 3
  ASSERT_EQ(engine.summary().live_requests, 4u);

  const auto accounted = [](const ServeSummary& s) {
    return s.live_requests + s.queued_requests + s.retry_queued +
           s.rejected + s.departures + s.shed + s.shed_fault +
           s.shed_overload;
  };
  for (std::uint32_t node = 0; node < 3; ++node) {  // indices 4..6
    engine.on_event(node_down(1.0 + node, node));
  }
  const ServeSummary out = engine.summary();
  EXPECT_EQ(out.live_requests, 0u);
  EXPECT_EQ(out.node_downs, 3u);
  EXPECT_EQ(out.retry_queued, 4u);
  EXPECT_EQ(out.arrivals, accounted(out));
  const auto snap = engine.snapshot();
  EXPECT_EQ(snap.nodes_down, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_TRUE(snap.live.empty());
  for (const auto& inst : snap.instances) {
    EXPECT_EQ(std::count(snap.nodes_down.begin(), snap.nodes_down.end(),
                         inst.node),
              0)
        << "active instance on down node " << inst.node;
  }

  // One node rejoins; retries wait for the event-indexed gate, so pass it
  // with short-lived arrivals.
  engine.on_event(node_up(4.0, 0));  // index 7
  for (std::uint32_t i = 0; i < 6; ++i) {
    engine.on_event(arrive(5.0 + i, 100 + i, 0.1, {0}));
    engine.on_event(depart(5.5 + i, 100 + i));
  }
  const ServeSummary back = engine.summary();
  EXPECT_GT(back.retry_admitted, 0u);
  EXPECT_GT(back.live_requests, 0u);
  EXPECT_EQ(back.arrivals, accounted(back));
}

TEST(ServeChurn, RetryBudgetExhaustionShedsWithAccounting) {
  // Node 1 is too small to ever host an instance, so while node 0 is down
  // every retry fails; with a zero budget the first failed retry sheds.
  ServeConfig cfg = zero_headroom();
  cfg.retry_backoff_base = 1;
  cfg.retry_budget = 0;
  ServeEngine engine(make_topo({100.0, 10.0}), make_vnfs(1, 60.0, 10.0),
                     cfg);
  engine.on_event(arrive(0.0, 1, 5.0, {0}));          // index 0
  engine.on_event(node_down(1.0, 0));                 // index 1 → gate 2
  const auto fail = engine.on_event(arrive(2.0, 2, 1.0, {0}));  // index 2
  EXPECT_EQ(fail.shed_fault, 1u);

  // The trace's later departure of the shed request is a deliberate
  // no-op, not an unknown-request error, and is not double-counted.
  const auto gone = engine.on_event(depart(3.0, 1));
  EXPECT_EQ(gone.decision, Decision::kDeparted);

  const ServeSummary s = engine.summary();
  EXPECT_EQ(s.shed_fault, 1u);
  EXPECT_EQ(s.departures, 0u);
  // arrivals == live + queued + retrying + rejected + departed + shed*.
  EXPECT_EQ(s.arrivals, s.live_requests + s.queued_requests +
                            s.retry_queued + s.rejected + s.departures +
                            s.shed + s.shed_fault + s.shed_overload);
}

TEST(ServeChurn, SustainedOverloadEntersDegradedModeAndSheds) {
  ServeConfig cfg = zero_headroom();
  cfg.overload_window = 4;
  cfg.overload_threshold = 0.5;
  cfg.degraded_headroom = 0.5;  // tightened limit: 5 of μ = 10
  cfg.queue_capacity = 2;
  ServeEngine engine(make_topo({100.0}), make_vnfs(1, 100.0, 10.0), cfg);
  engine.on_event(arrive(0.0, 1, 9.0, {0}));  // admitted, load 9
  engine.on_event(arrive(1.0, 2, 6.0, {0}));  // queued (9 + 6 > 10)
  engine.on_event(arrive(2.0, 3, 6.0, {0}));  // queued
  engine.on_event(arrive(3.0, 4, 6.0, {0}));  // rejected (queue full)
  const auto s1 = engine.summary();
  // Window [0,1,1,1] hits the 0.5 threshold at the rejection; entering
  // degraded mode tightens the limit to 5 and sheds request 1 (rate 9).
  EXPECT_EQ(s1.degradations, 1u);
  EXPECT_EQ(s1.shed_overload, 1u);
  EXPECT_TRUE(engine.snapshot().degraded);
  EXPECT_GE(s1.degraded_events, 1u);
  EXPECT_EQ(s1.arrivals, s1.live_requests + s1.queued_requests +
                             s1.retry_queued + s1.rejected + s1.departures +
                             s1.shed + s1.shed_fault + s1.shed_overload);

  // Pressure released: the queue empties and calm admissions push the
  // pressure fraction under half the threshold, exiting degraded mode.
  engine.on_event(depart(4.0, 2));           // still queued → removed
  engine.on_event(depart(5.0, 3));           // queue now empty
  engine.on_event(arrive(6.0, 5, 0.5, {0}));  // admitted under limit 5
  engine.on_event(arrive(7.0, 6, 0.5, {0}));
  EXPECT_FALSE(engine.snapshot().degraded);
  const auto s2 = engine.summary();
  EXPECT_EQ(s2.degradations, 1u);  // entered once, not re-entered
}

TEST(ServeChurn, AvailabilityIntegratesOfferedVsServedRate) {
  // Rate 8 served over [0, 1), parked (offered but unserved) over [1, 2):
  // availability = 8·1 / (8·1 + 8·1) = 0.5 at the rejoin event.
  ServeEngine engine(make_topo({100.0}), make_vnfs(1, 100.0, 10.0),
                     zero_headroom());
  engine.on_event(arrive(0.0, 1, 8.0, {0}));
  engine.on_event(node_down(1.0, 0));
  engine.on_event(node_up(2.0, 0));
  EXPECT_DOUBLE_EQ(engine.summary().availability, 0.5);
}

TEST(ServeChurn, NodeUpRestoresPlacementCandidacy) {
  ServeEngine engine(make_topo({100.0, 100.0}), make_vnfs(1, 60.0, 10.0),
                     zero_headroom());
  engine.on_event(node_down(0.0, 0));
  engine.on_event(arrive(1.0, 1, 5.0, {0}));
  EXPECT_EQ(engine.snapshot().instances.front().node, 1u);
  engine.on_event(node_up(2.0, 0));
  // Rate 6 does not fit the node-1 instance (5 + 6 > μ = 10), forcing a
  // scale-out; node 1 has only 40 free so the rejoined node 0 hosts it.
  engine.on_event(arrive(3.0, 2, 6.0, {0}));
  const auto snap = engine.snapshot();
  ASSERT_EQ(snap.instances.size(), 2u);
  EXPECT_EQ(snap.instances[1].node, 0u);
  EXPECT_TRUE(snap.nodes_down.empty());
}

TEST(ServeChurn, InvalidNodeEventsThrow) {
  const auto fresh = [] {
    return ServeEngine(make_topo({100.0, 100.0}),
                       make_vnfs(1, 60.0, 10.0), zero_headroom());
  };
  {
    ServeEngine e = fresh();
    EXPECT_THROW(e.on_event(node_down(0.0, 7)), TraceParseError);
  }
  {
    ServeEngine e = fresh();
    e.on_event(node_down(0.0, 0));
    EXPECT_THROW(e.on_event(node_down(1.0, 0)), TraceParseError);
  }
  {
    ServeEngine e = fresh();
    EXPECT_THROW(e.on_event(node_up(0.0, 1)), TraceParseError);
  }
}

TEST(ServeChurn, ConfigValidateRejectsNonFiniteKnobs) {
  const auto bad = [](auto&& mutate) {
    ServeConfig cfg;
    mutate(cfg);
    cfg.validate();
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(bad([&](ServeConfig& c) { c.headroom = nan; }),
               std::invalid_argument);
  EXPECT_THROW(bad([&](ServeConfig& c) { c.headroom = 1.0; }),
               std::invalid_argument);
  EXPECT_THROW(bad([&](ServeConfig& c) { c.headroom = -0.1; }),
               std::invalid_argument);
  EXPECT_THROW(bad([&](ServeConfig& c) { c.rebalance_threshold = nan; }),
               std::invalid_argument);
  EXPECT_THROW(bad([&](ServeConfig& c) { c.rebalance_threshold = -1.0; }),
               std::invalid_argument);
  EXPECT_THROW(bad([&](ServeConfig& c) { c.link_latency = nan; }),
               std::invalid_argument);
  EXPECT_THROW(bad([&](ServeConfig& c) { c.degraded_headroom = 0.05; }),
               std::invalid_argument);
  EXPECT_THROW(bad([&](ServeConfig& c) { c.overload_threshold = nan; }),
               std::invalid_argument);
}

}  // namespace
}  // namespace nfv::serve
