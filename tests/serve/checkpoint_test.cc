// Crash-safe checkpoint/resume (DESIGN.md §13).  The hard contract under
// test: kill the replay at ANY event index, restore from the checkpoint,
// finish the trace — the final engine state (and thus report/summary) is
// byte-identical to the uninterrupted run, under any thread-pool width,
// on traces with full node churn.  The byte-level comparator is the
// checkpoint serialization itself, which covers every float verbatim,
// all aggregate counters, and the outcome log when one is recorded.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "nfv/common/rng.h"
#include "nfv/exec/thread_pool.h"
#include "nfv/obs/json.h"
#include "nfv/serve/checkpoint.h"
#include "nfv/serve/engine.h"
#include "nfv/topology/builders.h"
#include "nfv/workload/generator.h"

namespace nfv::serve {
namespace {

topo::Topology make_topo() {
  topo::Topology t;
  std::vector<NodeId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(t.add_compute(1200.0 + 250.0 * i));
  }
  for (std::size_t i = 1; i < ids.size(); ++i) {
    t.connect_nodes(ids[0], ids[i], 1e-4);
  }
  t.freeze();
  return t;
}

struct Fixture {
  workload::Workload base;
  workload::EventTrace trace;
};

/// Churn over most of the node set so evacuations, parking, retries and
/// degradation all fire inside the checkpointed window.
Fixture make_churn_fixture(std::uint64_t seed) {
  workload::WorkloadConfig wcfg;
  wcfg.vnf_count = 6;
  wcfg.request_count = 25;
  Rng wrng(seed);
  Fixture fx;
  fx.base = workload::WorkloadGenerator(wcfg).generate(wrng);
  workload::EventStreamConfig scfg;
  scfg.event_count = 220;
  scfg.churn_node_count = 4;
  scfg.node_mtbf = 3.0;
  scfg.node_mttr = 0.8;
  Rng srng(seed + 100);
  fx.trace = workload::EventStreamGenerator(fx.base, scfg).generate(srng);
  return fx;
}

ServeEngine fresh_engine(const Fixture& fx, bool events_log = false) {
  ServeConfig cfg;
  cfg.rebalance_threshold = 0.15;
  cfg.overload_window = 16;
  cfg.events_log = events_log;
  return ServeEngine(make_topo(), fx.base.vnfs, cfg);
}

TEST(ServeCheckpoint, RoundTripRestoresStateVerbatim) {
  const Fixture fx = make_churn_fixture(7);
  ServeEngine engine = fresh_engine(fx);
  engine.replay(fx.trace);
  const std::string text =
      save_checkpoint_string(engine, fx.trace.events.size());

  std::uint64_t cursor = 0;
  ServeEngine restored =
      restore_checkpoint(text, make_topo(), fx.base.vnfs, &cursor);
  EXPECT_EQ(cursor, fx.trace.events.size());
  EXPECT_TRUE(engine.snapshot() == restored.snapshot());
  EXPECT_EQ(engine.work(), restored.work());
  // The serialization itself must be a fixed point: saving the restored
  // engine reproduces the text byte for byte.
  EXPECT_EQ(save_checkpoint_string(restored, cursor), text);
}

TEST(ServeCheckpoint, KillAtAnyEventResumesByteIdentical) {
  for (const std::uint64_t seed : {2u, 7u, 19u}) {
    const Fixture fx = make_churn_fixture(seed);
    const std::size_t n = fx.trace.events.size();
    // One seed records the outcome log, so the identity covers it too.
    const bool events_log = seed == 7u;

    ServeEngine uninterrupted = fresh_engine(fx, events_log);
    uninterrupted.replay(fx.trace);
    const std::string want = save_checkpoint_string(uninterrupted, n);
    // The fixture must actually exercise the fault ladder for the
    // identity below to mean anything.
    const ServeSummary s = uninterrupted.summary();
    ASSERT_GT(s.node_downs, 0u) << "seed " << seed;
    ASSERT_GT(s.evacuated_requests + s.parked + s.shed_fault, 0u)
        << "seed " << seed;

    ServeEngine running = fresh_engine(fx, events_log);  // to each kill point
    for (std::size_t k = 0; k <= n; ++k) {
      if (k > 0) running.on_event(fx.trace.events[k - 1]);
      const std::string ck = save_checkpoint_string(running, k);
      std::uint64_t cursor = 0;
      ServeEngine resumed =
          restore_checkpoint(ck, make_topo(), fx.base.vnfs, &cursor);
      ASSERT_EQ(cursor, k);
      for (std::size_t i = k; i < n; ++i) {
        resumed.on_event(fx.trace.events[i]);
      }
      ASSERT_EQ(save_checkpoint_string(resumed, n), want)
          << "seed " << seed << " killed at event " << k;
    }
  }
}

TEST(ServeCheckpoint, ThreadWidthNeverLeaksIntoCheckpoints) {
  const Fixture fx = make_churn_fixture(11);
  const std::size_t n = fx.trace.events.size();

  ServeEngine serial = fresh_engine(fx);
  serial.replay(fx.trace);
  const std::string want = save_checkpoint_string(serial, n);

  // Whole replay under a wide pool…
  {
    exec::ThreadPool pool(8);
    exec::ScopedPool scope(pool);
    ServeEngine wide = fresh_engine(fx);
    wide.replay(fx.trace);
    EXPECT_EQ(save_checkpoint_string(wide, n), want);
  }
  // …and a serial prefix resumed under a wide pool.
  {
    ServeEngine prefix = fresh_engine(fx);
    const std::size_t k = n / 2;
    for (std::size_t i = 0; i < k; ++i) prefix.on_event(fx.trace.events[i]);
    const std::string ck = save_checkpoint_string(prefix, k);

    exec::ThreadPool pool(8);
    exec::ScopedPool scope(pool);
    std::uint64_t cursor = 0;
    ServeEngine resumed =
        restore_checkpoint(ck, make_topo(), fx.base.vnfs, &cursor);
    for (std::size_t i = cursor; i < n; ++i) {
      resumed.on_event(fx.trace.events[i]);
    }
    EXPECT_EQ(save_checkpoint_string(resumed, n), want);
  }
}

TEST(ServeCheckpoint, PeekReportsCursorAndCounts) {
  const Fixture fx = make_churn_fixture(3);
  ServeEngine engine = fresh_engine(fx);
  engine.replay(fx.trace);
  const std::string text =
      save_checkpoint_string(engine, fx.trace.events.size());

  const CheckpointInfo info = peek_checkpoint(text);
  EXPECT_EQ(info.cursor, fx.trace.events.size());
  EXPECT_EQ(info.vnf_count, fx.base.vnfs.size());
  EXPECT_EQ(info.node_count, 5u);
  EXPECT_EQ(info.live_requests, engine.summary().live_requests);
  EXPECT_EQ(info.logged_events, 0u);  // no log recorded, none written

  ServeEngine logging = fresh_engine(fx, /*events_log=*/true);
  logging.replay(fx.trace);
  const CheckpointInfo logged = peek_checkpoint(
      save_checkpoint_string(logging, fx.trace.events.size()));
  EXPECT_EQ(logged.logged_events, logging.log().size());
  EXPECT_EQ(logged.logged_events, fx.trace.events.size());
}

std::size_t instances_in(const std::string& text) {
  const auto doc = obs::parse_json(text);
  EXPECT_TRUE(doc.has_value());
  return doc ? doc->find("instances")->as_array().size() : 0;
}

// ROADMAP O12: with the log off, a checkpoint holds live state only, so
// its size tracks the live population — not the number of events served,
// nor the instances retired along the way.
TEST(ServeCheckpoint, BytesBoundedByLiveState) {
  workload::WorkloadConfig wcfg;
  wcfg.vnf_count = 6;
  wcfg.request_count = 25;
  Rng wrng(13);
  const workload::Workload base =
      workload::WorkloadGenerator(wcfg).generate(wrng);
  workload::EventStreamConfig scfg;
  scfg.event_count = 22000;
  scfg.target_population = 50;
  scfg.churn_node_count = 4;
  scfg.node_mtbf = 5.0;
  scfg.node_mttr = 1.0;
  Rng srng(113);
  const workload::EventTrace trace =
      workload::EventStreamGenerator(base, scfg).generate(srng);

  ServeConfig cfg;
  cfg.autoscale.policy = ScalePolicy::kReactive;
  ServeEngine engine(make_topo(), base.vnfs, cfg);
  // Save at the first moment past 2k and past 20k events where exactly 50
  // requests are live, so the two files describe equal-sized live sets.
  std::string early;
  std::string late;
  for (std::size_t i = 0; i < trace.events.size() && late.empty(); ++i) {
    engine.on_event(trace.events[i]);
    std::string& slot = i + 1 < 20000 ? early : late;
    if (i + 1 >= 2000 && slot.empty() &&
        engine.snapshot().live.size() == 50) {
      slot = save_checkpoint_string(engine, i + 1);
    }
  }
  ASSERT_FALSE(early.empty());
  ASSERT_FALSE(late.empty());

  const ServeSummary s = engine.summary();
  // The fixture must churn instances and nodes for the bound to mean
  // anything: far more instances were retired than are active.
  ASSERT_GT(s.node_downs, 10u);
  ASSERT_GT(s.scale_ins + s.instances_closed, 20 * s.active_instances);
  EXPECT_EQ(instances_in(late), s.active_instances);
  const double ratio = static_cast<double>(late.size()) /
                       static_cast<double>(early.size());
  EXPECT_GT(ratio, 0.9) << early.size() << " -> " << late.size() << " bytes";
  EXPECT_LT(ratio, 1.1) << early.size() << " -> " << late.size() << " bytes";
}

std::string read_corpus(const std::string& name) {
  std::ifstream in(std::string(NFV_CHECKPOINT_CORPUS) + "/" + name);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Events valid against `engine`'s live state: repairs of down nodes, rate
/// changes and departures of live/waiting requests, fresh arrivals, and a
/// failure/repair of node 0 in the middle.
std::vector<workload::StreamEvent> churn_tail(const ServeEngine& engine,
                                              std::size_t vnfs) {
  const ServeEngine::Snapshot snap = engine.snapshot();
  std::vector<workload::StreamEvent> tail;
  double t = engine.last_time();
  const auto push = [&](workload::StreamEventKind kind) -> auto& {
    workload::StreamEvent& e = tail.emplace_back();
    t += 0.01;
    e.time = t;
    e.kind = kind;
    return e;
  };
  for (const std::uint32_t v : snap.nodes_down) {
    push(workload::StreamEventKind::kNodeUp).node = v;
  }
  for (std::size_t i = 0; i < snap.live.size(); i += 3) {
    auto& e = push(workload::StreamEventKind::kRateChange);
    e.request = snap.live[i];
    e.rate = 5.0 + static_cast<double>(i % 7);
  }
  for (std::uint32_t k = 0; k < 12; ++k) {
    auto& e = push(workload::StreamEventKind::kArrive);
    e.request = 100000 + k;
    e.rate = 4.0 + k;
    e.delivery_prob = 0.98;
    e.chain = {k % static_cast<std::uint32_t>(vnfs),
               (k + 2) % static_cast<std::uint32_t>(vnfs)};
  }
  push(workload::StreamEventKind::kNodeDown).node = 0;
  for (std::size_t i = 0; i < snap.live.size(); i += 2) {
    push(workload::StreamEventKind::kDepart).request = snap.live[i];
  }
  for (const std::uint32_t id : snap.queued) {
    push(workload::StreamEventKind::kDepart).request = id;
  }
  push(workload::StreamEventKind::kNodeUp).node = 0;
  for (std::uint32_t k = 0; k < 12; k += 2) {
    push(workload::StreamEventKind::kDepart).request = 100000 + k;
  }
  return tail;
}

// Integers are range-checked to the member's width: a live id past 2^32
// and a negative node_instances entry are parse errors, never truncated or
// cast.
TEST(ServeCheckpoint, RejectsOutOfRangeIntegers) {
  const CheckpointInfo info = peek_checkpoint(read_corpus("valid_churn.json"));
  Rng rng(4);
  const topo::Topology topology = topo::make_star(
      static_cast<std::size_t>(info.node_count),
      topo::CapacitySpec{1500.0, 2500.0}, topo::LinkSpec{1e-4}, rng);
  workload::WorkloadConfig wcfg;
  wcfg.vnf_count = static_cast<std::uint32_t>(info.vnf_count);
  wcfg.request_count = 15;
  const std::vector<workload::Vnf> vnfs =
      workload::WorkloadGenerator(wcfg).generate(rng).vnfs;
  for (const std::string name :
       {"id_overflow.json", "node_instances_negative.json"}) {
    const std::string text = read_corpus(name);
    ASSERT_FALSE(text.empty()) << name;
    EXPECT_THROW((void)peek_checkpoint(text), CheckpointParseError) << name;
    EXPECT_THROW((void)restore_checkpoint(text, topology, vnfs, nullptr),
                 CheckpointParseError)
        << name;
  }
}

// Files written before the log became opt-in carry a "log" and retired
// instance slots.  They must still restore; re-saving drops both, and the
// re-saved file restores to the same engine, decision for decision.
TEST(ServeCheckpoint, RestoresPreCompactionLayout) {
  for (const std::string name : {"valid_churn.json", "valid_autoscale.json"}) {
    const std::string text = read_corpus(name);
    ASSERT_FALSE(text.empty()) << name;
    const CheckpointInfo info = peek_checkpoint(text);
    ASSERT_GT(info.logged_events, 0u) << name;
    ASSERT_NE(text.find("\"retired\": true"), std::string::npos) << name;

    Rng rng(4);
    topo::Topology topology = topo::make_star(
        static_cast<std::size_t>(info.node_count),
        topo::CapacitySpec{1500.0, 2500.0}, topo::LinkSpec{1e-4}, rng);
    workload::WorkloadConfig wcfg;
    wcfg.vnf_count = static_cast<std::uint32_t>(info.vnf_count);
    wcfg.request_count = 15;
    const std::vector<workload::Vnf> vnfs =
        workload::WorkloadGenerator(wcfg).generate(rng).vnfs;

    std::uint64_t cursor = 0;
    ServeEngine old_layout = restore_checkpoint(text, topology, vnfs, &cursor);
    EXPECT_EQ(cursor, info.cursor);
    EXPECT_TRUE(old_layout.log().empty()) << name;
    const std::string resaved = save_checkpoint_string(old_layout, cursor);
    EXPECT_EQ(peek_checkpoint(resaved).logged_events, 0u) << name;
    EXPECT_EQ(resaved.find("\"retired\""), std::string::npos) << name;
    EXPECT_EQ(instances_in(resaved), old_layout.summary().active_instances)
        << name;

    ServeEngine new_layout =
        restore_checkpoint(resaved, topology, vnfs, &cursor);
    EXPECT_TRUE(new_layout.snapshot() == old_layout.snapshot()) << name;
    EXPECT_EQ(save_checkpoint_string(new_layout, cursor), resaved) << name;

    const auto tail = churn_tail(old_layout, vnfs.size());
    for (std::size_t i = 0; i < tail.size(); ++i) {
      ASSERT_EQ(old_layout.on_event(tail[i]), new_layout.on_event(tail[i]))
          << name << " tail event " << i;
    }
    EXPECT_TRUE(new_layout.snapshot() == old_layout.snapshot()) << name;
    EXPECT_EQ(new_layout.work(), old_layout.work()) << name;
    EXPECT_EQ(save_checkpoint_string(new_layout, cursor + tail.size()),
              save_checkpoint_string(old_layout, cursor + tail.size()))
        << name;
  }
}

TEST(ServeCheckpoint, TruncatedTextAlwaysThrows) {
  const Fixture fx = make_churn_fixture(5);
  ServeEngine engine = fresh_engine(fx);
  engine.replay(fx.trace);
  const std::string text =
      save_checkpoint_string(engine, fx.trace.events.size());

  // Every strict prefix is a parse error, never a crash or a silently
  // half-restored engine.
  for (std::size_t len = 0; len < text.size();
       len += std::max<std::size_t>(1, text.size() / 257)) {
    EXPECT_THROW((void)peek_checkpoint(text.substr(0, len)),
                 CheckpointParseError)
        << "prefix length " << len;
  }
  EXPECT_NO_THROW((void)peek_checkpoint(text));
}

TEST(ServeCheckpoint, RejectsWrongSchemaAndMismatchedUniverse) {
  const Fixture fx = make_churn_fixture(9);
  ServeEngine engine = fresh_engine(fx);
  engine.replay(fx.trace);
  const std::string text =
      save_checkpoint_string(engine, fx.trace.events.size());

  std::string wrong = text;
  const auto pos = wrong.find("nfvpr.checkpoint/1");
  ASSERT_NE(pos, std::string::npos);
  wrong.replace(pos, 18, "nfvpr.checkpoint/9");
  EXPECT_THROW((void)peek_checkpoint(wrong), CheckpointParseError);

  std::uint64_t cursor = 0;
  // Wrong topology (node count) and wrong VNF universe both refuse.
  topo::Topology small;
  small.add_compute(1000.0);
  small.freeze();
  EXPECT_THROW(restore_checkpoint(text, small, fx.base.vnfs, &cursor),
               CheckpointParseError);
  std::vector<workload::Vnf> fewer(fx.base.vnfs.begin(),
                                   fx.base.vnfs.end() - 1);
  EXPECT_THROW(restore_checkpoint(text, make_topo(), fewer, &cursor),
               CheckpointParseError);
}

}  // namespace
}  // namespace nfv::serve
