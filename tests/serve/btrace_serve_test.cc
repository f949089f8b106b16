// Binary-ingest differential contract (DESIGN.md §15): serving a trace
// through the streaming binary path — replay_binary over a
// BinaryTraceDecoder, any batch size, any kill/resume split — is
// bit-identical to the per-event text path.  The comparator is the
// checkpoint serialization, which covers every float verbatim, the whole
// outcome log, and all aggregate counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "nfv/common/rng.h"
#include "nfv/serve/checkpoint.h"
#include "nfv/serve/engine.h"
#include "nfv/workload/btrace.h"
#include "nfv/workload/event_stream.h"
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
  std::string binary;
};

Fixture make_fixture(std::uint64_t seed, bool churn = true) {
  workload::WorkloadConfig wcfg;
  wcfg.vnf_count = 6;
  wcfg.request_count = 25;
  Rng wrng(seed);
  Fixture fx;
  fx.base = workload::WorkloadGenerator(wcfg).generate(wrng);
  workload::EventStreamConfig scfg;
  scfg.event_count = 220;
  if (churn) {
    scfg.churn_node_count = 4;
    scfg.node_mtbf = 3.0;
    scfg.node_mttr = 0.8;
  }
  Rng srng(seed + 100);
  fx.trace = workload::EventStreamGenerator(fx.base, scfg).generate(srng);
  fx.binary = workload::save_binary_trace_string(fx.trace);
  return fx;
}

ServeEngine fresh_engine(const Fixture& fx, double snapshot_every = 0.0) {
  ServeConfig cfg;
  cfg.rebalance_threshold = 0.15;
  cfg.overload_window = 16;
  cfg.snapshot_every = snapshot_every;
  cfg.events_log = true;  // checkpoints then cover the log as well
  return ServeEngine(make_topo(), fx.base.vnfs, cfg);
}

/// The uninterrupted text-path run every binary variant must match.
std::string text_path_state(const Fixture& fx, double snapshot_every = 0.0) {
  ServeEngine engine = fresh_engine(fx, snapshot_every);
  engine.replay(fx.trace);
  return save_checkpoint_string(engine, fx.trace.events.size());
}

TEST(BtraceServe, AnyBatchSizeMatchesTheTextPath) {
  const Fixture fx = make_fixture(7);
  const std::string want = text_path_state(fx);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{256}}) {
    workload::BinaryTraceDecoder decoder(fx.binary);
    ServeEngine engine = fresh_engine(fx);
    const std::uint64_t applied = engine.replay_binary(decoder, batch);
    EXPECT_EQ(applied, fx.trace.events.size()) << "batch " << batch;
    EXPECT_EQ(save_checkpoint_string(engine, applied), want)
        << "batch " << batch;
  }
}

TEST(BtraceServe, TimelineAndLogMatchTheTextPath) {
  const Fixture fx = make_fixture(19);
  ServeEngine text_engine = fresh_engine(fx, /*snapshot_every=*/0.5);
  text_engine.replay(fx.trace);

  workload::BinaryTraceDecoder decoder(fx.binary);
  ServeEngine bin_engine = fresh_engine(fx, /*snapshot_every=*/0.5);
  bin_engine.replay_binary(decoder);

  ASSERT_EQ(bin_engine.log().size(), text_engine.log().size());
  EXPECT_TRUE(bin_engine.snapshot() == text_engine.snapshot());
  EXPECT_EQ(bin_engine.work(), text_engine.work());
  const auto text_doc = text_engine.timeline_doc();
  const auto bin_doc = bin_engine.timeline_doc();
  ASSERT_EQ(bin_doc.records.size(), text_doc.records.size());
  EXPECT_EQ(save_checkpoint_string(bin_engine, fx.trace.events.size()),
            save_checkpoint_string(text_engine, fx.trace.events.size()));
}

TEST(BtraceServe, ReplayBinaryHonorsTheLimit) {
  const Fixture fx = make_fixture(3);
  workload::BinaryTraceDecoder decoder(fx.binary);
  ServeEngine engine = fresh_engine(fx);
  EXPECT_EQ(engine.replay_binary(decoder, 256, 50), 50u);
  EXPECT_EQ(decoder.decoded(), 50u);
  EXPECT_EQ(engine.log().size(), 50u);
  // Draining the rest completes the trace; a further call applies nothing.
  EXPECT_EQ(engine.replay_binary(decoder),
            fx.trace.events.size() - 50u);
  EXPECT_EQ(engine.replay_binary(decoder), 0u);
  EXPECT_TRUE(decoder.done());
}

TEST(BtraceServe, KillAnywhereAndSeekResumesByteIdentical) {
  for (const std::uint64_t seed : {2u, 19u}) {
    const Fixture fx = make_fixture(seed);
    const std::size_t n = fx.trace.events.size();
    const std::string want = text_path_state(fx);

    for (std::size_t kill = 0; kill <= n; kill += 13) {
      // Run the binary path to the kill point and checkpoint with the
      // decoder's cursor, exactly as `nfvpr serve --checkpoint` does.
      workload::BinaryTraceDecoder decoder(fx.binary);
      ServeEngine engine = fresh_engine(fx);
      const std::uint64_t applied = engine.replay_binary(decoder, 256, kill);
      ASSERT_EQ(applied, kill);
      const BinaryTraceCursor cursor{decoder.byte_offset(),
                                     decoder.last_time_bits()};
      const std::string ckpt =
          save_checkpoint_string(engine, kill, &cursor);

      // Restore into a fresh engine, seek a fresh decoder, finish.
      std::uint64_t start = 0;
      BinaryTraceCursor restored_cursor;
      bool has_cursor = false;
      ServeEngine resumed =
          restore_checkpoint(ckpt, make_topo(), fx.base.vnfs, &start,
                             &restored_cursor, &has_cursor);
      ASSERT_TRUE(has_cursor) << "seed " << seed << " kill " << kill;
      EXPECT_EQ(restored_cursor.byte_offset, cursor.byte_offset);
      EXPECT_EQ(restored_cursor.time_bits, cursor.time_bits);
      workload::BinaryTraceDecoder fresh(fx.binary);
      fresh.seek(restored_cursor.byte_offset, start,
                 restored_cursor.time_bits);
      resumed.replay_binary(fresh);
      EXPECT_EQ(save_checkpoint_string(resumed, n), want)
          << "seed " << seed << " kill " << kill;
    }
  }
}

TEST(BtraceServe, TextCheckpointResumesAgainstABinaryTrace) {
  // A checkpoint written by a text-path run carries no binary cursor; the
  // resume path then positions the decoder by skipping records.
  const Fixture fx = make_fixture(7);
  const std::size_t n = fx.trace.events.size();
  const std::size_t kill = n / 2;
  const std::string want = text_path_state(fx);

  ServeEngine engine = fresh_engine(fx);
  for (std::size_t i = 0; i < kill; ++i) engine.on_event(fx.trace.events[i]);
  const std::string ckpt = save_checkpoint_string(engine, kill);

  std::uint64_t start = 0;
  BinaryTraceCursor cursor;
  bool has_cursor = true;  // must be cleared by restore
  ServeEngine resumed = restore_checkpoint(ckpt, make_topo(), fx.base.vnfs,
                                           &start, &cursor, &has_cursor);
  EXPECT_FALSE(has_cursor);
  EXPECT_EQ(start, kill);
  workload::BinaryTraceDecoder decoder(fx.binary);
  decoder.skip(start);
  resumed.replay_binary(decoder);
  EXPECT_EQ(save_checkpoint_string(resumed, n), want);
}

TEST(BtraceServe, BinaryCheckpointRoundTripsThroughPeek) {
  const Fixture fx = make_fixture(11);
  workload::BinaryTraceDecoder decoder(fx.binary);
  ServeEngine engine = fresh_engine(fx);
  engine.replay_binary(decoder, 256, 60);
  const BinaryTraceCursor cursor{decoder.byte_offset(),
                                 decoder.last_time_bits()};
  const std::string ckpt = save_checkpoint_string(engine, 60, &cursor);

  const CheckpointInfo info = peek_checkpoint(ckpt);
  EXPECT_TRUE(info.has_btrace_cursor);
  EXPECT_EQ(info.btrace.byte_offset, cursor.byte_offset);
  EXPECT_EQ(info.btrace.time_bits, cursor.time_bits);
  EXPECT_EQ(info.cursor, 60u);

  // Text-path checkpoints stay byte-identical to the pre-btrace format:
  // no cursor fields appear unless a cursor was passed.
  const std::string plain = save_checkpoint_string(engine, 60);
  EXPECT_EQ(plain.find("trace_offset"), std::string::npos);
  EXPECT_EQ(plain.find("trace_time_bits"), std::string::npos);
  EXPECT_FALSE(peek_checkpoint(plain).has_btrace_cursor);
}

}  // namespace
}  // namespace nfv::serve
