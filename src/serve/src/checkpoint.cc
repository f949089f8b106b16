#include "nfv/serve/checkpoint.h"

#include <deque>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "nfv/common/histogram.h"
#include "nfv/obs/fields.h"
#include "nfv/obs/json.h"
#include "nfv/obs/lifecycle.h"

namespace nfv::serve {

namespace {

using Reader = obs::FieldReader<CheckpointParseError>;
constexpr std::string_view kWhere = "checkpoint: ";

[[noreturn]] void ckpt_fail(const std::string& what) {
  throw CheckpointParseError(std::string(kWhere) + what);
}

/// Where the run stopped and the universe it ran on.
struct Header {
  std::uint64_t cursor = 0;
  bool has_btrace = false;
  BinaryTraceCursor btrace;
  std::uint64_t vnf_count = 0;
  std::uint64_t node_count = 0;
};

void fields(auto& v, obs::Of<Header> auto& h) {
  v("schema", kCheckpointSchema);
  v("cursor", h.cursor);
  // Binary-trace position, absent for text traces.  time_bits holds the
  // IEEE-754 bits of the last timestamp, which a JSON number (a double)
  // cannot carry exactly.
  if (v.flag(h.has_btrace, "trace_offset")) {
    v("trace_offset", h.btrace.byte_offset);
    v("trace_time_bits", h.btrace.time_bits, obs::Hex{});
  }
  v("vnf_count", h.vnf_count);
  v("node_count", h.node_count);
}

/// One window of the admission-wait histogram.
struct HistWindow {
  std::vector<std::size_t> counts;
  std::size_t underflow = 0;
  std::size_t overflow = 0;
  bool has_samples = false;  ///< min/max exist only for non-empty windows
  double min = 0.0;
  double max = 0.0;
};

void fields(auto& v, obs::Of<HistWindow> auto& h) {
  v("counts", h.counts);
  v("underflow", h.underflow);
  v("overflow", h.overflow);
  if (v.flag(h.has_samples, "min")) {
    v("min", h.min);
    v("max", h.max);
  }
}

obs::JsonValue parse_document(std::string_view text) {
  std::string error;
  auto doc = obs::parse_json(text, &error);
  if (!doc) ckpt_fail("not valid JSON: " + error);
  if (!doc->is_object()) ckpt_fail("document must be a JSON object");
  return std::move(*doc);
}

Header read_header(const obs::JsonValue& doc) {
  Reader v(doc, std::string(kWhere));
  Header h;
  fields(v, h);
  v.require(h.has_btrace || doc.find("trace_time_bits") == nullptr,
            "trace_offset and trace_time_bits must appear together (binary "
            "trace cursor)");
  return h;
}

ServeConfig read_config(const obs::JsonValue& doc) {
  Reader v(doc, std::string(kWhere));
  ServeConfig c;
  v.object("config", [&] { fields(v, c); });
  try {
    c.validate();
  } catch (const std::invalid_argument& e) {
    v.fail(std::string("embedded config is invalid: ") + e.what());
  }
  return c;
}

}  // namespace

/// Private-state serializer/deserializer; befriended by ServeEngine.
struct CheckpointIo {
  static void save(const ServeEngine& e, std::uint64_t cursor,
                   std::ostream& out, const BinaryTraceCursor* btrace) {
    const Header h{cursor, btrace != nullptr,
                   btrace != nullptr ? *btrace : BinaryTraceCursor{},
                   e.vnfs_.size(), e.node_free_.size()};
    // Hops name an instance by its rank among the active ones, so a file
    // never depends on whether the engine had compacted its slots yet.
    std::vector<std::uint32_t> rank(e.instances_.size(), obs::kUnmapped);
    std::uint32_t active = 0;
    for (std::size_t slot = 0; slot < rank.size(); ++slot) {
      if (!e.instances_[slot].retired) rank[slot] = active++;
    }
    obs::JsonWriter w(out);
    obs::FieldWriter v(w);
    w.begin_object();
    fields(v, h);
    v.object("config", [&] { fields(v, e.config_); });
    state(v, e, rank);
    w.end_object();
    out << '\n';
  }

  static void apply(ServeEngine& e, const obs::JsonValue& doc,
                    const Header& h) {
    Reader v(doc, std::string(kWhere));
    v.require(h.vnf_count == e.vnfs_.size(),
              "vnf_count does not match the provided workload");
    v.require(h.node_count == e.node_free_.size(),
              "node_count does not match the provided topology");
    // Each optional section is present exactly when the config turns it
    // on; a log may also outlive its switch (see state()).
    for (const auto& [key, on] : {std::pair{"timeline", e.timeline_on()},
                                  {"autoscale", e.autoscale_on()},
                                  {"lifecycle", e.lifecycle_on()}}) {
      const bool present = doc.find(key) != nullptr;
      v.require(present == on,
                std::string(key) + (present ? " is present but disabled"
                                            : " is missing but enabled"));
    }
    v.require(!e.config_.events_log || doc.find("log") != nullptr,
              "log is missing but enabled");
    std::vector<std::uint32_t> rank;
    state(v, e, rank);
  }

  /// The engine state after the config.  `rank` maps an instance slot to
  /// its number in the file (writer) or a file entry to its slot (reader).
  static void state(auto& v, obs::Of<ServeEngine> auto& e,
                    std::vector<std::uint32_t>& rank) {
    constexpr bool kReading = obs::kReads<decltype(v)>;
    const std::uint64_t vnf_count = e.vnfs_.size();
    const std::uint64_t node_count = e.node_free_.size();
    v("last_time", e.last_time_);
    v("saw_event", e.saw_event_);
    v("next_seq", e.next_seq_);
    v("work", e.work_);
    v("served_integral", e.served_integral_);
    v("offered_integral", e.offered_integral_);
    v("degraded", e.degraded_);
    v("pressure_window", e.pressure_window_);
    v("node_free", e.node_free_);
    v("node_instances", e.node_instances_);
    v("node_up", e.node_up_);
    v.require(e.node_free_.size() == node_count &&
                  e.node_instances_.size() == node_count &&
                  e.node_up_.size() == node_count,
              "node arrays must have node_count entries");

    // Active instances in slot (= creation) order.  Files from before slot
    // compaction also list retired ones, dropped on read.
    v.array("instances", e.instances_, [&](auto& inst) {
      v("vnf", inst.vnf, obs::Below{vnf_count});
      v("node", inst.node, obs::Below{node_count});
      v("seq", inst.seq);
      v("raw_load", inst.raw_load);
      v("effective_load", inst.effective_load);
      if (v.when(inst.retired, "retired")) v("retired", inst.retired);
      if (v.when(inst.draining, "draining")) {
        v.require(e.autoscale_on(),
                  "instance is draining but autoscaling is off");
        v("draining", inst.draining);
      }
      v("members", inst.members, obs::Below{obs::kUnmapped});
    }, [](const auto& inst) { return inst.retired; });
    if constexpr (kReading) rank = drop_retired(v, e);

    const auto pending = [&](auto& p) {
      v("id", p.id);
      v("rate", p.rate);
      v("prob", p.prob);
      v("chain", p.chain, obs::Below{vnf_count});
    };
    v.array("live", e.live_, [&](auto& item) {
      auto& [id, r] = item;
      v("id", id);
      v("rate", r.rate);
      v("prob", r.prob);
      v("chain", r.chain, obs::Below{vnf_count});
      v("hops", r.hop_instance, obs::Remap{rank});
      v.require(r.hop_instance.size() == r.chain.size(),
                "live request hops/chain size mismatch");
    });
    v.array("queue", e.queue_, pending);
    v.array("retry", e.retry_queue_, [&](auto& r) {
      pending(r.request);
      v("not_before", r.not_before);
      v("attempts", r.attempts);
    });
    v("gone", e.gone_, obs::Below{obs::kUnmapped});
    v.object("totals", [&] { fields(v, e.totals_); });

    // The outcome log only while recording: it is the one O(history)
    // section.  Files from before it was opt-in carry one without the
    // config switch; it is still read (validated), then dropped.
    if (v.when(e.config_.events_log, "log")) {
      v.array("log", e.log_, [&](auto& o) { fields(v, o); });
    }
    if constexpr (kReading) {
      if (!e.config_.events_log) e.log_.clear();
    }

    if (v.when(e.autoscale_on(), "autoscale")) {
      v.object("autoscale", [&] {
        v("window", e.as_window_);
        v("instance_seconds", e.instance_seconds_);
        v("opened", e.as_opened_);
        v("drained", e.as_drained_);
        AutoscaleTotals totals = e.scaler_->totals();
        std::vector<VnfPolicyState> states = e.scaler_->vnf_states();
        fields(v, totals);
        v.array("vnf_states", states, [&](auto& st) { fields(v, st); });
        v.require(states.size() == vnf_count,
                  "vnf_states must have vnf_count entries");
        if constexpr (kReading) e.scaler_->restore(std::move(states), totals);
      });
    }

    if (v.when(e.timeline_on(), "timeline")) {
      v.object("timeline", [&] { timeline_state(v, e); });
    }

    if (v.when(e.lifecycle_on(), "lifecycle")) {
      v.tuples("lifecycle", e.lifecycle_, [&](auto& ev) { fields(v, ev); });
    }
  }

  static void timeline_state(auto& v, obs::Of<ServeEngine> auto& e) {
    v("window_index", e.window_index_);
    v("win_served", e.win_served_);
    v("win_offered", e.win_offered_);
    auto& b = e.win_base_;
    v.object("win_base", [&] {
      v("events", b.events);
      v("admitted", b.admitted);
      v("admitted_from_queue", b.admitted_from_queue);
      v("retry_admitted", b.retry_admitted);
      v("rejected", b.rejected);
      v("shed", b.shed);
      v("shed_fault", b.shed_fault);
      v("shed_overload", b.shed_overload);
      v("evacuated_requests", b.evacuated_requests);
      v("parked", b.parked);
      v("migrations", b.migrations);
      if (v.when(e.autoscale_on(), "scale_outs")) {
        v("scale_outs", b.scale_outs);
        v("scale_ins", b.scale_ins);
      }
    });
    v.array("pending_since", e.pending_since_, [&](auto& item) {
      v("id", item.first);
      v("since", item.second);
    });
    v.object("wait_hist", [&] {
      auto& wh = *e.wait_hist_;
      double lo = wh.lo();
      double hi = wh.hi();
      std::size_t buckets = wh.bucket_count();
      std::size_t span = wh.span();
      v("lo", lo);
      v("hi", hi);
      v("buckets", buckets);
      v("span", span);
      v.require(lo == wh.lo() && hi == wh.hi() &&
                    buckets == wh.bucket_count() && span == wh.span(),
                "wait_hist geometry does not match the embedded config");
      std::vector<HistWindow> windows;
      if constexpr (!obs::kReads<decltype(v)>) {
        for (std::size_t i = 0; i < wh.window_count(); ++i) {
          const Histogram& h = wh.window(i);
          const bool any = h.count() > 0;
          windows.push_back({h.counts(), h.underflow(), h.overflow(), any,
                             any ? h.min() : 0.0, any ? h.max() : 0.0});
        }
      }
      v.array("windows", windows, [&](auto& h) { fields(v, h); });
      if constexpr (obs::kReads<decltype(v)>) restore_wait_hist(v, wh, windows);
    });
    v.array("rows", e.timeline_rows_, [&](auto& r) {
      fields(v, r);
      v.require(r.node_util.size() == e.node_free_.size(),
                "timeline row node_util must have node_count entries");
    });
  }

  /// Keeps the active entries just read, renumbered by rank: the returned
  /// table maps each file entry to its slot (kUnmapped when retired).
  static std::vector<std::uint32_t> drop_retired(const Reader& v,
                                                 ServeEngine& e) {
    std::vector<ServeEngine::Instance> read = std::move(e.instances_);
    std::vector<std::uint32_t> slot_of;
    e.instances_.clear();
    e.retired_slots_ = 0;
    for (auto& act : e.active_of_vnf_) act.clear();
    for (ServeEngine::Instance& inst : read) {
      v.require(!(inst.draining && inst.retired),
                "instance cannot be both draining and retired");
      if (inst.retired) {
        slot_of.push_back(obs::kUnmapped);
        continue;
      }
      const auto slot = static_cast<std::uint32_t>(e.instances_.size());
      slot_of.push_back(slot);
      e.active_of_vnf_[inst.vnf].push_back(slot);
      e.instances_.push_back(std::move(inst));
    }
    return slot_of;
  }

  static void restore_wait_hist(const Reader& v, WindowedHistogram& wh,
                                const std::vector<HistWindow>& windows) {
    std::deque<Histogram> slots;
    for (const HistWindow& w : windows) {
      Histogram h(wh.lo(), wh.hi(), wh.bucket_count());
      try {
        h.restore(w.counts, w.underflow, w.overflow, w.min, w.max);
      } catch (const std::exception& ex) {
        v.fail(std::string("invalid wait_hist window: ") + ex.what());
      }
      v.require((h.count() > 0) == w.has_samples,
                "wait_hist window min/max presence mismatch");
      slots.push_back(std::move(h));
    }
    try {
      wh.restore(std::move(slots));
    } catch (const std::exception& ex) {
      v.fail(std::string("invalid wait_hist state: ") + ex.what());
    }
  }
};

void save_checkpoint(const ServeEngine& engine, std::uint64_t cursor,
                     std::ostream& out, const BinaryTraceCursor* btrace) {
  CheckpointIo::save(engine, cursor, out, btrace);
}

std::string save_checkpoint_string(const ServeEngine& engine,
                                   std::uint64_t cursor,
                                   const BinaryTraceCursor* btrace) {
  std::ostringstream os;
  save_checkpoint(engine, cursor, os, btrace);
  return os.str();
}

CheckpointInfo peek_checkpoint(std::string_view text) {
  const obs::JsonValue doc = parse_document(text);
  const Header h = read_header(doc);
  const auto entries = [&](std::string_view key) -> std::size_t {
    const obs::JsonValue* j = doc.find(key);
    if (j == nullptr || !j->is_array()) {
      ckpt_fail("field \"" + std::string(key) + "\" must be an array");
    }
    return j->as_array().size();
  };
  CheckpointInfo info;
  info.cursor = h.cursor;
  info.has_btrace_cursor = h.has_btrace;
  info.btrace = h.btrace;
  info.vnf_count = h.vnf_count;
  info.node_count = h.node_count;
  info.live_requests = entries("live");
  info.logged_events = doc.find("log") != nullptr ? entries("log") : 0;

  // Full structural sweep: re-run the state walk against a throwaway
  // engine sized from the document itself, so the fuzz target exercises
  // every branch of the deserializer without needing a real topology.
  if (info.vnf_count == 0 || info.vnf_count > 4096 ||
      info.node_count == 0 || info.node_count > 4096) {
    return info;  // no plausible engine shape to validate against
  }
  topo::Topology topo;
  std::vector<NodeId> ids;
  ids.reserve(static_cast<std::size_t>(info.node_count));
  for (std::uint64_t v = 0; v < info.node_count; ++v) {
    ids.push_back(topo.add_compute(1.0));
  }
  // Star links: freeze() requires a connected compute graph, and the probe
  // never looks at latencies.
  for (std::size_t i = 1; i < ids.size(); ++i) {
    topo.connect_nodes(ids[0], ids[i], 0.0);
  }
  topo.freeze();
  std::vector<workload::Vnf> vnfs(static_cast<std::size_t>(info.vnf_count));
  for (auto& f : vnfs) {
    f.demand_per_instance = 1.0;
    f.service_rate = 1.0;
  }
  ServeEngine probe(std::move(topo), std::move(vnfs), read_config(doc));
  CheckpointIo::apply(probe, doc, h);
  return info;
}

ServeEngine restore_checkpoint(std::string_view text, topo::Topology topology,
                               std::vector<workload::Vnf> vnfs,
                               std::uint64_t* cursor,
                               BinaryTraceCursor* btrace, bool* has_btrace) {
  const obs::JsonValue doc = parse_document(text);
  const Header h = read_header(doc);
  ServeEngine engine(std::move(topology), std::move(vnfs), read_config(doc));
  CheckpointIo::apply(engine, doc, h);
  if (cursor != nullptr) *cursor = h.cursor;
  if (btrace != nullptr && h.has_btrace) *btrace = h.btrace;
  if (has_btrace != nullptr) *has_btrace = h.has_btrace;
  return engine;
}

}  // namespace nfv::serve
