#include "nfv/serve/checkpoint.h"

#include <cmath>
#include <deque>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "nfv/common/error.h"
#include "nfv/common/histogram.h"
#include "nfv/obs/json.h"
#include "nfv/obs/lifecycle.h"

namespace nfv::serve {

namespace {

[[noreturn]] void ckpt_fail(const std::string& what) {
  throw CheckpointParseError("checkpoint: " + what);
}

// --- typed field access (every miss throws CheckpointParseError) ---------

const obs::JsonValue& member(const obs::JsonValue& obj, std::string_view key) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr) ckpt_fail("missing field \"" + std::string(key) + "\"");
  return *v;
}

double get_double(const obs::JsonValue& obj, std::string_view key) {
  const obs::JsonValue& v = member(obj, key);
  if (!v.is_number()) {
    ckpt_fail("field \"" + std::string(key) + "\" must be a number");
  }
  return v.as_number();
}

std::uint64_t get_uint(const obs::JsonValue& obj, std::string_view key) {
  const double d = get_double(obj, key);
  if (!(d >= 0.0) || d != std::floor(d) || d > 1.8e19) {
    ckpt_fail("field \"" + std::string(key) +
              "\" must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(d);
}

bool get_bool(const obs::JsonValue& obj, std::string_view key) {
  const obs::JsonValue& v = member(obj, key);
  if (v.is_bool()) return v.as_bool();
  if (v.is_number()) return v.as_number() != 0.0;
  ckpt_fail("field \"" + std::string(key) + "\" must be a boolean");
}

const obs::JsonValue::Array& get_array(const obs::JsonValue& obj,
                                       std::string_view key) {
  const obs::JsonValue& v = member(obj, key);
  if (!v.is_array()) {
    ckpt_fail("field \"" + std::string(key) + "\" must be an array");
  }
  return v.as_array();
}

const obs::JsonValue& get_object(const obs::JsonValue& obj,
                                 std::string_view key) {
  const obs::JsonValue& v = member(obj, key);
  if (!v.is_object()) {
    ckpt_fail("field \"" + std::string(key) + "\" must be an object");
  }
  return v;
}

std::vector<std::uint32_t> get_u32_vector(const obs::JsonValue& obj,
                                          std::string_view key,
                                          std::uint64_t below) {
  std::vector<std::uint32_t> out;
  const auto& arr = get_array(obj, key);
  out.reserve(arr.size());
  for (const obs::JsonValue& v : arr) {
    if (!v.is_number() || v.as_number() < 0.0 ||
        v.as_number() != std::floor(v.as_number())) {
      ckpt_fail("array \"" + std::string(key) +
                "\" must hold non-negative integers");
    }
    const double d = v.as_number();
    if (d >= static_cast<double>(below)) {
      ckpt_fail("array \"" + std::string(key) + "\" entry " +
                std::to_string(static_cast<std::uint64_t>(d)) +
                " is out of range");
    }
    out.push_back(static_cast<std::uint32_t>(d));
  }
  return out;
}

obs::JsonValue parse_document(std::string_view text) {
  std::string error;
  auto doc = obs::parse_json(text, &error);
  if (!doc) ckpt_fail("not valid JSON: " + error);
  if (!doc->is_object()) ckpt_fail("document must be a JSON object");
  const std::string schema = doc->string_or("schema");
  if (schema != kCheckpointSchema) {
    ckpt_fail("unsupported schema '" + schema + "' (expected '" +
              std::string(kCheckpointSchema) + "')");
  }
  return std::move(*doc);
}

/// Reads the optional telemetry config fields (absent in pre-telemetry
/// checkpoints, and omitted when telemetry is off so those files stay
/// byte-identical to the old format).  The events-log switch follows the
/// same rule.
void read_telemetry_config(const obs::JsonValue& c, ServeConfig& config) {
  if (c.find("snapshot_every") != nullptr) {
    config.snapshot_every = get_double(c, "snapshot_every");
    if (!std::isfinite(config.snapshot_every) ||
        config.snapshot_every <= 0.0) {
      ckpt_fail("config.snapshot_every must be a positive number");
    }
    config.timeline_span =
        static_cast<std::size_t>(get_uint(c, "timeline_span"));
    if (config.timeline_span == 0) {
      ckpt_fail("config.timeline_span must be >= 1");
    }
  }
  if (c.find("lifecycle") != nullptr) {
    config.lifecycle = get_bool(c, "lifecycle");
  }
  if (c.find("events_log") != nullptr) {
    config.events_log = get_bool(c, "events_log");
  }
}

/// Reads the optional autoscale config block (absent in pre-autoscale
/// checkpoints and whenever the policy is off, so those files stay
/// byte-identical to the earlier format).  All nine fields travel
/// together, keyed on autoscale_policy.
void read_autoscale_config(const obs::JsonValue& c, ServeConfig& config) {
  const obs::JsonValue* p = c.find("autoscale_policy");
  if (p == nullptr) return;
  if (!p->is_string()) {
    ckpt_fail("config.autoscale_policy must be a string");
  }
  const auto policy = parse_scale_policy(p->as_string());
  if (!policy) {
    ckpt_fail("config.autoscale_policy '" + p->as_string() + "' is unknown");
  }
  if (*policy == ScalePolicy::kOff) {
    ckpt_fail("config.autoscale_policy \"off\" must be omitted, not stored");
  }
  config.autoscale.policy = *policy;
  config.autoscale.scale_interval = get_double(c, "autoscale_interval");
  config.autoscale.high_watermark = get_double(c, "autoscale_high");
  config.autoscale.low_watermark = get_double(c, "autoscale_low");
  config.autoscale.cooldown_windows =
      static_cast<std::uint32_t>(get_uint(c, "autoscale_cooldown"));
  config.autoscale.max_step =
      static_cast<std::uint32_t>(get_uint(c, "autoscale_step"));
  config.autoscale.ewma_alpha = get_double(c, "autoscale_alpha");
  config.autoscale.forecast_windows = get_double(c, "autoscale_forecast");
  config.autoscale.safety_margin = get_double(c, "autoscale_margin");
  try {
    config.autoscale.validate();
  } catch (const std::invalid_argument& ex) {
    ckpt_fail(std::string("embedded autoscale config is invalid: ") +
              ex.what());
  }
}

std::string hex_bits(std::uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[v & 0xf];
    v >>= 4;
  }
  return out;
}

/// Reads the optional binary-trace cursor pair; both fields must appear
/// together, and trace_time_bits must be exactly 16 hex digits.
bool read_btrace_cursor(const obs::JsonValue& doc, BinaryTraceCursor* out) {
  const obs::JsonValue* offset = doc.find("trace_offset");
  const obs::JsonValue* bits = doc.find("trace_time_bits");
  if (offset == nullptr && bits == nullptr) return false;
  if (offset == nullptr || bits == nullptr) {
    ckpt_fail(
        "trace_offset and trace_time_bits must appear together (binary "
        "trace cursor)");
  }
  BinaryTraceCursor cursor;
  cursor.byte_offset = get_uint(doc, "trace_offset");
  if (!bits->is_string() || bits->as_string().size() != 16) {
    ckpt_fail("trace_time_bits must be a 16-digit hex string");
  }
  std::uint64_t value = 0;
  for (const char c : bits->as_string()) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      ckpt_fail("trace_time_bits must be a 16-digit hex string");
    }
  }
  cursor.time_bits = value;
  if (out != nullptr) *out = cursor;
  return true;
}

void write_pending(obs::JsonWriter& w, std::uint32_t id, double rate,
                   double prob, const std::vector<std::uint32_t>& chain) {
  w.kv("id", std::uint64_t{id});
  w.kv("rate", rate);
  w.kv("prob", prob);
  w.key("chain");
  w.begin_array();
  for (const std::uint32_t f : chain) w.value(std::uint64_t{f});
  w.end_array();
}

}  // namespace

/// Private-state serializer/deserializer; befriended by ServeEngine.
struct CheckpointIo {
  static void save(const ServeEngine& e, std::uint64_t cursor,
                   std::ostream& out, const BinaryTraceCursor* btrace) {
    obs::JsonWriter w(out);
    w.begin_object();
    w.kv("schema", kCheckpointSchema);
    w.kv("cursor", cursor);
    if (btrace != nullptr) {
      // Binary-trace position (absent for text traces, keeping those
      // checkpoints byte-identical to the pre-btrace layout).  time_bits is
      // a full 64-bit value — IEEE-754 bits of the last timestamp — which a
      // JSON number (a double) cannot carry exactly, so it travels as a
      // fixed-width hex string.
      w.kv("trace_offset", btrace->byte_offset);
      w.kv("trace_time_bits", hex_bits(btrace->time_bits));
    }
    w.kv("vnf_count", static_cast<std::uint64_t>(e.vnfs_.size()));
    w.kv("node_count", static_cast<std::uint64_t>(e.node_free_.size()));

    const ServeConfig& c = e.config_;
    w.key("config");
    w.begin_object();
    w.kv("headroom", c.headroom);
    w.kv("rebalance_threshold", c.rebalance_threshold);
    w.kv("migration_budget", std::uint64_t{c.migration_budget});
    w.kv("queue_capacity", static_cast<std::uint64_t>(c.queue_capacity));
    w.key("link_latency");
    if (c.link_latency.has_value()) {
      w.value(*c.link_latency);
    } else {
      w.null();
    }
    w.kv("overload_window", static_cast<std::uint64_t>(c.overload_window));
    w.kv("overload_threshold", c.overload_threshold);
    w.kv("degraded_headroom", c.degraded_headroom);
    w.kv("retry_backoff_base", c.retry_backoff_base);
    w.kv("retry_budget", std::uint64_t{c.retry_budget});
    // Telemetry fields only when enabled, so telemetry-off checkpoints
    // stay byte-identical to the pre-telemetry format.
    if (c.snapshot_every > 0.0) {
      w.kv("snapshot_every", c.snapshot_every);
      w.kv("timeline_span", static_cast<std::uint64_t>(c.timeline_span));
    }
    if (c.lifecycle) w.kv("lifecycle", true);
    if (c.events_log) w.kv("events_log", true);
    // Autoscale config only when the policy is on (same conditional-
    // emission rule as the telemetry fields above).
    if (c.autoscale.enabled()) {
      w.kv("autoscale_policy", to_string(c.autoscale.policy));
      w.kv("autoscale_interval", c.autoscale.scale_interval);
      w.kv("autoscale_high", c.autoscale.high_watermark);
      w.kv("autoscale_low", c.autoscale.low_watermark);
      w.kv("autoscale_cooldown", std::uint64_t{c.autoscale.cooldown_windows});
      w.kv("autoscale_step", std::uint64_t{c.autoscale.max_step});
      w.kv("autoscale_alpha", c.autoscale.ewma_alpha);
      w.kv("autoscale_forecast", c.autoscale.forecast_windows);
      w.kv("autoscale_margin", c.autoscale.safety_margin);
    }
    w.end_object();

    w.kv("last_time", e.last_time_);
    w.kv("saw_event", e.saw_event_);
    w.kv("next_seq", e.next_seq_);
    w.kv("work", e.work_);
    w.kv("served_integral", e.served_integral_);
    w.kv("offered_integral", e.offered_integral_);
    w.kv("degraded", e.degraded_);
    w.key("pressure_window");
    w.begin_array();
    for (const std::uint8_t b : e.pressure_window_) w.value(std::uint64_t{b});
    w.end_array();

    w.key("node_free");
    w.begin_array();
    for (const double f : e.node_free_) w.value(f);
    w.end_array();
    w.key("node_instances");
    w.begin_array();
    for (const std::uint32_t n : e.node_instances_) w.value(std::uint64_t{n});
    w.end_array();
    w.key("node_up");
    w.begin_array();
    for (const std::uint8_t u : e.node_up_) w.value(std::uint64_t{u});
    w.end_array();

    // Active instances only, in slot (= creation) order; hops below name
    // an instance by its rank in this list, so a file never depends on
    // whether the engine had compacted its retired slots yet.
    std::vector<std::uint32_t> rank(e.instances_.size(), 0);
    w.key("instances");
    w.begin_array();
    std::uint32_t written = 0;
    for (std::size_t slot = 0; slot < e.instances_.size(); ++slot) {
      const ServeEngine::Instance& inst = e.instances_[slot];
      if (inst.retired) continue;
      rank[slot] = written++;
      w.begin_object();
      w.kv("vnf", std::uint64_t{inst.vnf});
      w.kv("node", std::uint64_t{inst.node});
      w.kv("seq", inst.seq);
      w.kv("raw_load", inst.raw_load);
      w.kv("effective_load", inst.effective_load);
      // Written only when set, so off-runs (where it is always false)
      // serialize exactly as before.
      if (inst.draining) w.kv("draining", true);
      w.key("members");
      w.begin_array();
      for (const std::uint32_t id : inst.members) w.value(std::uint64_t{id});
      w.end_array();
      w.end_object();
    }
    w.end_array();

    w.key("live");
    w.begin_array();
    for (const auto& [id, r] : e.live_) {
      w.begin_object();
      write_pending(w, id, r.rate, r.prob, r.chain);
      w.key("hops");
      w.begin_array();
      for (const std::uint32_t slot : r.hop_instance) {
        w.value(std::uint64_t{rank[slot]});
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();

    w.key("queue");
    w.begin_array();
    for (const ServeEngine::PendingRequest& p : e.queue_) {
      w.begin_object();
      write_pending(w, p.id, p.rate, p.prob, p.chain);
      w.end_object();
    }
    w.end_array();

    w.key("retry");
    w.begin_array();
    for (const ServeEngine::RetryRequest& p : e.retry_queue_) {
      w.begin_object();
      write_pending(w, p.request.id, p.request.rate, p.request.prob,
                    p.request.chain);
      w.kv("not_before", p.not_before);
      w.kv("attempts", std::uint64_t{p.attempts});
      w.end_object();
    }
    w.end_array();

    w.key("gone");  // std::set — already ascending
    w.begin_array();
    for (const std::uint32_t id : e.gone_) w.value(std::uint64_t{id});
    w.end_array();

    const ServeSummary& t = e.totals_;
    w.key("totals");
    w.begin_object();
    w.kv("events", t.events);
    w.kv("arrivals", t.arrivals);
    w.kv("admitted", t.admitted);
    w.kv("admitted_from_queue", t.admitted_from_queue);
    w.kv("rejected", t.rejected);
    w.kv("departures", t.departures);
    w.kv("rate_changes", t.rate_changes);
    w.kv("shed", t.shed);
    w.kv("migrations", t.migrations);
    w.kv("rebalances", t.rebalances);
    w.kv("max_migrations_per_rebalance", t.max_migrations_per_rebalance);
    w.kv("scale_outs", t.scale_outs);
    w.kv("scale_ins", t.scale_ins);
    w.kv("node_downs", t.node_downs);
    w.kv("node_ups", t.node_ups);
    w.kv("instances_closed", t.instances_closed);
    w.kv("evacuated_requests", t.evacuated_requests);
    w.kv("evacuation_migrations", t.evacuation_migrations);
    w.kv("parked", t.parked);
    w.kv("retry_admitted", t.retry_admitted);
    w.kv("shed_fault", t.shed_fault);
    w.kv("shed_overload", t.shed_overload);
    w.kv("degradations", t.degradations);
    w.kv("degraded_events", t.degraded_events);
    w.end_object();

    // The outcome log only while recording: it is the one O(history)
    // section, and without it a checkpoint is bounded by the live state.
    if (c.events_log) {
      w.key("log");
      w.begin_array();
      for (const LoggedOutcome& o : e.log_) {
        w.begin_object();
        w.kv("index", o.index);
        w.kv("t", o.time);
        w.kv("kind", std::uint64_t{static_cast<std::uint8_t>(o.kind)});
        w.kv("request", std::uint64_t{o.request});
        w.kv("decision",
             std::uint64_t{static_cast<std::uint8_t>(o.decision)});
        w.kv("migrations", std::uint64_t{o.migrations});
        w.kv("scale_outs", std::uint64_t{o.scale_outs});
        w.kv("scale_ins", std::uint64_t{o.scale_ins});
        w.kv("admitted_from_queue", std::uint64_t{o.admitted_from_queue});
        w.kv("evacuated", std::uint64_t{o.evacuated});
        w.kv("evacuation_migrations",
             std::uint64_t{o.evacuation_migrations});
        w.kv("parked", std::uint64_t{o.parked});
        w.kv("retry_admitted", std::uint64_t{o.retry_admitted});
        w.kv("shed_fault", std::uint64_t{o.shed_fault});
        w.kv("shed_overload", std::uint64_t{o.shed_overload});
        w.kv("degraded", o.degraded);
        w.kv("mean_predicted_latency", o.mean_predicted_latency);
        w.kv("p99_predicted_latency", o.p99_predicted_latency);
        w.end_object();
      }
      w.end_array();
    }

    if (e.autoscale_on()) {
      w.key("autoscale");
      w.begin_object();
      w.kv("window", e.as_window_);
      w.kv("instance_seconds", e.instance_seconds_);
      w.kv("opened", e.as_opened_);
      w.kv("drained", e.as_drained_);
      const AutoscaleTotals& at = e.scaler_->totals();
      w.kv("decisions", at.decisions);
      w.kv("flaps", at.flaps);
      w.kv("blocked_cooldown", at.blocked_cooldown);
      w.key("vnf_states");
      w.begin_array();
      for (const VnfPolicyState& st : e.scaler_->vnf_states()) {
        w.begin_object();
        w.kv("ewma", st.ewma);
        w.kv("prev_ewma", st.prev_ewma);
        w.kv("seeded", st.seeded);
        w.kv("cooldown_until", st.cooldown_until);
        w.kv("last_sign", static_cast<std::int64_t>(st.last_sign));
        w.kv("last_action_window", st.last_action_window);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }

    if (e.timeline_on()) {
      w.key("timeline");
      w.begin_object();
      w.kv("window_index", e.window_index_);
      w.kv("win_served", e.win_served_);
      w.kv("win_offered", e.win_offered_);
      const ServeEngine::TimelineBaseline& b = e.win_base_;
      w.key("win_base");
      w.begin_object();
      w.kv("events", b.events);
      w.kv("admitted", b.admitted);
      w.kv("admitted_from_queue", b.admitted_from_queue);
      w.kv("retry_admitted", b.retry_admitted);
      w.kv("rejected", b.rejected);
      w.kv("shed", b.shed);
      w.kv("shed_fault", b.shed_fault);
      w.kv("shed_overload", b.shed_overload);
      w.kv("evacuated_requests", b.evacuated_requests);
      w.kv("parked", b.parked);
      w.kv("migrations", b.migrations);
      if (e.autoscale_on()) {
        w.kv("scale_outs", b.scale_outs);
        w.kv("scale_ins", b.scale_ins);
      }
      w.end_object();
      w.key("pending_since");  // std::map — already ascending by id
      w.begin_array();
      for (const auto& [id, since] : e.pending_since_) {
        w.begin_object();
        w.kv("id", std::uint64_t{id});
        w.kv("since", since);
        w.end_object();
      }
      w.end_array();
      const WindowedHistogram& wh = *e.wait_hist_;
      w.key("wait_hist");
      w.begin_object();
      w.kv("lo", wh.lo());
      w.kv("hi", wh.hi());
      w.kv("buckets", static_cast<std::uint64_t>(wh.bucket_count()));
      w.kv("span", static_cast<std::uint64_t>(wh.span()));
      w.key("windows");
      w.begin_array();
      for (std::size_t i = 0; i < wh.window_count(); ++i) {
        const Histogram& h = wh.window(i);
        w.begin_object();
        w.key("counts");
        w.begin_array();
        for (std::size_t bkt = 0; bkt < h.bucket_count(); ++bkt) {
          w.value(std::uint64_t{h.bucket(bkt)});
        }
        w.end_array();
        w.kv("underflow", std::uint64_t{h.underflow()});
        w.kv("overflow", std::uint64_t{h.overflow()});
        if (h.count() > 0) {
          w.kv("min", h.min());
          w.kv("max", h.max());
        }
        w.end_object();
      }
      w.end_array();
      w.end_object();
      w.key("rows");
      w.begin_array();
      for (const obs::TimelineRecord& r : e.timeline_rows_) {
        w.begin_object();
        w.kv("window", r.window);
        w.kv("t_start", r.t_start);
        w.kv("t_end", r.t_end);
        w.kv("events", r.events);
        w.kv("offered_rate", r.offered_rate);
        w.kv("carried_rate", r.carried_rate);
        w.kv("availability", r.availability);
        w.kv("live", r.live);
        w.kv("queued", r.queued);
        w.kv("retrying", r.retrying);
        w.kv("admitted", r.admitted);
        w.kv("admitted_from_queue", r.admitted_from_queue);
        w.kv("retry_admitted", r.retry_admitted);
        w.kv("rejected", r.rejected);
        w.kv("shed", r.shed);
        w.kv("evacuated", r.evacuated);
        w.kv("parked", r.parked);
        w.kv("migrations", r.migrations);
        w.kv("degraded", r.degraded);
        w.kv("nodes_down", r.nodes_down);
        w.key("node_util");
        w.begin_array();
        for (const double u : r.node_util) w.value(u);
        w.end_array();
        w.kv("wait_count", r.wait_count);
        w.kv("wait_p50", r.wait_p50);
        w.kv("wait_p90", r.wait_p90);
        w.kv("wait_p99", r.wait_p99);
        if (r.has_autoscale) {
          w.kv("instances", r.instances);
          w.kv("draining", r.draining);
          w.kv("scale_outs", r.scale_outs);
          w.kv("scale_ins", r.scale_ins);
        }
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }

    if (e.lifecycle_on()) {
      w.key("lifecycle");  // compact [index, t, request, stage, node, rung]
      w.begin_array();
      for (const obs::LifecycleEvent& ev : e.lifecycle_) {
        w.begin_array();
        w.value(ev.event_index);
        w.value(ev.time);
        w.value(std::uint64_t{ev.request});
        w.value(std::uint64_t{static_cast<std::uint8_t>(ev.stage)});
        w.value(std::uint64_t{ev.node});
        w.value(std::uint64_t{ev.rung});
        w.end_array();
      }
      w.end_array();
    }

    w.end_object();
    out << '\n';
  }

  static void apply(ServeEngine& e, const obs::JsonValue& doc) {
    if (get_uint(doc, "vnf_count") != e.vnfs_.size()) {
      ckpt_fail("vnf_count does not match the provided workload");
    }
    if (get_uint(doc, "node_count") != e.node_free_.size()) {
      ckpt_fail("node_count does not match the provided topology");
    }
    const std::uint64_t vnf_count = e.vnfs_.size();
    const std::uint64_t node_count = e.node_free_.size();

    e.last_time_ = get_double(doc, "last_time");
    e.saw_event_ = get_bool(doc, "saw_event");
    e.next_seq_ = get_uint(doc, "next_seq");
    e.work_ = get_uint(doc, "work");
    e.served_integral_ = get_double(doc, "served_integral");
    e.offered_integral_ = get_double(doc, "offered_integral");
    e.degraded_ = get_bool(doc, "degraded");
    e.pressure_window_.clear();
    for (const obs::JsonValue& b : get_array(doc, "pressure_window")) {
      if (!b.is_number()) ckpt_fail("pressure_window entries must be 0/1");
      e.pressure_window_.push_back(b.as_number() != 0.0 ? 1 : 0);
    }

    const auto& node_free = get_array(doc, "node_free");
    const auto& node_instances = get_array(doc, "node_instances");
    const auto& node_up = get_array(doc, "node_up");
    if (node_free.size() != node_count || node_instances.size() != node_count ||
        node_up.size() != node_count) {
      ckpt_fail("node arrays must have node_count entries");
    }
    for (std::size_t v = 0; v < node_count; ++v) {
      if (!node_free[v].is_number() || !node_instances[v].is_number() ||
          !node_up[v].is_number()) {
        ckpt_fail("node arrays must hold numbers");
      }
      e.node_free_[v] = node_free[v].as_number();
      e.node_instances_[v] =
          static_cast<std::uint32_t>(node_instances[v].as_number());
      e.node_up_[v] = node_up[v].as_number() != 0.0 ? 1 : 0;
    }

    // Hops name an instance by its position in this array.  Files from
    // before slot compaction also list retired instances ("retired":
    // true); those are dropped here and the survivors renumbered by rank,
    // exactly as the writer numbers them.
    constexpr auto kDropped = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> rank;
    e.instances_.clear();
    e.retired_slots_ = 0;
    for (auto& act : e.active_of_vnf_) act.clear();
    for (const obs::JsonValue& j : get_array(doc, "instances")) {
      if (!j.is_object()) ckpt_fail("instance entries must be objects");
      ServeEngine::Instance inst;
      const std::uint64_t vnf = get_uint(j, "vnf");
      const std::uint64_t node = get_uint(j, "node");
      if (vnf >= vnf_count) ckpt_fail("instance vnf out of range");
      if (node >= node_count) ckpt_fail("instance node out of range");
      inst.vnf = static_cast<std::uint32_t>(vnf);
      inst.node = static_cast<std::uint32_t>(node);
      inst.seq = get_uint(j, "seq");
      inst.raw_load = get_double(j, "raw_load");
      inst.effective_load = get_double(j, "effective_load");
      if (j.find("retired") != nullptr) inst.retired = get_bool(j, "retired");
      if (j.find("draining") != nullptr) {
        if (!e.autoscale_on()) {
          ckpt_fail("instance is draining but autoscaling is off");
        }
        inst.draining = get_bool(j, "draining");
        if (inst.draining && inst.retired) {
          ckpt_fail("instance cannot be both draining and retired");
        }
      }
      inst.members = get_u32_vector(
          j, "members", std::numeric_limits<std::uint32_t>::max());
      if (inst.retired) {
        rank.push_back(kDropped);
        continue;
      }
      const auto slot = static_cast<std::uint32_t>(e.instances_.size());
      rank.push_back(slot);
      e.active_of_vnf_[inst.vnf].push_back(slot);
      e.instances_.push_back(std::move(inst));
    }

    e.live_.clear();
    for (const obs::JsonValue& j : get_array(doc, "live")) {
      if (!j.is_object()) ckpt_fail("live entries must be objects");
      const auto id = static_cast<std::uint32_t>(get_uint(j, "id"));
      ServeEngine::LiveRequest r;
      r.rate = get_double(j, "rate");
      r.prob = get_double(j, "prob");
      r.chain = get_u32_vector(j, "chain", vnf_count);
      r.hop_instance = get_u32_vector(j, "hops", rank.size());
      if (r.hop_instance.size() != r.chain.size()) {
        ckpt_fail("live request hops/chain size mismatch");
      }
      for (std::uint32_t& slot : r.hop_instance) {
        if (rank[slot] == kDropped) {
          ckpt_fail("live request bound to a retired instance");
        }
        slot = rank[slot];
      }
      if (!e.live_.emplace(id, std::move(r)).second) {
        ckpt_fail("duplicate live request id");
      }
    }

    const auto read_pending = [&](const obs::JsonValue& j) {
      if (!j.is_object()) ckpt_fail("queue entries must be objects");
      ServeEngine::PendingRequest p;
      p.id = static_cast<std::uint32_t>(get_uint(j, "id"));
      p.rate = get_double(j, "rate");
      p.prob = get_double(j, "prob");
      p.chain = get_u32_vector(j, "chain", vnf_count);
      return p;
    };
    e.queue_.clear();
    for (const obs::JsonValue& j : get_array(doc, "queue")) {
      e.queue_.push_back(read_pending(j));
    }
    e.retry_queue_.clear();
    for (const obs::JsonValue& j : get_array(doc, "retry")) {
      ServeEngine::RetryRequest r;
      r.request = read_pending(j);
      r.not_before = get_uint(j, "not_before");
      r.attempts = static_cast<std::uint32_t>(get_uint(j, "attempts"));
      e.retry_queue_.push_back(std::move(r));
    }
    e.gone_.clear();
    for (const std::uint32_t id : get_u32_vector(
             doc, "gone", std::numeric_limits<std::uint32_t>::max())) {
      e.gone_.insert(id);
    }

    const obs::JsonValue& t = get_object(doc, "totals");
    ServeSummary& s = e.totals_;
    s.events = get_uint(t, "events");
    s.arrivals = get_uint(t, "arrivals");
    s.admitted = get_uint(t, "admitted");
    s.admitted_from_queue = get_uint(t, "admitted_from_queue");
    s.rejected = get_uint(t, "rejected");
    s.departures = get_uint(t, "departures");
    s.rate_changes = get_uint(t, "rate_changes");
    s.shed = get_uint(t, "shed");
    s.migrations = get_uint(t, "migrations");
    s.rebalances = get_uint(t, "rebalances");
    s.max_migrations_per_rebalance =
        get_uint(t, "max_migrations_per_rebalance");
    s.scale_outs = get_uint(t, "scale_outs");
    s.scale_ins = get_uint(t, "scale_ins");
    s.node_downs = get_uint(t, "node_downs");
    s.node_ups = get_uint(t, "node_ups");
    s.instances_closed = get_uint(t, "instances_closed");
    s.evacuated_requests = get_uint(t, "evacuated_requests");
    s.evacuation_migrations = get_uint(t, "evacuation_migrations");
    s.parked = get_uint(t, "parked");
    s.retry_admitted = get_uint(t, "retry_admitted");
    s.shed_fault = get_uint(t, "shed_fault");
    s.shed_overload = get_uint(t, "shed_overload");
    s.degradations = get_uint(t, "degradations");
    s.degraded_events = get_uint(t, "degraded_events");

    // The outcome log is required while recording.  Files from before the
    // log was opt-in carry one without the config switch: it is still
    // validated, then dropped.
    e.log_.clear();
    const bool has_log = doc.find("log") != nullptr;
    if (e.config_.events_log && !has_log) {
      ckpt_fail("config enables the events log but it is missing");
    }
    const obs::JsonValue::Array no_log;
    for (const obs::JsonValue& j : has_log ? get_array(doc, "log") : no_log) {
      if (!j.is_object()) ckpt_fail("log entries must be objects");
      LoggedOutcome o;
      o.index = get_uint(j, "index");
      o.time = get_double(j, "t");
      const std::uint64_t kind = get_uint(j, "kind");
      if (kind > static_cast<std::uint64_t>(
                     workload::StreamEventKind::kNodeUp)) {
        ckpt_fail("log entry kind out of range");
      }
      o.kind = static_cast<workload::StreamEventKind>(kind);
      o.request = static_cast<std::uint32_t>(get_uint(j, "request"));
      const std::uint64_t decision = get_uint(j, "decision");
      if (decision > static_cast<std::uint64_t>(Decision::kNodeUp)) {
        ckpt_fail("log entry decision out of range");
      }
      o.decision = static_cast<Decision>(decision);
      o.migrations = static_cast<std::uint32_t>(get_uint(j, "migrations"));
      o.scale_outs = static_cast<std::uint32_t>(get_uint(j, "scale_outs"));
      o.scale_ins = static_cast<std::uint32_t>(get_uint(j, "scale_ins"));
      o.admitted_from_queue =
          static_cast<std::uint32_t>(get_uint(j, "admitted_from_queue"));
      o.evacuated = static_cast<std::uint32_t>(get_uint(j, "evacuated"));
      o.evacuation_migrations =
          static_cast<std::uint32_t>(get_uint(j, "evacuation_migrations"));
      o.parked = static_cast<std::uint32_t>(get_uint(j, "parked"));
      o.retry_admitted =
          static_cast<std::uint32_t>(get_uint(j, "retry_admitted"));
      o.shed_fault = static_cast<std::uint32_t>(get_uint(j, "shed_fault"));
      o.shed_overload =
          static_cast<std::uint32_t>(get_uint(j, "shed_overload"));
      o.degraded = get_bool(j, "degraded");
      o.mean_predicted_latency = get_double(j, "mean_predicted_latency");
      o.p99_predicted_latency = get_double(j, "p99_predicted_latency");
      if (e.config_.events_log) e.log_.push_back(o);
    }

    const bool has_timeline = doc.find("timeline") != nullptr;
    if (has_timeline != e.timeline_on()) {
      ckpt_fail(has_timeline
                    ? "timeline state present but config disables the timeline"
                    : "config enables the timeline but state is missing");
    }
    if (has_timeline) apply_timeline(e, get_object(doc, "timeline"));

    const bool has_autoscale = doc.find("autoscale") != nullptr;
    if (has_autoscale != e.autoscale_on()) {
      ckpt_fail(has_autoscale
                    ? "autoscale state present but config disables autoscaling"
                    : "config enables autoscaling but state is missing");
    }
    if (has_autoscale) {
      const obs::JsonValue& a = get_object(doc, "autoscale");
      e.as_window_ = get_uint(a, "window");
      e.instance_seconds_ = get_double(a, "instance_seconds");
      e.as_opened_ = get_uint(a, "opened");
      e.as_drained_ = get_uint(a, "drained");
      AutoscaleTotals at;
      at.decisions = get_uint(a, "decisions");
      at.flaps = get_uint(a, "flaps");
      at.blocked_cooldown = get_uint(a, "blocked_cooldown");
      std::vector<VnfPolicyState> states;
      for (const obs::JsonValue& j : get_array(a, "vnf_states")) {
        if (!j.is_object()) ckpt_fail("vnf_states entries must be objects");
        VnfPolicyState st;
        st.ewma = get_double(j, "ewma");
        st.prev_ewma = get_double(j, "prev_ewma");
        st.seeded = get_bool(j, "seeded");
        st.cooldown_until = get_uint(j, "cooldown_until");
        const double sign = get_double(j, "last_sign");
        if (sign != -1.0 && sign != 0.0 && sign != 1.0) {
          ckpt_fail("vnf_states last_sign must be -1, 0, or 1");
        }
        st.last_sign = static_cast<std::int8_t>(sign);
        st.last_action_window = get_uint(j, "last_action_window");
        states.push_back(st);
      }
      if (states.size() != vnf_count) {
        ckpt_fail("vnf_states must have vnf_count entries");
      }
      e.scaler_->restore(std::move(states), at);
    }

    const bool has_lifecycle = doc.find("lifecycle") != nullptr;
    if (has_lifecycle != e.lifecycle_on()) {
      ckpt_fail(has_lifecycle
                    ? "lifecycle log present but config disables it"
                    : "config enables the lifecycle log but it is missing");
    }
    e.lifecycle_.clear();
    if (has_lifecycle) {
      for (const obs::JsonValue& j : get_array(doc, "lifecycle")) {
        if (!j.is_array() || j.as_array().size() != 6) {
          ckpt_fail("lifecycle entries must be 6-element arrays");
        }
        const auto& a = j.as_array();
        const auto tuple_uint = [&](std::size_t i) {
          if (!a[i].is_number() || a[i].as_number() < 0.0 ||
              a[i].as_number() != std::floor(a[i].as_number()) ||
              a[i].as_number() > 1.8e19) {
            ckpt_fail("lifecycle tuple fields must be non-negative integers");
          }
          return static_cast<std::uint64_t>(a[i].as_number());
        };
        obs::LifecycleEvent ev;
        ev.event_index = tuple_uint(0);
        if (!a[1].is_number() || !std::isfinite(a[1].as_number())) {
          ckpt_fail("lifecycle tuple time must be a finite number");
        }
        ev.time = a[1].as_number();
        const std::uint64_t request = tuple_uint(2);
        const std::uint64_t stage = tuple_uint(3);
        const std::uint64_t node = tuple_uint(4);
        const std::uint64_t rung = tuple_uint(5);
        if (request > std::numeric_limits<std::uint32_t>::max() ||
            node > std::numeric_limits<std::uint32_t>::max() ||
            rung > std::numeric_limits<std::uint32_t>::max()) {
          ckpt_fail("lifecycle tuple id fields are out of range");
        }
        if (stage > static_cast<std::uint64_t>(obs::LifecycleStage::kDepart)) {
          ckpt_fail("lifecycle tuple stage is out of range");
        }
        ev.request = static_cast<std::uint32_t>(request);
        ev.stage = static_cast<obs::LifecycleStage>(stage);
        ev.node = static_cast<std::uint32_t>(node);
        ev.rung = static_cast<std::uint32_t>(rung);
        e.lifecycle_.push_back(ev);
      }
    }
  }

  static void apply_timeline(ServeEngine& e, const obs::JsonValue& tl) {
    e.window_index_ = get_uint(tl, "window_index");
    e.win_served_ = get_double(tl, "win_served");
    e.win_offered_ = get_double(tl, "win_offered");

    const obs::JsonValue& b = get_object(tl, "win_base");
    ServeEngine::TimelineBaseline base;
    base.events = get_uint(b, "events");
    base.admitted = get_uint(b, "admitted");
    base.admitted_from_queue = get_uint(b, "admitted_from_queue");
    base.retry_admitted = get_uint(b, "retry_admitted");
    base.rejected = get_uint(b, "rejected");
    base.shed = get_uint(b, "shed");
    base.shed_fault = get_uint(b, "shed_fault");
    base.shed_overload = get_uint(b, "shed_overload");
    base.evacuated_requests = get_uint(b, "evacuated_requests");
    base.parked = get_uint(b, "parked");
    base.migrations = get_uint(b, "migrations");
    if (b.find("scale_outs") != nullptr) {
      base.scale_outs = get_uint(b, "scale_outs");
      base.scale_ins = get_uint(b, "scale_ins");
    }
    e.win_base_ = base;

    e.pending_since_.clear();
    for (const obs::JsonValue& j : get_array(tl, "pending_since")) {
      if (!j.is_object()) ckpt_fail("pending_since entries must be objects");
      const auto id = static_cast<std::uint32_t>(get_uint(j, "id"));
      if (!e.pending_since_.emplace(id, get_double(j, "since")).second) {
        ckpt_fail("duplicate pending_since id");
      }
    }

    const obs::JsonValue& wj = get_object(tl, "wait_hist");
    WindowedHistogram& wh = *e.wait_hist_;
    if (get_double(wj, "lo") != wh.lo() || get_double(wj, "hi") != wh.hi() ||
        get_uint(wj, "buckets") != wh.bucket_count() ||
        get_uint(wj, "span") != wh.span()) {
      ckpt_fail("wait_hist geometry does not match the embedded config");
    }
    std::deque<Histogram> slots;
    for (const obs::JsonValue& j : get_array(wj, "windows")) {
      if (!j.is_object()) ckpt_fail("wait_hist windows must be objects");
      const auto& counts_json = get_array(j, "counts");
      std::vector<std::size_t> counts;
      counts.reserve(counts_json.size());
      for (const obs::JsonValue& cj : counts_json) {
        if (!cj.is_number() || cj.as_number() < 0.0 ||
            cj.as_number() != std::floor(cj.as_number())) {
          ckpt_fail("wait_hist counts must be non-negative integers");
        }
        counts.push_back(static_cast<std::size_t>(cj.as_number()));
      }
      const auto underflow =
          static_cast<std::size_t>(get_uint(j, "underflow"));
      const auto overflow = static_cast<std::size_t>(get_uint(j, "overflow"));
      const bool has_samples = j.find("min") != nullptr;
      const double mn = has_samples ? get_double(j, "min") : 0.0;
      const double mx = has_samples ? get_double(j, "max") : 0.0;
      Histogram h(wh.lo(), wh.hi(), wh.bucket_count());
      try {
        h.restore(counts, underflow, overflow, mn, mx);
      } catch (const std::exception& ex) {
        ckpt_fail(std::string("invalid wait_hist window: ") + ex.what());
      }
      if ((h.count() > 0) != has_samples) {
        ckpt_fail("wait_hist window min/max presence mismatch");
      }
      slots.push_back(std::move(h));
    }
    try {
      wh.restore(std::move(slots));
    } catch (const std::exception& ex) {
      ckpt_fail(std::string("invalid wait_hist state: ") + ex.what());
    }

    e.timeline_rows_.clear();
    const std::size_t node_count = e.node_free_.size();
    for (const obs::JsonValue& j : get_array(tl, "rows")) {
      if (!j.is_object()) ckpt_fail("timeline rows must be objects");
      obs::TimelineRecord r;
      r.window = get_uint(j, "window");
      r.t_start = get_double(j, "t_start");
      r.t_end = get_double(j, "t_end");
      r.events = get_uint(j, "events");
      r.offered_rate = get_double(j, "offered_rate");
      r.carried_rate = get_double(j, "carried_rate");
      r.availability = get_double(j, "availability");
      r.live = get_uint(j, "live");
      r.queued = get_uint(j, "queued");
      r.retrying = get_uint(j, "retrying");
      r.admitted = get_uint(j, "admitted");
      r.admitted_from_queue = get_uint(j, "admitted_from_queue");
      r.retry_admitted = get_uint(j, "retry_admitted");
      r.rejected = get_uint(j, "rejected");
      r.shed = get_uint(j, "shed");
      r.evacuated = get_uint(j, "evacuated");
      r.parked = get_uint(j, "parked");
      r.migrations = get_uint(j, "migrations");
      r.degraded = get_bool(j, "degraded");
      r.nodes_down = get_uint(j, "nodes_down");
      for (const obs::JsonValue& u : get_array(j, "node_util")) {
        if (!u.is_number()) ckpt_fail("node_util entries must be numbers");
        r.node_util.push_back(u.as_number());
      }
      if (r.node_util.size() != node_count) {
        ckpt_fail("timeline row node_util must have node_count entries");
      }
      r.wait_count = get_uint(j, "wait_count");
      r.wait_p50 = get_double(j, "wait_p50");
      r.wait_p90 = get_double(j, "wait_p90");
      r.wait_p99 = get_double(j, "wait_p99");
      if (j.find("instances") != nullptr) {
        r.has_autoscale = true;
        r.instances = get_uint(j, "instances");
        r.draining = get_uint(j, "draining");
        r.scale_outs = get_uint(j, "scale_outs");
        r.scale_ins = get_uint(j, "scale_ins");
      }
      e.timeline_rows_.push_back(std::move(r));
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
  CheckpointInfo info;
  info.cursor = get_uint(doc, "cursor");
  info.has_btrace_cursor = read_btrace_cursor(doc, &info.btrace);
  info.vnf_count = get_uint(doc, "vnf_count");
  info.node_count = get_uint(doc, "node_count");
  info.live_requests = get_array(doc, "live").size();
  info.logged_events =
      doc.find("log") != nullptr ? get_array(doc, "log").size() : 0;

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
  // never looks at latencies (the restored config pins link_latency).
  for (std::size_t i = 1; i < ids.size(); ++i) {
    topo.connect_nodes(ids[0], ids[i], 0.0);
  }
  topo.freeze();
  std::vector<workload::Vnf> vnfs(static_cast<std::size_t>(info.vnf_count));
  for (auto& f : vnfs) {
    f.demand_per_instance = 1.0;
    f.service_rate = 1.0;
  }
  ServeConfig probe_config;
  probe_config.link_latency = 0.0;
  // Honour the telemetry switches so apply() exercises (and validates) the
  // timeline/lifecycle state walk too.
  const obs::JsonValue* config_json = doc.find("config");
  if (config_json != nullptr && config_json->is_object()) {
    read_telemetry_config(*config_json, probe_config);
    read_autoscale_config(*config_json, probe_config);
  }
  ServeEngine probe(std::move(topo), std::move(vnfs), probe_config);
  CheckpointIo::apply(probe, doc);
  return info;
}

ServeEngine restore_checkpoint(std::string_view text, topo::Topology topology,
                               std::vector<workload::Vnf> vnfs,
                               std::uint64_t* cursor,
                               BinaryTraceCursor* btrace, bool* has_btrace) {
  const obs::JsonValue doc = parse_document(text);
  const std::uint64_t at = get_uint(doc, "cursor");
  const bool btrace_present = read_btrace_cursor(doc, btrace);
  if (has_btrace != nullptr) *has_btrace = btrace_present;

  const obs::JsonValue& c = get_object(doc, "config");
  ServeConfig config;
  config.headroom = get_double(c, "headroom");
  config.rebalance_threshold = get_double(c, "rebalance_threshold");
  config.migration_budget =
      static_cast<std::uint32_t>(get_uint(c, "migration_budget"));
  config.queue_capacity =
      static_cast<std::size_t>(get_uint(c, "queue_capacity"));
  const obs::JsonValue& link = member(c, "link_latency");
  if (link.is_number()) {
    config.link_latency = link.as_number();
  } else if (!link.is_null()) {
    ckpt_fail("config.link_latency must be a number or null");
  }
  config.overload_window =
      static_cast<std::size_t>(get_uint(c, "overload_window"));
  config.overload_threshold = get_double(c, "overload_threshold");
  config.degraded_headroom = get_double(c, "degraded_headroom");
  config.retry_backoff_base = get_uint(c, "retry_backoff_base");
  config.retry_budget =
      static_cast<std::uint32_t>(get_uint(c, "retry_budget"));
  read_telemetry_config(c, config);
  read_autoscale_config(c, config);
  try {
    config.validate();
  } catch (const std::invalid_argument& e) {
    ckpt_fail(std::string("embedded config is invalid: ") + e.what());
  }

  ServeEngine engine(std::move(topology), std::move(vnfs), config);
  CheckpointIo::apply(engine, doc);
  if (cursor != nullptr) *cursor = at;
  return engine;
}

}  // namespace nfv::serve
