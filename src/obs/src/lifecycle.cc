#include "nfv/obs/lifecycle.h"

#include <array>
#include <cmath>
#include <map>
#include <ostream>
#include <string>

#include "nfv/obs/json.h"

namespace nfv::obs {

namespace {

constexpr std::array<LifecycleStage, 13> kAllStages = {
    LifecycleStage::kAdmit,        LifecycleStage::kPlace,
    LifecycleStage::kQueue,        LifecycleStage::kReject,
    LifecycleStage::kMigrate,      LifecycleStage::kEvacuate,
    LifecycleStage::kPark,         LifecycleStage::kRetryBackoff,
    LifecycleStage::kRetryAdmit,   LifecycleStage::kShedFault,
    LifecycleStage::kShedOverload, LifecycleStage::kShed,
    LifecycleStage::kDepart,
};

[[noreturn]] void lifecycle_fail(const std::string& what) {
  throw LifecycleParseError("lifecycle: " + what);
}

}  // namespace

std::string_view to_string(LifecycleStage stage) {
  switch (stage) {
    case LifecycleStage::kAdmit: return "admit";
    case LifecycleStage::kPlace: return "place";
    case LifecycleStage::kQueue: return "queue";
    case LifecycleStage::kReject: return "reject";
    case LifecycleStage::kMigrate: return "migrate";
    case LifecycleStage::kEvacuate: return "evacuate";
    case LifecycleStage::kPark: return "park";
    case LifecycleStage::kRetryBackoff: return "retry_backoff";
    case LifecycleStage::kRetryAdmit: return "retry_admit";
    case LifecycleStage::kShedFault: return "shed_fault";
    case LifecycleStage::kShedOverload: return "shed_overload";
    case LifecycleStage::kShed: return "shed";
    case LifecycleStage::kDepart: return "depart";
  }
  return "?";
}

void write_lifecycle_trace(const std::vector<LifecycleEvent>& events,
                           double trace_end, std::ostream& os) {
  // Each stage's span runs to the request's next stage so the swimlane
  // tiles without gaps; terminal stages (and the last stage of a request
  // still live at trace end) run to trace_end.
  std::map<std::uint32_t, double> next_start;  // request -> next stage time
  std::vector<double> span_end(events.size(), trace_end);
  for (std::size_t i = events.size(); i-- > 0;) {
    const LifecycleEvent& e = events[i];
    const auto it = next_start.find(e.request);
    if (it != next_start.end()) span_end[i] = it->second;
    next_start[e.request] = e.time;
  }

  JsonWriter w(os);
  w.begin_array();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const LifecycleEvent& e = events[i];
    const double dur = std::max(span_end[i] - e.time, 0.0);
    w.begin_object();
    w.kv("name", to_string(e.stage));
    w.kv("cat", kLifecycleSchema);
    w.kv("ph", "X");
    w.kv("ts", e.time * 1e6);  // chrome://tracing wants microseconds
    w.kv("dur", dur * 1e6);
    w.kv("pid", std::uint64_t{1});
    w.kv("tid", std::uint64_t{e.request});  // one swimlane per request
    w.key("args");
    w.begin_object();
    w.kv("event_index", e.event_index);
    w.kv("t", e.time);  // exact trace time (ts is scaled for the viewer)
    w.kv("request", std::uint64_t{e.request});
    if (e.node == kLifecycleNoNode) {
      w.key("node");
      w.null();
    } else {
      w.kv("node", std::uint64_t{e.node});
    }
    w.kv("rung", std::uint64_t{e.rung});
    w.end_object();
    w.end_object();
  }
  w.end_array();
}

std::vector<LifecycleEvent> load_lifecycle(std::string_view text) {
  std::string err;
  const auto parsed = parse_json(text, &err);
  if (!parsed) lifecycle_fail(err);
  if (!parsed->is_array()) lifecycle_fail("top level is not an array");
  std::vector<LifecycleEvent> out;
  out.reserve(parsed->as_array().size());
  for (const JsonValue& jv : parsed->as_array()) {
    if (!jv.is_object()) lifecycle_fail("trace event is not an object");
    const JsonValue* name = jv.find("name");
    if (name == nullptr || !name->is_string()) {
      lifecycle_fail("trace event has no name");
    }
    LifecycleEvent e;
    bool known = false;
    for (const LifecycleStage s : kAllStages) {
      if (name->as_string() == to_string(s)) {
        e.stage = s;
        known = true;
        break;
      }
    }
    if (!known) lifecycle_fail("unknown stage \"" + name->as_string() + "\"");
    const JsonValue* args = jv.find("args");
    if (args == nullptr || !args->is_object()) {
      lifecycle_fail("trace event has no args object");
    }
    // Integers up to `max`: ids and rungs are 32-bit.
    const auto count = [&](std::string_view key, double max) {
      const JsonValue* v = args->find(key);
      if (v == nullptr || !v->is_number()) {
        lifecycle_fail("args missing numeric \"" + std::string(key) + "\"");
      }
      const double x = v->as_number();
      if (!(x >= 0.0 && x <= max) || x != std::floor(x)) {
        lifecycle_fail("args field \"" + std::string(key) +
                       "\" is not an integer in range");
      }
      return static_cast<std::uint64_t>(x);
    };
    constexpr double kU32 = 4294967295.0;
    e.event_index = count("event_index", 1.8e19);
    const JsonValue* t = args->find("t");
    if (t == nullptr || !t->is_number() || !std::isfinite(t->as_number())) {
      lifecycle_fail("args missing finite \"t\"");
    }
    e.time = t->as_number();
    e.request = static_cast<std::uint32_t>(count("request", kU32));
    const JsonValue* node = args->find("node");
    if (node == nullptr) lifecycle_fail("args missing \"node\"");
    e.node = node->is_null() ? kLifecycleNoNode
                             : static_cast<std::uint32_t>(count("node", kU32));
    e.rung = static_cast<std::uint32_t>(count("rung", kU32));
    out.push_back(e);
  }
  return out;
}

}  // namespace nfv::obs
