#include "nfv/obs/timeline.h"

#include <algorithm>
#include <ostream>
#include <string>

#include "nfv/obs/json.h"

namespace nfv::obs {

namespace {

/// The header line; `windows` is the record count it promises.
void header_fields(auto& v, Of<TimelineDoc> auto& doc, auto& windows) {
  v("schema", kTimelineSchema);
  v("snapshot_every", doc.snapshot_every);
  v("nodes", doc.nodes);
  v("windows", windows);
}

}  // namespace

void write_timeline(const TimelineDoc& doc, std::ostream& os) {
  // One compact object per line: the JSONL contract.
  const auto line = [&os](const auto& body) {
    JsonWriter w(os, 0);
    FieldWriter v(w);
    w.begin_object();
    body(v);
    w.end_object();
    os << '\n';
  };
  const std::uint64_t windows = doc.records.size();
  line([&](FieldWriter& v) { header_fields(v, doc, windows); });
  for (const TimelineRecord& r : doc.records) {
    line([&](FieldWriter& v) { fields(v, r); });
  }
}

TimelineDoc load_timeline(std::string_view text) {
  TimelineDoc doc;
  std::size_t line_no = 0;
  bool saw_header = false;
  std::uint64_t promised = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view line = nl == std::string_view::npos
                                ? text.substr(pos)
                                : text.substr(pos, nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    // Skip blank lines (trailing newline produces one).
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;

    std::string err;
    const auto parsed = parse_json(line, &err);
    const std::string where = "timeline line " + std::to_string(line_no) + ": ";
    if (!parsed || !parsed->is_object()) {
      throw TimelineParseError(where +
                               (parsed ? "record is not a JSON object" : err));
    }
    FieldReader<TimelineParseError> v(*parsed, where, /*strict=*/true);
    if (!saw_header) {
      header_fields(v, doc, promised);
      if (doc.snapshot_every <= 0.0) v.fail("snapshot_every must be > 0");
      saw_header = true;
      continue;
    }
    TimelineRecord r;
    fields(v, r);
    if (r.t_end < r.t_start) v.fail("t_end < t_start");
    if (doc.nodes != 0 && r.node_util.size() != doc.nodes) {
      v.fail("node_util length disagrees with header nodes");
    }
    if (!doc.records.empty() && r.window <= doc.records.back().window) {
      v.fail("window indices must be strictly increasing");
    }
    doc.records.push_back(std::move(r));
  }
  if (!saw_header) {
    throw TimelineParseError("timeline: empty input (no header line)");
  }
  // A killed writer leaves a short stream; the header count makes that
  // detectable instead of silently under-aggregating.
  if (doc.records.size() != promised) {
    throw TimelineParseError(
        "timeline: header promises " + std::to_string(promised) +
        " windows, stream carries " + std::to_string(doc.records.size()));
  }
  return doc;
}

TimelineAggregates aggregate_timeline(
    const std::vector<TimelineRecord>& records) {
  TimelineAggregates agg;
  agg.windows = records.size();
  if (records.empty()) return agg;
  agg.availability_min = records.front().availability;
  agg.carried_rate_min = records.front().carried_rate;
  double availability_sum = 0.0;
  for (const TimelineRecord& r : records) {
    availability_sum += r.availability;
    if (r.availability < agg.availability_min) {
      agg.availability_min = r.availability;
      agg.worst_window = r.window;
      agg.worst_window_t_start = r.t_start;
    }
    agg.offered_rate_max = std::max(agg.offered_rate_max, r.offered_rate);
    agg.carried_rate_min = std::min(agg.carried_rate_min, r.carried_rate);
    agg.live_max = std::max(agg.live_max, r.live);
    agg.queued_max = std::max(agg.queued_max, r.queued);
    agg.retrying_max = std::max(agg.retrying_max, r.retrying);
    agg.shed_total += r.shed;
    agg.rejected_total += r.rejected;
    agg.parked_total += r.parked;
    agg.evacuated_total += r.evacuated;
    agg.migrations_total += r.migrations;
    agg.wait_p99_latency_max = std::max(agg.wait_p99_latency_max, r.wait_p99);
    if (r.degraded) ++agg.degraded_windows;
    agg.nodes_down_max = std::max(agg.nodes_down_max, r.nodes_down);
  }
  agg.availability_mean =
      availability_sum / static_cast<double>(records.size());
  return agg;
}

std::vector<std::pair<std::string, double>> aggregate_values(
    const TimelineAggregates& agg) {
  return {
      {"windows", static_cast<double>(agg.windows)},
      {"availability_min", agg.availability_min},
      {"availability_mean", agg.availability_mean},
      {"worst_window", static_cast<double>(agg.worst_window)},
      {"worst_window_t_start", agg.worst_window_t_start},
      {"offered_rate_max", agg.offered_rate_max},
      {"carried_rate_min", agg.carried_rate_min},
      {"live_max", static_cast<double>(agg.live_max)},
      {"queued_max", static_cast<double>(agg.queued_max)},
      {"retrying_max", static_cast<double>(agg.retrying_max)},
      {"shed_total", static_cast<double>(agg.shed_total)},
      {"rejected_total", static_cast<double>(agg.rejected_total)},
      {"parked_total", static_cast<double>(agg.parked_total)},
      {"evacuated_total", static_cast<double>(agg.evacuated_total)},
      {"migrations_total", static_cast<double>(agg.migrations_total)},
      {"wait_p99_latency_max", agg.wait_p99_latency_max},
      {"degraded_windows", static_cast<double>(agg.degraded_windows)},
      {"nodes_down_max", static_cast<double>(agg.nodes_down_max)},
  };
}

}  // namespace nfv::obs
