#include "spans.h"

#include <algorithm>

#include "json.h"

namespace perfbench {

uint64_t SpanRecorder::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::Record(uint64_t id, uint64_t parent, uint64_t trace_id,
                          const std::string& name, Clock::time_point start,
                          Clock::time_point end) {
  if (!enabled()) return;
  auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  Span span{id, parent, trace_id, name, ns(start), ns(end)};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecorder::Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

namespace {

/// Self time of `parent`: its duration minus the union of the given
/// child intervals clipped to it, in nanoseconds.
int64_t SelfTimeNs(const SpanRecorder::Span& parent,
                   std::vector<std::pair<int64_t, int64_t>> children) {
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t reach = parent.start_ns;  // end of the union so far
  for (auto [start, end] : children) {
    start = std::max(start, reach);
    end = std::min(end, parent.end_ns);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return (parent.end_ns - parent.start_ns) - covered;
}

}  // namespace

std::map<std::string, SpanRecorder::NameTotals> SpanRecorder::Totals() const {
  std::vector<Span> all = spans();
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : all) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, NameTotals> totals;
  for (const Span& s : all) {
    NameTotals& t = totals[s.name];
    ++t.count;
    t.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    auto it = children.find(s.id);
    t.self_ms += static_cast<double>(SelfTimeNs(
                     s, it == children.end()
                            ? std::vector<std::pair<int64_t, int64_t>>{}
                            : it->second)) /
                 1e6;
  }
  return totals;
}

void SpanRecorder::WriteJson(std::ostream& out) const {
  Json totals = Json::Object();
  for (const auto& [name, t] : Totals()) {
    totals.Set(name, Json::Object()
                         .Set("count", t.count)
                         .Set("total_ms", t.total_ms)
                         .Set("self_ms", t.self_ms));
  }
  out << "{\"totals\": " << totals.Dump() << ",\n\"spans\": [\n";
  std::vector<Span> all = spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << Json::Object()
               .Set("id", s.id)
               .Set("parent", s.parent)
               .Set("trace_id", s.trace_id)
               .Set("name", s.name)
               .Set("start_us", static_cast<double>(s.start_ns) / 1e3)
               .Set("end_us", static_cast<double>(s.end_ns) / 1e3)
               .Dump()
        << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

}  // namespace perfbench
