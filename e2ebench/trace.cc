#include "trace.h"

#include <algorithm>
#include <utility>

#include "platform/result_io.h"

namespace cyclerank {
namespace e2ebench {

int64_t Tracer::Begin(std::string name, uint64_t request_id, int64_t parent) {
  if (!enabled_) return -1;
  spans_.push_back({std::move(name), NowNs(), 0, parent, request_id});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t span) {
  if (span >= 0) spans_[static_cast<size_t>(span)].end_ns = NowNs();
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back((span.end_ns - span.start_ns) / 1e6);
  }
  return out;
}

std::map<std::string, double> Tracer::SelfTimeMsByName() const {
  const std::vector<int64_t> self = SelfTimesNs(spans_);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i] / 1e6;
  }
  return out;
}

std::string Tracer::ToJson() const {
  std::string out = "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",\n";
    out += "{\"id\":" + std::to_string(i) + ",\"name\":\"" +
           JsonEscape(s.name) + "\",\"start_ns\":" +
           std::to_string(s.start_ns) + ",\"end_ns\":" +
           std::to_string(s.end_ns) + ",\"parent\":" +
           std::to_string(s.parent) + ",\"request_id\":" +
           std::to_string(s.request_id) + "}";
  }
  return out + "]\n";
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t begin = spans[i].start_ns;
    const int64_t end = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals within [begin, end].
    int64_t covered = 0;
    int64_t reach = begin;
    for (auto [kid_begin, kid_end] : kids) {
      kid_begin = std::max(kid_begin, reach);
      kid_end = std::min(kid_end, end);
      if (kid_end > kid_begin) {
        covered += kid_end - kid_begin;
        reach = kid_end;
      }
    }
    self[i] = (end - begin) - covered;
  }
  return self;
}

}  // namespace e2ebench
}  // namespace cyclerank
