#include "perfbench/spans.h"

#include <cstdio>

namespace perfbench {

uint32_t SpanRecorder::Begin(const char* name, uint32_t trace) {
  const uint32_t id = Add(name, NowNs(), 0, current(), trace, 0);
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(uint32_t id) {
  spans_[id - 1].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

uint32_t SpanRecorder::Add(const char* name, int64_t start_ns, int64_t end_ns,
                           uint32_t parent, uint32_t trace, uint32_t tid) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.trace = trace;
  span.tid = tid;
  spans_.push_back(span);
  return span.id;
}

bool SpanRecorder::WriteChromeTrace(
    const std::string& path, size_t max_spans,
    const std::vector<healer::TraceEvent>& sim_events) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  const size_t written = spans_.size() < max_spans ? spans_.size() : max_spans;
  std::fprintf(f,
               "{\"displayTimeUnit\": \"ms\", \"metadata\": {\"wall_spans\": "
               "%zu, \"wall_spans_dropped\": %zu}, \"traceEvents\": [\n",
               written, spans_.size() - written);
  std::fprintf(f,
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"args\": {\"name\": \"healer (simulated time)\"}},\n"
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, "
               "\"args\": {\"name\": \"perfbench (wall time)\"}}");
  for (size_t i = 0; i < written; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"pid\": 2, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %u, \"parent\": %u, \"trace\": %u}}",
                 s.name, s.tid, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                 s.parent, s.trace);
  }
  for (const healer::TraceEvent& e : sim_events) {
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%c\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f",
                 e.name, e.category, e.phase, e.tid,
                 static_cast<double>(e.start) / 1e3);
    if (e.phase == 'X') {
      std::fprintf(f, ", \"dur\": %.3f", static_cast<double>(e.duration) / 1e3);
    } else {
      std::fprintf(f, ", \"s\": \"t\"");
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
