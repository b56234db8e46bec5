// In-memory wall-clock span recorder for the benchmark's traced run.
//
// Spans are recorded only from the benchmark's own code, around calls into
// the library's layers (Fuzzer::Step, FuzzShard phases, layer replays).
// Each span carries a name, start, end, the span that caused it and a trace
// id shared by every span of one campaign. Nothing is written until the run
// ends; WriteChromeTrace then exports Chrome trace_event JSON (Perfetto)
// with the wall spans as pid 2, next to the program's own simulated-time
// spans as pid 1.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/trace.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // String literal; never copied.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t id = 0;      // 1-based index into the recorder.
  uint32_t parent = 0;  // 0 = root.
  uint32_t trace = 0;   // Campaign the span belongs to.
  uint32_t tid = 0;     // Recording thread (shard index in shards-4).
};

class SpanRecorder {
 public:
  // Opens a span under the innermost open span of this recorder.
  uint32_t Begin(const char* name, uint32_t trace);
  void End(uint32_t id);
  // Appends an already-timed span (threads time locally, then merge).
  uint32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
               uint32_t parent, uint32_t trace, uint32_t tid);

  const std::vector<Span>& spans() const { return spans_; }
  uint32_t current() const { return open_.empty() ? 0 : open_.back(); }

  // Writes at most `max_spans` spans (the rest are counted in the file's
  // metadata) plus the program's simulated-time `sim_events`.
  bool WriteChromeTrace(const std::string& path, size_t max_spans,
                        const std::vector<healer::TraceEvent>& sim_events) const;

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint32_t trace)
      : recorder_(recorder), id_(recorder->Begin(name, trace)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
