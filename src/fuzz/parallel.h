// Multi-worker fuzzing (Figure 3): worker threads (Job_i) each run the
// whole fuzzing loop — they are Fuzzers (fuzzer.h) attached to one
// SharedFuzzState, one VmPool lane each (in the default topology that lane
// holds exactly one pinned VM). The Monitor's log drains ride the pool's
// reactor shards as SimClock timers; no dedicated monitor thread exists.
//
// Workers fuzz against read-mostly views and batch their feedback:
//
//   * mutation samples an epoch-versioned CorpusSnapshot (shared_ptr
//     swapped on publish; workers refresh when corpus_epoch advances) — no
//     lock on the pick path;
//   * execution merges coverage straight into the campaign Bitmap, whose
//     Set/MergeNew are atomic-word operations — no lock on the merge path;
//   * guided selection and dynamic learning read the RelationTable's
//     immutable CSR snapshot; learned edges accumulate in the worker's
//     RelationDelta and reach the table through RelationTable::Apply at
//     publish time, credited exactly once (DESIGN.md §8);
//   * crashes are recorded (and their reproducers minimized) inline, under
//     a short SharedFuzzState::mu hold;
//   * corpus adds and alpha outcomes accumulate in the worker's batch,
//     published in one short `mu` acquisition every `batch_size`
//     executions, or at once on new coverage or a crash.
//
// Lock contention is measured, not assumed: healer_parallel_lock_wait_ns /
// _held_ns histograms and the healer_parallel_lock_held_share gauge make
// the critical-section share visible in --metrics-out, and
// scripts/check.sh's `parallel` stage gates on it.
//
// With one worker and batch_size 1 a parallel campaign is draw-identical to
// a standalone Fuzzer on the same options; with more workers it is
// scheduling-dependent, and the deterministic standalone Fuzzer remains the
// benchmarking reference (DESIGN.md §7).

#ifndef SRC_FUZZ_PARALLEL_H_
#define SRC_FUZZ_PARALLEL_H_

#include <vector>

#include "src/base/journal.h"
#include "src/base/metrics.h"
#include "src/base/trace.h"
#include "src/fuzz/fuzzer.h"

namespace healer {

struct ParallelOptions {
  // Every worker's Fuzzer configuration. The pool gets one lane per worker
  // instead of base.num_vms; base.fleet_size spreads that many guests over
  // the lanes (0 pins one VM per worker).
  FuzzerOptions base;
  size_t num_workers = 4;
  // Fuzz executions the campaign runs, across all workers.
  uint64_t total_execs = 10000;
  // Executions a worker accumulates before publishing its feedback batch
  // (new coverage and crashes publish immediately).
  size_t batch_size = 32;
};

struct ParallelResult {
  size_t coverage = 0;
  uint64_t coverage_hash = 0;
  uint64_t fuzz_execs = 0;
  size_t corpus_size = 0;
  size_t unique_bugs = 0;
  size_t relations = 0;
  size_t relations_static = 0;
  size_t relations_dynamic = 0;
  size_t monitor_lines = 0;
  // Injected + recovery counters, and the final per-VM health accounting
  // from the Monitor.
  FaultStats faults;
  std::vector<VmHealth> vm_health;
  // Final per-shard fleet census (one entry even in legacy mode).
  std::vector<FleetShardSummary> fleet;
  // The final corpus (for differential/property checks against the
  // single-threaded fuzzer).
  std::vector<Prog> corpus_progs;
  // Deduplicated crash records (bug set, hit counts, shortest repros).
  std::vector<CrashRecord> crash_records;
  // Full telemetry snapshot of the shared registry, and the buffered span
  // trace (empty unless base.trace_capacity > 0).
  MetricsSnapshot telemetry;
  std::vector<TraceEvent> trace_events;
  // Flight-recorder window, oldest first (empty unless
  // base.journal_capacity > 0).
  std::vector<JournalRecord> journal;
};

// Runs `num_workers` threads until `total_execs` test cases have executed.
ParallelResult RunParallelFuzz(const Target& target,
                               const ParallelOptions& options);

}  // namespace healer

#endif  // SRC_FUZZ_PARALLEL_H_
