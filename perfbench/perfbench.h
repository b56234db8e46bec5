// Shared declarations of the perfbench program (perfbench.cc) and its
// per-layer replay (layers.cc). See BENCHMARK.json and run.py.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/shard.h"

namespace perfbench {

enum class Kind { kColdBurst, kLongHaul, kFleetFaults, kShards };

// Campaign inputs of one workload. Only tool-level inputs appear here
// (tool, version, seed, simulated hours, fleet size, fault rate, shard
// count); implementation selectors keep the library's defaults.
struct Workload {
  const char* name;
  Kind kind;
  // Single-Fuzzer kinds: simulated hours per campaign and campaigns per
  // second of --seconds (the work quota; fixed, so simulated results
  // depend only on the seed).
  double hours;
  double campaigns_per_s;
  size_t fleet_size;
  double fault_rate;
  // kShards: shard count, lockstep rounds per sharded campaign and
  // Step()s per shard per round (campaigns_per_s sets the campaign count).
  size_t shards;
  size_t rounds;
  size_t execs_per_round;
  // Coverage target for ttc_s / sim_ttc_h: per kernel version for
  // cold-burst (5.11, 5.4, 4.19), entry 0 otherwise. Fixed numbers below
  // what the code reaches on every seed; a miss counts as a failure.
  size_t coverage_target[3];
  // --tiny (self-test) sizes.
  double tiny_hours;
  size_t tiny_rounds;
  size_t tiny_target;
};

// Named metric as printed: value plus unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

// Library counters summed over every fuzzer a workload ran.
uint64_t SumCounter(const std::vector<healer::MetricsSnapshot>& snaps,
                    const char* name);

// Median of `v` (0 when empty).
double Median(std::vector<double> v);

// Fuzzer options for one campaign of `w`.
healer::FuzzerOptions FuzzOptions(const Workload& w, uint64_t seed,
                                  healer::KernelVersion version);

// Wall-time profile of the traced Step()s, for reconciliation.
struct StepProfile {
  uint64_t steps = 0;
  int64_t wall_ns = 0;
  uint64_t triage_steps = 0;
  int64_t triage_ns = 0;
  std::vector<int64_t> step_ns;
};

// Replays each layer's public call on `fuzzer`'s final corpus, relation
// table and alpha, and fills the per-layer unit costs into `out`. Spans
// for each replayed layer go to `rec` under trace id `trace`. Returns
// false when a replay produced a wrong output (decode mismatch).
bool ReplayLayers(const Workload& w, healer::Fuzzer& fuzzer, uint64_t seed,
                  SpanRecorder* rec, uint32_t trace, MetricMap* out);

// Reconciles the traced step wall time against unit cost x count, adds
// fuzz.unattributed_share and the step metrics to `out`, and prints one
// line per attributed layer. Returns false if the terms fail to add up.
bool Reconcile(const StepProfile& profile,
               const std::vector<healer::MetricsSnapshot>& snaps,
               MetricMap* out);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
