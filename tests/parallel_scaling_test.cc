// Stress and reconciliation tests for the batched-publish parallel loop.
//
// The batching protocol (parallel.h) may delay feedback but must never lose
// it: every claimed exec slot, observed crash and coverage edge has to land
// in the shared state by the time the campaign ends. These tests pin that
// down with exact counter identities on an 8-worker campaign (run under
// TSan via scripts/check.sh) and with a deterministic single-worker
// campaign proving batched publishing preserves the found bug set.

#include <gtest/gtest.h>

#include <set>

#include "src/base/hash.h"
#include "src/fuzz/parallel.h"
#include "src/syzlang/builtin_descs.h"

namespace healer {
namespace {

// Order-independent content hash of a corpus.
uint64_t CorpusHash(const std::vector<Prog>& progs) {
  uint64_t hash = 0;
  for (const Prog& prog : progs) {
    hash ^= Mix64(Corpus::ContentHash(prog));
  }
  return hash;
}

std::set<BugId> BugSet(const ParallelResult& result) {
  std::set<BugId> bugs;
  for (const CrashRecord& rec : result.crash_records) {
    bugs.insert(rec.bug);
  }
  return bugs;
}

TEST(ParallelScalingTest, EightWorkersReconcileTelemetryExactly) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  ParallelOptions options;
  options.num_workers = 8;
  options.total_execs = 1200;
  options.batch_size = 16;
  options.base.seed = 77;
  const ParallelResult result = RunParallelFuzz(BuiltinTarget(), options);
  const MetricsSnapshot& t = result.telemetry;

  // The ticket dispenser hands out exactly total_execs slots, and every
  // per-worker batch reaches the shared total: fuzz_execs == sum of batches.
  EXPECT_EQ(result.fuzz_execs, options.total_execs);
  EXPECT_EQ(t.counter("healer_fuzz_execs_total"), options.total_execs);
  EXPECT_EQ(t.counter("healer_parallel_batched_execs_total"),
            t.counter("healer_fuzz_execs_total"));
  EXPECT_GT(t.counter("healer_parallel_batch_publish_total"), 0u);
  EXPECT_GT(t.counter("healer_parallel_snapshot_refresh_total"), 0u);

  // Atomic coverage merging credits each fresh edge exactly once
  // fleet-wide, so the counter equals the final bitmap population.
  EXPECT_EQ(t.counter("healer_coverage_edges_total"), result.coverage);
  EXPECT_GT(result.coverage, 100u);

  // No crash is lost to batching: every new bug a worker observed is in the
  // shared CrashDb, and every observed crash was recorded.
  EXPECT_EQ(t.counter("healer_crash_new_total"), result.unique_bugs);
  EXPECT_EQ(BugSet(result).size(), result.unique_bugs);
  uint64_t hits = 0;
  for (const CrashRecord& rec : result.crash_records) {
    hits += rec.hits;
  }
  EXPECT_EQ(hits, t.counter("healer_crash_reports_total"));

  EXPECT_EQ(result.corpus_progs.size(), result.corpus_size);
  EXPECT_GE(t.counter("healer_corpus_adds_total"), result.corpus_size);

  // Relation-edge reconciliation: RelationTable::Apply credits each learned
  // edge to exactly one worker's published delta, so the summed
  // relations_learned counter equals the dynamic edge count — no edge is
  // double-credited across batches, and none is lost.
  EXPECT_EQ(t.counter("healer_relations_learned_total"),
            result.relations_dynamic);
  EXPECT_EQ(result.relations,
            result.relations_static + result.relations_dynamic);
  EXPECT_GT(result.relations_dynamic, 0u);

  // Lock instrumentation: one held-interval observation per publish, and
  // the campaign-level contention gauges are populated and sane.
  const HistogramSnapshot& held =
      t.histograms.at("healer_parallel_lock_held_ns");
  EXPECT_EQ(held.count, t.counter("healer_parallel_batch_publish_total"));
  EXPECT_GT(t.gauge("healer_parallel_wall_ns"), 0.0);
  const double share = t.gauge("healer_parallel_lock_held_share");
  EXPECT_GE(share, 0.0);
  EXPECT_LT(share, 0.5);  // Far below the old hold-everything design (~1.0).
}

TEST(ParallelScalingTest, EightWorkersReconcileRelationEdgesExactly) {
  // Dedicated relation-delta stress: 8 workers race overlapping deltas
  // through Apply with a small batch size (run under TSan via
  // scripts/check.sh tsan). Invariants:
  //   * static edges are exactly the static-learn set (published once,
  //     before the workers start);
  //   * sum of per-worker published-delta credits == dynamic edge count ==
  //     Count() - statics (exactly-once, nothing double-credited, nothing
  //     lost: Apply never re-admits a pair that is already in the table).
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  const Target& target = BuiltinTarget();
  RelationTable statics_only(target.NumSyscalls());
  const size_t statics = StaticRelationLearn(target, &statics_only);

  ParallelOptions options;
  options.num_workers = 8;
  options.total_execs = 1600;
  options.batch_size = 8;
  options.base.seed = 13;
  const ParallelResult result = RunParallelFuzz(target, options);

  EXPECT_EQ(result.relations_static, statics);
  EXPECT_EQ(result.relations, result.relations_static +
                                  result.relations_dynamic);
  EXPECT_EQ(result.telemetry.counter("healer_relations_learned_total"),
            result.relations_dynamic);
  EXPECT_GT(result.relations_dynamic, 0u);
}

TEST(ParallelScalingTest, SingleWorkerParallelIsDeterministic) {
  // With one worker the batched-publish protocol has a deterministic
  // schedule (one RNG stream, sequential tickets), so two identical runs
  // must reach the identical crash/bug set, coverage and corpus — any
  // drift would mean the snapshot/batch machinery leaks nondeterminism
  // beyond thread scheduling.
  ParallelOptions options;
  options.num_workers = 1;
  options.total_execs = 1500;
  options.base.seed = 99;
  options.batch_size = 64;
  const ParallelResult a = RunParallelFuzz(BuiltinTarget(), options);
  const ParallelResult b = RunParallelFuzz(BuiltinTarget(), options);
  EXPECT_FALSE(BugSet(a).empty());
  EXPECT_EQ(BugSet(a), BugSet(b));
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.corpus_size, b.corpus_size);
  EXPECT_EQ(a.fuzz_execs, b.fuzz_execs);
  EXPECT_EQ(a.relations, b.relations);
}

TEST(ParallelScalingTest, BatchSizeOneStillCountsEverything) {
  // Publishing after every exec (the degenerate batch) must satisfy the
  // same exact reconciliation as large batches.
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  ParallelOptions options;
  options.num_workers = 8;
  options.total_execs = 400;
  options.batch_size = 1;
  options.base.seed = 31;
  const ParallelResult result = RunParallelFuzz(BuiltinTarget(), options);
  const MetricsSnapshot& t = result.telemetry;
  EXPECT_EQ(result.fuzz_execs, options.total_execs);
  EXPECT_EQ(t.counter("healer_parallel_batched_execs_total"),
            t.counter("healer_fuzz_execs_total"));
  EXPECT_EQ(t.counter("healer_coverage_edges_total"), result.coverage);
  EXPECT_EQ(t.counter("healer_crash_new_total"), result.unique_bugs);
}

// Workers are Fuzzers: one worker that publishes after every exec over a
// one-VM pool must be draw-identical to a standalone Fuzzer with the same
// options and exec budget.
TEST(ParallelFuzzTest, OneWorkerMatchesStandaloneFuzzer) {
  ParallelOptions options;
  options.base.seed = 20260806;
  options.base.num_vms = 1;
  options.num_workers = 1;
  options.batch_size = 1;
  options.total_execs = 400;
  const ParallelResult parallel = RunParallelFuzz(BuiltinTarget(), options);

  Fuzzer fuzzer(BuiltinTarget(), options.base);
  while (fuzzer.FuzzExecs() < options.total_execs) {
    fuzzer.Step();
  }
  ASSERT_EQ(parallel.fuzz_execs, fuzzer.FuzzExecs());
  EXPECT_EQ(parallel.coverage, fuzzer.CoverageCount());
  EXPECT_EQ(parallel.coverage_hash, fuzzer.coverage().Hash());
  EXPECT_EQ(CorpusHash(parallel.corpus_progs),
            CorpusHash(fuzzer.corpus().ExportAll()));
  EXPECT_EQ(parallel.relations, fuzzer.relations().Count());
  const std::vector<CrashRecord> crashes = fuzzer.crashes().All();
  EXPECT_FALSE(crashes.empty());
  ASSERT_EQ(parallel.crash_records.size(), crashes.size());
  for (size_t i = 0; i < crashes.size(); ++i) {
    EXPECT_EQ(parallel.crash_records[i].bug, crashes[i].bug) << "crash " << i;
    EXPECT_EQ(parallel.crash_records[i].shortest_repro,
              crashes[i].shortest_repro)
        << "crash " << i;
  }
}

// Workers honour FuzzerOptions::guidance: static-only HEALER learns no
// dynamic relations and runs no learning rounds.
TEST(ParallelFuzzTest, WorkersHonourGuidance) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  ParallelOptions options;
  options.base.seed = 17;
  options.num_workers = 4;
  options.total_execs = 800;
  options.base.guidance = GuidanceMode::kStaticOnly;
  const ParallelResult static_only = RunParallelFuzz(BuiltinTarget(), options);
  EXPECT_EQ(static_only.relations_dynamic, 0u);
  EXPECT_EQ(static_only.telemetry.counter("healer_learn_rounds_total"), 0u);
  EXPECT_GT(static_only.relations_static, 0u);

  options.base.guidance = GuidanceMode::kDefault;
  const ParallelResult learning = RunParallelFuzz(BuiltinTarget(), options);
  EXPECT_GT(learning.relations_dynamic, 0u);
  EXPECT_GT(learning.telemetry.counter("healer_learn_rounds_total"), 0u);
}

}  // namespace
}  // namespace healer
