#include "src/fuzz/parallel.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

namespace healer {

ParallelResult RunParallelFuzz(const Target& target,
                               const ParallelOptions& options) {
  const size_t num_workers = std::max<size_t>(options.num_workers, 1);
  SharedFuzzState shared(target, options.base, num_workers);
  shared.batch_size = options.batch_size;
  shared.exec_budget = options.total_execs;
  VmPool& pool = shared.pool;
  // Reactor-side lifecycle records (async boots, crash reboots) write into
  // one journal writer per shard — producer ids continue after the
  // workers' — flushed by whichever worker pumps the shard.
  std::vector<std::unique_ptr<JournalWriter>> shard_journals;
  if (pool.fleet()) {
    for (size_t s = 0; s < pool.num_shards(); ++s) {
      shard_journals.push_back(std::make_unique<JournalWriter>(
          &shared.journal, static_cast<uint32_t>(num_workers + s)));
      pool.set_shard_journal(s, shard_journals.back().get());
    }
    for (size_t i = 0; i < pool.size(); ++i) {
      pool.vm(i).set_journal(
          shard_journals[pool.shard_of_lane(i % pool.num_lanes())].get());
    }
  }
  Monitor monitor(&pool);
  monitor.Start();

  std::vector<std::unique_ptr<Fuzzer>> workers;
  for (size_t i = 0; i < num_workers; ++i) {
    workers.push_back(
        std::make_unique<Fuzzer>(target, options.base, &shared, i));
  }
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(workers.size());
  for (auto& worker : workers) {
    threads.emplace_back([&shared, &worker] {
      while (worker->FuzzExecs() < shared.exec_budget) {
        worker->Step();
      }
      worker->Publish();
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const auto wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();
  for (auto& journal : shard_journals) {
    journal->Flush();
  }
  ParallelResult result;
  result.vm_health = monitor.HealthReport();
  result.fleet = pool.ShardSummaries();
  monitor.Stop();

  const RelationTable& relations = shared.relations;
  result.coverage = shared.coverage.Count();
  result.coverage_hash = shared.coverage.Hash();
  result.fuzz_execs = shared.fuzz_execs.load();
  result.corpus_size = shared.corpus.size();
  result.unique_bugs = shared.crashes.UniqueBugs();
  result.relations = relations.Count();
  result.relations_static = relations.CountBySource(RelationSource::kStatic);
  result.relations_dynamic = relations.CountBySource(RelationSource::kDynamic);
  result.monitor_lines = monitor.lines_collected();
  result.faults = workers.front()->fault_stats();
  result.corpus_progs = shared.corpus.ExportAll();
  result.crash_records = shared.crashes.All();
  workers.front()->RefreshGauges();
  ParallelMetrics pm(&shared.metrics);
  pm.wall_ns->Set(static_cast<double>(wall_ns));
  // Fraction of the fleet's wall time spent inside the publish lock: the
  // headline contention number (1.0 would mean fully serialized workers).
  const double fleet_ns =
      static_cast<double>(wall_ns) * static_cast<double>(num_workers);
  pm.lock_held_share->Set(
      fleet_ns > 0.0 ? static_cast<double>(pm.lock_held_ns->Sum()) / fleet_ns
                     : 0.0);
  result.telemetry = shared.metrics.Snapshot();
  result.trace_events = shared.trace.Events();
  result.journal = shared.journal.Records();
  return result;
}

}  // namespace healer
