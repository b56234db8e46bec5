// The fuzzing loop, parameterized by tool:
//
//   kHealer      — relation learning + guided selection (the paper's system)
//   kHealerMinus — HEALER with relation learning disabled (ablation)
//   kSyzkaller   — choice-table guided baseline
//   kMoonshine   — Syzkaller + distilled initial seeds
//
// All tools share the executor substrate, parameter synthesis, corpus
// policy and minimization, so measured differences isolate call-selection
// strategy — the experimental design of Section 6.
//
// This is the only fuzz loop. Its state splits the way Figure 3 does: a
// Fuzzer privately owns its rng, builder, arena, selector, minimizer /
// learner / reproducer, journal writer, lane and pending feedback batch,
// and runs against a SharedFuzzState (clock, registry, trace, journal, VM
// pool, coverage, relation table, corpus, crash db, alpha). A standalone
// Fuzzer owns its shared state; RunParallelFuzz (parallel.h) attaches N
// Fuzzers to one (DESIGN.md §7).

#ifndef SRC_FUZZ_FUZZER_H_
#define SRC_FUZZ_FUZZER_H_

#include <atomic>
#include <bit>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "src/base/bitmap.h"
#include "src/base/journal.h"
#include "src/base/metrics.h"
#include "src/base/trace.h"
#include "src/fuzz/call_selector.h"
#include "src/fuzz/choice_table.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/crash_db.h"
#include "src/fuzz/fuzz_metrics.h"
#include "src/fuzz/learner.h"
#include "src/fuzz/minimizer.h"
#include "src/fuzz/prog_builder.h"
#include "src/fuzz/relation_table.h"
#include "src/fuzz/repro.h"
#include "src/prog/arena.h"
#include "src/vm/vm_pool.h"

namespace healer {

enum class ToolKind {
  kHealer,
  kHealerMinus,
  kSyzkaller,
  kMoonshine,
};

const char* ToolKindName(ToolKind tool);

// Ablation hooks for HEALER's guidance (bench_ablation_guidance):
//   kDefault    — static + dynamic learning, adaptive alpha (the paper)
//   kStaticOnly — dynamic learning disabled; only description-derived edges
//   kFixedAlpha — full learning but alpha pinned to `fixed_alpha`
enum class GuidanceMode {
  kDefault,
  kStaticOnly,
  kFixedAlpha,
};

const char* GuidanceModeName(GuidanceMode mode);

struct FuzzerOptions {
  ToolKind tool = ToolKind::kHealer;
  KernelVersion version = KernelVersion::kV5_11;
  uint64_t seed = 1;
  size_t num_vms = 2;
  VmLatencyModel latency;
  // Number of synthesized traces for Moonshine's distillation.
  size_t moonshine_traces = 64;
  // Generated program length is drawn from [min, max].
  size_t gen_len_min = 4;
  size_t gen_len_max = 14;
  // HEALER guidance ablation (ignored by the other tools).
  GuidanceMode guidance = GuidanceMode::kDefault;
  double fixed_alpha = 0.8;
  // Deterministic fault injection (empty = no faults) and the policy for
  // surviving it; see fault_plan.h.
  FaultPlan fault_plan;
  RecoveryPolicy recovery;
  // Span-trace ring capacity (0 disables tracing entirely; recording then
  // costs one predicted branch per span, no lock).
  size_t trace_capacity = 0;
  // Flight-recorder ring capacity (0 disables journaling). On by default:
  // recording is a vector push into a private buffer, drained in batches,
  // and the check.sh overhead guard covers it.
  size_t journal_capacity = 4096;
  // When non-empty, each unique crash writes a postmortem bundle directory
  // here (see postmortem.h for the layout).
  std::string postmortem_dir;
  // Total simulated guests. 0 (or == num_vms) keeps the legacy pinned pool
  // — draw-identical to the historical fuzzer. A larger value builds a
  // reactor fleet with num_vms lanes: executions rotate over the lanes and
  // crashed guests reboot on EventLoop timers instead of charging the next
  // execution (see vm_pool.h).
  size_t fleet_size = 0;
  // Reactor shards for fleet mode. 0 = auto (fleet_size / 256, clamped to
  // [1, num_vms]).
  size_t fleet_shards = 0;
};

// The "Shared Fuzz State" box of Figure 3: everything the Job_i workers
// fuzz against together. A standalone Fuzzer owns one; RunParallelFuzz
// (parallel.h) builds one and attaches N Fuzzers to it, one lane each.
//
// Reads on the fuzzing path never lock: coverage merges are atomic-word
// operations, relations are read through the table's epoch-versioned CSR
// snapshot, and attached Fuzzers sample an epoch-versioned CorpusSnapshot.
// `mu` guards the rest and is taken only to publish a batch or record a
// crash — never across generation, execution, minimization or learning.
struct SharedFuzzState {
  // Builds the clock, telemetry sinks and a VmPool with `lanes` ready lanes
  // (options.num_vms for a standalone Fuzzer, one per worker otherwise),
  // and runs static relation learning for HEALER.
  SharedFuzzState(const Target& target, const FuzzerOptions& options,
                  size_t lanes);

  SimClock clock;
  // Declared before pool: the VMs register their handles in metrics.
  MetricRegistry metrics;
  TraceBuffer trace;
  Journal journal;
  VmPool pool;
  Bitmap coverage;
  RelationTable relations;

  // Executions a Fuzzer stages before it publishes (new coverage and
  // crashes publish at once). 1 for a standalone Fuzzer: it publishes at
  // the end of every Step, so its draws match an unbatched loop.
  size_t batch_size = 1;
  // Fuzz executions claimed so far; a claim fails once exec_budget is hit.
  std::atomic<uint64_t> fuzz_execs{0};
  uint64_t exec_budget = ~uint64_t{0};
  // The published alpha as bit_cast<uint64_t>(double), read per Step.
  std::atomic<uint64_t> alpha_bits{
      std::bit_cast<uint64_t>(AlphaSchedule::kInitial)};

  // Corpus hand-off to attached Fuzzers: republished (under snapshot_mu)
  // when a publish added programs; readers re-copy the pointer only when
  // corpus_epoch moved past their cached epoch.
  std::mutex snapshot_mu;
  std::shared_ptr<const CorpusSnapshot> corpus_snapshot;
  std::atomic<uint64_t> corpus_epoch{0};

  std::mutex mu;
  Corpus corpus;
  CrashDb crashes;
  std::map<BugId, Prog> repros;  // Minimized reproducer per found bug.
  AlphaSchedule alpha;
};

class Fuzzer {
 public:
  // A standalone fuzzer: owns its SharedFuzzState and is its only worker.
  Fuzzer(const Target& target, FuzzerOptions options);
  // Worker `worker` of a parallel campaign over `shared` (parallel.h):
  // drives lane worker % lanes, seeds its rng with options.seed + worker,
  // and publishes every shared->batch_size executions. Worker 0 also loads
  // the Moonshine seeds.
  Fuzzer(const Target& target, FuzzerOptions options, SharedFuzzState* shared,
         size_t worker);

  // One fuzzing iteration: pick generate-or-mutate, execute, process
  // feedback (crash triage, minimization, relation learning), stage the
  // corpus adds, relation deltas and alpha outcome, and publish them when
  // the batch is due. Executes nothing once the exec budget is spent.
  void Step();

  // Merges the staged batch into the shared state. Step calls it on its
  // cadence; a worker calls it once more when the budget runs out.
  void Publish();

  // Executes user-provided seed programs and archives the interesting ones
  // ("the user can optionally provide an initial corpus", Section 4).
  void SeedWith(const std::vector<Prog>& seeds);

  // Relation persistence: warm-starts the table from a previous campaign's
  // saved edges (loaded as dynamic edges at time 0; returns how many were
  // new), and saves the current table for the next campaign.
  Result<size_t> LoadRelations(const std::string& path);
  Status SaveRelations(const std::string& path) const;

  // ---- state accessors ----
  SimClock& clock() { return shared_->clock; }
  size_t CoverageCount() const { return shared_->coverage.Count(); }
  const Bitmap& coverage() const { return shared_->coverage; }
  uint64_t FuzzExecs() const {
    return shared_->fuzz_execs.load(std::memory_order_relaxed);
  }
  uint64_t TotalExecs() const { return shared_->pool.TotalExecs(); }
  const RelationTable& relations() const { return shared_->relations; }
  const Corpus& corpus() const { return shared_->corpus; }
  const CrashDb& crashes() const { return shared_->crashes; }
  double alpha() const { return shared_->alpha.alpha(); }
  VmPool& pool() { return shared_->pool; }
  const FuzzerOptions& options() const { return options_; }
  // Mutable state access for the sharded-campaign gossip layer (shard.h):
  // a FuzzShard imports peer deltas — relation edges via Apply(), coverage
  // words via OrWord(), seed programs via Corpus::Add — between Step()
  // batches. Standalone fuzzers only: callers must not mutate while Step()
  // is running.
  RelationTable* mutable_relations() { return &shared_->relations; }
  Bitmap* mutable_coverage() { return &shared_->coverage; }
  Corpus* mutable_corpus() { return &shared_->corpus; }

  // Minimized reproducer for a found bug, nullptr when unknown.
  const Prog* ReproFor(BugId bug) const;
  // Injected-fault counters (from the VM injectors) merged with the
  // recovery-side counters (retries, recoveries, quarantines, discards).
  FaultStats fault_stats() const;

  // ---- telemetry ----
  MetricRegistry& metrics() { return shared_->metrics; }
  const MetricRegistry& metrics() const { return shared_->metrics; }
  TraceBuffer& trace() { return shared_->trace; }
  Journal& journal() { return shared_->journal; }
  const Journal& journal() const { return shared_->journal; }
  // Pushes the derived campaign-state gauges (coverage, corpus size,
  // relation counts, alpha, simulated hours) into the registry. Call before
  // snapshotting; counters and histograms are always current.
  void RefreshGauges();

 private:
  // Feedback staged since the last Publish.
  struct PendingAdd {
    Prog prog;
    uint32_t priority;
    uint64_t content_hash;
  };
  struct Batch {
    uint64_t execs = 0;
    std::vector<PendingAdd> adds;
    // Learned edges, locally deduplicated; RelationTable::Apply credits
    // each exactly once campaign-wide.
    RelationDelta relations;
    // (used_table << 1) | gained per executed HEALER program, in order.
    std::vector<uint8_t> alpha_outcomes;
  };

  Fuzzer(const Target& target, FuzzerOptions options,
         std::unique_ptr<SharedFuzzState> owned, SharedFuzzState* shared,
         size_t worker);

  bool attached() const { return owned_ == nullptr; }
  CallChooser MakeChooser(bool* used_table);
  // The corpus program to mutate, or nullptr to generate. A standalone
  // fuzzer samples the live corpus (nothing else writes it during a Step);
  // an attached one samples the published snapshot.
  const Prog* ChooseSeed();
  // Takes the next fuzz-exec slot (its 1-based index lands in exec_index_);
  // false once the budget is spent.
  bool ClaimExec();
  ExecFn AnalysisExec();
  // Executes `prog` under the recovery policy: bounded retry with
  // exponential backoff on this fuzzer's lanes, quarantine-rebooting VMs
  // whose consecutive-failure streak crosses the threshold. Returns the
  // last attempt's result; a still-failed result means the program's
  // feedback must be discarded.
  ExecResult ExecWithRecovery(const Prog& prog, Bitmap* coverage);
  // Accounts one claimed fuzz exec (`origin` counts how it was made),
  // processes its feedback and publishes when the batch is due.
  void Account(const Prog& prog, const ExecResult& result, Counter* origin);
  // Crash triage, minimization, relation learning and corpus staging.
  // Returns true when the batch should publish at once (new coverage or a
  // crash).
  bool ProcessFeedback(const Prog& prog, const ExecResult& result);
  void RecordCrash(const Prog& prog, const CrashInfo& crash);
  void LoadMoonshineSeeds();
  // Assembles and writes one postmortem bundle for a previously-unseen bug
  // (see postmortem.h). Called with shared_->mu held.
  void WritePostmortem(const CrashRecord& crash, const Prog& prog);

  // VM checkout for one execution attempt. A standalone pinned pool uses
  // the health-skipping round robin (pool.Next()); a standalone fleet
  // rotates over the lanes; an attached fuzzer always uses its own lane.
  // Fleet guests go back to their lane's freelist — or are parked for an
  // async reboot — on release, and their journal back to the shard's.
  GuestVm* AcquireFuzzVm(size_t* lane);
  void ReleaseFuzzVm(size_t lane, GuestVm* vm);

  const Target& target_;
  FuzzerOptions options_;
  std::unique_ptr<SharedFuzzState> owned_;  // Null when attached.
  SharedFuzzState* shared_;
  uint32_t worker_;  // Journal producer id and trace tid.
  size_t lane_;      // An attached fuzzer's lane.
  Rng rng_;
  // This fuzzer is its writer's one producer; the VMs it drives record
  // into it too. Flushed at every Publish.
  JournalWriter journal_writer_;
  FuzzMetrics m_;
  // Batch-publish contention metrics; attached fuzzers only, so standalone
  // snapshots are unchanged.
  std::optional<ParallelMetrics> pm_;
  // Region allocator for Step-scoped candidate programs; reset at the top
  // of every Step. Declared before builder_ (which borrows it) so the
  // builder is torn down first. Programs that survive into the corpus are
  // heap clones produced by the minimizer.
  ProgArena arena_;
  ProgBuilder builder_;
  CallSelector selector_;
  std::unique_ptr<ChoiceTable> choice_table_;
  Minimizer minimizer_;
  DynamicLearner learner_;
  CrashReproducer reproducer_;
  Batch batch_;
  std::shared_ptr<const CorpusSnapshot> snapshot_;
  uint64_t snapshot_epoch_ = ~0ULL;
  // Bundle directories written per bug, so minimized reproducers can be
  // appended once minimization finishes.
  std::map<BugId, std::string> bundle_dirs_;
  uint64_t exec_index_ = 0;  // 1-based index of the current fuzz exec.
  uint64_t adjacency_notes_ = 0;
  size_t next_lane_ = 0;  // Standalone fleet lane rotation.
};

}  // namespace healer

#endif  // SRC_FUZZ_FUZZER_H_
