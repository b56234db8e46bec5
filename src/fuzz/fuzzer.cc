#include "src/fuzz/fuzzer.h"

#include <algorithm>
#include <chrono>

#include "src/base/logging.h"
#include "src/base/string_util.h"
#include "src/fuzz/moonshine.h"
#include "src/fuzz/postmortem.h"
#include "src/kernel/coverage.h"

namespace healer {

const char* ToolKindName(ToolKind tool) {
  switch (tool) {
    case ToolKind::kHealer:
      return "healer";
    case ToolKind::kHealerMinus:
      return "healer-";
    case ToolKind::kSyzkaller:
      return "syzkaller";
    case ToolKind::kMoonshine:
      return "moonshine";
  }
  return "?";
}

const char* GuidanceModeName(GuidanceMode mode) {
  switch (mode) {
    case GuidanceMode::kDefault:
      return "default";
    case GuidanceMode::kStaticOnly:
      return "static-only";
    case GuidanceMode::kFixedAlpha:
      return "fixed-alpha";
  }
  return "?";
}

namespace {

std::vector<int> EnabledSyscalls(const Target& target,
                                 const KernelConfig& config) {
  std::vector<int> enabled;
  for (const auto& call : target.syscalls()) {
    const SyscallDef* def = FindSyscallDef(call->name);
    if (def != nullptr && SyscallAvailable(*def, config)) {
      enabled.push_back(call->id);
    }
  }
  return enabled;
}

// fleet_size 0 (or <= lanes) keeps the pinned one-VM-per-lane pool.
size_t PoolCount(const FuzzerOptions& options, size_t lanes) {
  return options.fleet_size == 0 ? lanes : std::max(options.fleet_size, lanes);
}

FleetOptions PoolFleet(const FuzzerOptions& options, size_t lanes) {
  FleetOptions fleet;
  fleet.lanes = lanes;
  fleet.shards = options.fleet_shards != 0
                     ? options.fleet_shards
                     : std::clamp<size_t>(PoolCount(options, lanes) / 256, 1,
                                          std::max<size_t>(lanes, 1));
  return fleet;
}

uint64_t ToNs(std::chrono::steady_clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

// Publish-lock ownership that feeds the contention histograms when `pm` is
// set: wall time spent waiting for the lock and holding it. Host wall-clock
// is the right ruler — the lock-held-share gate asks what fraction of the
// campaign the workers spent serialized, which simulated time cannot
// answer.
class TimedLock {
 public:
  TimedLock(std::mutex* mu, ParallelMetrics* pm) : mu_(mu), pm_(pm) {
    if (pm_ == nullptr) {
      mu_->lock();
      return;
    }
    const auto start = std::chrono::steady_clock::now();
    mu_->lock();
    locked_ = std::chrono::steady_clock::now();
    pm_->lock_wait_ns->Observe(ToNs(locked_ - start));
  }
  ~TimedLock() {
    if (pm_ == nullptr) {
      mu_->unlock();
      return;
    }
    const auto end = std::chrono::steady_clock::now();
    mu_->unlock();
    pm_->lock_held_ns->Observe(ToNs(end - locked_));
  }

  TimedLock(const TimedLock&) = delete;
  TimedLock& operator=(const TimedLock&) = delete;

 private:
  std::mutex* mu_;
  ParallelMetrics* pm_;
  std::chrono::steady_clock::time_point locked_;
};

}  // namespace

SharedFuzzState::SharedFuzzState(const Target& target,
                                 const FuzzerOptions& options, size_t lanes)
    : trace(options.trace_capacity),
      journal(options.journal_capacity),
      pool(target, KernelConfig::ForVersion(options.version), &clock,
           PoolCount(options, lanes), options.latency, options.fault_plan,
           options.seed, &metrics, PoolFleet(options, lanes)),
      coverage(CallCoverage::kMapBits),
      relations(target.NumSyscalls()) {
  corpus_snapshot = corpus.Snapshot();
  if (options.tool == ToolKind::kHealer) {
    // Static learning runs once at initialization (Section 6.2).
    StaticRelationLearn(target, &relations);
  }
}

Fuzzer::Fuzzer(const Target& target, FuzzerOptions options)
    : Fuzzer(target, options,
             std::make_unique<SharedFuzzState>(target, options,
                                               options.num_vms),
             nullptr, 0) {}

Fuzzer::Fuzzer(const Target& target, FuzzerOptions options,
               SharedFuzzState* shared, size_t worker)
    : Fuzzer(target, options, nullptr, shared, worker) {}

Fuzzer::Fuzzer(const Target& target, FuzzerOptions options,
               std::unique_ptr<SharedFuzzState> owned, SharedFuzzState* shared,
               size_t worker)
    : target_(target),
      options_(options),
      owned_(std::move(owned)),
      shared_(owned_ != nullptr ? owned_.get() : shared),
      worker_(static_cast<uint32_t>(worker)),
      lane_(worker % shared_->pool.num_lanes()),
      rng_(options.seed + worker),
      journal_writer_(&shared_->journal, worker_),
      m_(&shared_->metrics),
      builder_(target,
               EnabledSyscalls(target,
                               KernelConfig::ForVersion(options.version)),
               &rng_),
      selector_(&shared_->relations, builder_.enabled(), &rng_),
      minimizer_(AnalysisExec()),
      learner_(&shared_->relations, AnalysisExec(), &shared_->clock),
      reproducer_(AnalysisExec()) {
  builder_.set_arena(&arena_);
  VmPool& pool = shared_->pool;
  if (attached()) {
    pm_.emplace(&shared_->metrics);
  } else {
    // One producer: the VMs, and in fleet mode the reactor shards, record
    // through this fuzzer's writer.
    for (size_t i = 0; i < pool.size(); ++i) {
      pool.vm(i).set_journal(&journal_writer_);
    }
    if (pool.fleet()) {
      for (size_t s = 0; s < pool.num_shards(); ++s) {
        pool.set_shard_journal(s, &journal_writer_);
      }
    }
  }
  if (options_.tool == ToolKind::kSyzkaller ||
      options_.tool == ToolKind::kMoonshine) {
    choice_table_ = std::make_unique<ChoiceTable>(target_, builder_.enabled());
  }
  if (worker_ == 0) {
    if (options_.tool == ToolKind::kHealer) {
      // One summary record stands in for the per-edge stream: static edges
      // are description-derived, not observed, so per-pair provenance is
      // the descriptions themselves.
      journal_writer_.Record(JournalKind::kRelationLearned,
                             shared_->clock.now(), shared_->relations.Count(),
                             0, shared_->relations.epoch(), "static");
    }
    if (options_.tool == ToolKind::kMoonshine) {
      LoadMoonshineSeeds();
    }
  }
  journal_writer_.Flush();
}

ExecFn Fuzzer::AnalysisExec() {
  // Analysis runs (minimization / dynamic learning) execute on the VM fleet
  // and consume simulated time, but do not merge into campaign coverage.
  // They go through the same recovery policy as fuzzing executions; a
  // still-failed result reaches the minimizer/learner as a typed failure,
  // which both treat as "no information".
  return [this](const Prog& prog) {
    m_.analysis_execs->Add();
    return ExecWithRecovery(prog, nullptr);
  };
}

GuestVm* Fuzzer::AcquireFuzzVm(size_t* lane) {
  VmPool& pool = shared_->pool;
  if (attached()) {
    *lane = lane_;
  } else if (!pool.fleet()) {
    *lane = 0;
    return &pool.Next();
  } else {
    *lane = next_lane_;
    next_lane_ = (next_lane_ + 1) % pool.num_lanes();
  }
  GuestVm* vm = pool.AcquireReady(*lane);
  // The guest is checked out to this fuzzer: its lifecycle, fault and ring
  // records go through this fuzzer's single-producer writer.
  vm->set_journal(&journal_writer_);
  return vm;
}

void Fuzzer::ReleaseFuzzVm(size_t lane, GuestVm* vm) {
  VmPool& pool = shared_->pool;
  if (pool.fleet()) {
    // An async reboot fired by whichever worker pumps next must write into
    // the shard's writer, not this fuzzer's.
    vm->set_journal(pool.shard_journal(pool.shard_of_lane(lane)));
    pool.Release(lane, vm);
  }
}

ExecResult Fuzzer::ExecWithRecovery(const Prog& prog, Bitmap* coverage) {
  SimClock* clock = &shared_->clock;
  HEALER_TRACE_SPAN(&shared_->trace, clock, "exec", "vm", worker_);
  SimClock::Nanos backoff = options_.recovery.backoff;
  int attempt = 0;
  while (true) {
    size_t lane = 0;
    GuestVm* vm_ptr = AcquireFuzzVm(&lane);
    GuestVm& vm = *vm_ptr;
    m_.exec_attempts->Add();
    ExecResult result = vm.Exec(prog, coverage);
    if (!result.Failed()) {
      ReleaseFuzzVm(lane, vm_ptr);
      m_.exec_ok->Add();
      if (attempt > 0) {
        m_.exec_recovered->Add();
        // Payload: a = retries it took, b = program length.
        journal_writer_.Record(JournalKind::kRecovery, clock->now(),
                               static_cast<uint64_t>(attempt), prog.size());
      }
      return result;
    }
    m_.exec_failed->Add();
    // Payload: a = attempt index, b = program length.
    journal_writer_.Record(JournalKind::kFault, clock->now(),
                           static_cast<uint64_t>(attempt), prog.size(), 0,
                           ExecFailureName(result.failure));
    if (vm.consecutive_failures() >= options_.recovery.quarantine_threshold) {
      vm.QuarantineReboot();
      m_.quarantines->Add();
      HEALER_TRACE_INSTANT(&shared_->trace, clock, "quarantine", "fault",
                           worker_);
    }
    ReleaseFuzzVm(lane, vm_ptr);
    if (attempt >= options_.recovery.max_retries) {
      m_.exec_discarded->Add();
      return result;
    }
    ++attempt;
    m_.exec_retries->Add();
    clock->Advance(backoff);
    backoff *= 2;
  }
}

FaultStats Fuzzer::fault_stats() const {
  FaultStats stats = shared_->pool.InjectedStats();
  stats.Merge(m_.RecoveryStats());
  return stats;
}

void Fuzzer::RefreshGauges() {
  const RelationTable& relations = shared_->relations;
  m_.coverage_branches->Set(static_cast<double>(shared_->coverage.Count()));
  m_.corpus_programs->Set(static_cast<double>(shared_->corpus.size()));
  m_.relations_total->Set(static_cast<double>(relations.Count()));
  m_.relations_static->Set(
      static_cast<double>(relations.CountBySource(RelationSource::kStatic)));
  m_.relations_dynamic->Set(
      static_cast<double>(relations.CountBySource(RelationSource::kDynamic)));
  m_.crashes_unique->Set(static_cast<double>(shared_->crashes.UniqueBugs()));
  m_.alpha->Set(options_.guidance == GuidanceMode::kFixedAlpha
                    ? options_.fixed_alpha
                    : shared_->alpha.alpha());
  m_.sim_hours->Set(static_cast<double>(shared_->clock.now()) /
                    static_cast<double>(SimClock::kHour));
}

CallChooser Fuzzer::MakeChooser(bool* used_table) {
  switch (options_.tool) {
    case ToolKind::kHealer:
      return [this, used_table](const std::vector<int>& prefix) {
        const double alpha =
            options_.guidance == GuidanceMode::kFixedAlpha
                ? options_.fixed_alpha
                : std::bit_cast<double>(
                      shared_->alpha_bits.load(std::memory_order_relaxed));
        bool used = false;
        const int pick = selector_.Select(prefix, alpha, &used);
        *used_table |= used;
        return pick;
      };
    case ToolKind::kHealerMinus:
      return [this](const std::vector<int>&) {
        return selector_.RandomCall();
      };
    case ToolKind::kSyzkaller:
    case ToolKind::kMoonshine:
      return [this](const std::vector<int>& prefix) {
        return choice_table_->Choose(&rng_,
                                     prefix.empty() ? -1 : prefix.back());
      };
  }
  return [this](const std::vector<int>&) { return selector_.RandomCall(); };
}

const Prog* Fuzzer::ChooseSeed() {
  if (!attached()) {
    const Corpus& corpus = shared_->corpus;
    return corpus.empty() || rng_.Chance(2, 5) ? nullptr
                                               : &corpus.Choose(&rng_);
  }
  // Re-copy the snapshot pointer only when the epoch moved; the common case
  // is one relaxed load.
  const uint64_t epoch = shared_->corpus_epoch.load(std::memory_order_relaxed);
  if (epoch != snapshot_epoch_) {
    std::lock_guard<std::mutex> lock(shared_->snapshot_mu);
    snapshot_ = shared_->corpus_snapshot;
    snapshot_epoch_ = shared_->corpus_epoch.load(std::memory_order_relaxed);
    pm_->snapshot_refresh->Add();
  }
  return snapshot_->empty() || rng_.Chance(2, 5) ? nullptr
                                                 : &snapshot_->Choose(&rng_);
}

bool Fuzzer::ClaimExec() {
  uint64_t claimed = shared_->fuzz_execs.load(std::memory_order_relaxed);
  do {
    if (claimed >= shared_->exec_budget) {
      return false;
    }
  } while (!shared_->fuzz_execs.compare_exchange_weak(
      claimed, claimed + 1, std::memory_order_relaxed));
  exec_index_ = claimed + 1;
  return true;
}

void Fuzzer::LoadMoonshineSeeds() {
  Rng seed_rng(options_.seed ^ 0x5eedULL);
  SeedWith(MoonshineSeeds(target_, builder_.enabled(),
                          options_.moonshine_traces, &seed_rng));
}

void Fuzzer::SeedWith(const std::vector<Prog>& seeds) {
  for (const Prog& seed : seeds) {
    if (seed.empty() || !seed.Validate().ok() || !ClaimExec()) {
      continue;
    }
    Account(seed, ExecWithRecovery(seed, &shared_->coverage), m_.seeded);
  }
}

Result<size_t> Fuzzer::LoadRelations(const std::string& path) {
  return shared_->relations.LoadFromFile(path, target_);
}

Status Fuzzer::SaveRelations(const std::string& path) const {
  return shared_->relations.SaveToFile(path, target_);
}

void Fuzzer::Step() {
  // Everything from the previous iteration is dead: reclaim all candidate
  // nodes at once. `prog` below (and anything the builder creates) lives in
  // the arena until the next Step.
  arena_.Reset();
  bool used_table = false;
  CallChooser chooser = MakeChooser(&used_table);

  Prog prog(&target_);
  const Prog* seed = ChooseSeed();
  if (seed == nullptr) {
    const size_t len =
        rng_.InRange(options_.gen_len_min, options_.gen_len_max);
    prog = builder_.Generate(chooser, len);
  } else {
    prog = seed->CloneInto(&arena_);
    // Insertion first (call selection is where guidance acts), then
    // parameter mutation.
    if (rng_.Chance(7, 10)) {
      builder_.MutateInsert(&prog, chooser);
    }
    if (rng_.Chance(6, 10)) {
      builder_.MutateArgs(&prog);
    }
  }
  if (prog.empty() || !ClaimExec()) {
    return;
  }
  const ExecResult result = ExecWithRecovery(prog, &shared_->coverage);
  if (options_.tool == ToolKind::kHealer && !result.Failed()) {
    batch_.alpha_outcomes.push_back(static_cast<uint8_t>(
        (used_table ? 2u : 0u) | (result.TotalNewEdges() > 0 ? 1u : 0u)));
  }
  Account(prog, result, seed == nullptr ? m_.generated : m_.mutated);
}

void Fuzzer::Account(const Prog& prog, const ExecResult& result,
                     Counter* origin) {
  ++batch_.execs;
  m_.fuzz_execs->Add();
  origin->Add();
  m_.prog_len->Observe(prog.size());
  // Payload: a = fuzz-exec index, b = new edges, c = program length; a
  // still-failed execution carries its failure kind in `detail`.
  journal_writer_.Record(JournalKind::kExec, shared_->clock.now(), exec_index_,
                         result.TotalNewEdges(), prog.size(),
                         result.Failed() ? ExecFailureName(result.failure)
                                         : "");
  // Never merge partial feedback from a faulted execution: no coverage was
  // recorded (the VM guarantees that), no alpha outcome, no corpus or
  // relation learning.
  bool urgent = false;
  if (!result.Failed()) {
    m_.coverage_edges->Add(result.TotalNewEdges());
    if (result.TotalNewEdges() > 0) {
      m_.exec_new_edges->Observe(result.TotalNewEdges());
    }
    urgent = ProcessFeedback(prog, result);
  }
  if (urgent || batch_.execs >= shared_->batch_size) {
    Publish();
  }
}

void Fuzzer::RecordCrash(const Prog& prog, const CrashInfo& crash) {
  SimClock& clock = shared_->clock;
  m_.crash_reports->Add();
  // Payload: a = bug id, b = fuzz-exec index, c = crashing call index.
  journal_writer_.Record(JournalKind::kCrash, clock.now(),
                         static_cast<uint64_t>(crash.bug), exec_index_,
                         crash.call_index, crash.title);
  // Flush the staged journal records so a postmortem bundle sees this
  // crash (and everything before it).
  journal_writer_.Flush();
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    if (!shared_->crashes.Record(crash.bug, crash.title, clock.now(),
                                 exec_index_, crash.call_index + 1)) {
      return;
    }
    if (!options_.postmortem_dir.empty()) {
      WritePostmortem(*shared_->crashes.Find(crash.bug), prog);
    }
  }
  // A new bug: extract the smallest reproducer (Section 4's crash
  // reproduction component). The extra executions run on the VM fleet and
  // consume simulated time like any other analysis.
  m_.crash_new->Add();
  HEALER_TRACE_INSTANT(&shared_->trace, &clock, "new-crash", "crash", worker_);
  std::optional<CrashRepro> repro = reproducer_.Minimize(prog, crash.bug);
  if (!repro.has_value()) {
    return;
  }
  auto bundle_it = bundle_dirs_.find(crash.bug);
  if (bundle_it != bundle_dirs_.end()) {
    WritePostmortemRepro(bundle_it->second, repro->prog.ToString() + "\n");
  }
  std::lock_guard<std::mutex> lock(shared_->mu);
  shared_->crashes.NoteRepro(crash.bug, repro->prog.size());
  shared_->repros.emplace(crash.bug, std::move(repro->prog));
}

bool Fuzzer::ProcessFeedback(const Prog& prog, const ExecResult& result) {
  const bool crashed = result.Crashed();
  if (crashed) {
    RecordCrash(prog, *result.crash);
  }
  if (result.TotalNewEdges() == 0) {
    return crashed;
  }
  // Minimize, then learn relations from / stage each minimal sequence.
  const uint64_t min_before = minimizer_.execs_used();
  std::vector<MinimizedSeq> minimized;
  {
    HEALER_TRACE_SPAN(&shared_->trace, &shared_->clock, "minimize",
                      "analysis", worker_);
    minimized = minimizer_.Minimize(prog, result);
  }
  m_.minimize_rounds->Add();
  const uint64_t min_probes = minimizer_.execs_used() - min_before;
  m_.minimize_probes->Add(min_probes);
  m_.minimize_execs->Observe(min_probes);
  const uint32_t priority = std::max<uint32_t>(1, result.TotalNewEdges());
  for (MinimizedSeq& seq : minimized) {
    if (options_.tool == ToolKind::kHealer &&
        options_.guidance != GuidanceMode::kStaticOnly) {
      const uint64_t learn_before = learner_.execs_used();
      // Edges accumulate in the batch delta; the learner skips pairs the
      // delta already holds, so the probe stream matches applying each
      // delta at once. Publish credits them through Apply.
      {
        HEALER_TRACE_SPAN(&shared_->trace, &shared_->clock, "learn",
                          "analysis", worker_);
        learner_.LearnInto(seq.prog, &batch_.relations);
      }
      m_.learn_rounds->Add();
      const uint64_t learn_probes = learner_.execs_used() - learn_before;
      m_.learn_probes->Add(learn_probes);
      m_.learn_execs->Observe(learn_probes);
    }
    if (choice_table_ != nullptr && seq.prog.size() >= 2) {
      for (size_t i = 1; i < seq.prog.size(); ++i) {
        choice_table_->NoteAdjacent(seq.prog.calls()[i - 1].meta->id,
                                    seq.prog.calls()[i].meta->id);
      }
      if (++adjacency_notes_ % 32 == 0) {
        choice_table_->Rebuild();
      }
    }
    // Hash outside the publish lock; Publish uses the precomputed-hash add.
    const uint64_t hash = Corpus::ContentHash(seq.prog);
    batch_.adds.push_back(PendingAdd{std::move(seq.prog), priority, hash});
  }
  return true;
}

void Fuzzer::Publish() {
  SimClock* clock = &shared_->clock;
  // The relation delta goes in before mu: Apply is internally synchronized
  // and republishes the snapshot itself. Its return value is the number of
  // edges that were new campaign-wide — the exactly-once credit.
  if (!batch_.relations.empty()) {
    const size_t credited = shared_->relations.Apply(batch_.relations);
    for (const RelationEdge& edge : batch_.relations.edges()) {
      // Payload: a = influencing call, b = influenced call, c = the epoch
      // after the apply; detail names the pair. A peer may have published
      // the same edge first: the record is this fuzzer's observation.
      journal_writer_.Record(
          JournalKind::kRelationLearned, edge.learned_at,
          static_cast<uint64_t>(edge.from), static_cast<uint64_t>(edge.to),
          shared_->relations.epoch(),
          StrFormat("%s->%s", target_.syscall(edge.from).name.c_str(),
                    target_.syscall(edge.to).name.c_str()));
    }
    if (credited > 0) {
      m_.relations_learned->Add(credited);
      HEALER_TRACE_INSTANT(&shared_->trace, clock, "relation-learned",
                           "learn", worker_);
    }
    batch_.relations.clear();
  }
  if (batch_.execs > 0) {
    TimedLock lock(&shared_->mu, pm_ ? &*pm_ : nullptr);
    if (pm_) {
      pm_->batch_publish->Add();
      pm_->batched_execs->Add(batch_.execs);
    }
    AlphaSchedule& alpha = shared_->alpha;
    const uint64_t updates_before = alpha.updates();
    for (const uint8_t outcome : batch_.alpha_outcomes) {
      alpha.Record((outcome & 2u) != 0, (outcome & 1u) != 0);
    }
    if (alpha.updates() != updates_before) {
      m_.alpha_updates->Add(alpha.updates() - updates_before);
      m_.alpha->Set(alpha.alpha());
      shared_->alpha_bits.store(std::bit_cast<uint64_t>(alpha.alpha()),
                                std::memory_order_relaxed);
      HEALER_TRACE_INSTANT(&shared_->trace, clock, "alpha-update", "alpha",
                           worker_);
    }
    Corpus& corpus = shared_->corpus;
    bool added = false;
    for (PendingAdd& add : batch_.adds) {
      // Payload: a = admitted length, b = priority, c = corpus size after.
      const uint64_t len = add.prog.size();
      added |= corpus.Add(std::move(add.prog), add.priority, add.content_hash);
      m_.corpus_adds->Add();
      journal_writer_.Record(JournalKind::kCorpusAdd, clock->now(), len,
                             add.priority, corpus.size());
    }
    if (added && attached()) {
      auto snapshot = corpus.Snapshot();
      std::lock_guard<std::mutex> snapshot_lock(shared_->snapshot_mu);
      shared_->corpus_snapshot = std::move(snapshot);
      shared_->corpus_epoch.fetch_add(1, std::memory_order_relaxed);
    }
    batch_.execs = 0;
    batch_.adds.clear();
    batch_.alpha_outcomes.clear();
  }
  journal_writer_.Flush();
}

void Fuzzer::WritePostmortem(const CrashRecord& crash, const Prog& prog) {
  const RelationTable& relations = shared_->relations;
  PostmortemBundle bundle;
  bundle.crash = crash;
  bundle.seed = options_.seed;
  bundle.tool = ToolKindName(options_.tool);
  bundle.program_text = prog.ToString() + "\n";
  bundle.journal_window = shared_->journal.Tail(kPostmortemJournalWindow);
  RefreshGauges();
  bundle.metrics = shared_->metrics.Snapshot();
  for (size_t i = 0; i < shared_->pool.size(); ++i) {
    bundle.rings.push_back(shared_->pool.vm(i).ring_occupancy());
  }
  bundle.relation_epoch = relations.epoch();
  bundle.relation_edges = relations.Count();
  bundle.relation_static = relations.CountBySource(RelationSource::kStatic);
  bundle.relation_dynamic = relations.CountBySource(RelationSource::kDynamic);
  bundle.relation_backlog = batch_.relations.size();
  Result<std::string> written =
      WritePostmortemBundle(options_.postmortem_dir, bundle);
  if (written.ok()) {
    bundle_dirs_[crash.bug] = *written;
  } else {
    LOG_WARNING << "postmortem bundle for bug "
                << static_cast<int>(crash.bug)
                << " not written: " << written.status().ToString();
  }
}

const Prog* Fuzzer::ReproFor(BugId bug) const {
  auto it = shared_->repros.find(bug);
  return it == shared_->repros.end() ? nullptr : &it->second;
}

}  // namespace healer

