// perfbench: the HEALER end-to-end benchmark (BENCHMARK.json).
//
//   perfbench --workload <cold-burst|long-haul|fleet-faults|shards-4>
//             --seed N --seconds S --trace <0|1> [--tiny] [--out-dir DIR]
//
// --trace 0 (timed run) runs the workload's campaigns with no tracing and
// prints the end-to-end metrics; --trace 1 (traced run) runs the same
// campaigns with a wall-clock span around every Fuzzer::Step, replays each
// layer's public call on the final state, reconciles unit cost x count
// against the measured step time and prints the per-layer metrics. Both
// end with one JSON line: {"correct", "attempted", "failed", "metrics"}.
//
// The workload seed comes from --seed; every campaign seed is derived from
// it, and the amount of work is a fixed quota per --seconds, so simulated
// results are a pure function of (workload, seed, seconds, source).

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/perfbench.h"
#include "perfbench/spans.h"
#include "src/base/hash.h"
#include "src/fuzz/campaign.h"
#include "src/fuzz/corpus_io.h"
#include "src/syzlang/builtin_descs.h"

namespace perfbench {
namespace {

using healer::BugId;
using healer::Fuzzer;
using healer::FuzzShard;
using healer::KernelVersion;
using healer::SimClock;

// Why each workload exists is recorded in BENCHMARK.json.
const Workload kWorkloads[] = {
    // Many fresh 1-sim-hour campaigns cycling 5.11/5.4/4.19: analysis
    // (triage) execs dominate, and set-up is paid once per campaign.
    {"cold-burst", Kind::kColdBurst, 1.0, 27.0, 0, 0.0, 0, 0, 0,
     {320, 350, 280}, 0.25, 0, 100},
    // 64-sim-hour campaigns whose corpus grows into the thousands: plain
    // fuzz execs dominate (generate/mutate, selection, executor).
    {"long-haul", Kind::kLongHaul, 64.0, 0.4, 0, 0.0, 0, 0, 0,
     {2500, 0, 0}, 2.0, 0, 200},
    // 1-sim-hour campaigns on a 512-guest reactor fleet with every fault
    // kind injected (2048 guests peak above 6 GiB of RSS).
    {"fleet-faults", Kind::kFleetFaults, 1.0, 3.0, 512, 0.02, 0, 0, 0,
     {400, 0, 0}, 0.1, 0, 50},
    // RunShardedCampaign: 4 shards on 4 threads with HGSP1 gossip.
    {"shards-4", Kind::kShards, 0.0, 0.4, 0, 0.0, 4, 160, 256,
     {2800, 0, 0}, 0.0, 3, 100},
};

const KernelVersion kColdVersions[3] = {
    KernelVersion::kV5_11, KernelVersion::kV5_4, KernelVersion::kV4_19};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--tiny] [--out-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

uint64_t ParseU64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || text[0] == '-') {
    Usage("bad value for " + flag + ": " + text);
  }
  return v;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = ParseU64(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(ParseU64(flag, value));
    } else if (flag == "--trace") {
      const uint64_t t = ParseU64(flag, value);
      if (t > 1) {
        Usage("--trace must be 0 or 1");
      }
      args.trace = static_cast<int>(t);
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.seconds < 1) {
    Usage("--seconds must be at least 1");
  }
  return args;
}

uint64_t SubSeed(uint64_t seed, size_t index) {
  return healer::Mix64(seed * 0x9E3779B97F4A7C15ULL + index + 1) >> 16;
}

double PeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

uint64_t FingerprintOf(std::vector<uint64_t> hashes) {
  std::sort(hashes.begin(), hashes.end());
  return healer::Fnv1a(std::string_view(
      reinterpret_cast<const char*>(hashes.data()), hashes.size() * 8));
}

uint64_t CorpusFingerprint(const healer::Corpus& corpus) {
  std::vector<uint64_t> hashes;
  for (size_t i = 0; i < corpus.size(); ++i) {
    hashes.push_back(healer::Corpus::ContentHash(corpus.at(i)));
  }
  return FingerprintOf(std::move(hashes));
}

// ---- single-Fuzzer campaigns ----

// One timed Fuzzer::Step, added to `profile`. A triage step is one whose
// total exec count moved more than its fuzz exec count (analysis probes).
Span TimedStep(Fuzzer& fuzzer, StepProfile* profile) {
  const uint64_t fuzz_before = fuzzer.FuzzExecs();
  const uint64_t total_before = fuzzer.TotalExecs();
  Span span;
  span.start_ns = NowNs();
  fuzzer.Step();
  span.end_ns = NowNs();
  const bool triage = fuzzer.TotalExecs() - total_before >
                      fuzzer.FuzzExecs() - fuzz_before;
  span.name = triage ? "step.triage" : "step";
  const int64_t ns = span.end_ns - span.start_ns;
  ++profile->steps;
  profile->wall_ns += ns;
  profile->step_ns.push_back(ns);
  if (triage) {
    ++profile->triage_steps;
    profile->triage_ns += ns;
  }
  return span;
}

struct Tracing {
  SpanRecorder* rec = nullptr;
  uint32_t trace = 0;
  StepProfile* profile = nullptr;
};

struct CampaignOut {
  uint64_t seed = 0;
  KernelVersion version = KernelVersion::kV5_11;
  double hours = 0.0;
  size_t target = 0;
  int64_t run_ns = 0;  // First Step() to the end of the last one.
  // Fuzz execs per wall second of each simulated hour (the final hour
  // may be partial).
  std::vector<double> hour_rates;
  int64_t ttc_ns = -1;
  double sim_ttc_h = -1.0;
  size_t coverage = 0;
  uint64_t fuzz_execs = 0;
  uint64_t total_execs = 0;
  std::set<BugId> bugs;
  size_t repros_checked = 0;
  bool repros_ok = true;
  size_t corpus_size = 0;
  uint64_t corpus_fp = 0;
  healer::MetricsSnapshot telemetry;
};

// Re-executes every unique bug's minimized reproducer on a fresh Executor;
// each must crash with the same BugId.
void CheckRepros(const Fuzzer& fuzzer, KernelVersion version,
                 CampaignOut* out) {
  for (const healer::CrashRecord& crash : fuzzer.crashes().All()) {
    out->bugs.insert(crash.bug);
    const healer::Prog* repro = fuzzer.ReproFor(crash.bug);
    if (repro == nullptr) {
      continue;  // Reproduction itself was cut short by injected faults.
    }
    healer::Executor executor(healer::BuiltinTarget(),
                              healer::KernelConfig::ForVersion(version));
    const healer::ExecResult r = executor.Run(*repro, nullptr);
    ++out->repros_checked;
    if (!r.Crashed() || r.crash->bug != crash.bug) {
      out->repros_ok = false;
      std::fprintf(stderr, "perfbench: reproducer for bug %d does not crash "
                   "with the same bug\n", static_cast<int>(crash.bug));
    }
  }
}

// The RunCampaign loop (sample every 5 sim-minutes, Step until the
// deadline), driven here so that each step can be timed against the
// coverage target. The gate checks it matches RunCampaign exactly.
CampaignOut RunSingle(const Workload& w, uint64_t seed, KernelVersion version,
                      double hours, size_t target, const Tracing* tracing,
                      std::unique_ptr<Fuzzer>* keep) {
  healer::FuzzerOptions options = FuzzOptions(w, seed, version);
  if (tracing != nullptr) {
    options.trace_capacity = 1 << 14;  // The program's own sim-time spans.
  }
  auto fuzzer = std::make_unique<Fuzzer>(healer::BuiltinTarget(), options);
  CampaignOut out;
  out.seed = seed;
  out.version = version;
  out.hours = hours;
  out.target = target;

  const SimClock::Nanos deadline = static_cast<SimClock::Nanos>(
      hours * static_cast<double>(SimClock::kHour));
  const SimClock::Nanos sample_period = 5 * SimClock::kMinute;
  healer::CampaignResult curve;
  SimClock::Nanos next_sample = 0;
  const size_t samples_per_hour =
      static_cast<size_t>(SimClock::kHour / sample_period);
  uint64_t mark_execs = 0;
  int64_t mark_ns = 0;
  auto sample = [&] {
    // Every simulated hour, and at the deadline, closes one rate block.
    if (curve.samples.size() % samples_per_hour == 0 ||
        fuzzer->clock().now() >= deadline) {
      const int64_t now = NowNs();
      const uint64_t execs = fuzzer->FuzzExecs();
      if (!curve.samples.empty() && now > mark_ns && execs > mark_execs) {
        out.hour_rates.push_back(static_cast<double>(execs - mark_execs) * 1e9 /
                                 static_cast<double>(now - mark_ns));
      }
      mark_execs = execs;
      mark_ns = now;
    }
    healer::CoverageSample s;
    s.hours = fuzzer->clock().hours();
    s.branches = fuzzer->CoverageCount();
    s.execs = fuzzer->FuzzExecs();
    curve.samples.push_back(s);
  };

  uint32_t campaign_span = 0;
  if (tracing != nullptr) {
    campaign_span = tracing->rec->Begin("campaign", tracing->trace);
  }
  const int64_t t0 = NowNs();
  while (fuzzer->clock().now() < deadline) {
    if (fuzzer->clock().now() >= next_sample) {
      sample();
      next_sample += sample_period;
    }
    if (tracing == nullptr) {
      fuzzer->Step();
    } else {
      const Span span = TimedStep(*fuzzer, tracing->profile);
      tracing->rec->Add(span.name, span.start_ns, span.end_ns, campaign_span,
                        tracing->trace, 0);
    }
    if (out.ttc_ns < 0 && fuzzer->CoverageCount() >= target) {
      out.ttc_ns = NowNs() - t0;
    }
  }
  out.run_ns = NowNs() - t0;
  if (tracing != nullptr) {
    tracing->rec->End(campaign_span);
  }
  sample();

  out.sim_ttc_h = healer::HoursToReach(curve, target);
  out.coverage = fuzzer->CoverageCount();
  out.fuzz_execs = fuzzer->FuzzExecs();
  out.total_execs = fuzzer->TotalExecs();
  out.corpus_size = fuzzer->corpus().size();
  out.corpus_fp = CorpusFingerprint(fuzzer->corpus());
  fuzzer->RefreshGauges();
  out.telemetry = fuzzer->metrics().Snapshot();
  CheckRepros(*fuzzer, version, &out);
  if (keep != nullptr) {
    *keep = std::move(fuzzer);
  }
  return out;
}

// Correctness gate: the same campaign through the library's RunCampaign
// must give identical coverage, exec counts, bug set and corpus.
bool RerunMatches(const Workload& w, const CampaignOut& first,
                  const std::string& out_dir) {
  healer::CampaignOptions options;
  const healer::FuzzerOptions fo = FuzzOptions(w, first.seed, first.version);
  options.tool = fo.tool;
  options.version = fo.version;
  options.seed = fo.seed;
  options.hours = first.hours;
  options.fleet_size = fo.fleet_size;
  options.fault_plan = fo.fault_plan;
  options.save_corpus_path = out_dir + "/gate-corpus.hcor";
  const healer::CampaignResult r = healer::RunCampaign(options);
  std::set<BugId> bugs;
  for (const healer::CrashRecord& c : r.crashes) {
    bugs.insert(c.bug);
  }
  uint64_t fp = 0;
  healer::Result<std::vector<healer::Prog>> saved =
      healer::LoadProgs(options.save_corpus_path, healer::BuiltinTarget());
  std::remove(options.save_corpus_path.c_str());
  if (saved.ok()) {
    std::vector<uint64_t> hashes;
    for (const healer::Prog& p : *saved) {
      hashes.push_back(healer::Corpus::ContentHash(p));
    }
    fp = FingerprintOf(std::move(hashes));
  }
  const bool same = saved.ok() && r.final_coverage == first.coverage &&
                    r.fuzz_execs == first.fuzz_execs &&
                    r.total_execs == first.total_execs && bugs == first.bugs &&
                    r.corpus_size == first.corpus_size && fp == first.corpus_fp;
  std::printf("gate rerun seed=%" PRIu64 ": coverage %zu/%zu fuzz_execs %"
              PRIu64 "/%" PRIu64 " total_execs %" PRIu64 "/%" PRIu64
              " bugs %zu/%zu corpus %zu/%zu fingerprint %s -> %s\n",
              first.seed, r.final_coverage, first.coverage, r.fuzz_execs,
              first.fuzz_execs, r.total_execs, first.total_execs, bugs.size(),
              first.bugs.size(), r.corpus_size, first.corpus_size,
              fp == first.corpus_fp ? "same" : "DIFFERENT",
              same ? "ok" : "FAILED");
  return same;
}

// ---- sharded campaigns ----

healer::ShardedCampaignOptions ShardOptions(const Workload& w, uint64_t seed,
                                            size_t rounds) {
  healer::ShardedCampaignOptions o;
  o.shards = w.shards;
  o.rounds = rounds;
  o.execs_per_round = w.execs_per_round;
  o.seed = seed;
  // One thread per shard, but never more threads than cores; sequential
  // shards give identical results.
  o.use_threads = std::thread::hardware_concurrency() >= w.shards;
  o.base = FuzzOptions(w, seed, KernelVersion::kV5_11);
  return o;
}

struct ShardDrive {
  std::vector<std::unique_ptr<FuzzShard>> shards;
  bool identities_ok = true;
  size_t union_coverage = 0;
  std::vector<size_t> shard_coverage;
  std::vector<uint64_t> corpus_fingerprints;
  uint64_t reconciled_hash = 0;
  std::set<BugId> bugs;
  double sim_ttc_h = -1.0;
  uint64_t fuzz_execs = 0;
  int64_t wall_ns = 0;
  std::vector<healer::MetricsSnapshot> snaps;
  // Gossip plane, summed over rounds.
  int64_t emit_ns = 0, ingest_ns = 0, apply_ns = 0, run_ns = 0;
  uint64_t emits = 0, ingests = 0, applies = 0, shard_runs = 0;
  uint64_t gossip_bytes = 0;
  double skew_share_sum = 0.0;
  size_t rounds = 0;
  std::vector<double> round_rates;  // Fuzz execs per wall second.
};

// Drives the same public FuzzShard calls RunShardedCampaign makes, round
// by round (fuzz phase, one thread per shard when o.use_threads; then
// emit, deliver, apply), so each phase can be timed. With `tracing`, every
// Step is a span.
ShardDrive DriveShards(const healer::ShardedCampaignOptions& o, size_t target,
                       const Tracing* tracing) {
  const healer::Target& target_desc = healer::BuiltinTarget();
  const size_t n = o.shards;
  ShardDrive d;
  const int64_t start = NowNs();
  for (size_t i = 0; i < n; ++i) {
    healer::FuzzerOptions opts = o.base;
    opts.seed = o.seed + i;
    d.shards.push_back(std::make_unique<FuzzShard>(target_desc, opts,
                                                   static_cast<uint32_t>(i)));
  }
  std::vector<std::vector<Span>> thread_spans(n);
  std::vector<StepProfile> thread_profiles(n);
  uint32_t campaign_span = 0;
  if (tracing != nullptr) {
    campaign_span = tracing->rec->Begin("campaign", tracing->trace);
  }
  for (size_t round = 0; round < o.rounds; ++round) {
    const int64_t round_start = NowNs();
    std::vector<int64_t> run_ns(n, 0);
    auto fuzz_phase = [&](size_t i) {
      const int64_t s = NowNs();
      if (tracing == nullptr) {
        d.shards[i]->RunExecs(o.execs_per_round);
      } else {
        for (size_t k = 0; k < o.execs_per_round; ++k) {
          Span span =
              TimedStep(d.shards[i]->fuzzer(), &thread_profiles[i]);
          span.tid = static_cast<uint32_t>(i);
          thread_spans[i].push_back(span);
        }
      }
      run_ns[i] = NowNs() - s;
    };
    if (o.use_threads) {
      std::vector<std::thread> workers;
      for (size_t i = 0; i < n; ++i) {
        workers.emplace_back(fuzz_phase, i);
      }
      for (std::thread& t : workers) {
        t.join();
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        fuzz_phase(i);
      }
    }
    if (tracing != nullptr) {
      for (size_t i = 0; i < n; ++i) {
        for (const Span& s : thread_spans[i]) {
          tracing->rec->Add(s.name, s.start_ns, s.end_ns, campaign_span,
                            tracing->trace, s.tid);
        }
        thread_spans[i].clear();
      }
    }
    int64_t run_max = 0;
    int64_t run_sum = 0;
    for (size_t i = 0; i < n; ++i) {
      run_max = std::max(run_max, run_ns[i]);
      run_sum += run_ns[i];
    }
    d.run_ns += run_sum;
    d.shard_runs += n;

    std::vector<std::vector<uint8_t>> batches(n);
    for (size_t i = 0; i < n; ++i) {
      const int64_t s = NowNs();
      batches[i] = d.shards[i]->EmitGossip();
      d.emit_ns += NowNs() - s;
      ++d.emits;
    }
    for (size_t i = 0; i < n; ++i) {
      if (batches[i].empty()) {
        continue;
      }
      for (size_t peer : healer::GossipPeers(i, n, o.fanout, round)) {
        const int64_t s = NowNs();
        const healer::Status status =
            d.shards[peer]->Ingest(batches[i].data(), batches[i].size());
        d.ingest_ns += NowNs() - s;
        ++d.ingests;
        d.gossip_bytes += batches[i].size();
        if (!status.ok()) {
          d.identities_ok = false;
        }
      }
    }
    for (size_t i = 0; i < n; ++i) {
      const int64_t s = NowNs();
      d.shards[i]->ApplyInbox();
      d.apply_ns += NowNs() - s;
      ++d.applies;
    }
    const int64_t round_wall = NowNs() - round_start;
    if (round > 0 && round_wall > 0) {
      d.round_rates.push_back(static_cast<double>(n * o.execs_per_round) *
                              1e9 / static_cast<double>(round_wall));
    }
    if (round_wall > 0) {
      d.skew_share_sum +=
          (static_cast<double>(run_max) - static_cast<double>(run_sum) / n) /
          static_cast<double>(round_wall);
    }
    ++d.rounds;

    healer::Bitmap round_union(d.shards[0]->fuzzer().coverage().size_bits());
    for (size_t i = 0; i < n; ++i) {
      round_union.MergeNew(d.shards[i]->fuzzer().coverage());
    }
    if (d.sim_ttc_h < 0 && round_union.Count() >= target) {
      for (size_t i = 0; i < n; ++i) {
        d.sim_ttc_h =
            std::max(d.sim_ttc_h, d.shards[i]->fuzzer().clock().hours());
      }
    }
    if (o.reconcile_every != 0 && (round + 1) % o.reconcile_every == 0) {
      for (size_t i = 0; i < n; ++i) {
        d.identities_ok &= d.shards[i]->CheckRelationIdentity();
      }
    }
  }
  d.wall_ns = NowNs() - start;
  if (tracing != nullptr) {
    tracing->rec->End(campaign_span);
    for (const StepProfile& p : thread_profiles) {
      StepProfile* all = tracing->profile;
      all->steps += p.steps;
      all->wall_ns += p.wall_ns;
      all->triage_steps += p.triage_steps;
      all->triage_ns += p.triage_ns;
      all->step_ns.insert(all->step_ns.end(), p.step_ns.begin(),
                          p.step_ns.end());
    }
  }

  std::vector<const FuzzShard*> views;
  healer::Bitmap union_map(d.shards[0]->fuzzer().coverage().size_bits());
  for (size_t i = 0; i < n; ++i) {
    Fuzzer& f = d.shards[i]->fuzzer();
    views.push_back(d.shards[i].get());
    d.identities_ok &= d.shards[i]->CheckRelationIdentity();
    d.fuzz_execs += f.FuzzExecs();
    d.shard_coverage.push_back(f.CoverageCount());
    d.corpus_fingerprints.push_back(d.shards[i]->CorpusFingerprint());
    union_map.MergeNew(f.coverage());
    for (const healer::CrashRecord& c : f.crashes().All()) {
      d.bugs.insert(c.bug);
    }
    f.RefreshGauges();
    d.snaps.push_back(f.metrics().Snapshot());
  }
  d.union_coverage = union_map.Count();
  const std::vector<uint8_t> reconciled = healer::ReconcileRelations(views);
  d.reconciled_hash = healer::FastBytesHash(std::string_view(
      reinterpret_cast<const char*>(reconciled.data()), reconciled.size()));
  return d;
}

bool DriveMatches(const ShardDrive& d,
                  const healer::ShardedCampaignResult& r) {
  const bool same = d.identities_ok && r.identities_ok &&
                    d.union_coverage == r.union_coverage &&
                    d.shard_coverage == r.shard_coverage &&
                    d.corpus_fingerprints == r.corpus_fingerprints &&
                    d.reconciled_hash == r.reconciled_relations_hash &&
                    d.fuzz_execs == r.total_execs;
  std::printf("gate shards: identities %s/%s union coverage %zu/%zu "
              "reconciled hash %s corpus fingerprints %s -> %s\n",
              r.identities_ok ? "ok" : "BROKEN",
              d.identities_ok ? "ok" : "BROKEN", r.union_coverage,
              d.union_coverage,
              d.reconciled_hash == r.reconciled_relations_hash ? "same"
                                                               : "DIFFERENT",
              d.corpus_fingerprints == r.corpus_fingerprints ? "same"
                                                             : "DIFFERENT",
              same ? "ok" : "FAILED");
  return same;
}

struct RoundStats {
  std::vector<double> rates;  // Fuzz execs per wall second, rounds 1..N-1.
  double ttc_s = -1.0;
};

// Round walls come from RunShardedCampaign's per-round samples (round 0
// also holds shard construction and is left out). ttc_s is the number of
// rounds to the coverage target times the median wall of those rounds.
RoundStats ShardRounds(const healer::ShardedCampaignResult& r,
                       const healer::ShardedCampaignOptions& o,
                       size_t target) {
  RoundStats rs;
  std::vector<double> walls;
  const double execs = static_cast<double>(o.shards * o.execs_per_round);
  for (size_t i = 1; i < r.samples.size(); ++i) {
    const double wall =
        static_cast<double>(r.samples[i].wall_ns - r.samples[i - 1].wall_ns) /
        1e9;
    walls.push_back(wall);
    if (wall > 0) {
      rs.rates.push_back(execs / wall);
    }
    if (r.samples[i].union_coverage >= target && rs.ttc_s < 0) {
      rs.ttc_s = static_cast<double>(i + 1) * Median(walls);
    }
  }
  return rs;
}

// ---- the workload plan ----

struct Plan {
  const Workload* w = nullptr;
  std::vector<uint64_t> seeds;
  std::vector<KernelVersion> versions;
  std::vector<size_t> targets;
  double hours = 0.0;
  size_t rounds = 0;
};

Plan MakePlan(const Workload& w, const Args& args) {
  Plan plan;
  plan.w = &w;
  const size_t n =
      args.tiny ? (w.kind == Kind::kColdBurst ? 3 : 1)
                : std::max<size_t>(1, static_cast<size_t>(std::lround(
                                          args.seconds * w.campaigns_per_s)));
  plan.hours = args.tiny ? w.tiny_hours : w.hours;
  plan.rounds = args.tiny ? w.tiny_rounds : w.rounds;
  for (size_t i = 0; i < n; ++i) {
    plan.seeds.push_back(SubSeed(args.seed, i));
    const size_t v = w.kind == Kind::kColdBurst ? i % 3 : 0;
    plan.versions.push_back(w.kind == Kind::kColdBurst ? kColdVersions[v]
                                                       : KernelVersion::kV5_11);
    plan.targets.push_back(args.tiny ? w.tiny_target : w.coverage_target[v]);
  }
  return plan;
}

// Set-up: compiling the built-in descriptions (BuiltinTarget's work) once,
// plus every Fuzzer / FuzzShard construction the workload performs before
// a first step. Each distinct construction is repeated `trials` times and
// its median counted once per campaign that performs it.
double MeasureSetup(const Plan& plan, int trials) {
  auto median_of = [&](auto&& body) {
    body();  // Warm-up: first-touch allocation and cold caches.
    std::vector<double> samples;
    for (int t = 0; t < trials; ++t) {
      const int64_t start = NowNs();
      body();
      samples.push_back(static_cast<double>(NowNs() - start) / 1e9);
    }
    return Median(samples);
  };
  double total = median_of([] {
    healer::Result<healer::Target> compiled = healer::Target::CompileSource(
        healer::BuiltinDescriptions(), "perfbench-setup");
    if (!compiled.ok()) {
      std::fprintf(stderr, "perfbench: descriptions failed to compile\n");
      std::exit(1);
    }
  });
  if (plan.w->kind == Kind::kShards) {
    const healer::ShardedCampaignOptions o =
        ShardOptions(*plan.w, plan.seeds[0], plan.rounds);
    return total + median_of([&] {
             std::vector<std::unique_ptr<FuzzShard>> shards;
             for (size_t i = 0; i < o.shards; ++i) {
               healer::FuzzerOptions opts = o.base;
               opts.seed = o.seed + i;
               shards.push_back(std::make_unique<FuzzShard>(
                   healer::BuiltinTarget(), opts, static_cast<uint32_t>(i)));
             }
           });
  }
  std::map<KernelVersion, double> per_version;
  for (size_t i = 0; i < plan.seeds.size(); ++i) {
    auto it = per_version.find(plan.versions[i]);
    if (it == per_version.end()) {
      it = per_version
               .emplace(plan.versions[i], median_of([&] {
                          Fuzzer fuzzer(healer::BuiltinTarget(),
                                        FuzzOptions(*plan.w, plan.seeds[i],
                                                    plan.versions[i]));
                        }))
               .first;
    }
    total += it->second;
  }
  return total;
}

void PrintHost(const Args& args) {
  std::printf("host nproc=%u build_type=%s compiler=\"%s\" source_root=%s "
              "cov_site_ids=root-relative workload=%s seed=%" PRIu64
              " seconds=%g trace=%d tiny=%d\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, PERFBENCH_SOURCE_ROOT, args.workload.c_str(),
              args.seed, args.seconds, args.trace, args.tiny ? 1 : 0);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

std::string MetricsJson(const MetricMap& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += (first ? "" : ", ") + std::string("\"") + name +
           "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  return out + "}";
}

// Prints every metric by name with its unit, writes the full record
// (host conditions included) to the output directory, and ends stdout
// with the one-line JSON result carrying only `reported`.
void Emit(const Args& args, bool correct, uint64_t attempted, uint64_t failed,
          const MetricMap& all, const std::vector<std::string>& reported) {
  MetricMap last;
  for (const auto& [name, m] : all) {
    std::printf("metric %-34s %.6g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& name : reported) {
    auto it = all.find(name);
    if (it == all.end()) {
      std::fprintf(stderr, "perfbench: metric %s missing\n", name.c_str());
      correct = false;
      continue;
    }
    last[name] = it->second;
  }
  const std::string path = args.out_dir + "/result-" + args.workload +
                           "-seed" + std::to_string(args.seed) + "-trace" +
                           std::to_string(args.trace) + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %" PRIu64
                 ", \"seconds\": %g, \"trace\": %d, \"tiny\": %s, \"host\": "
                 "{\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": "
                 "\"%s\", \"source_root\": \"%s\", \"cov_site_ids\": "
                 "\"root-relative\"}, \"correct\": %s, \"metrics\": %s}\n",
                 args.workload.c_str(), args.seed, args.seconds, args.trace,
                 args.tiny ? "true" : "false",
                 std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                 PERFBENCH_COMPILER, JsonEscape(PERFBENCH_SOURCE_ROOT).c_str(),
                 correct ? "true" : "false", MetricsJson(all).c_str());
    std::fclose(f);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted,
              correct ? failed : attempted, MetricsJson(last).c_str());
}

const std::vector<std::string> kEndToEnd = {
    "setup_s",     "fuzz_execs_per_s", "ttc_s",       "sim_coverage",
    "sim_bugs",    "sim_ttc_h",        "peak_rss_mb", "exec_ok_share"};

// ---- --trace 0 ----

int TimedRun(const Args& args, const Plan& plan) {
  const Workload& w = *plan.w;
  MetricMap m;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  healer::BuiltinTarget();  // Counted in setup_s via CompileSource.
  m["setup_s"] = {MeasureSetup(plan, args.tiny ? 1 : 9), "s"};

  // Wall metrics are medians, so one stall on a shared host moves them
  // little: fuzz_execs_per_s is the median over simulated hours (lockstep
  // rounds for shards-4) of fuzz execs per wall second; ttc_s is the
  // median over campaigns of the wall time to the coverage target.
  std::vector<double> rates;
  std::vector<double> ttcs;
  double fuzz_execs = 0.0;
  double run_s = 0.0;
  double sim_ttc_h = 0.0;
  double coverage = 0.0;
  double bugs = 0.0;
  std::vector<healer::MetricsSnapshot> snaps;

  if (w.kind == Kind::kShards) {
    for (size_t i = 0; i < plan.seeds.size(); ++i) {
      const healer::ShardedCampaignOptions o =
          ShardOptions(w, plan.seeds[i], plan.rounds);
      const healer::ShardedCampaignResult r =
          healer::RunShardedCampaign(healer::BuiltinTarget(), o);
      ++attempted;
      fuzz_execs += static_cast<double>(r.total_execs);
      run_s += static_cast<double>(r.wall_ns) / 1e9;
      const RoundStats rs = ShardRounds(r, o, plan.targets[i]);
      rates.insert(rates.end(), rs.rates.begin(), rs.rates.end());
      coverage += static_cast<double>(r.union_coverage);
      // Gate (off the clock): the round-by-round drive must reproduce it.
      const ShardDrive d = DriveShards(o, plan.targets[i], nullptr);
      correct &= DriveMatches(d, r);
      bugs += static_cast<double>(d.bugs.size());
      snaps.insert(snaps.end(), d.snaps.begin(), d.snaps.end());
      std::printf("campaign %zu seed=%" PRIu64 " union_coverage=%zu bugs=%zu "
                  "wall_s=%.4f ttc_s=%.4f sim_ttc_h=%.4f\n",
                  i, plan.seeds[i], r.union_coverage, d.bugs.size(),
                  static_cast<double>(r.wall_ns) / 1e9, rs.ttc_s, d.sim_ttc_h);
      if (rs.ttc_s < 0 || d.sim_ttc_h < 0) {
        ++failed;
        std::printf("campaign shards seed=%" PRIu64 " missed target %zu\n",
                    plan.seeds[i], plan.targets[i]);
      } else {
        ttcs.push_back(rs.ttc_s);
        sim_ttc_h += d.sim_ttc_h;
      }
    }
    m["peak_rss_mb"] = {PeakRssMb(), "MiB"};
  } else {
    std::vector<CampaignOut> outs;
    for (size_t i = 0; i < plan.seeds.size(); ++i) {
      outs.push_back(RunSingle(w, plan.seeds[i], plan.versions[i], plan.hours,
                               plan.targets[i], nullptr, nullptr));
      const CampaignOut& c = outs.back();
      std::printf("campaign %zu seed=%" PRIu64 " v%s coverage=%zu fuzz=%" PRIu64
                  " total=%" PRIu64 " corpus=%zu bugs=%zu run_s=%.4f ttc_s=%.4f "
                  "sim_ttc_h=%.4f\n",
                  i, c.seed, healer::KernelVersionName(c.version), c.coverage,
                  c.fuzz_execs, c.total_execs, c.corpus_size, c.bugs.size(),
                  static_cast<double>(c.run_ns) / 1e9,
                  static_cast<double>(c.ttc_ns) / 1e9, c.sim_ttc_h);
    }
    m["peak_rss_mb"] = {PeakRssMb(), "MiB"};
    for (const CampaignOut& c : outs) {
      ++attempted;
      fuzz_execs += static_cast<double>(c.fuzz_execs);
      run_s += static_cast<double>(c.run_ns) / 1e9;
      rates.insert(rates.end(), c.hour_rates.begin(), c.hour_rates.end());
      coverage += static_cast<double>(c.coverage);
      bugs += static_cast<double>(c.bugs.size());
      snaps.push_back(c.telemetry);
      if (c.ttc_ns < 0 || c.sim_ttc_h < 0) {
        ++failed;
        std::printf("campaign seed=%" PRIu64 " v%s missed target %zu "
                    "(reached %zu)\n",
                    c.seed, healer::KernelVersionName(c.version), c.target,
                    c.coverage);
        continue;
      }
      ttcs.push_back(static_cast<double>(c.ttc_ns) / 1e9);
      sim_ttc_h += c.sim_ttc_h;
    }
    if (w.kind == Kind::kColdBurst) {
      correct &= RerunMatches(w, outs.front(), args.out_dir);
    }
    size_t checked = 0;
    bool repros_ok = true;
    for (const CampaignOut& c : outs) {
      checked += c.repros_checked;
      repros_ok &= c.repros_ok;
    }
    correct &= repros_ok;
    std::printf("gate reproducers: %zu re-executed, %s\n", checked,
                repros_ok ? "all crash with their bug" : "MISMATCH");
  }

  const double discarded =
      static_cast<double>(SumCounter(snaps, "healer_exec_discarded_total"));
  const double attempted_fuzz =
      static_cast<double>(SumCounter(snaps, "healer_fuzz_execs_total"));
  const double failed_share = attempted_fuzz > 0 ? discarded / attempted_fuzz
                                                 : 0.0;
  double ttc_sum = 0.0;
  for (double t : ttcs) {
    ttc_sum += t;
  }
  m["fuzz_execs_per_s"] = {Median(rates), "1/s"};
  m["fuzz_execs_per_s.samples"] = {static_cast<double>(rates.size()), "count"};
  m["fuzz_execs_per_s.aggregate"] = {run_s > 0 ? fuzz_execs / run_s : 0.0,
                                     "1/s"};
  m["ttc_s"] = {Median(ttcs), "s"};
  m["ttc_s.sum"] = {ttc_sum, "s"};
  m["sim_coverage"] = {coverage, "branches"};
  m["sim_bugs"] = {bugs, "count"};
  m["sim_ttc_h"] = {sim_ttc_h, "sim-h"};
  m["failed_exec_share"] = {failed_share, "ratio"};
  m["exec_ok_share"] = {1.0 - failed_share, "ratio"};
  m["campaigns"] = {static_cast<double>(attempted), "count"};
  m["fuzz_execs"] = {fuzz_execs, "count"};
  m["analysis_execs"] = {
      static_cast<double>(SumCounter(snaps, "healer_exec_analysis_total")),
      "count"};
  m["timed_phase_s"] = {run_s, "s"};
  Emit(args, correct, attempted, failed, m, kEndToEnd);
  return 0;
}

// ---- --trace 1 ----

const std::vector<std::string> kPerLayer = {
    "syzlang.static_learn_ms",        "fuzz.fuzzer_ctor_ms",
    "prog.generate_us",               "prog.mutate_us",
    "fuzz.select_us",                 "prog.encode_us",
    "prog.encode_bytes",              "prog.decode_us",
    "exec.run_us",                    "vm.exec_us",
    "vm.probe_exec_us",               "vm.crash_us",
    "vm.transport_us",                "base.bitmap_merge_ns",
    "fuzz.corpus_choose_us",          "fuzz.corpus_add_us",
    "fuzz.minimize_self_us",          "fuzz.learn_self_us",
    "fuzz.minimize_probes_per_round", "fuzz.learn_probes_per_round",
    "fuzz.analysis_per_fuzz",         "fuzz.relation_apply_us",
    "vm.pool_build_ms",               "vm.acquire_release_us",
    "vm.reboots_per_kexec",           "exec.retries_per_exec",
    "vm.quarantines",                 "fuzz.gossip_emit_us",
    "fuzz.gossip_ingest_us",          "fuzz.gossip_apply_us",
    "fuzz.gossip_bytes_per_round",    "fuzz.shard_run_us",
    "fuzz.round_skew_share",          "fuzz.step_us_p50",
    "fuzz.step_us_p99",               "fuzz.step_samples",
    "fuzz.triage_step_share",         "fuzz.triage_wall_share",
    "fuzz.unattributed_share",        "trace_overhead_share"};

void GossipMetrics(const ShardDrive& d, MetricMap* m) {
  auto per = [](int64_t ns, uint64_t n) {
    return n == 0 ? 0.0 : static_cast<double>(ns) / 1e3 / static_cast<double>(n);
  };
  (*m)["fuzz.gossip_emit_us"] = {per(d.emit_ns, d.emits), "us"};
  (*m)["fuzz.gossip_ingest_us"] = {per(d.ingest_ns, d.ingests), "us"};
  (*m)["fuzz.gossip_apply_us"] = {per(d.apply_ns, d.applies), "us"};
  (*m)["fuzz.gossip_bytes_per_round"] = {
      d.rounds == 0 ? 0.0
                    : static_cast<double>(d.gossip_bytes) /
                          static_cast<double>(d.rounds),
      "bytes"};
  (*m)["fuzz.shard_run_us"] = {per(d.run_ns, d.shard_runs), "us"};
  (*m)["fuzz.round_skew_share"] = {
      d.rounds == 0 ? 0.0 : d.skew_share_sum / static_cast<double>(d.rounds),
      "ratio"};
}

int TracedRun(const Args& args, const Plan& plan) {
  const Workload& w = *plan.w;
  MetricMap m;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  SpanRecorder rec;
  StepProfile profile;
  std::vector<healer::MetricsSnapshot> snaps;
  // Median fuzz-exec rates (per sim-hour, or per round for shards-4).
  std::vector<double> untraced_rates;
  std::vector<double> traced_rates;
  std::vector<healer::TraceEvent> sim_events;
  healer::BuiltinTarget();

  if (w.kind == Kind::kShards) {
    std::unique_ptr<ShardDrive> last;
    for (size_t i = 0; i < plan.seeds.size(); ++i) {
      last.reset();
      const healer::ShardedCampaignOptions o =
          ShardOptions(w, plan.seeds[i], plan.rounds);
      const healer::ShardedCampaignResult r =
          healer::RunShardedCampaign(healer::BuiltinTarget(), o);
      const RoundStats rs = ShardRounds(r, o, plan.targets[i]);
      untraced_rates.insert(untraced_rates.end(), rs.rates.begin(),
                            rs.rates.end());
      Tracing tracing{&rec, static_cast<uint32_t>(i + 1), &profile};
      healer::ShardedCampaignOptions traced = o;
      traced.base.trace_capacity = 1 << 14;  // The shards' sim-time spans.
      last = std::make_unique<ShardDrive>(
          DriveShards(traced, plan.targets[i], &tracing));
      ++attempted;
      correct &= DriveMatches(*last, r);
      if (last->sim_ttc_h < 0) {
        ++failed;
      }
      traced_rates.insert(traced_rates.end(), last->round_rates.begin(),
                          last->round_rates.end());
      snaps.insert(snaps.end(), last->snaps.begin(), last->snaps.end());
    }
    GossipMetrics(*last, &m);
    Fuzzer& replayed = last->shards[0]->fuzzer();
    const uint32_t replay_trace = static_cast<uint32_t>(plan.seeds.size() + 1);
    correct &= ReplayLayers(w, replayed, plan.seeds.back(), &rec, replay_trace,
                            &m);
    sim_events = replayed.trace().Events();
  } else {
    std::unique_ptr<Fuzzer> last;
    for (size_t i = 0; i < plan.seeds.size(); ++i) {
      // Untraced and traced runs of the same campaign alternate, so drift
      // in machine speed hits both sides of trace_overhead_share.
      const CampaignOut plain =
          RunSingle(w, plan.seeds[i], plan.versions[i], plan.hours,
                    plan.targets[i], nullptr, nullptr);
      untraced_rates.insert(untraced_rates.end(), plain.hour_rates.begin(),
                            plain.hour_rates.end());
      Tracing tracing{&rec, static_cast<uint32_t>(i + 1), &profile};
      const bool final_campaign = i + 1 == plan.seeds.size();
      const CampaignOut c =
          RunSingle(w, plan.seeds[i], plan.versions[i], plan.hours,
                    plan.targets[i], &tracing, final_campaign ? &last : nullptr);
      ++attempted;
      correct &= c.repros_ok && c.coverage == plain.coverage &&
                 c.fuzz_execs == plain.fuzz_execs &&
                 c.corpus_fp == plain.corpus_fp;
      if (c.ttc_ns < 0) {
        ++failed;
      }
      traced_rates.insert(traced_rates.end(), c.hour_rates.begin(),
                          c.hour_rates.end());
      snaps.push_back(c.telemetry);
    }
    const uint32_t replay_trace = static_cast<uint32_t>(plan.seeds.size() + 1);
    correct &= ReplayLayers(w, *last, plan.seeds.back(), &rec, replay_trace, &m);
    // Single-Fuzzer workloads have no gossip of their own: a small 2-shard
    // drive with the workload's fuzzer options gives the gossip costs.
    ScopedSpan gossip_span(&rec, "replay.gossip", replay_trace + 1);
    healer::ShardedCampaignOptions mini;
    mini.shards = 2;
    mini.rounds = 6;
    mini.execs_per_round = 64;
    mini.seed = plan.seeds.back();
    mini.use_threads = std::thread::hardware_concurrency() >= mini.shards;
    mini.base = FuzzOptions(w, mini.seed, plan.versions.back());
    GossipMetrics(DriveShards(mini, SIZE_MAX, nullptr), &m);
    sim_events = last->trace().Events();
  }

  correct &= Reconcile(profile, snaps, &m);
  const double untraced_rate = Median(untraced_rates);
  const double traced_rate = Median(traced_rates);
  m["trace_overhead_share"] = {
      untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0.0, "ratio"};
  m["fuzz_execs_per_s.untraced"] = {untraced_rate, "1/s"};
  m["fuzz_execs_per_s.traced"] = {traced_rate, "1/s"};

  const std::string trace_path = args.out_dir + "/trace-" + args.workload +
                                 "-seed" + std::to_string(args.seed) + ".json";
  if (rec.WriteChromeTrace(trace_path, 100000, sim_events)) {
    std::printf("chrome trace: %s (%zu wall spans, %zu sim events)\n",
                trace_path.c_str(), rec.spans().size(), sim_events.size());
  }
  Emit(args, correct, attempted, failed, m, kPerLayer);
  return 0;
}

}  // namespace

uint64_t SumCounter(const std::vector<healer::MetricsSnapshot>& snaps,
                    const char* name) {
  uint64_t total = 0;
  for (const healer::MetricsSnapshot& s : snaps) {
    total += s.counter(name);
  }
  return total;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

healer::FuzzerOptions FuzzOptions(const Workload& w, uint64_t seed,
                                  KernelVersion version) {
  healer::FuzzerOptions options;
  options.tool = healer::ToolKind::kHealer;
  options.version = version;
  options.seed = seed;
  options.fleet_size = w.fleet_size;
  if (w.fault_rate > 0.0) {
    options.fault_plan = healer::FaultPlan::Uniform(w.fault_rate);
  }
  return options;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    Usage("unknown workload '" + args.workload + "'");
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  PrintHost(args);
  const Plan plan = MakePlan(*workload, args);
  return args.trace == 0 ? TimedRun(args, plan) : TracedRun(args, plan);
}
