// Per-layer replay and reconciliation for the traced run.
//
// Spans can only be recorded around calls the benchmark makes itself, and
// Fuzzer::Step is one opaque call. So each layer's public entry point is
// replayed on the workload's own final state (corpus, relation table,
// alpha, fault plan, pool size), timed per call, and multiplied by the
// count the fuzzer's metric registry reports. Whatever the measured step
// time holds beyond those products is fuzz.unattributed_share.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/exec/executor.h"
#include "src/kernel/coverage.h"
#include "src/prog/serialize.h"
#include "src/syzlang/builtin_descs.h"

namespace perfbench {
namespace {

using healer::Prog;

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Execution round trips. A crashing program costs more than its round
// trip (crash report, guest marked down) and the next execution on that
// guest pays the reboot; both extras are charged to the crash, so the
// round-trip mean covers only executions that neither crash nor reboot.
struct RoundTrips {
  int64_t normal_ns = 0;
  uint64_t normal = 0;
  int64_t extra_ns = 0;  // Executions that crashed or rebooted first.
  uint64_t extra = 0;
  uint64_t crashes = 0;

  void Add(bool rebooted, bool crashed, int64_t ns) {
    if (rebooted || crashed) {
      extra_ns += ns;
      ++extra;
    } else {
      normal_ns += ns;
      ++normal;
    }
    crashes += crashed ? 1 : 0;
  }
  double RoundTripUs() const {
    return normal == 0 ? 0.0 : static_cast<double>(normal_ns) / 1e3 / normal;
  }
  double CrashUs() const {
    return crashes == 0 ? 0.0
                        : (static_cast<double>(extra_ns) / 1e3 -
                           static_cast<double>(extra) * RoundTripUs()) /
                              static_cast<double>(crashes);
  }
};

// Times `body` over `n` calls inside one span; returns mean ns per call.
template <typename Body>
double TimePerCall(SpanRecorder* rec, const char* name, uint32_t trace,
                   size_t n, Body body) {
  ScopedSpan span(rec, name, trace);
  const int64_t start = NowNs();
  for (size_t i = 0; i < n; ++i) {
    body(i);
  }
  return n == 0 ? 0.0 : static_cast<double>(NowNs() - start) / n;
}

}  // namespace

bool ReplayLayers(const Workload& w, healer::Fuzzer& fuzzer, uint64_t seed,
                  SpanRecorder* rec, uint32_t trace, MetricMap* out) {
  ScopedSpan replay_span(rec, "replay", trace);
  MetricMap& m = *out;
  bool ok = true;
  const healer::Target& target = healer::BuiltinTarget();
  const healer::FuzzerOptions& fo = fuzzer.options();
  const healer::KernelConfig config =
      healer::KernelConfig::ForVersion(fo.version);
  healer::Executor executor(target, config);
  const std::vector<int>& enabled = executor.enabled_syscalls();
  const healer::Corpus& corpus = fuzzer.corpus();
  healer::Rng rng(seed ^ 0x7e57ULL);

  // ---- set-up layers ----
  {
    std::vector<double> learn_ms;
    std::vector<double> ctor_ms;
    for (int t = 0; t < 3; ++t) {
      healer::RelationTable table(target.NumSyscalls());
      int64_t s = NowNs();
      {
        ScopedSpan span(rec, "syzlang.static_learn", trace);
        healer::StaticRelationLearn(target, &table);
      }
      learn_ms.push_back(static_cast<double>(NowNs() - s) / 1e6);
      s = NowNs();
      {
        ScopedSpan span(rec, "fuzz.fuzzer_ctor", trace);
        healer::Fuzzer fresh(target, FuzzOptions(w, seed, fo.version));
      }
      ctor_ms.push_back(static_cast<double>(NowNs() - s) / 1e6);
    }
    m["syzlang.static_learn_ms"] = {Median(learn_ms), "ms"};
    m["fuzz.fuzzer_ctor_ms"] = {Median(ctor_ms), "ms"};
  }

  // ---- generate / mutate / select ----
  healer::ProgArena arena;
  healer::ProgBuilder builder(target, enabled, &rng);
  builder.set_arena(&arena);
  healer::CallSelector selector(&fuzzer.relations(), enabled, &rng);
  const double alpha = fuzzer.alpha();
  healer::CallChooser chooser = [&](const std::vector<int>& prefix) {
    bool used = false;
    return selector.Select(prefix, alpha, &used);
  };

  constexpr size_t kProgs = 1500;
  std::vector<Prog> generated;  // Heap clones, reused by the exec layers.
  double generate_ns = 0.0;
  {
    ScopedSpan span(rec, "prog.generate", trace);
    int64_t total = 0;
    for (size_t i = 0; i < kProgs; ++i) {
      arena.Reset();
      const size_t len = rng.InRange(fo.gen_len_min, fo.gen_len_max);
      const int64_t s = NowNs();
      Prog p = builder.Generate(chooser, len);
      total += NowNs() - s;
      if (!p.empty()) {
        generated.push_back(p.Clone());
      }
    }
    generate_ns = static_cast<double>(total) / kProgs;
  }
  m["prog.generate_us"] = {generate_ns / 1e3, "us"};

  std::vector<const Prog*> sample;  // Corpus programs, then generated ones.
  for (size_t i = 0; i < corpus.size() && sample.size() < kProgs / 2; ++i) {
    sample.push_back(&corpus.at((i * 7919) % corpus.size()));
  }
  for (const Prog& p : generated) {
    sample.push_back(&p);
  }

  std::vector<std::vector<int>> prefixes;
  for (const Prog* p : sample) {
    std::vector<int> prefix;
    for (const auto& call : p->calls()) {
      prefix.push_back(call.meta->id);
      prefixes.push_back(prefix);
    }
  }
  int sink = 0;
  const double select_ns = TimePerCall(
      rec, "fuzz.select", trace, prefixes.size(),
      [&](size_t i) { sink += chooser(prefixes[i]); });
  m["fuzz.select_us"] = {select_ns / 1e3, "us"};

  const healer::Corpus* choose_from = &corpus;
  healer::Corpus fallback;
  if (corpus.empty()) {
    for (size_t i = 0; i < 16 && i < generated.size(); ++i) {
      fallback.Add(generated[i].Clone(), 1);
    }
    choose_from = &fallback;
  }
  const double choose_ns =
      TimePerCall(rec, "fuzz.corpus_choose", trace, 20000, [&](size_t) {
        sink += static_cast<int>(choose_from->Choose(&rng).size());
      });
  m["fuzz.corpus_choose_us"] = {choose_ns / 1e3, "us"};
  // Mutation as Fuzzer::Step applies it: clone the chosen program into the
  // arena, insert a call (7/10), mutate arguments (6/10).
  double mutate_ns = 0.0;
  {
    ScopedSpan span(rec, "prog.mutate", trace);
    int64_t total = 0;
    for (size_t i = 0; i < kProgs; ++i) {
      arena.Reset();
      const Prog& base = choose_from->Choose(&rng);
      const int64_t s = NowNs();
      Prog p = base.CloneInto(&arena);
      if (rng.Chance(7, 10)) {
        builder.MutateInsert(&p, chooser);
      }
      if (rng.Chance(6, 10)) {
        builder.MutateArgs(&p);
      }
      total += NowNs() - s;
      sink += static_cast<int>(p.size());
    }
    mutate_ns = static_cast<double>(total) / kProgs;
  }
  arena.Reset();
  m["prog.mutate_us"] = {mutate_ns / 1e3, "us"};

  // ---- encode / decode ----
  std::vector<std::vector<uint8_t>> wire(sample.size());
  double encoded_bytes = 0.0;
  const double encode_ns =
      TimePerCall(rec, "prog.encode", trace, sample.size(), [&](size_t i) {
        wire[i] = healer::SerializeProg(*sample[i]);
      });
  for (const auto& bytes : wire) {
    encoded_bytes += static_cast<double>(bytes.size());
  }
  size_t decode_mismatches = 0;
  std::vector<healer::Result<Prog>> decoded;
  decoded.reserve(wire.size());
  const double decode_ns =
      TimePerCall(rec, "prog.decode", trace, wire.size(), [&](size_t i) {
        decoded.push_back(
            healer::DeserializeProg(target, wire[i].data(), wire[i].size()));
      });
  for (size_t i = 0; i < decoded.size(); ++i) {
    if (!decoded[i].ok() || healer::SerializeProg(*decoded[i]) != wire[i]) {
      ++decode_mismatches;
    }
  }
  if (decode_mismatches > 0) {
    std::printf("gate decode: %zu of %zu programs do not round-trip\n",
                decode_mismatches, wire.size());
    ok = false;
  }
  decoded.clear();
  m["prog.encode_us"] = {encode_ns / 1e3, "us"};
  m["prog.decode_us"] = {decode_ns / 1e3, "us"};
  m["prog.encode_bytes"] = {
      sample.empty() ? 0.0 : encoded_bytes / static_cast<double>(sample.size()),
      "bytes"};

  // ---- executor, VM round trip, coverage merge ----
  healer::Bitmap global(healer::CallCoverage::kMapBits);
  healer::SimClock vm_clock;
  healer::GuestVm vm(target, config, &vm_clock);
  vm.Boot();
  healer::Bitmap vm_global(healer::CallCoverage::kMapBits);
  // Warm-up: first use allocates the executor's and the VM's transports.
  for (size_t i = 0; i < sample.size() && i < 64; ++i) {
    executor.Run(*sample[i], nullptr);
    vm.ExecRingOne(*sample[i], nullptr);
  }
  // Fuzz execs run generated programs and mutated corpus programs; the
  // two kinds differ in length and cost, so each is timed on its own and
  // weighted by the fuzzer's own generate:mutate count.
  const size_t corpus_part = sample.size() - generated.size();
  const healer::MetricsSnapshot counts = fuzzer.metrics().Snapshot();
  const double generated_share =
      corpus_part == 0
          ? 1.0
          : Ratio(counts.counter("healer_fuzz_generated_total"),
                  counts.counter("healer_fuzz_generated_total") +
                      counts.counter("healer_fuzz_mutated_total"));
  auto weighted = [&](const RoundTrips (&trips)[2], auto member) {
    return (1.0 - generated_share) * (trips[0].*member)() +
           generated_share * (trips[1].*member)();
  };
  RoundTrips executor_trips[2];  // [corpus, generated]
  {
    ScopedSpan span(rec, "exec.run", trace);
    for (size_t i = 0; i < sample.size(); ++i) {
      const int64_t s = NowNs();
      const healer::ExecResult r = executor.Run(*sample[i], &global);
      executor_trips[i >= corpus_part].Add(false, r.Crashed(), NowNs() - s);
      sink += static_cast<int>(r.calls.size());
    }
  }
  RoundTrips vm_trips[2];
  {
    ScopedSpan span(rec, "vm.exec_ring_one", trace);
    for (size_t i = 0; i < sample.size(); ++i) {
      const bool reboots = vm.down();
      const int64_t s = NowNs();
      const healer::ExecResult r = vm.ExecRingOne(*sample[i], &vm_global);
      vm_trips[i >= corpus_part].Add(reboots, r.Crashed(), NowNs() - s);
      sink += static_cast<int>(r.calls.size());
    }
  }
  const double run_us = weighted(executor_trips, &RoundTrips::RoundTripUs);
  const double vm_us = weighted(vm_trips, &RoundTrips::RoundTripUs);
  m["exec.run_us"] = {run_us, "us"};
  m["vm.exec_us"] = {vm_us, "us"};
  m["vm.transport_us"] = {vm_us - run_us, "us"};
  m["vm.crash_us"] = {weighted(vm_trips, &RoundTrips::CrashUs), "us"};

  {
    std::vector<healer::Bitmap> per_prog;
    const size_t n = std::min<size_t>(sample.size(), 400);
    for (size_t i = 0; i < n; ++i) {
      per_prog.emplace_back(healer::CallCoverage::kMapBits);
      executor.Run(*sample[i], &per_prog.back());
    }
    healer::Bitmap merged(healer::CallCoverage::kMapBits);
    double total = 0.0;
    constexpr int kPasses = 10;
    for (int pass = 0; pass < kPasses; ++pass) {
      merged.Clear();
      total += TimePerCall(rec, "base.bitmap_merge", trace, n, [&](size_t i) {
        sink += static_cast<int>(merged.MergeNew(per_prog[i]));
      });
    }
    m["base.bitmap_merge_ns"] = {total / kPasses, "ns"};
  }

  // ---- triage: Alg. 1 minimize, Alg. 2 learn, relation apply ----
  healer::SimClock probe_clock;
  healer::GuestVm probe_vm(target, config, &probe_clock);
  probe_vm.Boot();
  int64_t probe_ns = 0;
  RoundTrips probe_trips;
  healer::ExecFn probe = [&](const Prog& p) {
    const bool reboots = probe_vm.down();
    const int64_t s = NowNs();
    healer::ExecResult r = probe_vm.ExecRingOne(p, nullptr);
    const int64_t ns = NowNs() - s;
    probe_ns += ns;
    probe_trips.Add(reboots, r.Crashed(), ns);
    return r;
  };
  healer::Minimizer minimizer(probe);
  std::vector<healer::MinimizedSeq> seqs;
  int64_t minimize_self = 0;
  size_t minimize_rounds = 0;
  {
    ScopedSpan span(rec, "fuzz.minimize", trace);
    // Triage against a mid-campaign bitmap (half the corpus merged), not
    // an empty one, on which every call of every program is new coverage.
    healer::Bitmap triage_cov(healer::CallCoverage::kMapBits);
    for (size_t i = 0; i < corpus.size(); i += 2) {
      executor.Run(corpus.at(i), &triage_cov);
    }
    for (const Prog& p : generated) {
      if (minimize_rounds >= 120) {
        break;
      }
      const healer::ExecResult base = executor.Run(p, &triage_cov);
      if (base.TotalNewEdges() == 0 || base.Crashed()) {
        continue;
      }
      const int64_t probes_before = probe_ns;
      const int64_t s = NowNs();
      std::vector<healer::MinimizedSeq> got = minimizer.Minimize(p, base);
      minimize_self += (NowNs() - s) - (probe_ns - probes_before);
      ++minimize_rounds;
      for (healer::MinimizedSeq& seq : got) {
        seqs.push_back(std::move(seq));
      }
    }
  }
  m["fuzz.minimize_self_us"] = {
      minimize_rounds == 0 ? 0.0
                           : static_cast<double>(minimize_self) / 1e3 /
                                 static_cast<double>(minimize_rounds),
      "us"};

  // A private copy of the final table: static edges plus every learned one.
  healer::RelationTable table(target.NumSyscalls());
  healer::StaticRelationLearn(target, &table);
  std::vector<healer::RelationEdge> learned;
  for (const healer::RelationEdge& e : fuzzer.relations().EdgesBefore()) {
    if (e.source == healer::RelationSource::kDynamic) {
      learned.push_back(e);
    }
  }
  // Apply, one learned edge per call, in learn order.
  const double apply_ns = TimePerCall(
      rec, "fuzz.relation_apply", trace, learned.size(), [&](size_t i) {
        healer::RelationDelta delta;
        delta.Add(learned[i].from, learned[i].to, learned[i].source,
                  learned[i].learned_at);
        sink += static_cast<int>(table.Apply(delta));
      });
  m["fuzz.relation_apply_us"] = {apply_ns / 1e3, "us"};

  healer::DynamicLearner learner(&table, probe, &probe_clock);
  int64_t learn_self = 0;
  {
    ScopedSpan span(rec, "fuzz.learn", trace);
    for (const healer::MinimizedSeq& seq : seqs) {
      healer::RelationDelta delta;
      const int64_t probes_before = probe_ns;
      const int64_t s = NowNs();
      sink += static_cast<int>(learner.LearnInto(seq.prog, &delta));
      learn_self += (NowNs() - s) - (probe_ns - probes_before);
    }
  }
  m["fuzz.learn_self_us"] = {
      seqs.empty() ? 0.0
                   : static_cast<double>(learn_self) / 1e3 /
                         static_cast<double>(seqs.size()),
      "us"};

  {
    healer::Corpus fresh;
    std::vector<Prog> clones;
    for (const Prog* p : sample) {
      clones.push_back(p->Clone());
    }
    const double add_ns =
        TimePerCall(rec, "fuzz.corpus_add", trace, clones.size(), [&](size_t i) {
          sink += fresh.Add(std::move(clones[i]), 1) ? 1 : 0;
        });
    m["fuzz.corpus_add_us"] = {add_ns / 1e3, "us"};
  }

  // ---- VM pool ----
  {
    const size_t count = fo.fleet_size == 0
                             ? fo.num_vms
                             : std::max(fo.fleet_size, fo.num_vms);
    healer::FleetOptions fleet;
    fleet.lanes = fo.num_vms;
    fleet.shards = std::clamp<size_t>(count / 256, 1,
                                      std::max<size_t>(fo.num_vms, 1));
    std::vector<double> build_ms;
    double acquire_ns = 0.0;
    for (int t = 0; t < 3; ++t) {
      healer::SimClock clock;
      healer::MetricRegistry registry;
      const int64_t s = NowNs();
      std::unique_ptr<healer::VmPool> pool;
      {
        ScopedSpan span(rec, "vm.pool_build", trace);
        pool = std::make_unique<healer::VmPool>(
            target, config, &clock, count, fo.latency, fo.fault_plan, seed,
            &registry, fleet);
      }
      build_ms.push_back(static_cast<double>(NowNs() - s) / 1e6);
      if (t == 0) {
        auto cycle = [&](size_t i) {
          if (!pool->fleet()) {
            sink += static_cast<int>(pool->Next().execs());
            return;
          }
          const size_t lane = i % pool->num_lanes();
          healer::GuestVm* g = pool->AcquireReady(lane);
          pool->Release(lane, g);
        };
        TimePerCall(rec, "vm.acquire_release.warmup", trace, 2 * count, cycle);
        acquire_ns =
            TimePerCall(rec, "vm.acquire_release", trace, 20000, cycle);
      }
    }
    m["vm.pool_build_ms"] = {Median(build_ms), "ms"};
    m["vm.acquire_release_us"] = {acquire_ns / 1e3, "us"};
  }

  // Analysis probes are shorter programs than fuzz execs; their own
  // round-trip cost attributes the analysis share of exec attempts.
  m["vm.probe_exec_us"] = {probe_trips.RoundTripUs(), "us"};
  (void)sink;
  return ok;
}

bool Reconcile(const StepProfile& profile,
               const std::vector<healer::MetricsSnapshot>& snaps,
               MetricMap* out) {
  MetricMap& m = *out;
  auto unit_ns = [&](const char* name, double scale) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second.value * scale;
  };
  const uint64_t generated = SumCounter(snaps, "healer_fuzz_generated_total");
  const uint64_t mutated = SumCounter(snaps, "healer_fuzz_mutated_total");
  const uint64_t fuzz_execs = SumCounter(snaps, "healer_fuzz_execs_total");
  const uint64_t attempts = SumCounter(snaps, "healer_exec_attempts_total");
  const uint64_t retries = SumCounter(snaps, "healer_exec_retries_total");
  const uint64_t analysis = SumCounter(snaps, "healer_exec_analysis_total");
  const uint64_t min_rounds = SumCounter(snaps, "healer_minimize_rounds_total");
  const uint64_t min_probes = SumCounter(snaps, "healer_minimize_probes_total");
  const uint64_t learn_rounds = SumCounter(snaps, "healer_learn_rounds_total");
  const uint64_t learn_probes = SumCounter(snaps, "healer_learn_probes_total");
  const uint64_t learned = SumCounter(snaps, "healer_relations_learned_total");
  const uint64_t adds = SumCounter(snaps, "healer_corpus_adds_total");
  const uint64_t reboots = SumCounter(snaps, "healer_vm_reboots_total");

  m["fuzz.minimize_probes_per_round"] = {Ratio(min_probes, min_rounds),
                                         "count"};
  m["fuzz.learn_probes_per_round"] = {Ratio(learn_probes, learn_rounds),
                                      "count"};
  m["fuzz.analysis_per_fuzz"] = {Ratio(analysis, fuzz_execs), "ratio"};
  m["vm.reboots_per_kexec"] = {
      1000.0 * Ratio(reboots, attempts),
      "1/kexec"};
  m["exec.retries_per_exec"] = {
      Ratio(retries, attempts), "ratio"};
  m["vm.quarantines"] = {
      static_cast<double>(SumCounter(snaps, "healer_vm_quarantines_total")),
      "count"};

  // Each term: the registry's count times the replayed unit cost. Analysis
  // probes are exec attempts, so minimize/learn contribute self time only.
  struct Term {
    const char* layer;
    uint64_t count;
    double unit_ns;
  };
  const Term terms[] = {
      {"prog.generate", generated, unit_ns("prog.generate_us", 1e3)},
      {"fuzz.corpus_choose", mutated, unit_ns("fuzz.corpus_choose_us", 1e3)},
      {"prog.mutate", mutated, unit_ns("prog.mutate_us", 1e3)},
      {"vm.exec (fuzz+retry)", fuzz_execs + retries, unit_ns("vm.exec_us", 1e3)},
      {"vm.exec (analysis)", analysis, unit_ns("vm.probe_exec_us", 1e3)},
      {"vm.crash", reboots, unit_ns("vm.crash_us", 1e3)},
      {"vm.acquire_release", attempts, unit_ns("vm.acquire_release_us", 1e3)},
      {"fuzz.minimize_self", min_rounds, unit_ns("fuzz.minimize_self_us", 1e3)},
      {"fuzz.learn_self", learn_rounds, unit_ns("fuzz.learn_self_us", 1e3)},
      {"fuzz.relation_apply", learned, unit_ns("fuzz.relation_apply_us", 1e3)},
      {"fuzz.corpus_add", adds, unit_ns("fuzz.corpus_add_us", 1e3)},
  };
  const double wall = static_cast<double>(profile.wall_ns);
  double attributed = 0.0;
  std::printf("reconcile: %" PRIu64 " steps, %.3f s of step wall time\n",
              profile.steps, wall / 1e9);
  for (const Term& t : terms) {
    const double ns = static_cast<double>(t.count) * t.unit_ns;
    attributed += ns;
    std::printf("reconcile %-22s %10" PRIu64 " x %10.3f us = %8.4f s  "
                "(%5.1f%%)\n",
                t.layer, t.count, t.unit_ns / 1e3, ns / 1e9,
                wall > 0 ? 100.0 * ns / wall : 0.0);
  }
  const double unattributed = wall > 0 ? 1.0 - attributed / wall : 0.0;
  std::printf("reconcile %-22s %38.4f s  (%5.1f%%)\n", "unattributed",
              (wall - attributed) / 1e9, 100.0 * unattributed);
  m["fuzz.unattributed_share"] = {unattributed, "ratio"};
  const double sum = attributed + unattributed * wall;
  const bool adds_up = wall <= 0 || std::abs(sum - wall) <= 1e-6 * wall;
  std::printf("reconcile: attributed + unattributed = %.6f s vs measured "
              "%.6f s -> %s\n",
              sum / 1e9, wall / 1e9, adds_up ? "ok" : "MISMATCH");

  std::vector<int64_t> steps = profile.step_ns;
  std::sort(steps.begin(), steps.end());
  auto pct = [&](double q) {
    if (steps.empty()) {
      return 0.0;
    }
    const size_t idx = std::min(
        steps.size() - 1, static_cast<size_t>(q * static_cast<double>(steps.size())));
    return static_cast<double>(steps[idx]) / 1e3;
  };
  m["fuzz.step_us_p50"] = {pct(0.50), "us"};
  m["fuzz.step_us_p99"] = {pct(0.99), "us"};
  m["fuzz.step_samples"] = {static_cast<double>(profile.steps), "count"};
  m["fuzz.triage_step_share"] = {Ratio(profile.triage_steps, profile.steps),
                                 "ratio"};
  m["fuzz.triage_wall_share"] = {
      wall > 0 ? static_cast<double>(profile.triage_ns) / wall : 0.0, "ratio"};
  return adds_up;
}

}  // namespace perfbench
