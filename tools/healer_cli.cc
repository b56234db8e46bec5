// healer — command-line driver for the library.
//
// Flags are parsed strictly: an unknown flag, a missing value, or a value
// that does not parse (numbers must be plain non-negative decimals with no
// trailing bytes) exits 2 with a message naming the flag.
//
//   healer fuzz   [--tool healer|healer-|syzkaller|moonshine]
//                 [--version 4.19|5.0|5.4|5.6|5.11] [--hours H] [--seed N]
//                 [--max-execs N]          # also stop after N fuzz execs
//                 [--corpus-in FILE] [--corpus-out FILE]
//                 [--corpus-format hcorp1|legacy]  # container written by
//                                          # --corpus-out (loading
//                                          # auto-detects; hcorp1 is the
//                                          # mmap-able warm-start format)
//                 [--relations-in FILE]    # warm-start the relation table
//                 [--relations-out FILE]   # save learned relations
//                 [--curve] [--edges]
//                 [--fault-rate P | --faults crash=0.01,timeout=0.005,...]
//                 [--fault-retries N]
//                 [--fleet-size N]         # N guests on reactor shards
//                 [--fleet-shards S]       # (default fleet-size / 256)
//                 [--status-period SECS]   # live status line (simulated s)
//                 [--metrics-out FILE]     # Prometheus text (.json -> JSON)
//                 [--trace-out FILE]       # Chrome trace JSON (Perfetto)
//                 [--journal-out FILE]     # flight-recorder JSONL (.bin ->
//                                          # compact binary frame)
//                 [--journal-capacity N]   # journal ring size (0 disables)
//                 [--postmortem-dir DIR]   # bundle per unique crash
//                 [--http-port P]          # live introspection server on
//                                          # 127.0.0.1:P (0 = ephemeral)
//                 [--serve-secs S]         # keep serving S wall seconds
//                                          # after the campaign ends
//                 [--shards N]             # sharded campaign (DESIGN.md §13):
//                                          # N in-process fuzzer shards
//                                          # exchanging HGSP1 gossip
//                 [--rounds R] [--execs-per-round E] [--fanout F]
//                 [--net-seed S]           # adversarial delivery shuffle
//                 [--reconcile-every K]    # identity check cadence
//                 [--sequential]           # fuzz phase on one thread
//                 # with --shards N > 1 only --seed/--tool/--version and
//                 # the shard flags above are accepted
//   healer relations [--version V] [--probe]      # static (+dynamic) table
//   healer convert HEADER_FILE                    # C header -> HealLang
//   healer replay CORPUS_FILE [--version V]       # run saved programs
//   healer bugs   [--version V]                   # list live injected bugs
//   healer shard  --shard-index I --shards N --gossip-dir DIR
//                 [--rounds R] [--execs-per-round E] [--fanout F] [--seed S]
//                 [--tool T] [--version V] [--poll-timeout SECS]
//                 # one shard as an OS process; gossip batches travel as
//                 # files in DIR (r{round}_s{from}_to{to}.gsp, written
//                 # tmp+rename, polled by the receiver). Run N of these
//                 # with the same flags and distinct --shard-index.
//   healer reconcile --shards N --gossip-dir DIR
//                 # union the shard{I}.rel canonical tables written by
//                 # `healer shard` and print the reconciled hash

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/hash.h"
#include "src/base/introspect_server.h"
#include "src/base/journal.h"
#include "src/exec/executor.h"
#include "src/fuzz/campaign.h"
#include "src/fuzz/corpus_io.h"
#include "src/fuzz/gossip.h"
#include "src/fuzz/learner.h"
#include "src/fuzz/report.h"
#include "src/fuzz/shard.h"
#include "src/fuzz/templates.h"
#include "src/syzlang/builtin_descs.h"
#include "src/syzlang/header_gen.h"

namespace {

using namespace healer;

// Flags of one subcommand: `--name value` pairs, bare `--name` switches and
// at most one positional argument, checked against what the subcommand
// declares. Parsing is strict: an undeclared flag, a value flag without a
// value, or a value its getter cannot read (a number with a sign, trailing
// bytes or out of range; an unknown version or tool) prints one line that
// names the flag and clears ok(). Commands read every flag before doing any
// work and exit 2 when !ok().
class FlagSet {
 public:
  FlagSet(int argc, char** argv, int start,
          std::initializer_list<std::string_view> values,
          std::initializer_list<std::string_view> switches,
          bool positional = false) {
    for (int i = start; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        if (!positional || positional_.has_value()) {
          Fail(std::string(arg), "unexpected argument");
          continue;
        }
        positional_ = std::string(arg);
        continue;
      }
      const std::string name(arg.substr(2));
      if (std::find(switches.begin(), switches.end(), name) !=
          switches.end()) {
        values_[name] = "";
        continue;
      }
      if (std::find(values.begin(), values.end(), name) == values.end()) {
        Fail("--" + name, "unknown flag");
        continue;
      }
      if (i + 1 >= argc) {
        Fail("--" + name, "needs a value");
        continue;
      }
      values_[name] = argv[++i];
    }
  }

  bool ok() const { return ok_; }
  bool Has(const char* name) const { return values_.count(name) != 0; }
  const std::optional<std::string>& positional() const { return positional_; }
  // Names of the flags given on the command line, in name order.
  std::vector<std::string> Given() const {
    std::vector<std::string> names;
    for (const auto& [name, value] : values_) {
      names.push_back(name);
    }
    return names;
  }

  std::string Str(const char* name, const char* fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? std::string(fallback) : it->second;
  }

  // A plain decimal integer in [0, max].
  uint64_t U64(const char* name, uint64_t fallback,
               uint64_t max = UINT64_MAX) {
    auto it = values_.find(name);
    if (it == values_.end()) {
      return fallback;
    }
    const std::string& text = it->second;
    uint64_t value = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (text.empty() || ec != std::errc() ||
        end != text.data() + text.size() || value > max) {
      Fail(std::string("--") + name + " '" + text + "'",
           max == UINT64_MAX
               ? std::string("want a non-negative integer")
               : "want an integer in [0, " + std::to_string(max) + "]");
      return fallback;
    }
    return value;
  }

  // A finite decimal number in [0, max].
  double Double(const char* name, double fallback,
                double max = std::numeric_limits<double>::max()) {
    auto it = values_.find(name);
    if (it == values_.end()) {
      return fallback;
    }
    const std::string& text = it->second;
    double value = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (text.empty() || ec != std::errc() ||
        end != text.data() + text.size() || !std::isfinite(value) ||
        value < 0 || value > max) {
      Fail(std::string("--") + name + " '" + text + "'",
           "want a non-negative number" +
               (max < std::numeric_limits<double>::max()
                    ? " up to " + FormatDouble(max)
                    : std::string()));
      return fallback;
    }
    return value;
  }

  KernelVersion Version() {
    const std::string text = Str("version", "5.11");
    if (text == "4.19") return KernelVersion::kV4_19;
    if (text == "5.0") return KernelVersion::kV5_0;
    if (text == "5.4") return KernelVersion::kV5_4;
    if (text == "5.6") return KernelVersion::kV5_6;
    if (text != "5.11") {
      Fail("--version '" + text + "'", "want 4.19, 5.0, 5.4, 5.6 or 5.11");
    }
    return KernelVersion::kV5_11;
  }

  ToolKind Tool() {
    const std::string text = Str("tool", "healer");
    if (text == "healer-") return ToolKind::kHealerMinus;
    if (text == "syzkaller") return ToolKind::kSyzkaller;
    if (text == "moonshine") return ToolKind::kMoonshine;
    if (text != "healer") {
      Fail("--tool '" + text + "'",
           "want healer, healer-, syzkaller or moonshine");
    }
    return ToolKind::kHealer;
  }

  // Reports a flag the command accepts in general but not in this mode.
  void Reject(const std::string& name, const char* why) {
    Fail("--" + name, why);
  }

 private:
  static std::string FormatDouble(double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", value);
    return buf;
  }
  void Fail(const std::string& what, const std::string& why) {
    std::fprintf(stderr, "healer: %s: %s\n", what.c_str(), why.c_str());
    ok_ = false;
  }

  std::map<std::string, std::string> values_;
  std::optional<std::string> positional_;
  bool ok_ = true;
};

std::vector<int> AllIds(const Target& target) {
  std::vector<int> ids;
  for (const auto& call : target.syscalls()) {
    ids.push_back(call->id);
  }
  return ids;
}

// ---- sharded campaign (fuzz --shards N) ----

void PrintShardedReport(const ShardedCampaignResult& result) {
  const double secs =
      static_cast<double>(result.wall_ns) / 1e9;
  std::printf("shards: %zu\n", result.shards);
  std::printf("total execs: %llu (%.0f execs/sec aggregate)\n",
              static_cast<unsigned long long>(result.total_execs),
              secs > 0 ? static_cast<double>(result.total_execs) / secs : 0);
  std::printf("union coverage: %zu branches\n", result.union_coverage);
  std::printf("union relations: %zu edges (reconciled hash %016llx)\n",
              result.union_relations,
              static_cast<unsigned long long>(
                  result.reconciled_relations_hash));
  std::printf("gossip: %llu bytes, %llu frames applied, %llu replays "
              "dropped\n",
              static_cast<unsigned long long>(result.gossip_bytes),
              static_cast<unsigned long long>(result.frames_exchanged),
              static_cast<unsigned long long>(result.frames_replayed));
  for (size_t i = 0; i < result.shard_coverage.size(); ++i) {
    std::printf("  shard %zu: %zu branches, corpus fingerprint %016llx\n",
                i, result.shard_coverage[i],
                static_cast<unsigned long long>(
                    result.corpus_fingerprints[i]));
  }
  std::printf("identities: %s\n", result.identities_ok ? "OK" : "FAILED");
}

int CmdShardedFuzz(FlagSet& flags, size_t shards) {
  ShardedCampaignOptions options;
  options.shards = shards;
  options.rounds = flags.U64("rounds", 8);
  options.execs_per_round = flags.U64("execs-per-round", 128);
  options.fanout = flags.U64("fanout", 1);
  options.seed = flags.U64("seed", 1);
  options.net_seed = flags.U64("net-seed", 0);
  options.use_threads = !flags.Has("sequential");
  options.reconcile_every = flags.U64("reconcile-every", 4);
  options.base.tool = flags.Tool();
  options.base.version = flags.Version();
  if (!flags.ok()) {
    return 2;
  }

  const ShardedCampaignResult result =
      RunShardedCampaign(BuiltinTarget(), options);
  PrintShardedReport(result);
  return result.identities_ok ? 0 : 1;
}

// ---- file-based gossip transport (multi-process shard mode) ----
//
// Frames travel as files in a shared --gossip-dir: round R's batch from
// shard A to shard B is r{R}_s{A}_to{B}.gsp, written tmp+rename (rename is
// atomic on POSIX, so an openable file is a complete file) and polled for
// by the receiver. A file is written every scheduled edge, even when the
// batch is empty — its appearance is the lockstep barrier.

std::string FramePath(const std::string& dir, size_t round, size_t from,
                      size_t to) {
  char name[64];
  std::snprintf(name, sizeof(name), "r%zu_s%zu_to%zu.gsp", round, from, to);
  return dir + "/" + name;
}

bool WriteFileAtomic(const std::string& path,
                     const std::vector<uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return false;
    }
    if (!bytes.empty()) {
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    if (!out) {
      return false;
    }
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

bool WaitReadFile(const std::string& path, double timeout_secs,
                  std::vector<uint8_t>* out) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_secs);
  for (;;) {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      const std::string& s = buf.str();
      out->assign(s.begin(), s.end());
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

int CmdShard(FlagSet& flags) {
  const size_t n = flags.U64("shards", 0);
  const size_t me = flags.U64("shard-index", 0);
  const std::string dir = flags.Str("gossip-dir", "");
  const size_t rounds = flags.U64("rounds", 8);
  const size_t execs = flags.U64("execs-per-round", 128);
  const size_t fanout = flags.U64("fanout", 1);
  const double timeout = flags.Double("poll-timeout", 120);
  FuzzerOptions base;
  base.tool = flags.Tool();
  base.version = flags.Version();
  // Same seed schedule as the in-process campaign: shard i fuzzes with
  // seed + i, so an N-process run reproduces `fuzz --shards N --sequential`.
  base.seed = flags.U64("seed", 1) + me;
  if (!flags.ok()) {
    return 2;
  }
  if (n < 1 || me >= n || dir.empty()) {
    std::fprintf(stderr,
                 "usage: healer shard --shard-index I --shards N "
                 "--gossip-dir DIR (I < N)\n");
    return 2;
  }
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    return 1;
  }

  const Target& target = BuiltinTarget();
  FuzzShard shard(target, base, static_cast<uint32_t>(me));

  for (size_t round = 0; round < rounds; ++round) {
    shard.RunExecs(execs);
    const std::vector<uint8_t> batch = shard.EmitGossip();
    for (size_t peer : GossipPeers(me, n, fanout, round)) {
      if (!WriteFileAtomic(FramePath(dir, round, me, peer), batch)) {
        std::fprintf(stderr, "shard %zu: cannot write gossip for round "
                     "%zu\n", me, round);
        return 1;
      }
    }
    // Everyone whose schedule lists us this round will write us a file;
    // block until each arrives (the lockstep barrier).
    for (size_t from = 0; from < n; ++from) {
      if (from == me) {
        continue;
      }
      const std::vector<size_t> peers = GossipPeers(from, n, fanout, round);
      if (std::find(peers.begin(), peers.end(), me) == peers.end()) {
        continue;
      }
      std::vector<uint8_t> bytes;
      if (!WaitReadFile(FramePath(dir, round, from, me), timeout, &bytes)) {
        std::fprintf(stderr, "shard %zu: timed out waiting for shard %zu "
                     "in round %zu\n", me, from, round);
        return 1;
      }
      if (!bytes.empty()) {
        const Status status = shard.Ingest(bytes.data(), bytes.size());
        if (!status.ok()) {
          std::fprintf(stderr, "shard %zu: hostile batch from shard %zu: "
                       "%s\n", me, from, status.ToString().c_str());
          return 1;
        }
      }
    }
    shard.ApplyInbox();
  }

  // Final artifacts for `healer reconcile`: the canonical relation table
  // bytes plus a small JSON summary.
  const std::vector<uint8_t> canonical = shard.CanonicalRelationBytes();
  char path[512];
  std::snprintf(path, sizeof(path), "%s/shard%zu.rel", dir.c_str(), me);
  if (!WriteFileAtomic(path, canonical)) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  const bool identity_ok = shard.CheckRelationIdentity();
  std::snprintf(path, sizeof(path), "%s/shard%zu.json", dir.c_str(), me);
  {
    std::ofstream out(path);
    out << "{\"shard\": " << me
        << ", \"execs\": " << shard.fuzzer().FuzzExecs()
        << ", \"coverage\": " << shard.fuzzer().CoverageCount()
        << ", \"relations\": " << shard.fuzzer().relations().Count()
        << ", \"corpus_fingerprint\": \"" << std::hex
        << shard.CorpusFingerprint() << std::dec << "\""
        << ", \"gossip_bytes_out\": " << shard.stats().gossip_bytes_out
        << ", \"identity_ok\": " << (identity_ok ? "true" : "false")
        << "}\n";
  }
  std::printf("shard %zu: %llu execs, %zu branches, %zu relations, "
              "identity %s\n",
              me,
              static_cast<unsigned long long>(shard.fuzzer().FuzzExecs()),
              shard.fuzzer().CoverageCount(),
              shard.fuzzer().relations().Count(),
              identity_ok ? "OK" : "FAILED");
  return identity_ok ? 0 : 1;
}

int CmdReconcile(FlagSet& flags) {
  const size_t n = flags.U64("shards", 0);
  const std::string dir = flags.Str("gossip-dir", "");
  if (!flags.ok()) {
    return 2;
  }
  if (n < 1 || dir.empty()) {
    std::fprintf(stderr,
                 "usage: healer reconcile --shards N --gossip-dir DIR\n");
    return 2;
  }
  const Target& target = BuiltinTarget();
  std::set<std::pair<uint32_t, uint32_t>> unioned;
  for (size_t i = 0; i < n; ++i) {
    char path[512];
    std::snprintf(path, sizeof(path), "%s/shard%zu.rel", dir.c_str(), i);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s (did every shard finish?)\n",
                   path);
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string& s = buf.str();
    const std::vector<uint8_t> bytes(s.begin(), s.end());
    // Shard artifacts cross a filesystem boundary, so they get the same
    // hostile-input treatment as gossip frames off the wire.
    Result<std::vector<WireRelationEdge>> edges =
        DecodeRelationsPayload(bytes, target.NumSyscalls());
    if (!edges.ok()) {
      std::fprintf(stderr, "%s: %s\n", path,
                   edges.status().ToString().c_str());
      return 1;
    }
    std::printf("shard %zu: %zu edges\n", i, edges->size());
    for (const WireRelationEdge& e : *edges) {
      unioned.insert({e.from, e.to});
    }
  }
  std::vector<RelationEdge> all;
  all.reserve(unioned.size());
  for (const auto& [from, to] : unioned) {
    all.push_back({static_cast<int>(from), static_cast<int>(to),
                   RelationSource::kDynamic, 0});
  }
  const std::vector<uint8_t> canonical = EncodeRelationsPayload(all);
  const uint64_t hash = FastBytesHash(std::string_view(
      reinterpret_cast<const char*>(canonical.data()), canonical.size()));
  std::printf("reconciled: %zu edges, hash %016llx\n", unioned.size(),
              static_cast<unsigned long long>(hash));
  return 0;
}

// `fuzz` flags split by mode: a sharded campaign (--shards N > 1) reads the
// common and shard-only flags and rejects the rest; a single campaign
// rejects the shard-only ones.
constexpr std::string_view kCommonFuzzFlags[] = {"seed", "shards", "tool",
                                                 "version"};
constexpr std::string_view kShardOnlyFuzzFlags[] = {
    "execs-per-round", "fanout", "net-seed", "reconcile-every", "rounds",
    "sequential"};

template <size_t N>
bool Contains(const std::string_view (&names)[N], std::string_view name) {
  return std::find(std::begin(names), std::end(names), name) !=
         std::end(names);
}

int CmdFuzz(FlagSet& flags) {
  const size_t shards = flags.U64("shards", 1);
  for (const std::string& name : flags.Given()) {
    const bool shard_only = Contains(kShardOnlyFuzzFlags, name);
    if (shards > 1 && !shard_only && !Contains(kCommonFuzzFlags, name)) {
      flags.Reject(name, "not supported with --shards N > 1");
    } else if (shards <= 1 && shard_only) {
      flags.Reject(name, "needs --shards N > 1");
    }
  }
  if (shards > 1) {
    return CmdShardedFuzz(flags, shards);
  }
  CampaignOptions options;
  options.tool = flags.Tool();
  options.version = flags.Version();
  options.hours = flags.Double("hours", 4);
  options.seed = flags.U64("seed", 1);
  options.max_execs = flags.U64("max-execs", options.max_execs);
  options.initial_corpus_path = flags.Str("corpus-in", "");
  options.save_corpus_path = flags.Str("corpus-out", "");
  {
    Result<CorpusFormat> format =
        ParseCorpusFormat(flags.Str("corpus-format", "legacy"));
    if (!format.ok()) {
      std::fprintf(stderr, "bad --corpus-format: %s\n",
                   format.status().ToString().c_str());
      return 2;
    }
    options.corpus_format = *format;
  }
  options.initial_relations_path = flags.Str("relations-in", "");
  options.save_relations_path = flags.Str("relations-out", "");

  // Fault injection: --fault-rate P applies one rate to every kind;
  // --faults gives per-kind rates ("crash=0.01,timeout=0.005").
  if (flags.Has("fault-rate")) {
    options.fault_plan = FaultPlan::Uniform(flags.Double("fault-rate", 0, 1));
  }
  const std::string fault_spec = flags.Str("faults", "");
  if (!fault_spec.empty()) {
    Result<FaultPlan> plan = ParseFaultPlan(fault_spec);
    if (!plan.ok()) {
      std::fprintf(stderr, "bad --faults: %s\n",
                   plan.status().ToString().c_str());
      return 2;
    }
    options.fault_plan = *plan;
  }
  options.recovery.max_retries = static_cast<int>(
      flags.U64("fault-retries", 3, std::numeric_limits<int>::max()));

  // Fleet topology: --fleet-size N simulates N guests on the reactor
  // shards (0 = legacy pinned pool); --fleet-shards overrides the
  // auto-derived shard count (fleet_size / 256).
  options.fleet_size = flags.U64("fleet-size", 0);
  options.fleet_shards = flags.U64("fleet-shards", 0);

  // Telemetry surfaces: live status, metric dump, span trace.
  const double status_secs = flags.Double("status-period", 0);
  if (status_secs > 0) {
    options.status_period = static_cast<SimClock::Nanos>(
        status_secs * static_cast<double>(SimClock::kSecond));
  }
  const std::string metrics_out = flags.Str("metrics-out", "");
  const std::string trace_out = flags.Str("trace-out", "");
  options.capture_trace = !trace_out.empty();

  // Flight recorder and crash postmortems.
  const std::string journal_out = flags.Str("journal-out", "");
  options.journal_capacity = flags.U64("journal-capacity", 4096);
  options.postmortem_dir = flags.Str("postmortem-dir", "");
  const bool serve = flags.Has("http-port");
  const uint16_t http_port =
      static_cast<uint16_t>(flags.U64("http-port", 0, 65535));
  const double serve_secs = flags.Double("serve-secs", 0);
  if (!flags.ok()) {
    return 2;
  }

  // Live introspection: --http-port binds a localhost-only HTTP server
  // (port 0 picks an ephemeral one; the bound port goes to stderr so
  // scripts can scrape it). The campaign publishes snapshots into the hub
  // at every sample point; the server answers from them off the hot path.
  IntrospectionHub hub;
  IntrospectServer server(&hub);
  if (serve) {
    if (!server.Start(http_port)) {
      std::fprintf(stderr, "cannot bind introspection server (port %u)\n",
                   static_cast<unsigned>(http_port));
      return 1;
    }
    std::fprintf(stderr, "introspection server listening on 127.0.0.1:%u\n",
                 static_cast<unsigned>(server.port()));
    std::fflush(stderr);
    options.introspect = &hub;
  }

  const CampaignResult result = RunCampaign(options);
  ReportOptions ropts;
  ropts.include_samples = flags.Has("curve");
  ropts.include_relations = flags.Has("edges");
  std::fputs(FormatCampaignReport(result, ropts).c_str(), stdout);

  if (!metrics_out.empty()) {
    // A .json suffix selects the JSON encoding; anything else gets the
    // Prometheus text exposition format.
    const bool json = metrics_out.size() >= 5 &&
                      metrics_out.compare(metrics_out.size() - 5, 5,
                                          ".json") == 0;
    std::ofstream out(metrics_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    out << (json ? result.telemetry.ToJson()
                 : result.telemetry.ToPrometheusText());
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    out << TraceEventsToChromeJson(result.trace_events);
  }
  if (!journal_out.empty()) {
    // A .bin suffix selects the compact binary frame; anything else JSONL.
    const bool bin = journal_out.size() >= 4 &&
                     journal_out.compare(journal_out.size() - 4, 4,
                                         ".bin") == 0;
    std::ofstream out(journal_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", journal_out.c_str());
      return 1;
    }
    out << (bin ? JournalRecordsToBinary(result.journal)
                : JournalRecordsToJsonl(result.journal));
  }
  if (server.running()) {
    if (serve_secs > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(serve_secs));
    }
    server.Stop();
  }
  return 0;
}

int CmdRelations(FlagSet& flags) {
  const KernelVersion version = flags.Version();
  if (!flags.ok()) {
    return 2;
  }
  const Target& target = BuiltinTarget();
  RelationTable table(target.NumSyscalls());
  const size_t statics = StaticRelationLearn(target, &table);
  std::printf("# static relations: %zu\n", statics);
  if (flags.Has("probe")) {
    Executor executor(target, KernelConfig::ForVersion(version));
    SimClock clock;
    DynamicLearner learner(
        &table, [&](const Prog& p) { return executor.Run(p, nullptr); },
        &clock);
    Rng rng(1);
    size_t dynamic = 0;
    for (const auto& chain : TemplateChains()) {
      Prog prog = BuildChain(target, AllIds(target), chain, &rng);
      if (!prog.empty()) {
        dynamic += learner.Learn(prog);
      }
    }
    std::printf("# dynamic relations from template probing: %zu\n", dynamic);
  }
  for (const RelationEdge& edge : table.EdgesBefore()) {
    std::printf("%s %s\n", target.syscall(edge.from).name.c_str(),
                target.syscall(edge.to).name.c_str());
  }
  return 0;
}

int CmdConvert(FlagSet& flags) {
  if (!flags.ok()) {
    return 2;
  }
  if (!flags.positional().has_value()) {
    std::fprintf(stderr, "usage: healer convert HEADER_FILE\n");
    return 2;
  }
  const std::string& path = *flags.positional();
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto converted = ConvertHeaderToDescriptions(buf.str());
  if (!converted.ok()) {
    std::fprintf(stderr, "conversion failed: %s\n",
                 converted.status().ToString().c_str());
    return 1;
  }
  std::fputs(converted->c_str(), stdout);
  return 0;
}

int CmdReplay(FlagSet& flags) {
  const KernelVersion version = flags.Version();
  if (!flags.ok()) {
    return 2;
  }
  if (!flags.positional().has_value()) {
    std::fprintf(stderr, "usage: healer replay CORPUS_FILE [--version V]\n");
    return 2;
  }
  const Target& target = BuiltinTarget();
  size_t skipped = 0;
  auto progs = LoadProgs(*flags.positional(), target, &skipped);
  if (!progs.ok()) {
    std::fprintf(stderr, "%s\n", progs.status().ToString().c_str());
    return 1;
  }
  Executor executor(target, KernelConfig::ForVersion(version));
  Bitmap coverage(CallCoverage::kMapBits);
  size_t crashes = 0;
  for (const Prog& prog : *progs) {
    const ExecResult result = executor.Run(prog, &coverage);
    if (result.Crashed()) {
      ++crashes;
      std::printf("CRASH %s\n%s", result.crash->title.c_str(),
                  prog.ToString().c_str());
    }
  }
  std::printf("replayed %zu programs (%zu skipped): %zu branches, "
              "%zu crashes\n",
              progs->size(), skipped, coverage.Count(), crashes);
  return 0;
}

int CmdBugs(FlagSet& flags) {
  const KernelVersion version = flags.Version();
  if (!flags.ok()) {
    return 2;
  }
  std::printf("%-55s %-25s %-9s %s\n", "title", "class", "subsystem",
              "min-repro");
  size_t live = 0;
  for (const BugInfo& info : AllBugs()) {
    if (!BugLiveIn(info.id, version)) {
      continue;
    }
    ++live;
    std::printf("%-55s %-25s %-9s %d\n", info.title,
                BugClassName(info.bug_class), info.subsystem,
                info.repro_len);
  }
  std::printf("# %zu bugs live in v%s\n", live, KernelVersionName(version));
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: healer <fuzz|relations|convert|replay|bugs|"
               "shard|reconcile> [flags]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "fuzz") {
    FlagSet flags(argc, argv, 2,
                  {"corpus-format", "corpus-in", "corpus-out",
                   "execs-per-round", "fanout", "fault-rate", "fault-retries",
                   "faults", "fleet-shards", "fleet-size", "hours",
                   "http-port", "journal-capacity", "journal-out",
                   "max-execs", "metrics-out", "net-seed", "postmortem-dir",
                   "reconcile-every", "relations-in", "relations-out",
                   "rounds", "seed", "serve-secs", "shards", "status-period",
                   "tool", "trace-out", "version"},
                  {"curve", "edges", "sequential"});
    return CmdFuzz(flags);
  }
  if (cmd == "relations") {
    FlagSet flags(argc, argv, 2, {"version"}, {"probe"});
    return CmdRelations(flags);
  }
  if (cmd == "convert") {
    FlagSet flags(argc, argv, 2, {}, {}, /*positional=*/true);
    return CmdConvert(flags);
  }
  if (cmd == "replay") {
    FlagSet flags(argc, argv, 2, {"version"}, {}, /*positional=*/true);
    return CmdReplay(flags);
  }
  if (cmd == "bugs") {
    FlagSet flags(argc, argv, 2, {"version"}, {});
    return CmdBugs(flags);
  }
  if (cmd == "shard") {
    FlagSet flags(argc, argv, 2,
                  {"execs-per-round", "fanout", "gossip-dir", "poll-timeout",
                   "rounds", "seed", "shard-index", "shards", "tool",
                   "version"},
                  {});
    return CmdShard(flags);
  }
  if (cmd == "reconcile") {
    FlagSet flags(argc, argv, 2, {"gossip-dir", "shards"}, {});
    return CmdReconcile(flags);
  }
  Usage();
  return 2;
}
