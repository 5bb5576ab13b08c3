// One repetition of one benchmark workload on the deterministic simulator:
// set the system up, load it, drive the YCSB closed loop, check the outputs
// and print one JSON line of measurements. perfbench/run.py repeats this
// process for the requested wall time, takes medians and prints the result.
//
//   perfbench_rep --workload <name> [--seed N] [--world-seed N] [--trace 0|1]
//                 [--out DIR] [--tamper-check]
//
// --seed seeds the workload generator (the inputs), --world-seed the
// simulator (network jitter, query/txn coin flips). With --trace 1 the
// world's TraceSink/MetricsRegistry are attached, the benchmark records
// host-clock spans around its own calls into each layer, replays the
// stressed layers' public functions on the run's outputs, and writes the
// virtual-clock trace, the metrics snapshot and the host spans under --out.
// --tamper-check audits a tampered copy of a replica's chain instead of the
// real one; the audit must trip, so the process exits non-zero.
//
// Exit codes: 0 ok, 1 usage error, 2 an output check failed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adt/mpt.h"
#include "bench_util.h"
#include "storage/btree/btree.h"
#include "testing/invariants.h"
#include "txn/mvcc.h"

namespace dicho::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using sim::Time;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct WorkloadSpec {
  const char* name;
  const char* system;
  uint32_t nodes;
  uint32_t aux_nodes;
  uint64_t records;
  size_t record_size;
  double theta;
  int ops_per_txn;
  double query_fraction;
  Time warmup;
  Time measure;
};

// Each workload is shaped to stress a different src/ module;
// perfbench/layers.json records why, what each should move and what the
// traced baseline measured.
// Windows are long enough for well over 1000 commits, so p99 has at least
// ten samples beyond it.
constexpr WorkloadSpec kWorkloads[] = {
    // MPT batched commits + SHA-256 over 5000 B values; few sim events.
    {"large-value-harmony", "harmonylike", 5, 0, 10000, 5000, 0.0, 1, 0.0,
     1 * sim::kSec, 3 * sim::kSec},
    // 64-way Raft: consensus, network, engine, and a B-tree apply per replica.
    {"wide-raft-etcd", "etcd", 64, 0, 10000, 100, 0.0, 1, 0.0, 1 * sim::kSec,
     4 * sim::kSec},
    // Zipf 0.9 RMW: OCC validation aborts, endorsement hashing, ordering.
    {"skew-occ-fabric", "fabric", 5, 0, 20000, 1000, 0.9, 1, 0.0,
     2 * sim::kSec, 20 * sim::kSec},
    // 2-op RMW Percolator txns beside 50% point queries on MVCC regions.
    {"mixed-rw-tidb", "tidb", 5, 5, 20000, 100, 0.9, 2, 0.5, 1 * sim::kSec,
     15 * sim::kSec},
};
constexpr size_t kClients = 400;
constexpr Time kElectionWarmup = 1 * sim::kSec;
// Setup is repeated (fresh world each time) until this much host time has
// been spent, at most kMaxSetups times, so cheap setups report a median.
constexpr double kSetupBudgetS = 0.3;
constexpr int kMaxSetups = 20;
// Virtual time allowed after the run for every request to resolve.
constexpr int kDrainSeconds = 60;

/// Host-clock spans the benchmark records around its own calls into each
/// layer (traced runs only). Kept in memory; written as Chrome trace JSON
/// when the run ends. Parent = the innermost span open at the time.
class HostSpans {
 public:
  explicit HostSpans(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  void Open(const char* name) {
    if (!enabled_) return;
    spans_.push_back(Span{name, spans_.size() + 1, Parent(), Now(), 0});
    open_.push_back(spans_.size() - 1);
  }
  void Close() {
    if (!enabled_) return;
    spans_[open_.back()].t1_ns = Now();
    open_.pop_back();
  }
  /// A finished span under the innermost open one (generator calls).
  void Add(const char* name, int64_t t0_ns, int64_t t1_ns) {
    if (!enabled_) return;
    spans_.push_back(Span{name, spans_.size() + 1, Parent(), t0_ns, t1_ns});
  }

  bool Write(const std::string& path) const {
    FILE* f = fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      fprintf(f,
              "%s\n{\"name\":\"%s\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":%.3f,"
              "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%llu,"
              "\"parent\":%llu}}",
              i == 0 ? "" : ",", s.name, s.t0_ns / 1e3,
              (s.t1_ns - s.t0_ns) / 1e3, static_cast<unsigned long long>(s.id),
              static_cast<unsigned long long>(s.parent));
    }
    fprintf(f, "\n]}\n");
    return fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    uint64_t id;
    uint64_t parent;
    int64_t t0_ns;
    int64_t t1_ns;
  };
  uint64_t Parent() const {
    return open_.empty() ? 0 : spans_[open_.back()].id;
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

class SpanScope {
 public:
  SpanScope(HostSpans* spans, const char* name) : spans_(spans) {
    spans_->Open(name);
  }
  ~SpanScope() { spans_->Close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  HostSpans* spans_;
};

bool IsConcurrencyAbort(core::AbortReason reason) {
  return reason == core::AbortReason::kWriteConflict ||
         reason == core::AbortReason::kReadConflict ||
         reason == core::AbortReason::kInconsistentEndorsement ||
         reason == core::AbortReason::kContention;
}

/// Pass-through system that accounts for every request exactly once: each
/// Submit/Query opens a slot and each callback must close an open one. It
/// also tallies, with the driver's window filter, the outcomes the driver
/// should report, and (when asked) keeps committed writes and served reads
/// for the layer replays.
class CountingSystem : public core::TransactionalSystem {
 public:
  struct Tally {
    uint64_t committed = 0;
    uint64_t aborted = 0;
    uint64_t rejected = 0;
    uint64_t queries = 0;
    uint64_t failed_queries = 0;
    /// Errors other than a concurrency-control abort or a shed.
    uint64_t errors = 0;
    std::map<core::AbortReason, uint64_t> aborts_by_reason;
  };

  CountingSystem(core::TransactionalSystem* inner, size_t clients,
                 bool keep_ops)
      : inner_(inner), clients_(clients), keep_ops_(keep_ops) {}

  void SetWindow(Time start, Time end) {
    window_start_ = start;
    window_end_ = end;
  }

  void Submit(const core::TxnRequest& request, core::TxnCallback cb) override {
    const size_t slot = Open();
    std::vector<core::Op> ops;
    if (keep_ops_) ops = request.ops;
    inner_->Submit(request, [this, slot, ops = std::move(ops),
                             cb = std::move(cb)](const core::TxnResult& r) {
      Close(slot);
      const bool shed = r.reason == core::AbortReason::kAdmissionReject;
      Tally* tallies[] = {&total_, InWindow(r.finish_time) ? &window_ : nullptr};
      for (Tally* t : tallies) {
        if (t == nullptr) continue;
        if (shed) {
          t->rejected++;
        } else if (r.status.ok()) {
          t->committed++;
        } else {
          t->aborted++;
          t->aborts_by_reason[r.reason]++;
          if (!IsConcurrencyAbort(r.reason)) t->errors++;
        }
      }
      if (r.status.ok()) {
        for (const core::Op& op : ops) {
          if (op.type != core::OpType::kRead) writes_.emplace_back(op.key, op.value);
        }
      }
      cb(r);
    });
  }

  void Query(const core::ReadRequest& request, core::ReadCallback cb) override {
    const size_t slot = Open();
    std::string key = keep_ops_ ? request.key : std::string();
    inner_->Query(request, [this, slot, key = std::move(key),
                            cb = std::move(cb)](const core::ReadResult& r) {
      Close(slot);
      Tally* tallies[] = {&total_, InWindow(r.finish_time) ? &window_ : nullptr};
      for (Tally* t : tallies) {
        if (t == nullptr) continue;
        t->queries++;
        if (!r.status.ok()) t->failed_queries++;
        // A read blocked by a lock (Conflict) is a concurrency outcome.
        if (!r.status.ok() && !r.status.IsConflict()) t->errors++;
      }
      if (r.status.ok() && keep_ops_) reads_.push_back(key);
      cb(r);
    });
  }

  const core::SystemStats& stats() const override { return inner_->stats(); }
  std::string name() const override { return inner_->name(); }
  void Load(const std::string& key, const std::string& value) override {
    inner_->Load(key, value);
  }

  uint64_t opened() const { return resolved_.size(); }
  uint64_t in_flight() const { return opened() - closed_; }
  const Tally& total() const { return total_; }
  const Tally& window() const { return window_; }
  const std::vector<std::string>& violations() const { return violations_; }
  const std::vector<std::pair<std::string, std::string>>& writes() const {
    return writes_;
  }
  const std::vector<std::string>& reads() const { return reads_; }

 private:
  size_t Open() {
    resolved_.push_back(false);
    if (in_flight() > clients_) {
      Violation("more requests in flight than closed-loop clients");
    }
    return resolved_.size() - 1;
  }
  void Close(size_t slot) {
    if (resolved_[slot]) {
      Violation("request " + std::to_string(slot) + " resolved twice");
      return;
    }
    resolved_[slot] = true;
    closed_++;
  }
  void Violation(const std::string& what) {
    if (violations_.size() < 8) violations_.push_back(what);
  }
  bool InWindow(Time t) const { return t >= window_start_ && t < window_end_; }

  core::TransactionalSystem* inner_;
  size_t clients_;
  bool keep_ops_;
  Time window_start_ = 0;
  Time window_end_ = 0;
  std::vector<bool> resolved_;
  uint64_t closed_ = 0;
  Tally total_;
  Tally window_;
  std::vector<std::string> violations_;
  std::vector<std::pair<std::string, std::string>> writes_;
  std::vector<std::string> reads_;
};

struct Args {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  uint64_t world_seed = 42;
  bool traced = false;
  bool tamper_check = false;
  std::string out = ".";
};

/// One set-up world. `system` is declared after `world` so it is destroyed
/// first (systems hold pointers into the simulator).
struct Instance {
  std::unique_ptr<bench::World> world;
  std::unique_ptr<core::TransactionalSystem> system;
  std::unique_ptr<workload::YcsbWorkload> workload;
};

struct SetupTimes {
  double construct_s = 0;
  double warmup_s = 0;
  double load_s = 0;
  double total() const { return construct_s + warmup_s + load_s; }
};

workload::YcsbConfig YcsbFor(const WorkloadSpec& spec) {
  workload::YcsbConfig cfg;
  cfg.record_count = spec.records;
  cfg.record_size = spec.record_size;
  cfg.theta = spec.theta;
  cfg.ops_per_txn = spec.ops_per_txn;
  return cfg;
}

Instance SetUp(const Args& args, HostSpans* spans, SetupTimes* times) {
  const WorkloadSpec& spec = *args.spec;
  Instance inst;
  inst.world = std::make_unique<bench::World>(args.world_seed);
  if (args.traced) inst.world->EnableObservability();
  bench::World& w = *inst.world;

  auto t0 = Clock::now();
  {
    SpanScope span(spans, "runtime.MakeSystem");
    systems::runtime::SystemOverrides overrides;
    overrides.nodes = spec.nodes;
    overrides.aux_nodes = spec.aux_nodes;
    inst.system = systems::runtime::MakeSystem(spec.system, &w.sim, &w.net,
                                               &w.costs, overrides);
  }
  times->construct_s = SecondsSince(t0);

  t0 = Clock::now();
  {
    SpanScope span(spans, "system.Start");
    inst.system->Start();
  }
  {
    SpanScope span(spans, "sim.election_warmup");
    w.sim.RunFor(kElectionWarmup);
  }
  times->warmup_s = SecondsSince(t0);

  t0 = Clock::now();
  {
    SpanScope span(spans, "system.Load");
    inst.workload =
        std::make_unique<workload::YcsbWorkload>(YcsbFor(spec), args.seed);
    bench::LoadYcsb(inst.system.get(), inst.workload.get(), spec.records);
  }
  times->load_s = SecondsSince(t0);
  return inst;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0 : (n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Flat name -> value record, printed as one JSON object.
class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    std::string quoted;
    quoted += '"';
    quoted += v;
    quoted += '"';
    Raw(key, quoted);
  }
  void Raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += v;
  }
  std::string ToString() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string PhaseMetricName(core::Phase phase, const char* suffix) {
  std::string name = core::PhaseName(phase);
  std::replace(name.begin(), name.end(), '+', '_');
  return "phase." + name + "." + suffix;
}

std::vector<const ledger::Chain*> ChainsOf(const WorkloadSpec& spec,
                                           core::TransactionalSystem* system) {
  std::vector<const ledger::Chain*> chains;
  if (auto* h = dynamic_cast<systems::HarmonySystem*>(system)) {
    for (sim::NodeId id : h->node_ids()) chains.push_back(&h->chain_of(id));
  } else if (auto* f = dynamic_cast<systems::FabricSystem*>(system)) {
    for (uint32_t i = 0; i < spec.nodes; i++) {
      chains.push_back(&f->chain_of(systems::runtime::kReplicaBase + i));
    }
  }
  return chains;
}

/// Ledger audits (hash links, Merkle roots, prefix agreement) over every
/// replica, plus the per-system state checks. With --tamper-check the audit
/// runs on a copy of the first chain with one write-set byte flipped.
void CheckReplicas(const Args& args, core::TransactionalSystem* system,
                   testing::InvariantReport* report) {
  std::vector<const ledger::Chain*> chains = ChainsOf(*args.spec, system);
  ledger::Chain tampered;
  if (args.tamper_check) {
    if (chains.empty() || chains[0]->height() == 0) {
      report->Add("tamper-check", "workload has no chain to tamper with");
      return;
    }
    tampered = *chains[0];
    for (uint64_t h = tampered.height(); h-- > 0;) {
      ledger::Block* block = tampered.MutableBlockForTest(h);
      if (!block->txns.empty() && !block->txns[0].write_set.empty()) {
        block->txns[0].write_set[0].second[0] ^= 1;
        break;
      }
    }
    chains[0] = &tampered;
  }
  for (size_t i = 0; i < chains.size(); i++) {
    if (chains[i]->height() == 0) {
      report->Add("ledger-empty", "replica " + std::to_string(i) + " has no blocks");
    }
    testing::ledger_audit::AuditChain(*chains[i], "replica " + std::to_string(i),
                                      report);
  }
  if (dynamic_cast<systems::FabricSystem*>(system) != nullptr) {
    // Fabric peers build their own blocks from the orderer's batches and
    // stamp their local commit time into each header, so header hashes
    // differ across peers by construction. Agreement is checked on the
    // ordered content instead: the txn root covers every txn and its
    // validity flag.
    for (size_t i = 1; i < chains.size(); i++) {
      const uint64_t common = std::min(chains[0]->height(), chains[i]->height());
      for (uint64_t h = 0; h < common; h++) {
        if (chains[0]->block(h).header.txn_root != chains[i]->block(h).header.txn_root) {
          report->Add("ledger-agreement", "peers 0/" + std::to_string(i) +
                                              " disagree on block " +
                                              std::to_string(h) + " content");
          break;
        }
      }
    }
  } else {
    testing::ledger_audit::CheckPrefixAgreement(chains, report);
  }

  if (auto* h = dynamic_cast<systems::HarmonySystem*>(system)) {
    const crypto::Digest root = h->state_of(h->node_ids()[0]).RootDigest();
    for (sim::NodeId id : h->node_ids()) {
      if (h->state_of(id).RootDigest() != root) {
        report->Add("state-root", "replica " + std::to_string(id) +
                                      " MPT root differs from replica 0");
      }
    }
  }
  if (auto* e = dynamic_cast<systems::EtcdSystem*>(system)) {
    // Full replication: every replica's B-tree holds the same records.
    auto digest_of = [](storage::btree::BTree* tree) {
      crypto::Sha256 hasher;
      auto it = tree->NewIterator();
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        hasher.Update(it->key());
        hasher.Update(it->value());
      }
      return hasher.Finish();
    };
    const crypto::Digest first = digest_of(e->state_of(0));
    for (uint32_t i = 1; i < args.spec->nodes; i++) {
      if (digest_of(e->state_of(i)) != first) {
        report->Add("state-replicas", "etcd replica " + std::to_string(i) +
                                          " state differs from replica 0");
      }
    }
  }
}

/// Host time of one layer replay and the operations it covered.
struct Replay {
  uint64_t ops = 0;
  double seconds = 0;
  double NsPerOp() const { return Ratio(seconds * 1e9, ops); }
};

/// The population exactly as SetUp loaded it (same generator, same seed).
std::vector<std::pair<std::string, std::string>> Population(
    const WorkloadSpec& spec, uint64_t seed) {
  workload::YcsbWorkload regen(YcsbFor(spec), seed);
  std::vector<std::pair<std::string, std::string>> records;
  records.reserve(spec.records);
  for (uint64_t i = 0; i < spec.records; i++) {
    records.emplace_back(regen.KeyAt(i), regen.RandomValue());
  }
  return records;
}

/// ADT: a fresh MPT holding the population commits each block's valid
/// write sets as one batch, the way every harmonylike replica does, and
/// must reproduce each header's state digest (the ledger-state audit of
/// testing::ledger_audit::CheckStateDigests, on the batched commit path).
Replay ReplayMpt(const WorkloadSpec& spec, uint64_t seed,
                 const ledger::Chain& chain, testing::InvariantReport* report) {
  adt::MerklePatriciaTrie trie;
  for (const auto& [key, value] : Population(spec, seed)) trie.Put(key, value);
  Replay r;
  const auto t0 = Clock::now();
  for (uint64_t h = 0; h < chain.height(); h++) {
    const ledger::Block& block = chain.block(h);
    for (const auto& txn : block.txns) {
      if (!txn.valid) continue;
      for (const auto& [key, value] : txn.write_set) {
        trie.StagePut(key, value);
        r.ops++;
      }
    }
    trie.CommitBatch();
    if (trie.RootDigest() != block.header.state_digest) {
      report->Add("ledger-state", "block " + std::to_string(h) +
                                      " state_digest does not match MPT replay");
      break;
    }
  }
  r.seconds = SecondsSince(t0);
  return r;
}

/// Storage: every etcd replica applies every committed write to its own
/// B-tree. Replays that on one population-loaded tree per replica, in the
/// same interleaving (each write to every tree in turn).
Replay ReplayBTree(const WorkloadSpec& spec, uint64_t seed,
                   const std::vector<std::pair<std::string, std::string>>& writes) {
  std::vector<std::unique_ptr<storage::btree::BTree>> trees;
  const auto population = Population(spec, seed);
  for (uint32_t i = 0; i < spec.nodes; i++) {
    trees.push_back(std::make_unique<storage::btree::BTree>());
    for (const auto& [key, value] : population) trees.back()->Put(key, value);
  }
  Replay r;
  const auto t0 = Clock::now();
  for (const auto& [key, value] : writes) {
    for (auto& tree : trees) tree->Put(key, value);
  }
  r.seconds = SecondsSince(t0);
  r.ops = writes.size() * trees.size();
  return r;
}

/// Transactions: a fresh MVCC store holding the population takes tidb's
/// committed writes (prewrite + commit) and served reads (snapshot gets).
Replay ReplayMvcc(const WorkloadSpec& spec, uint64_t seed,
                  const CountingSystem& counting, testing::InvariantReport* report) {
  txn::MvccStore store;
  uint64_t ts = 1;
  auto put = [&](const std::string& key, const std::string& value) {
    const uint64_t start = ts++;
    return store.Prewrite(key, value, start, key, start).ok() &&
           store.Commit(key, start, ts++).ok();
  };
  for (const auto& [key, value] : Population(spec, seed)) put(key, value);
  Replay r;
  const auto t0 = Clock::now();
  for (const auto& [key, value] : counting.writes()) {
    if (!put(key, value)) {
      report->Add("replay-mvcc", "prewrite/commit failed for " + key);
      break;
    }
    r.ops++;
  }
  std::string value;
  for (const std::string& key : counting.reads()) {
    if (!store.GetSnapshot(key, ts, &value).ok()) {
      report->Add("replay-mvcc", "snapshot read failed for " + key);
      break;
    }
    r.ops++;
  }
  r.seconds = SecondsSince(t0);
  return r;
}

/// One Driver::Run: what it produced and what it cost the host.
struct Drive {
  workload::RunMetrics m;
  uint64_t issued = 0;  // generator calls = client requests submitted
  int64_t gen_ns = 0;   // host time inside the generators (traced only)
  double wall_s = 0;
  uint64_t events = 0;
  uint64_t msgs = 0;
  uint64_t delivered = 0;
  uint64_t bytes = 0;
  double peak_rss_mb = 0;
};

/// Drives the closed loop through `counting`, then lets the simulation
/// run on until every request has resolved (the driver object must outlive
/// every callback it is owed).
Drive DriveWorkload(const WorkloadSpec& spec, Instance& inst,
                    CountingSystem* counting, HostSpans* spans) {
  bench::World& w = *inst.world;
  workload::YcsbWorkload& wl = *inst.workload;
  Drive d;
  // Counts every generator call as one issued request and, when traced,
  // times it as a workload-layer span.
  auto generate = [&](const char* name, auto next) {
    d.issued++;
    if (!spans->enabled()) return next();
    const int64_t t0 = spans->Now();
    auto req = next();
    const int64_t t1 = spans->Now();
    d.gen_ns += t1 - t0;
    spans->Add(name, t0, t1);
    return req;
  };
  workload::Driver::TxnGen txn_gen = [&] {
    return generate("workload.NextTxn", [&] { return wl.NextTxn(); });
  };
  workload::Driver::ReadGen read_gen;
  if (spec.query_fraction > 0) {
    read_gen = [&] {
      return generate("workload.NextRead", [&] { return wl.NextRead(); });
    };
  }
  workload::DriverConfig dcfg;
  dcfg.num_clients = kClients;
  dcfg.warmup = spec.warmup;
  dcfg.measure = spec.measure;
  dcfg.query_fraction = spec.query_fraction;
  counting->SetWindow(w.sim.Now() + spec.warmup,
                      w.sim.Now() + spec.warmup + spec.measure);
  workload::Driver driver(&w.sim, counting, txn_gen, read_gen, dcfg);

  const uint64_t events0 = w.sim.executed_events();
  const uint64_t msgs0 = w.net.messages_sent();
  const uint64_t delivered0 = w.net.messages_delivered();
  const uint64_t bytes0 = w.net.bytes_sent();
  const auto t0 = Clock::now();
  {
    SpanScope span(spans, "workload.Driver.Run");
    d.m = driver.Run();
  }
  d.wall_s = SecondsSince(t0);
  d.events = w.sim.executed_events() - events0;
  d.msgs = w.net.messages_sent() - msgs0;
  d.delivered = w.net.messages_delivered() - delivered0;
  d.bytes = w.net.bytes_sent() - bytes0;
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  d.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  for (int s = 0; s < kDrainSeconds && counting->in_flight() > 0; s++) {
    w.sim.RunFor(1 * sim::kSec);
  }
  return d;
}

/// Request accounting: every request resolved exactly once, the driver's
/// window counts match the outcomes seen, and the totals match stats().
void CheckCounts(const Drive& d, const CountingSystem& counting,
                 const core::SystemStats& st, testing::InvariantReport* report) {
  for (const std::string& v : counting.violations()) report->Add("exactly-once", v);
  auto expect = [report](const char* what, uint64_t got, uint64_t want) {
    if (got != want) {
      report->Add("counts", std::string(what) + ": " + std::to_string(got) +
                                " != " + std::to_string(want));
    }
  };
  const auto& total = counting.total();
  const auto& win = counting.window();
  expect("requests never resolved", counting.in_flight(), 0);
  expect("generator calls vs requests seen", d.issued, counting.opened());
  expect("stats().committed", st.committed, total.committed);
  expect("stats().aborted", st.aborted, total.aborted);
  expect("stats().queries", st.queries, total.queries);
  expect("driver committed", d.m.committed, win.committed);
  expect("driver aborted", d.m.aborted, win.aborted);
  expect("driver rejected", d.m.rejected, win.rejected);
  expect("driver queries", d.m.query_latency_us.count(), win.queries);
  if (d.m.aborts_by_reason != win.aborts_by_reason) {
    report->Add("counts", "driver aborts_by_reason differ from observed outcomes");
  }
  if (d.m.committed == 0) report->Add("counts", "nothing committed in the window");
}

/// Consensus rounds from the existing raft.commit / pbft.seq spans whose
/// round finished inside the measurement window.
void AddConsensusMetrics(const obs::TraceSink& trace, uint64_t committed,
                         JsonObject* layer) {
  Histogram rounds;
  for (const auto& ev : trace.events()) {
    if (ev.kind != obs::TraceSink::Kind::kSpan) continue;
    const std::string name = ev.span.name;
    if (name != "raft.commit" && name != "pbft.seq") continue;
    if (ev.span.t1 < trace.window_start() || ev.span.t1 >= trace.window_end()) continue;
    rounds.Add(ev.span.t1 - ev.span.t0);
  }
  layer->Num("consensus.rounds", static_cast<double>(rounds.count()));
  layer->Num("consensus.round_p50_ms", rounds.Percentile(50) / 1000.0);
  layer->Num("consensus.round_p99_ms", rounds.Percentile(99) / 1000.0);
  layer->Num("consensus.round_samples", static_cast<double>(rounds.count()));
  layer->Num("consensus.ops_per_round", Ratio(committed, rounds.count()));
}

/// Runtime queues (StageGauges) and per-node CPU busy time (the
/// MetricsRegistry's *.cpu_busy_us pull gauges).
void AddRuntimeMetrics(const bench::World& w, const core::SystemStats& st,
                       uint64_t issued, JsonObject* layer) {
  layer->Num("mempool.peak", static_cast<double>(st.stages.mempool_peak));
  layer->Num("mempool.ops_per_batch", Ratio(st.stages.enqueued, st.stages.batches_cut));
  layer->Num("inflight.peak", static_cast<double>(st.stages.inflight_peak));
  const std::string suffix = ".cpu_busy_us";
  double busy_sum = 0;
  double busy_max = 0;
  size_t nodes = 0;
  w.metrics.ForEachGauge([&](const std::string& name, const obs::Gauge& g) {
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      busy_sum += g.value();
      busy_max = std::max(busy_max, g.value());
      nodes++;
    }
  });
  const double elapsed_us = w.sim.Now();
  layer->Num("cpu.max_node_util", Ratio(busy_max, elapsed_us));
  layer->Num("cpu.mean_node_util", Ratio(busy_sum, nodes * elapsed_us));
  layer->Num("cpu.busy_us_per_op", Ratio(busy_sum, issued));
}

/// Transaction layer: useful work, retries and abort causes.
void AddTxnMetrics(const bench::World& w, const Drive& d,
                   const CountingSystem::Tally& total,
                   core::TransactionalSystem* sys, JsonObject* layer) {
  uint64_t retries = 0;
  w.metrics.ForEachCounter([&](const std::string& name, const obs::Counter& c) {
    if (name == "tidb.txn_retries") retries = c.value();
  });
  layer->Num("txn.retries", static_cast<double>(retries));
  layer->Num("txn.useful_ratio",
             Ratio(total.committed, total.committed + total.aborted + retries));
  for (uint8_t r = 1; r <= static_cast<uint8_t>(core::AbortReason::kBadSignature); r++) {
    const auto reason = static_cast<core::AbortReason>(r);
    auto it = d.m.aborts_by_reason.find(reason);
    layer->Num(std::string("txn.aborts.") + core::AbortReasonName(reason),
               it == d.m.aborts_by_reason.end() ? 0.0 : static_cast<double>(it->second));
  }
  double edges_per_epoch = 0;
  double lane_speedup = 0;
  if (auto* h = dynamic_cast<systems::HarmonySystem*>(sys)) {
    const systems::HarmonyEpochStats& es = h->epoch_stats();
    edges_per_epoch = Ratio(es.conflict_edges, es.epochs);
    lane_speedup = es.LaneSpeedup();
  }
  layer->Num("det.conflict_edges_per_epoch", edges_per_epoch);
  layer->Num("det.lane_speedup", lane_speedup);
}

/// Layer replays: the stressed layer's public functions fed this run's own
/// outputs. A replay's share is its host time times the number of replicas
/// that do the same work in the run, over the run's wall time.
void AddReplayMetrics(const Args& args, core::TransactionalSystem* sys,
                      const CountingSystem& counting, const Drive& d,
                      HostSpans* spans, JsonObject* layer,
                      testing::InvariantReport* report) {
  const WorkloadSpec& spec = *args.spec;
  auto share = [&](const Replay& r, double copies) {
    return Ratio(r.seconds * copies, d.wall_s);
  };
  Replay mvcc;
  if (dynamic_cast<systems::TidbSystem*>(sys) != nullptr) {
    SpanScope span(spans, "replay.txn.MvccStore");
    mvcc = ReplayMvcc(spec, args.seed, counting, report);
  }
  layer->Num("txn.mvcc_replay_ns_per_op", mvcc.NsPerOp());
  layer->Num("txn.mvcc_replay_share", share(mvcc, 1));

  std::vector<const ledger::Chain*> chains = ChainsOf(spec, sys);
  Replay verify;
  Replay mpt;
  if (!chains.empty()) {
    {
      SpanScope span(spans, "replay.crypto.Chain.Verify");
      const auto t0 = Clock::now();
      if (!chains[0]->Verify().ok()) report->Add("replay-verify", "chain verify failed");
      verify = Replay{chains[0]->height(), SecondsSince(t0)};
    }
    if (dynamic_cast<systems::HarmonySystem*>(sys) != nullptr) {
      SpanScope span(spans, "replay.adt.MptCommitBatch");
      mpt = ReplayMpt(spec, args.seed, *chains[0], report);
    }
  }
  layer->Num("adt.replay_puts", static_cast<double>(mpt.ops));
  layer->Num("adt.replay_ns_per_put", mpt.NsPerOp());
  layer->Num("adt.replay_share", share(mpt, spec.nodes));
  layer->Num("crypto.chain_verify_ns_per_block", verify.NsPerOp());
  layer->Num("crypto.verify_share", share(verify, chains.size()));
  layer->Num("ledger.blocks", chains.empty() ? 0.0 : chains[0]->height());
  layer->Num("ledger.txns_per_block",
             chains.empty() ? 0.0 : Ratio(chains[0]->TotalTxns(), chains[0]->height()));

  Replay btree;
  double state_bytes = 0;
  if (auto* e = dynamic_cast<systems::EtcdSystem*>(sys)) {
    SpanScope span(spans, "replay.storage.BTree");
    btree = ReplayBTree(spec, args.seed, counting.writes());
    state_bytes = static_cast<double>(e->StateBytes());
  } else if (auto* f = dynamic_cast<systems::FabricSystem*>(sys)) {
    state_bytes = static_cast<double>(f->StateBytes());
  } else if (auto* t = dynamic_cast<systems::TidbSystem*>(sys)) {
    state_bytes = static_cast<double>(t->StateBytes());
  } else if (auto* h = dynamic_cast<systems::HarmonySystem*>(sys)) {
    state_bytes = static_cast<double>(h->state_of(h->node_ids()[0]).TotalNodeBytes());
  }
  layer->Num("storage.btree_replay_ns_per_put", btree.NsPerOp());
  layer->Num("storage.btree_replay_share", share(btree, 1));
  layer->Num("storage.state_bytes", state_bytes);
}

/// Every per-layer value of a traced repetition; also writes the traces.
void AddLayerMetrics(const Args& args, Instance& inst, const SetupTimes& setup,
                     const CountingSystem& counting, const Drive& d,
                     HostSpans* spans, JsonObject* layer,
                     testing::InvariantReport* report) {
  const bench::World& w = *inst.world;
  core::TransactionalSystem* sys = inst.system.get();
  layer->Num("setup.construct_s", setup.construct_s);
  layer->Num("setup.warmup_s", setup.warmup_s);
  layer->Num("setup.load_s", setup.load_s);
  layer->Num("workload.gen_s", d.gen_ns / 1e9);
  layer->Num("workload.gen_share", Ratio(d.gen_ns / 1e9, d.wall_s));
  layer->Num("workload.issued", static_cast<double>(d.issued));
  layer->Num("sim.events", static_cast<double>(d.events));
  layer->Num("sim.events_per_op", Ratio(d.events, d.issued));
  layer->Num("sim.host_ns_per_event", Ratio(d.wall_s * 1e9, d.events));
  layer->Num("sim.run_wall_s", d.wall_s);
  layer->Num("net.msgs_per_op", Ratio(d.msgs, d.issued));
  layer->Num("net.bytes_per_op", Ratio(d.bytes, d.issued));
  layer->Num("net.delivered_ratio", Ratio(d.delivered, d.msgs));
  AddConsensusMetrics(w.trace, counting.window().committed, layer);
  AddRuntimeMetrics(w, sys->stats(), d.issued, layer);
  workload::RunMetrics m = d.m;
  for (size_t p = 0; p < core::kNumPhases; p++) {
    const auto phase = static_cast<core::Phase>(p);
    Histogram& h = m.phase(phase);
    layer->Num(PhaseMetricName(phase, "p50_ms"), h.Percentile(50) / 1000.0);
    layer->Num(PhaseMetricName(phase, "p99_ms"), h.Percentile(99) / 1000.0);
    layer->Num(PhaseMetricName(phase, "samples"), static_cast<double>(h.count()));
  }
  AddTxnMetrics(w, d, counting.total(), sys, layer);
  AddReplayMetrics(args, sys, counting, d, spans, layer, report);

  // The trace-derived metrics must reproduce the driver's exactly.
  workload::RunMetrics derived = bench::DeriveRunMetrics(w.trace);
  if (derived.committed != m.committed || derived.aborted != m.aborted ||
      derived.txn_latency_us.Percentile(99) != m.txn_latency_us.Percentile(99)) {
    report->Add("trace", "metrics derived from the trace differ from the driver's");
  }
  const std::string prefix = args.out + "/" + args.spec->name;
  if (!obs::WriteChromeTrace(w.trace, prefix + ".sim_trace.json") ||
      !obs::WriteMetricsJson(w.metrics, prefix + ".metrics.json") ||
      !spans->Write(prefix + ".host_trace.json")) {
    report->Add("io", "could not write traces under " + args.out);
  }
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *args.spec;
  HostSpans spans(args.traced);

  // Setup, repeated on fresh worlds; the last one is driven.
  std::vector<double> setup_s;
  SetupTimes setup;
  Instance inst;
  double spent = 0;
  do {
    // Tear down in dependency order: the system holds pointers into the world.
    inst.workload.reset();
    inst.system.reset();
    inst.world.reset();
    inst = SetUp(args, &spans, &setup);
    setup_s.push_back(setup.total());
    spent += setup.total();
  } while (!args.traced && spent < kSetupBudgetS &&
           static_cast<int>(setup_s.size()) < kMaxSetups);

  CountingSystem counting(inst.system.get(), kClients, args.traced);
  Drive d = DriveWorkload(spec, inst, &counting, &spans);

  testing::InvariantReport report;
  CheckCounts(d, counting, inst.system->stats(), &report);
  CheckReplicas(args, inst.system.get(), &report);
  JsonObject layer;
  if (args.traced) {
    AddLayerMetrics(args, inst, setup, counting, d, &spans, &layer, &report);
  }
  if (!report.ok()) {
    fprintf(stderr, "%s: output check failed\n%s\n", spec.name,
            report.Summary().c_str());
    return 2;
  }

  const auto& win = counting.window();
  const uint64_t resolved = win.committed + win.aborted + win.rejected + win.queries;
  const uint64_t not_ok = win.aborted + win.rejected + win.failed_queries;
  workload::RunMetrics& m = d.m;
  JsonObject sim_out;
  sim_out.Num("sim_tps", m.throughput_tps);
  sim_out.Num("sim_p50_ms", m.txn_latency_us.Percentile(50) / 1000.0);
  sim_out.Num("sim_p99_ms", m.txn_latency_us.Percentile(99) / 1000.0);
  sim_out.Num("sim_txns", static_cast<double>(m.txn_latency_us.count()));
  sim_out.Num("sim_read_tps", m.query_throughput_tps);
  sim_out.Num("sim_read_p50_ms", m.query_latency_us.Percentile(50) / 1000.0);
  sim_out.Num("sim_read_p99_ms", m.query_latency_us.Percentile(99) / 1000.0);
  sim_out.Num("sim_reads", static_cast<double>(m.query_latency_us.count()));
  sim_out.Num("failed_share", Ratio(not_ok, resolved));
  sim_out.Num("ok_share", 1.0 - Ratio(not_ok, resolved));
  sim_out.Num("sim_events", static_cast<double>(d.events));

  JsonObject host;
  host.Num("setup_s", Median(setup_s));
  host.Num("setups", static_cast<double>(setup_s.size()));
  host.Num("host_us_per_op", Ratio(d.wall_s * 1e6, d.issued));
  host.Num("peak_rss_mb", d.peak_rss_mb);
  host.Num("run_wall_s", d.wall_s);

  JsonObject out;
  out.Str("workload", spec.name);
  out.Num("seed", static_cast<double>(args.seed));
  out.Num("world_seed", static_cast<double>(args.world_seed));
  out.Num("traced", args.traced ? 1 : 0);
  out.Num("attempted", static_cast<double>(resolved));
  out.Num("failed", static_cast<double>(win.errors));
  out.Raw("sim", sim_out.ToString());
  out.Raw("host", host.ToString());
  out.Raw("layer", layer.ToString());
  printf("%s\n", out.ToString().c_str());
  return 0;
}

int Usage(const char* why) {
  fprintf(stderr,
          "%s\nusage: perfbench_rep --workload <name> [--seed N] "
          "[--world-seed N] [--trace 0|1] [--out DIR] [--tamper-check]\n"
          "workloads:",
          why);
  for (const WorkloadSpec& s : kWorkloads) fprintf(stderr, " %s", s.name);
  fprintf(stderr, "\n");
  return 1;
}

}  // namespace
}  // namespace dicho::perfbench

int main(int argc, char** argv) {
  using namespace dicho::perfbench;
  Args args;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    if (a == "--tamper-check") {
      args.tamper_check = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      for (const WorkloadSpec& s : kWorkloads) {
        if (v == s.name) args.spec = &s;
      }
      if (args.spec == nullptr) return Usage(("unknown workload " + v).c_str());
    } else if (a == "--seed" || a == "--world-seed") {
      const unsigned long long n = strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return Usage(("bad number " + v).c_str());
      (a == "--seed" ? args.seed : args.world_seed) = n;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return Usage("--trace takes 0 or 1");
      args.traced = v == "1";
    } else if (a == "--out") {
      args.out = v;
    } else {
      return Usage(("unknown flag " + a).c_str());
    }
  }
  if (args.spec == nullptr) return Usage("--workload is required");
  return Run(args);
}
