// voter-mp-durable: closed-loop Voter mix on a durable 2-partition Cluster.
//
// One generator thread keeps a fixed window of transactions outstanding:
// single-partition vote batches through Cluster::SubmitBatchAsync, plus a
// fixed share of cross-partition transfers through Cluster::SubmitMulti
// (two-phase commit). The command log is on (group commit) and the
// background Checkpointer cuts on a cadence. The bounded cycles write log
// records without fsync, because the host disk's fsync latency varies
// several-fold from run to run; one shorter cycle with fsync on (the
// library default) is printed alongside. After the timed phase the run
// takes a cut, writes a fixed suffix of transactions, stops without a cut,
// and times Cluster::Recover; every acknowledged vote and transfer must be
// present afterwards, and votes must be conserved.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "workloads/voter_cluster.h"

namespace perfbench {

namespace {

using sstore::Cluster;
using sstore::Value;
using sstore::VoterClusterConfig;

constexpr int kPartitions = 2;
constexpr size_t kGroupCommit = 64;
/// Transactions kept outstanding by the closed loop.
constexpr size_t kWindow = 2048;
/// Votes per SubmitBatchAsync call (all on one partition).
constexpr size_t kVoteBatch = 32;
/// Share of transactions that are cross-partition transfers.
constexpr double kTransferShare = 0.0002;
constexpr uint64_t kCheckpointIntervalMs = 1000;
constexpr uint64_t kCheckpointLogBytes = 8 << 20;
/// Set-ups timed before each cycle of an untraced run (setup_s is the
/// median over all of them).
constexpr int kSetupsPerCycle = 3;
/// Independent timed cycles per untraced run.
constexpr int kCycles = 4;
/// Ops (vote batches or transfers) written after the final cut; recovery
/// replays exactly this suffix.
constexpr uint64_t kSuffixOps = 1000;

VoterClusterConfig MpConfig() {
  VoterClusterConfig config;
  config.num_contestants = 64;
  config.initial_votes = 1000000;  // transfers of 1 never run out of budget
  return config;
}

/// One unit of client work: a batch of votes on one partition, or a
/// transfer of one vote between contestants owned by different partitions.
struct Op {
  bool transfer = false;
  std::vector<int64_t> votes;  // contestant ids (same parity = same owner)
  int64_t from = 0, to = 0;
};

/// Seeded op stream; with modulo routing contestant c lives on c % 2.
class OpStream {
 public:
  explicit OpStream(uint64_t seed) : rng_(seed) {}
  Op Next() {
    Op op;
    const int64_t n = MpConfig().num_contestants;
    // One op is either kVoteBatch votes or one transfer; choose so that
    // transfers are kTransferShare of all transactions.
    const double p_transfer =
        kTransferShare / (kTransferShare + (1 - kTransferShare) / kVoteBatch);
    if (rng_.NextBool(p_transfer)) {
      op.transfer = true;
      int64_t even = 2 * static_cast<int64_t>(rng_.NextBounded(n / 2));
      int64_t odd = even + 1;
      if (rng_.NextBool(0.5)) std::swap(even, odd);
      op.from = even;
      op.to = odd;
    } else {
      const int64_t parity = static_cast<int64_t>(rng_.NextBounded(2));
      for (size_t i = 0; i < kVoteBatch; ++i) {
        op.votes.push_back(2 * static_cast<int64_t>(rng_.NextBounded(n / 2)) + parity);
      }
    }
    return op;
  }

 private:
  sstore::Rng rng_;
};

/// What the client saw acknowledged; recovery must reproduce it exactly.
struct Acked {
  std::vector<int64_t> delta;  // per contestant: votes + transfers in/out
  int64_t votes = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Acked() : delta(MpConfig().num_contestants, 0) {}
};

/// The closed-loop driver over one cluster.
class Driver {
 public:
  Driver(Cluster* cluster, OpStream* ops, SpanRecorder* spans, Acked* acked)
      : cluster_(cluster), ops_(ops), spans_(spans), acked_(acked) {}

  /// Runs until `seconds` elapsed (or `max_ops` ops submitted), then drains.
  /// Returns transactions committed; appends transfer latencies (µs).
  uint64_t Run(double seconds, uint64_t max_ops, std::vector<double>* mp_latency_us) {
    ScopedSpan cycle(spans_, "voter-mp cycle", "generator");
    const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
    uint64_t committed = 0;
    uint64_t submitted = 0;
    size_t outstanding = 0;
    std::deque<Entry> inflight;
    for (;;) {
      const bool more = submitted < max_ops && NowNs() < end;
      if (!more && inflight.empty()) break;
      if (more && outstanding < kWindow) {
        Op op = ops_->Next();
        ++submitted;
        Entry e;
        e.op = op;
        e.submit_ns = NowNs();
        if (op.transfer) {
          std::vector<std::pair<Value, sstore::Tuple>> parts;
          parts.emplace_back(Value::BigInt(op.from),
                             sstore::Tuple{Value::BigInt(op.from), Value::BigInt(-1)});
          parts.emplace_back(Value::BigInt(op.to),
                             sstore::Tuple{Value::BigInt(op.to), Value::BigInt(1)});
          ScopedSpan span(spans_, "Cluster::SubmitMulti", "txn_coord");
          e.multi = cluster_->SubmitMulti("vc_adjust", std::move(parts));
          outstanding += 1;
        } else {
          std::vector<sstore::Invocation> invs;
          for (int64_t c : op.votes) {
            // batch id = contestant: routes to the contestant's owner.
            invs.push_back(sstore::Invocation{"vc_vote", {Value::BigInt(c)}, c});
          }
          ScopedSpan span(spans_, "Cluster::SubmitBatchAsync", "cluster");
          e.batches = cluster_->SubmitBatchAsync(std::move(invs));
          outstanding += op.votes.size();
        }
        inflight.push_back(std::move(e));
        continue;
      }
      // Window full (or draining): block on the oldest transaction, then
      // retire it and every later one already finished, in order. FIFO
      // observation is exact for transfers: their fragments queue behind
      // every earlier vote on both partitions, so those finish first.
      Wait(inflight.front());
      while (!inflight.empty() && Done(inflight.front())) {
        const Entry& e = inflight.front();
        committed += Account(e, NowNs(), mp_latency_us);
        outstanding -= e.op.transfer ? 1 : e.op.votes.size();
        inflight.pop_front();
      }
    }
    return committed;
  }

 private:
  struct Entry {
    Op op;
    int64_t submit_ns = 0;
    sstore::MultiKeyTicketPtr multi;
    std::vector<sstore::BatchTicketPtr> batches;
  };

  static void Wait(Entry& e) {
    if (e.multi) {
      e.multi->Wait();
      return;
    }
    for (auto& b : e.batches) b->Wait();
  }

  static bool Done(Entry& e) {
    if (e.multi) return e.multi->TryWait();
    for (auto& b : e.batches) {
      if (!b->TryWait()) return false;
    }
    return true;
  }

  uint64_t Account(const Entry& e, int64_t now, std::vector<double>* mp_latency_us) {
    if (e.op.transfer) {
      ++acked_->attempted;
      mp_latency_us->push_back(static_cast<double>(now - e.submit_ns) * 1e-3);
      if (!e.multi->committed()) {
        ++acked_->failed;
        return 0;
      }
      --acked_->delta[e.op.from];
      ++acked_->delta[e.op.to];
      return 1;
    }
    // One batch, one partition: outcome i is vote i.
    uint64_t ok = 0;
    acked_->attempted += e.op.votes.size();
    const sstore::BatchTicket& b = *e.batches.front();
    for (size_t i = 0; i < e.op.votes.size(); ++i) {
      if (e.batches.size() == 1 && b.outcome(i).committed()) {
        ++acked_->delta[e.op.votes[i]];
        ++acked_->votes;
        ++ok;
      } else {
        ++acked_->failed;
      }
    }
    return ok;
  }

  Cluster* cluster_;
  OpStream* ops_;
  SpanRecorder* spans_;
  Acked* acked_;
};

struct CycleResult {
  double run_s = 0;
  uint64_t committed = 0;
  std::vector<double> mp_latency_us;
  double recover_s = 0;
  double suffix_bytes = 0;
  sstore::ClusterStats stats;
  sstore::Checkpointer::Stats ckpt;
  StageSpans stages;
  Acked acked;

  double txn_per_s() const { return static_cast<double>(committed) / run_s; }
};

/// How a cycle's cluster logs and traces.
enum class Mode {
  kPlain,   // log records written without fsync; default sampling
  kTraced,  // as kPlain, plus the traced run's sampling
  kSynced,  // every log flush fsynced (the library default)
};

Cluster::Options MpOptions(const std::string& log_dir, Mode mode) {
  Cluster::Options opts;
  opts.num_partitions = kPartitions;
  opts.routing = sstore::PartitionMap::Mode::kModulo;
  opts.log_dir = log_dir;
  opts.group_commit_size = kGroupCommit;
  opts.log_sync = mode == Mode::kSynced;
  if (mode == Mode::kTraced) ApplyTraceSampling(&opts, 4);
  return opts;
}

sstore::Checkpointer::Options CheckpointerOptions(const std::string& dir) {
  sstore::Checkpointer::Options c;
  c.dir = dir;
  c.interval_ms = kCheckpointIntervalMs;
  c.log_bytes_threshold = kCheckpointLogBytes;
  return c;
}

/// Creates the checkpoint and log directories a set-up will use (the
/// caller's preparation, not timed as set-up).
void MakeDirs(const std::string& dir) {
  std::filesystem::create_directories(dir + "/ckpt");
  std::filesystem::create_directories(dir + "/log");
}

/// Construct + deploy (seed rows) + start + start the checkpointer.
sstore::Status SetUp(const std::string& dir, Mode mode, std::unique_ptr<Cluster>* out) {
  *out = std::make_unique<Cluster>(MpOptions(dir + "/log", mode));
  SSTORE_RETURN_NOT_OK((*out)->Deploy(sstore::BuildVoterClusterDeployment(MpConfig())));
  (*out)->Start();
  return (*out)->StartCheckpointer(CheckpointerOptions(dir + "/ckpt"));
}

uint64_t LogBytes(const Cluster& cluster) { return cluster.GatherStats().log.bytes_written; }

/// Checks one recovered cluster against what the client saw acknowledged.
void CheckRecovered(Cluster& recovered, const Acked& acked, Report* report) {
  sstore::VoterClusterApp app(&recovered, MpConfig());
  int64_t mismatched = 0;
  for (int64_t c = 0; c < MpConfig().num_contestants; ++c) {
    sstore::Result<int64_t> count = app.Count(c);
    if (!count.ok() || *count != MpConfig().initial_votes + acked.delta[c]) ++mismatched;
  }
  report->Check("mp_acked_present_after_recover", static_cast<double>(mismatched), 0);
  sstore::Result<int64_t> txns = app.TotalVoteTxns();
  report->Check("mp_acked_votes_after_recover", txns.ok() ? static_cast<double>(*txns) : -1,
                static_cast<double>(acked.votes));
  report->CheckStatus("mp_vote_conservation", app.CheckInvariant());
}

/// One full cycle: set-up, timed closed loop, cut, fixed suffix, stop
/// without a cut, then `recover_reps` timed recoveries from copies of the
/// same checkpoint + log files, each checked.
void RunCycle(const Args& args, const std::string& dir, Mode mode, double seconds,
              int recover_reps, SpanRecorder* spans, Report* report, CycleResult* out) {
  std::unique_ptr<Cluster> cluster;
  MakeDirs(dir);
  sstore::Status st = SetUp(dir, mode, &cluster);
  if (!st.ok()) {
    report->Fail("setup: " + st.ToString());
    return;
  }
  OpStream ops(args.seed);
  Driver driver(cluster.get(), &ops, spans, &out->acked);
  SpanRecorder off(false);
  Driver warm(cluster.get(), &ops, &off, &out->acked);
  std::vector<double> ignored;
  warm.Run(args.tiny ? 0.05 : 0.5, UINT64_MAX, &ignored);  // warm-up, not reported
  const sstore::ClusterStats before = cluster->GatherStats();

  const int64_t t0 = NowNs();
  out->committed = driver.Run(seconds, UINT64_MAX, &out->mp_latency_us);
  out->run_s = SecondsSince(t0);
  out->stats = StatsSince(before, cluster->GatherStats());
  out->ckpt = cluster->checkpointer()->stats();
  if (mode == Mode::kTraced) out->stages = CollectStageSpans(*cluster);

  // Cut, fixed suffix, stop without a cut.
  cluster->StopCheckpointer();
  st = cluster->Checkpoint(dir + "/ckpt");
  if (!st.ok()) {
    report->Fail("checkpoint: " + st.ToString());
    return;
  }
  const uint64_t bytes_at_cut = LogBytes(*cluster);
  std::vector<double> suffix_latency;
  Driver suffix(cluster.get(), &ops, &off, &out->acked);
  suffix.Run(1e9, args.tiny ? 200 : kSuffixOps, &suffix_latency);
  out->suffix_bytes = static_cast<double>(LogBytes(*cluster) - bytes_at_cut);
  cluster->Stop();
  cluster.reset();

  // Keep a pristine copy: Recover re-arms the log and rotates the files.
  namespace fs = std::filesystem;
  const std::string saved = dir + "-saved";
  RemoveTree(saved);
  fs::copy(dir, saved, fs::copy_options::recursive);
  std::vector<double> times;
  for (int rep = 0; rep < recover_reps; ++rep) {
    if (rep > 0) {
      RemoveTree(dir);
      fs::copy(saved, dir, fs::copy_options::recursive);
    }
    Cluster::Options opts = MpOptions("", Mode::kPlain);
    Cluster recovered(opts);
    st = recovered.Deploy(sstore::BuildVoterClusterDeployment(MpConfig()));
    const int64_t t_rec = NowNs();
    if (st.ok()) st = recovered.Recover(dir + "/ckpt", dir + "/log");
    times.push_back(SecondsSince(t_rec));
    if (!st.ok()) {
      report->Fail("recover: " + st.ToString());
      return;
    }
    CheckRecovered(recovered, out->acked, report);
  }
  out->recover_s = Median(times);
  RemoveTree(saved);
  RemoveTree(dir);  // so that its log is not written back under later timing
}

}  // namespace

void RunVoterMpDurable(const Args& args, Report* report) {
  report->Context("partitions", std::to_string(kPartitions));
  report->Context("loop", "closed (window " + std::to_string(kWindow) + " txns)");
  report->Context("mix", "votes in batches of " + std::to_string(kVoteBatch) +
                             " + " + std::to_string(kTransferShare * 100).substr(0, 4) +
                             "% 2PC transfers");
  report->Context("group_commit_size", std::to_string(kGroupCommit));
  // Generator; 2 workers + checkpointer.
  report->Threads(1, 3);

  const std::string root = MakeRunDir(args);
  const double budget = std::max(1.0, args.seconds - 2.0);
  SpanRecorder off(false);

  if (!args.trace) {
    // Set-up time: the median of set-ups (each torn down at once) made in
    // small groups before every cycle. One set-up takes well under a
    // millisecond, so a single group samples the host's speed at one
    // instant, and that swung the median of a group by 2x from run to run;
    // groups spread over the run average it like the cycles do. Each group
    // starts on a freshly synced file system: creating the three log files
    // is most of a set-up, and file creation slows down under pending
    // write-back and over many creations in a row (5x over 100 set-ups).
    std::vector<double> setups;
    auto time_setups = [&] {
      SyncFileSystem(root);
      for (int i = 0; i < kSetupsPerCycle; ++i) {
        std::unique_ptr<Cluster> c;
        const std::string dir = root + "/setup-" + std::to_string(setups.size());
        MakeDirs(dir);
        const int64_t t0 = NowNs();
        sstore::Status st = SetUp(dir, Mode::kPlain, &c);
        setups.push_back(SecondsSince(t0));
        if (!st.ok()) {
          report->Fail("setup: " + st.ToString());
          return false;
        }
      }
      return true;
    };
    // Several independent cycles (fresh cluster and threads each); the
    // figures are medians over the cycles.
    const int cycles = args.tiny ? 1 : kCycles;
    std::vector<double> rate, p50, p99, p99_whole, recover, suffix, cuts, pause;
    size_t samples = 0;
    for (int i = 0; i < cycles; ++i) {
      if (!time_setups()) return;
      CycleResult r;
      RunCycle(args, root + "/run-" + std::to_string(i), Mode::kPlain,
               args.tiny ? 0.3 : budget * 0.65 / cycles, args.tiny ? 1 : 2, &off, report, &r);
      report->CountAttempted(r.acked.attempted);
      report->CountFailed(r.acked.failed);
      // Transfer latency per window of 1000 transfers (a window's p99 has
      // 10 samples beyond it), median over the windows.
      const size_t windows = std::max<size_t>(1, r.mp_latency_us.size() / 1000);
      std::vector<double> whole = r.mp_latency_us;
      rate.push_back(r.txn_per_s());
      p50.push_back(WindowedPercentile(r.mp_latency_us, windows, 0.5));
      p99.push_back(WindowedPercentile(r.mp_latency_us, windows, 0.99));
      p99_whole.push_back(Percentile(whole, 0.99));
      samples += r.mp_latency_us.size();
      recover.push_back(r.recover_s);
      suffix.push_back(r.suffix_bytes);
      cuts.push_back(static_cast<double>(r.ckpt.completed));
      pause.push_back(static_cast<double>(r.ckpt.max_barrier_pause_us));
    }
    // One cycle with every log flush fsynced: printed, not bounded (its
    // figures follow the host disk's fsync latency).
    if (!time_setups()) return;
    CycleResult synced;
    RunCycle(args, root + "/synced", Mode::kSynced, args.tiny ? 0.3 : budget * 0.15, 1, &off,
             report, &synced);
    report->CountAttempted(synced.acked.attempted);
    report->CountFailed(synced.acked.failed);
    report->Info("cycles", cycles, "count");
    report->Info("mix_txn_per_s", Median(rate), "txn/s");
    report->Info("mp_p50_us", Median(p50), "us");
    report->Info("mp_p99_us", Median(p99), "us");
    report->Info("mp_p99_whole_cycle_us", Median(p99_whole), "us");
    report->Info("mp_samples", static_cast<double>(samples), "count");
    report->Info("recover_s", Median(recover), "s");
    report->Info("fsync_mix_txn_per_s", synced.txn_per_s(), "txn/s");
    report->Info("fsync_mp_p50_us", Median(synced.mp_latency_us), "us");
    report->Info("fsync_log_flushes_per_s",
                 static_cast<double>(synced.stats.log.flush_count) / synced.run_s, "1/s");
    report->Info("recovery_suffix_bytes", Median(suffix), "B");
    report->Info("checkpoints_cut_per_cycle", Median(cuts), "count");
    report->Info("checkpoint_max_pause_us", Median(pause), "us");
    report->Info("failed_frac",
                 static_cast<double>(report->failed()) /
                     static_cast<double>(std::max<uint64_t>(1, report->attempted())),
                 "ratio");
    report->Emit("setup_s", Median(setups), "s");
    report->Emit("peak_rss_mb", PeakRssMiB(), "MiB");
    report->Emit("rate_per_s", Median(rate), "1/s");
    report->Emit("p50_us", Median(p50), "us");
  } else {
    // Untraced and traced cycles alternate, two of each; the tracing
    // overhead is the drop in median txn/s. Per-layer figures come from the
    // last traced cycle (spans from both).
    SpanRecorder spans(true);
    std::vector<double> plain_rate, traced_rate;
    CycleResult traced;
    for (int round = 0; round < 2; ++round) {
      CycleResult plain;
      traced = CycleResult();
      const double seconds = args.tiny ? 0.1 : budget * 0.2;
      RunCycle(args, root + "/plain", Mode::kPlain, seconds, 1, &off, report, &plain);
      RunCycle(args, root + "/traced", Mode::kTraced, seconds, 1, &spans, report, &traced);
      for (const CycleResult* r : {&plain, &traced}) {
        report->CountAttempted(r->acked.attempted);
        report->CountFailed(r->acked.failed);
      }
      plain_rate.push_back(plain.txn_per_s());
      traced_rate.push_back(traced.txn_per_s());
    }
    LayerMetrics m;
    std::vector<double> submit = spans.DurationsUs("Cluster::SubmitBatchAsync");
    std::vector<double> call = spans.DurationsUs("Cluster::SubmitMulti");
    m.Set("cluster.submit_us_p50", Percentile(submit, 0.5));
    m.Set("cluster.submit_us_p99", Percentile(submit, 0.99));
    m.Set("txn_coord.call_us_p50", Percentile(call, 0.5));
    m.Set("txn_coord.call_us_p99", Percentile(call, 0.99));
    FillEngineAndLog(traced.stats, traced.stages, &m);
    const sstore::CoordStats& c = traced.stats.coord;
    m.Set("txn_coord.round_us", c.avg_round_latency_us());
    m.Set("txn_coord.prepares_per_mp",
          c.multi_txns == 0 ? 0 : static_cast<double>(c.prepares) / static_cast<double>(c.multi_txns));
    m.Set("txn_coord.abort_frac",
          c.multi_txns == 0 ? 0 : static_cast<double>(c.aborts) / static_cast<double>(c.multi_txns));
    m.Set("checkpointer.cuts", static_cast<double>(traced.ckpt.completed));
    m.Set("checkpointer.max_pause_us", static_cast<double>(traced.ckpt.max_barrier_pause_us));
    m.Set("checkpointer.busy_deferred", static_cast<double>(traced.ckpt.busy_deferred));
    m.Set("checkpointer.delta_tables", static_cast<double>(traced.ckpt.tables_delta_total));
    m.Set("recovery.suffix_bytes", traced.suffix_bytes);
    m.Set("obs.trace_overhead_frac", 1 - Median(traced_rate) / Median(plain_rate));
    m.Emit(report);
    report->Info("mix_txn_per_s_untraced", Median(plain_rate), "txn/s");
    report->Info("mix_txn_per_s_traced", Median(traced_rate), "txn/s");
    report->Info("recover_s_traced_cycle", traced.recover_s, "s");
    WriteTrace(args, spans, traced.stages.events);
  }
  RemoveTree(root);
}

}  // namespace perfbench
