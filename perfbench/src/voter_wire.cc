// voter-wire: open-loop, fixed-rate Voter votes over the wire protocol.
//
// One WireClient connection -> WireServer (1 I/O thread) -> 2-partition
// Cluster with the command log on (group commit; records are written
// without fsync, see README). The generator is the calling thread, and it
// spins: it sends every vote whose scheduled time has come, flushes once
// per burst, and harvests finished responses between sends.
// Latency runs from each vote's *scheduled* send time to the moment the
// generator sees its committed response, so a stall also charges the votes
// queued behind it.
//
// voter-wire runs one reference rung at a fixed rate (p50/p99 latency,
// votes per CPU-second). voter-wire-ladder runs a shorter reference rung,
// then a fixed ladder of offered rates spanning the knee; the highest rung
// that meets the latency limit is the sustainable rate. Only voter-wire's
// figures are steady enough to bound; the ladder, the p99s and the stall
// figures move too much from run to run on a shared host and are printed.

#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "server/client.h"
#include "server/wire_server.h"
#include "workloads/voter_cluster.h"

namespace perfbench {

namespace {

using sstore::Cluster;
using sstore::Value;
using sstore::VoterClusterConfig;
using sstore::WireClient;
using sstore::WireFuturePtr;
using sstore::WireResult;
using sstore::WireServer;

constexpr int kPartitions = 2;
constexpr size_t kGroupCommit = 64;
/// Latency limit on p99 for a rung to count as sustained.
constexpr double kLimitUs = 10000;
/// Share of failed (shed, transport, aborted) votes a sustained rung may have.
constexpr double kMaxFailedFrac = 0.001;
/// The reference rung (p50/p99) is also the ladder's first rung. At this
/// rate the server and worker threads stay busy; at 10 000 votes/s they
/// sleep between votes, and the cost of waking them on a virtualised host
/// swung p50 and CPU per vote by 20% from run to run (README).
constexpr double kReferenceRate = 40000;
const std::vector<double> kLadder = {60000,  80000,  100000, 125000, 150000, 200000,
                                     250000, 300000, 400000, 500000, 650000, 800000};
/// Percentiles are taken per window of this many consecutive votes (the
/// window's p99 then has 10 samples beyond it), and the median over the
/// windows is reported (see WindowedPercentile).
constexpr size_t kWindowVotes = 1000;
/// The one connection carries the traffic of many clients, so its in-flight
/// cap is raised from the server's default of 1024, which at the reference
/// rate is 26 ms of votes: shorter than the host's stalls, so 1 run in 20
/// shed votes. 8192 is about 200 ms, the same as the partition queue
/// (4096 per partition).
constexpr size_t kMaxInflightPerConn = 8192;
/// Program CPU time is sampled every this many votes sent.
constexpr uint64_t kCpuWindowVotes = 40000;

VoterClusterConfig WireVoterConfig() {
  VoterClusterConfig config;
  config.num_contestants = 64;
  config.initial_votes = 1000;
  return config;
}

/// Cluster + server + one connection, torn down in reverse order.
struct WireRig {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<WireServer> server;
  std::unique_ptr<WireClient> client;

  ~WireRig() { Close(); }
  void Close() {
    if (client) client->Close();
    if (server) server->Stop();
    if (cluster) cluster->Stop();
    client.reset();
    server.reset();
    cluster.reset();
  }
};

sstore::Status SetUp(const Cluster::Options& opts, WireRig* rig) {
  rig->cluster = std::make_unique<Cluster>(opts);
  SSTORE_RETURN_NOT_OK(
      rig->cluster->Deploy(sstore::BuildVoterClusterDeployment(WireVoterConfig())));
  rig->cluster->Start();
  WireServer::Options sopts;
  sopts.max_inflight_per_conn = kMaxInflightPerConn;
  rig->server = std::make_unique<WireServer>(rig->cluster.get(), sopts);
  SSTORE_RETURN_NOT_OK(rig->server->Start());
  WireClient::Options copts;
  copts.port = rig->server->port();
  SSTORE_ASSIGN_OR_RETURN(rig->client, WireClient::Connect(copts));
  return sstore::Status::OK();
}

struct RungResult {
  double rate = 0;
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t busy = 0;
  uint64_t transport = 0;
  uint64_t aborted = 0;
  /// Scheduled-send -> committed-response latency, µs; failed votes are
  /// entered at the rung's length (they miss any limit).
  std::vector<double> latency_us;
  /// How late the generator sent each vote relative to its schedule, µs.
  std::vector<double> lateness_us;
  /// Median over kWindowVotes windows of the window's p50 / p99.
  double p50_us = 0;
  double p99_us = 0;
  /// Over the whole rung: p99, max, and how many windows missed the limit.
  double whole_p99_us = 0;
  double max_us = 0;
  size_t windows_over_limit = 0;
  /// Median latency of the rung's last quarter: a growing backlog shows as
  /// a late-rung median above the limit.
  double tail_median_us = 0;
  /// Program CPU time (see Generator::Run) over the rung, s, and per vote
  /// sent, µs, for each window of kCpuWindowVotes votes.
  double cpu_s = 0;
  std::vector<double> window_cpu_us;

  uint64_t failed() const { return busy + transport + aborted; }
  double failed_frac() const {
    return attempted == 0 ? 0 : static_cast<double>(failed()) / static_cast<double>(attempted);
  }
  bool sustained() const {
    return p99_us <= kLimitUs && tail_median_us <= kLimitUs &&
           failed_frac() <= kMaxFailedFrac;
  }
};

/// The open-loop generator. Contestant ids come from the seeded sequence.
class Generator {
 public:
  Generator(WireClient* client, const std::vector<int64_t>* contestants,
            SpanRecorder* spans)
      : client_(client), contestants_(contestants), spans_(spans) {}

  RungResult Run(double rate, double seconds) {
    ScopedSpan rung(spans_, "voter-wire rung", "generator");
    RungResult r;
    r.rate = rate;
    // CPU time of the program under test: the whole process minus the
    // generator thread, plus the generator's time inside the client
    // library's calls (encode and send).
    double lib_cpu = 0;
    auto program_cpu = [&] { return ProcessCpuSeconds() - ThreadCpuSeconds() + lib_cpu; };
    const double cpu0 = program_cpu();
    double cpu_mark = cpu0;
    uint64_t votes_at_mark = 0;
    const uint64_t total = static_cast<uint64_t>(rate * seconds);
    const double interval_ns = 1e9 / rate;
    const double failed_latency_us = seconds * 1e6;
    struct Pending {
      int64_t sched_ns;
      uint64_t index;
      WireFuturePtr future;
    };
    // Outstanding votes in one lane per partition (contestant id modulo
    // the partition count, as the modulo routing places them). A partition
    // answers in order, so each lane retires from its front: O(1) per vote
    // however large a stall's backlog grows.
    std::array<std::deque<Pending>, kPartitions> lanes;
    auto outstanding = [&] {
      for (const auto& lane : lanes) {
        if (!lane.empty()) return true;
      }
      return false;
    };
    std::vector<double> by_index(total, 0.0);
    const int64_t t0 = NowNs() + 200000;
    uint64_t next = 0;
    auto due_ns = [&](uint64_t i) {
      return t0 + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
    };
    while (next < total || outstanding()) {
      if (next < total && due_ns(next) <= NowNs()) {
        const double lib0 = ThreadCpuSeconds();
        const int64_t now = NowNs();
        while (next < total && due_ns(next) <= now) {
          const int64_t sched = due_ns(next);
          const int64_t c = (*contestants_)[pos_++ % contestants_->size()];
          WireFuturePtr f;
          {
            ScopedSpan span(spans_, "WireClient::SubmitAsync", "server");
            f = client_->SubmitAsync("vc_vote", {Value::BigInt(c)}, Value::BigInt(c));
          }
          r.lateness_us.push_back(static_cast<double>(NowNs() - sched) * 1e-3);
          lanes[static_cast<size_t>(c) % kPartitions].push_back({sched, next, std::move(f)});
          ++next;
        }
        {
          ScopedSpan span(spans_, "WireClient::Flush", "server");
          // A failed flush means a dead connection: closing fails every
          // pending future, and they are counted as transport errors.
          if (!client_->Flush().ok()) client_->Close();
        }
        lib_cpu += ThreadCpuSeconds() - lib0;
        if (next - votes_at_mark >= kCpuWindowVotes) {
          const double cpu = program_cpu();
          r.window_cpu_us.push_back((cpu - cpu_mark) * 1e6 /
                                    static_cast<double>(next - votes_at_mark));
          cpu_mark = cpu;
          votes_at_mark = next;
        }
      }
      // Retire every lane's answered votes.
      for (auto& lane : lanes) {
        const WireResult* res = nullptr;
        int64_t now = 0;
        while (!lane.empty() && lane.front().future->TryGet(&res)) {
          if (now == 0) now = NowNs();
          const Pending& v = lane.front();
          ++r.attempted;
          double lat = static_cast<double>(now - v.sched_ns) * 1e-3;
          if (!res->transport.ok()) {
            ++r.transport;
            lat = failed_latency_us;
          } else if (res->busy) {
            ++r.busy;
            lat = failed_latency_us;
          } else if (!res->outcome.committed()) {
            ++r.aborted;
            lat = failed_latency_us;
          } else {
            ++r.committed;
          }
          by_index[v.index] = lat;
          lane.pop_front();
        }
      }
      // Spin (yielding the CPU to any thread that wants it) instead of
      // blocking: a blocked generator is woken by the client's reader
      // thread, and on a virtualised host the cost of that wake-up swings
      // the measured latency by tens of percent from run to run. The
      // generator's own CPU time is left out of the CPU figures.
      std::this_thread::yield();
    }
    r.cpu_s = program_cpu() - cpu0;

    r.latency_us = std::move(by_index);
    std::vector<double> tail(r.latency_us.begin() + total * 3 / 4, r.latency_us.end());
    r.tail_median_us = Median(tail);
    const size_t windows = std::max<size_t>(1, total / kWindowVotes);
    r.p50_us = WindowedPercentile(r.latency_us, windows, 0.50);
    r.p99_us = WindowedPercentile(r.latency_us, windows, 0.99);
    for (size_t w = 0; w < windows; ++w) {
      std::vector<double> part(r.latency_us.begin() + total * w / windows,
                               r.latency_us.begin() + total * (w + 1) / windows);
      if (Percentile(part, 0.99) > kLimitUs) ++r.windows_over_limit;
    }
    std::vector<double> lat = r.latency_us;
    r.whole_p99_us = Percentile(lat, 0.99);
    r.max_us = lat.empty() ? 0 : lat.back();
    return r;
  }

 private:
  WireClient* client_;
  const std::vector<int64_t>* contestants_;
  SpanRecorder* spans_;
  size_t pos_ = 0;
};

/// The highest offered rate that meets the limit, interpolated between the
/// last sustained rung and the first failing one on log(p99), so that it
/// moves continuously instead of in whole ladder steps. Rungs are the
/// reference rung followed by `ladder` (which stops at the first failure).
double SustainedRate(const RungResult& reference, const std::vector<RungResult>& ladder) {
  std::vector<const RungResult*> rungs = {&reference};
  for (const RungResult& r : ladder) rungs.push_back(&r);
  double pass_rate = 0, pass_p99 = 0;
  for (const RungResult* r : rungs) {
    if (r->sustained()) {
      pass_rate = r->rate;
      pass_p99 = r->p99_us;
      continue;
    }
    // A rung failed only on sheds or backlog still counts as over the limit.
    const double fail_p99 = std::max(r->p99_us, kLimitUs * 2);
    if (pass_rate == 0) return r->rate * std::min(1.0, kLimitUs / fail_p99);
    const double t = (std::log(kLimitUs) - std::log(pass_p99)) /
                     (std::log(fail_p99) - std::log(pass_p99));
    return pass_rate + (r->rate - pass_rate) * std::clamp(t, 0.0, 1.0);
  }
  return pass_rate;  // never failed: the top of the ladder
}

struct Phase {
  RungResult reference;
  /// Peak resident memory at the end of the reference rung, before the
  /// ladder's overload rungs queue votes.
  double reference_rss_mib = 0;
  std::vector<RungResult> ladder;
  sstore::ClusterStats stats;
  WireServer::Stats server;
  StageSpans stages;
  /// rate_per_s: the interpolated sustained rate (see SustainedRate).
  double max_rate = 0;
};

/// One full phase on a fresh rig: reference rung, then the ladder (when
/// `ladder_seconds` > 0), then the correctness checks.
void RunPhase(const Args& args, const Cluster::Options& opts, double ref_seconds,
              double ladder_seconds, const std::vector<int64_t>& contestants,
              SpanRecorder* spans, Report* report, Phase* phase) {
  WireRig rig;
  sstore::Status st = SetUp(opts, &rig);
  if (!st.ok()) {
    report->Fail("setup: " + st.ToString());
    return;
  }
  Generator gen(rig.client.get(), &contestants, spans);
  const RungResult warm = gen.Run(kReferenceRate, args.tiny ? 0.05 : 0.5);  // not reported
  const sstore::ClusterStats before = rig.cluster->GatherStats();
  rig.server->ResetStats();

  phase->reference = gen.Run(kReferenceRate, ref_seconds);
  phase->reference_rss_mib = PeakRssMiB();
  if (ladder_seconds > 0) {
    // Climb until the first rung that misses the limit.
    if (phase->reference.sustained()) {
      for (double rate : kLadder) {
        phase->ladder.push_back(gen.Run(rate, ladder_seconds));
        if (!phase->ladder.back().sustained()) break;
      }
    }
    phase->max_rate = SustainedRate(phase->reference, phase->ladder);
  }
  phase->server = rig.server->stats();
  if (spans->enabled()) phase->stages = CollectStageSpans(*rig.cluster);

  // Correctness: client-observed commits == server-side committed votes,
  // and the Voter invariant holds.
  rig.client->Close();
  rig.server->Stop();
  rig.cluster->WaitIdle();
  phase->stats = StatsSince(before, rig.cluster->GatherStats());

  uint64_t client_committed = warm.committed + phase->reference.committed;
  for (const RungResult& r : phase->ladder) client_committed += r.committed;
  sstore::VoterClusterApp app(rig.cluster.get(), WireVoterConfig());
  sstore::Result<int64_t> server_votes = app.TotalVoteTxns();
  if (!server_votes.ok()) {
    report->Fail("reading vote totals: " + server_votes.status().ToString());
  } else {
    report->Check("wire_commits_match",
                  static_cast<double>(client_committed),
                  static_cast<double>(*server_votes));
  }
  report->CheckStatus("voter_invariant", app.CheckInvariant());
}

void AddRungAccounting(const RungResult& r, Report* report) {
  report->CountAttempted(r.attempted);
  report->CountFailed(r.failed());
}

}  // namespace

void RunVoterWire(const Args& args, bool ladder, Report* report) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  report->Context("partitions", std::to_string(kPartitions));
  report->Context("connections", "1");
  report->Context("loop", "open (fixed-rate schedule)");
  report->Context("group_commit_size", std::to_string(kGroupCommit));
  // Generator + client reader; server acceptor + 1 I/O loop + 2 workers.
  report->Threads(2, 4);

  sstore::Rng rng(args.seed);
  std::vector<int64_t> contestants(1 << 16);
  for (int64_t& c : contestants) {
    c = static_cast<int64_t>(rng.NextBounded(
        static_cast<uint64_t>(WireVoterConfig().num_contestants)));
  }

  const std::string log_root = MakeRunDir(args);
  int setup_index = 0;
  auto options = [&](bool traced) {
    Cluster::Options opts;
    opts.num_partitions = kPartitions;
    opts.routing = sstore::PartitionMap::Mode::kModulo;
    opts.log_dir = log_root + "/run-" + std::to_string(setup_index++);
    std::filesystem::create_directories(opts.log_dir);  // before any timer
    opts.group_commit_size = kGroupCommit;
    opts.log_sync = false;  // see README: fsync latency of the host disk is not measured
    if (traced) ApplyTraceSampling(&opts, 4);
    return opts;
  };

  // Set-up time: the median of a few full set-ups (cluster, deploy and
  // seed rows, start, server start, connect), made before any timed phase
  // on a freshly synced file system (see voter-mp-durable).
  SyncFileSystem(log_root);
  std::vector<double> setups;
  for (int i = 0; i < (args.tiny ? 2 : 12); ++i) {
    WireRig rig;
    const Cluster::Options opts = options(false);
    const int64_t t0 = NowNs();
    sstore::Status st = SetUp(opts, &rig);
    setups.push_back(SecondsSince(t0));
    if (!st.ok()) {
      report->Fail("setup: " + st.ToString());
      return;
    }
  }

  // Time split of one run: the ladder (voter-wire-ladder only) gets 60% of
  // the budget and the reference rung the rest; the traced run splits the
  // reference share between an untraced and a traced rung.
  const double budget = std::max(1.0, args.seconds - 3.5);
  const double ladder_share = ladder ? 0.6 : 0;
  double ref_seconds = budget * (1 - ladder_share) / (args.trace ? 2 : 1);
  double rung_seconds = budget * ladder_share / static_cast<double>(kLadder.size());
  if (args.tiny) {
    ref_seconds = 0.2;
    rung_seconds = ladder ? 0.1 : 0;
  }

  if (!args.trace) {
    SpanRecorder off(false);
    Phase phase;
    RunPhase(args, options(false), ref_seconds, rung_seconds, contestants, &off,
             report, &phase);
    const RungResult& ref = phase.reference;
    std::vector<const RungResult*> rungs = {&ref};
    for (const RungResult& r : phase.ladder) rungs.push_back(&r);
    std::vector<double> lateness;
    double last_sustained = 0;
    for (const RungResult* r : rungs) {
      AddRungAccounting(*r, report);
      lateness.insert(lateness.end(), r->lateness_us.begin(), r->lateness_us.end());
      if (r->sustained()) last_sustained = r->rate;
      const std::string rung = "rung_" + std::to_string(static_cast<int>(r->rate)) + ".";
      report->Info(rung + "p50_us", r->p50_us, "us");
      report->Info(rung + "p99_us", r->p99_us, "us");
      report->Info(rung + "whole_p99_us", r->whole_p99_us, "us");
      report->Info(rung + "max_us", r->max_us, "us");
      report->Info(rung + "windows_over_limit", static_cast<double>(r->windows_over_limit),
                   "count");
      report->Info(rung + "failed_frac", r->failed_frac(), "ratio");
      report->Info(rung + "tail_median_us", r->tail_median_us, "us");
    }
    // Votes per CPU-second of the program (see Generator::Run) at the fixed
    // offered rate: the wire path's cost. The median over the rung's CPU
    // windows, so one slow second cannot move it; the whole rung's figure
    // when it is too short for windows.
    const double cpu_us_per_vote =
        ref.window_cpu_us.empty()
            ? ref.cpu_s * 1e6 / std::max<double>(1, static_cast<double>(ref.attempted))
            : Median(ref.window_cpu_us);
    const double votes_per_cpu_s = 1e6 / cpu_us_per_vote;
    report->Info("wire_p50_us", ref.p50_us, "us");
    report->Info("wire_p99_us", ref.p99_us, "us");
    report->Info("wire_p99_samples", static_cast<double>(ref.latency_us.size()), "count");
    if (ladder) {
      report->Info("wire_max_rate", last_sustained, "votes/s");
      report->Info("wire_max_rate_interpolated", phase.max_rate, "votes/s");
    }
    report->Info("reference_rate", kReferenceRate, "votes/s");
    report->Info("cpu_us_per_vote", cpu_us_per_vote, "us");
    report->Info("failed_frac",
                 static_cast<double>(report->failed()) /
                     static_cast<double>(std::max<uint64_t>(1, report->attempted())),
                 "ratio");
    report->Info("generator_late_max_us",
                 lateness.empty() ? 0 : *std::max_element(lateness.begin(), lateness.end()),
                 "us");
    report->Info("generator_late_p99_us", Percentile(lateness, 0.99), "us");

    report->Emit("setup_s", Median(setups), "s");
    // voter-wire: the reference rung's cost and memory. voter-wire-ladder:
    // the sustained rate, and memory including the overload rungs.
    report->Emit("peak_rss_mb", ladder ? PeakRssMiB() : phase.reference_rss_mib, "MiB");
    report->Emit("rate_per_s", ladder ? phase.max_rate : votes_per_cpu_s, "1/s");
    report->Emit("p50_us", ref.p50_us, "us");
  } else {
    // Untraced reference rung (default sampling, no spans), then the traced
    // phase; the CPU cost per vote of the two reference rungs gives the
    // tracing overhead (at a fixed offered rate, overhead shows as CPU).
    SpanRecorder off(false);
    Phase plain;
    RunPhase(args, options(false), ref_seconds, 0, contestants, &off, report, &plain);
    SpanRecorder spans(true);
    Phase traced;
    RunPhase(args, options(true), ref_seconds, rung_seconds, contestants, &spans,
             report, &traced);
    AddRungAccounting(plain.reference, report);
    AddRungAccounting(traced.reference, report);
    for (const RungResult& r : traced.ladder) AddRungAccounting(r, report);

    const double cpu_plain = plain.reference.cpu_s /
                             std::max<double>(1, static_cast<double>(plain.reference.attempted));
    const double cpu_traced = traced.reference.cpu_s /
                              std::max<double>(1, static_cast<double>(traced.reference.attempted));
    LayerMetrics m;
    std::vector<double> encode = spans.DurationsUs("WireClient::SubmitAsync");
    std::vector<double> flush = spans.DurationsUs("WireClient::Flush");
    m.Set("server.encode_us_p50", Percentile(encode, 0.5));
    m.Set("server.encode_us_p99", Percentile(encode, 0.99));
    m.Set("server.flush_us_p50", Percentile(flush, 0.5));
    m.Set("server.flush_us_p99", Percentile(flush, 0.99));
    const WireServer::Stats& s = traced.server;
    m.Set("server.frames_per_batch",
          s.batches_submitted == 0 ? 0
                                   : static_cast<double>(s.frames_received) /
                                         static_cast<double>(s.batches_submitted));
    m.Set("server.busy_shed_frac",
          s.frames_received == 0 ? 0
                                 : static_cast<double>(s.busy_shed) /
                                       static_cast<double>(s.frames_received));
    m.Set("server.max_conn_inflight", static_cast<double>(s.max_conn_inflight));
    // Server self time: response latency minus the sampled partition
    // spans, as distributions over the same interval (spans are not yet
    // joined per request).
    std::vector<double> lat = traced.reference.latency_us;
    std::vector<double> part = traced.stages.txn_total_us;
    m.Set("server.self_us_p50", Percentile(lat, 0.5) - Percentile(part, 0.5));
    m.Set("server.self_us_p99", Percentile(lat, 0.99) - Percentile(part, 0.99));
    FillEngineAndLog(traced.stats, traced.stages, &m);
    m.Set("obs.trace_overhead_frac", cpu_traced / cpu_plain - 1);
    m.Emit(report);
    report->Info("cpu_us_per_vote_untraced", cpu_plain * 1e6, "us");
    report->Info("cpu_us_per_vote_traced", cpu_traced * 1e6, "us");
    if (ladder) report->Info("wire_max_rate_traced", traced.max_rate, "votes/s");
    std::vector<sstore::TraceEvent> events = traced.stages.events;
    WriteTrace(args, spans, events);
  }
  RemoveTree(log_root);
}

}  // namespace perfbench
