// linear-road and linear-road-2p: the paper's Figure 11 job, closed loop,
// in process.
//
// The replicated Linear Road deployment (BuildLinearRoadDeployment) on a
// Cluster with x-way modulo routing; a ClusterInjector keyed by the x-way
// column injects one batch per simulated second (InjectBatchAsync), keeping
// a fixed window of seconds outstanding. All reports are generated from the
// seed before timing. Each pass runs the whole simulated duration, so
// per-vehicle and historical state grow through the pass.
//
// linear-road alternates 2- and 1-partition passes until the run's time is
// used; the 1- and 2-partition results of the same input must be
// identical. linear-road-2p runs 2-partition passes only; every pass of the
// same input must give the same results. Both check that every report
// committed.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "cluster/cluster_injector.h"
#include "workloads/linear_road.h"

namespace perfbench {

namespace {

using sstore::Cluster;
using sstore::ClusterInjector;
using sstore::LinearRoadConfig;

/// Simulated seconds kept in flight by the closed loop.
constexpr size_t kWindow = 4;

LinearRoadConfig LrConfig(const Args& args) {
  LinearRoadConfig config;
  config.num_xways = 4;
  config.vehicles_per_xway = args.tiny ? 20 : 150;
  config.num_segments = 100;
  config.duration_sec = args.tiny ? 70 : 240;
  config.stop_probability = 0.002;
  config.seed = args.seed;
  return config;
}

/// Application results of one pass, compared across partition counts.
struct LrOutcome {
  double tolls = 0;
  double archived = 0;
  double notifications = 0;
  double state_rows = 0;
};

struct PassResult {
  double setup_s = 0;
  double run_s = 0;
  double reports = 0;
  std::vector<double> batch_latency_us;
  LrOutcome outcome;
  sstore::ClusterStats stats;
  StageSpans stages;

  double reports_per_s() const { return reports / run_s; }
};

sstore::Status RunPass(const LinearRoadConfig& config,
                       const std::vector<std::vector<sstore::Tuple>>& input,
                       int partitions, bool traced, SpanRecorder* spans,
                       PassResult* out) {
  // Copy the input before timing: injection consumes it.
  std::vector<std::vector<sstore::Tuple>> seconds = input;

  const int64_t t_setup = NowNs();
  Cluster::Options opts;
  opts.num_partitions = partitions;
  opts.routing = sstore::PartitionMap::Mode::kModulo;  // x-way w -> w % P
  if (traced) ApplyTraceSampling(&opts, 4);
  Cluster cluster(opts);
  SSTORE_RETURN_NOT_OK(cluster.Deploy(sstore::BuildLinearRoadDeployment(config)));
  cluster.Start();
  ClusterInjector::Options inj;
  inj.key_column = 2;  // x-way
  inj.max_queue_depth = 4096;
  ClusterInjector injector(&cluster, "position_report", inj);
  out->setup_s = SecondsSince(t_setup);

  std::optional<ScopedSpan> pass;  // the timed region only
  pass.emplace(spans, "linear-road pass", "generator");
  const int64_t t0 = NowNs();
  struct InFlight {
    int64_t submit_ns;
    sstore::ClusterBatchTicket ticket;
  };
  std::deque<InFlight> window;
  auto retire_oldest = [&]() {
    window.front().ticket.Wait();
    out->batch_latency_us.push_back(
        static_cast<double>(NowNs() - window.front().submit_ns) * 1e-3);
    window.pop_front();
  };
  for (std::vector<sstore::Tuple>& second : seconds) {
    if (window.size() >= kWindow) retire_oldest();
    out->reports += static_cast<double>(second.size());
    const int64_t submit = NowNs();
    ScopedSpan span(spans, "ClusterInjector::InjectBatchAsync", "cluster");
    window.push_back({submit, injector.InjectBatchAsync(std::move(second))});
  }
  while (!window.empty()) retire_oldest();
  {
    ScopedSpan span(spans, "Cluster::WaitIdle", "cluster");
    cluster.WaitIdle();  // PE-triggered minute rollups drain too
  }
  out->run_s = SecondsSince(t0);
  pass.reset();
  out->stats = cluster.GatherStats();
  if (traced) out->stages = CollectStageSpans(cluster);

  for (size_t p = 0; p < cluster.num_partitions(); ++p) {
    sstore::LinearRoadApp app(&cluster.store(p), config);
    SSTORE_ASSIGN_OR_RETURN(double tolls, app.TotalTollsCharged());
    SSTORE_ASSIGN_OR_RETURN(size_t archived, app.ArchivedStats());
    SSTORE_ASSIGN_OR_RETURN(size_t notes, app.DrainNotifications());
    out->outcome.tolls += tolls;
    out->outcome.archived += static_cast<double>(archived);
    out->outcome.notifications += static_cast<double>(notes);
    for (const char* table : {"lr_vehicles", "lr_segstats", "lr_accidents", "lr_stopped"}) {
      SSTORE_ASSIGN_OR_RETURN(sstore::Table * t, cluster.store(p).catalog().GetTable(table));
      out->outcome.state_rows += static_cast<double>(t->row_count());
    }
  }
  cluster.Stop();
  return sstore::Status::OK();
}

/// Outcome equality of two passes over the same input. `what` names the
/// comparison: "1p_eq_2p" across partition counts, "repeat" across passes
/// at one partition count.
void CheckSameOutcome(const std::string& what, const PassResult& a, const PassResult& b,
                      Report* report) {
  report->Check("lr_tolls_" + what, b.outcome.tolls, a.outcome.tolls);
  report->Check("lr_archived_" + what, b.outcome.archived, a.outcome.archived);
  report->Check("lr_notifications_" + what, b.outcome.notifications,
                a.outcome.notifications);
}

/// Every injected report committed once: client-submitted commits (all
/// commits minus the PE-triggered rollups) equal the reports injected.
void CheckAllCommitted(const PassResult& pass, Report* report) {
  const sstore::ClusterStats& s = pass.stats;
  report->Check("lr_reports_committed",
                static_cast<double>(s.txn.committed) -
                    static_cast<double>(s.txn.internal_requests),
                pass.reports);
  report->Check("lr_no_aborts", static_cast<double>(s.txn.aborted), 0);
}

}  // namespace

void RunLinearRoad(const Args& args, bool compare_1p, Report* report) {
  const LinearRoadConfig config = LrConfig(args);
  report->Context("partitions", compare_1p ? "1 then 2 (alternating passes)" : "2");
  report->Context("loop", "closed (" + std::to_string(kWindow) +
                              " simulated seconds in flight)");
  // Generator thread + up to 2 partition workers.
  report->Threads(1, 2);

  sstore::LinearRoadGenerator gen(config);
  std::vector<std::vector<sstore::Tuple>> input;
  double reports = 0;
  for (int s = 0; s < config.duration_sec; ++s) {
    std::vector<sstore::Tuple> second;
    for (const sstore::PositionReport& r : gen.NextSecond()) second.push_back(r.ToTuple());
    reports += static_cast<double>(second.size());
    input.push_back(std::move(second));
  }
  char size[160];
  std::snprintf(size, sizeof(size),
                "%d x-ways x %d vehicles x %d simulated s = %.0f reports per pass",
                config.num_xways, config.vehicles_per_xway, config.duration_sec, reports);
  report->Context("input", size);

  SpanRecorder off(false);
  SpanRecorder spans(args.trace);
  const int64_t start = NowNs();
  const double budget = args.tiny ? 0 : args.seconds;
  auto run = [&](int partitions, bool traced, PassResult* out) {
    sstore::Status st =
        RunPass(config, input, partitions, traced, traced ? &spans : &off, out);
    if (!st.ok()) {
      report->Fail("pass: " + st.ToString());
      return false;
    }
    CheckAllCommitted(*out, report);
    report->CountAttempted(static_cast<uint64_t>(out->reports));
    report->CountFailed(out->stats.aborted());
    return true;
  };

  // The first 2-partition pass: the reference every later pass must match
  // (and, for linear-road, what the 1-partition passes must match).
  PassResult first;
  if (!run(2, false, &first)) return;
  std::vector<double> setups = {first.setup_s};

  if (!args.trace) {
    std::vector<double> rate_1p, rate_2p = {first.reports_per_s()}, latency = first.batch_latency_us;
    std::vector<double> scale;
    do {  // at least one more pass, even in tiny runs
      PassResult pass;
      if (compare_1p) {
        if (!run(1, false, &pass)) return;
        CheckSameOutcome("1p_eq_2p", pass, first, report);
        rate_1p.push_back(pass.reports_per_s());
        scale.push_back(rate_2p.back() / pass.reports_per_s());
      } else {
        if (!run(2, false, &pass)) return;
        CheckSameOutcome("repeat", first, pass, report);
        rate_2p.push_back(pass.reports_per_s());
        latency.insert(latency.end(), pass.batch_latency_us.begin(), pass.batch_latency_us.end());
      }
      setups.push_back(pass.setup_s);
      if (compare_1p && SecondsSince(start) < budget * 0.85) {
        PassResult two;
        if (!run(2, false, &two)) return;
        CheckSameOutcome("repeat", first, two, report);
        rate_2p.push_back(two.reports_per_s());
        latency.insert(latency.end(), two.batch_latency_us.begin(), two.batch_latency_us.end());
        setups.push_back(two.setup_s);
      }
    } while (SecondsSince(start) < budget * 0.85);
    report->Info("passes_2p", static_cast<double>(rate_2p.size()), "count");
    report->Info("lr_reports_per_s", Median(rate_2p), "reports/s");
    if (compare_1p) {
      report->Info("lr_reports_per_s_1p", Median(rate_1p), "reports/s");
      report->Info("lr_scale_2p", Median(scale), "ratio");
    }
    std::vector<double> lat = latency;
    report->Info("batch_p50_us", Percentile(lat, 0.5), "us");
    report->Info("batch_p99_us", Percentile(lat, 0.99), "us");
    report->Info("batch_latency_samples", static_cast<double>(latency.size()), "count");
    report->Emit("setup_s", Median(setups), "s");
    report->Emit("peak_rss_mb", PeakRssMiB(), "MiB");
    report->Emit("rate_per_s", Median(rate_2p), "1/s");
    report->Emit("p50_us", Percentile(lat, 0.5), "us");
  } else {
    // Untraced and traced 2-partition passes alternate; the tracing
    // overhead is the drop in reports/s from untraced to traced.
    std::vector<double> plain_rate = {first.reports_per_s()}, traced_rate;
    PassResult traced;
    do {
      traced = PassResult();
      if (!run(2, true, &traced)) return;
      CheckSameOutcome("repeat", first, traced, report);
      traced_rate.push_back(traced.reports_per_s());
      if (SecondsSince(start) >= budget * 0.85) break;
      PassResult plain;
      if (!run(2, false, &plain)) return;
      CheckSameOutcome("repeat", first, plain, report);
      plain_rate.push_back(plain.reports_per_s());
    } while (SecondsSince(start) < budget * 0.85);
    if (compare_1p) {
      PassResult one;
      if (!run(1, false, &one)) return;
      CheckSameOutcome("1p_eq_2p", one, first, report);
    }

    LayerMetrics m;
    std::vector<double> inject = spans.DurationsUs("ClusterInjector::InjectBatchAsync");
    m.Set("cluster.inject_us_p50", Percentile(inject, 0.5));
    m.Set("cluster.inject_us_p99", Percentile(inject, 0.99));
    FillEngineAndLog(traced.stats, traced.stages, &m);
    const sstore::ClusterStats& s = traced.stats;
    m.Set("streaming.internal_txns_per_report",
          static_cast<double>(s.txn.internal_requests) / traced.reports);
    m.Set("streaming.ee_firings_per_report",
          static_cast<double>(s.engine.ee_trigger_firings) / traced.reports);
    m.Set("streaming.boundary_bytes_per_report",
          static_cast<double>(s.engine.boundary_bytes) / traced.reports);
    m.Set("storage.state_rows", traced.outcome.state_rows);
    m.Set("obs.trace_overhead_frac", 1 - Median(traced_rate) / Median(plain_rate));
    m.Emit(report);
    report->Info("lr_reports_per_s_untraced", Median(plain_rate), "reports/s");
    report->Info("lr_reports_per_s_traced", Median(traced_rate), "reports/s");
    WriteTrace(args, spans, traced.stages.events);
  }
}

}  // namespace perfbench
