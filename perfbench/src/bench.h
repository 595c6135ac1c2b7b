// Shared pieces of the end-to-end benchmark driver: arguments, the result
// report (metrics with units, run context, correctness checks), the
// benchmark-side span recorder, and small statistics helpers.
//
// Every workload runs against the public API of a Release build of the
// sstore library; nothing here reaches into the library's internals.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "obs/trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// 0: untraced run (end-to-end metrics). 1: traced run (per-layer
  /// metrics, chrome-trace file, tracing overhead).
  bool trace = false;
  /// Tiny inputs and short phases, for the self-test.
  bool tiny = false;
  /// Name of one correctness check whose observed value is deliberately
  /// perturbed, to show the check trips (self-test only).
  std::string corrupt;
  /// Where the traced run writes its chrome-trace JSON; also the parent of
  /// the per-run data directory (command logs, checkpoints).
  std::string out_dir = ".bench_build/out";
};

// ---- Time -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// ---- Statistics -------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 1]) of `v`; sorts `v`. 0 when empty.
double Percentile(std::vector<double>& v, double p);
double Median(std::vector<double> v);
/// Splits `v` (samples in time order) into `windows` consecutive equal
/// parts and returns the median over the parts of each part's p-th
/// percentile: a run-level figure that a short host hiccup in one part
/// cannot swing. 0 when empty.
double WindowedPercentile(const std::vector<double>& v, size_t windows, double p);

/// Peak resident set size of this process so far (VmHWM), MiB.
double PeakRssMiB();
/// User + system CPU time of the whole process so far, seconds.
double ProcessCpuSeconds();
/// CPU time of the calling thread so far, seconds.
double ThreadCpuSeconds();

// ---- Benchmark-side spans --------------------------------------------------

/// One timed call into a layer's public function, recorded by the
/// benchmark around the call (chrome-trace "X" event on the benchmark's own
/// thread). `parent` is the index of the enclosing span, or -1.
struct Span {
  const char* name;
  const char* layer;
  int64_t start_ns;
  int64_t dur_ns;
  int32_t parent;
};

/// In-memory span recorder for the traced run. Single-threaded: only the
/// workload's generator thread records. Disabled recorders cost one branch.
/// Every span feeds its name's duration distribution; the first
/// `kMaxKept` spans are also kept for the chrome-trace file.
class SpanRecorder {
 public:
  static constexpr size_t kMaxKept = 200000;

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its token for End (or -1 when disabled).
  int64_t Begin(const char* name, const char* layer);
  void End(int64_t token);

  /// Duration samples (µs) of every span with this name.
  std::vector<double> DurationsUs(const std::string& name) const;
  const std::vector<Span>& kept() const { return kept_; }
  uint64_t dropped() const { return dropped_; }

 private:
  struct Open {
    const char* name;
    const char* layer;
    int64_t start_ns;
    int32_t kept_index;
    int32_t parent;
  };
  bool enabled_;
  std::vector<Open> stack_;
  std::vector<Span> kept_;
  std::map<std::string, std::vector<double>> durations_us_;
  uint64_t dropped_ = 0;
};

/// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, const char* layer)
      : rec_(rec), token_(rec->enabled() ? rec->Begin(name, layer) : -1) {}
  ~ScopedSpan() {
    if (token_ >= 0) rec_->End(token_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int64_t token_;
};

// ---- Report ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one run prints: the run context, end-to-end or per-layer
/// metrics, informational values, and the correctness checks.
class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  /// A metric that goes into the final JSON line's "metrics" object.
  void Emit(const std::string& name, double value, const std::string& unit);
  /// A value printed for the reader only (workload-specific names, rung
  /// tables); not part of the JSON metrics.
  void Info(const std::string& name, double value, const std::string& unit);
  void Context(const std::string& key, const std::string& value);

  /// Records one correctness check. `observed` is perturbed by +1 when the
  /// check is the one named by --corrupt, so the self-test can show that
  /// the check trips. Returns whether the check held.
  bool Check(const std::string& name, double observed, double expected);
  /// A check that is a Status from the library (e.g. CheckInvariant);
  /// --corrupt turns an OK into a failure.
  bool CheckStatus(const std::string& name, const sstore::Status& status);

  void CountAttempted(uint64_t n) { attempted_ += n; }
  void CountFailed(uint64_t n) { failed_ += n; }
  /// Declares the threads this workload runs (generator + program
  /// threads), so the report can flag oversubscription of nproc.
  void Threads(int generator_threads, int program_threads);
  /// Fails the run outright (setup or API error); the run is not correct.
  void Fail(const std::string& why);

  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// Prints the human-readable report, then the JSON result as the last
  /// line of stdout.
  void Print() const;

 private:
  const Args& args_;
  std::vector<Metric> metrics_;
  std::vector<Metric> info_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<std::string> check_lines_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---- Per-layer metrics ----------------------------------------------------

/// The per-layer metrics of the traced run. Every workload emits every
/// name (0 where the workload does no work in that layer), in this order.
class LayerMetrics {
 public:
  LayerMetrics();
  /// Sets one metric; throws on a name that is not in the table.
  void Set(const std::string& name, double value);
  void Emit(Report* report) const;

 private:
  std::map<std::string, double> values_;
};

// ---- Cluster-side trace spans ----------------------------------------------

/// Stage spans (queue_wait, execute, log_append, commit_hooks) read back
/// from every partition's trace ring, with per-stage duration samples and
/// the per-transaction sum of the stages.
struct StageSpans {
  std::vector<sstore::TraceEvent> events;
  std::map<std::string, std::vector<double>> stage_us;
  /// Per sampled transaction (partition, txn id): sum of its stage spans.
  std::vector<double> txn_total_us;
};
StageSpans CollectStageSpans(sstore::Cluster& cluster);

/// Counter deltas of one phase: `after` minus `before` for the summed
/// transaction, engine, log and coordinator counters (high-water marks
/// and per-partition vectors are left as in `after`).
sstore::ClusterStats StatsSince(const sstore::ClusterStats& before,
                                sstore::ClusterStats after);

/// Fills the engine.* and log.* per-layer metrics from a phase's cluster
/// counter deltas and stage spans.
void FillEngineAndLog(const sstore::ClusterStats& stats,
                      const StageSpans& stages, LayerMetrics* m);

/// Cluster options for the traced run: every batch latency-sampled, one in
/// `trace_every` traced, rings deep enough to hold a phase's spans. The
/// untraced run keeps the library's default always-on sampling.
void ApplyTraceSampling(sstore::Cluster::Options* opts, uint32_t trace_every);

/// Writes the benchmark's spans merged with the cluster stage spans as one
/// chrome-trace JSON array, and prints the per-layer self-time table
/// (self = span − time covered by its child spans). Returns the file path.
std::string WriteTrace(const Args& args, const SpanRecorder& spans,
                       const std::vector<sstore::TraceEvent>& stage_events);

/// Creates (empty) and returns a per-run scratch directory under out_dir.
std::string MakeRunDir(const Args& args);
void RemoveTree(const std::string& path);
/// Flushes the file system holding `path` (syncfs), so that write-back
/// left by earlier work does not land inside a timed set-up.
void SyncFileSystem(const std::string& path);

// ---- Workloads -------------------------------------------------------------

/// `ladder`: voter-wire-ladder (reference rung, then the rate ladder);
/// otherwise voter-wire (the reference rung only).
void RunVoterWire(const Args& args, bool ladder, Report* report);
/// `compare_1p`: linear-road (alternating 1- and 2-partition passes that
/// must agree); otherwise linear-road-2p (2-partition passes only).
void RunLinearRoad(const Args& args, bool compare_1p, Report* report);
void RunVoterMpDurable(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
