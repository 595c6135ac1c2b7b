#include <fcntl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

/// TraceNowMicros() − NowNs()/1000, fixed at first use: maps the
/// benchmark's steady-clock stamps onto the library's trace timebase so
/// both kinds of spans line up in one chrome-trace file.
int64_t TraceOffsetUs() {
  static const int64_t offset = sstore::TraceNowMicros() - NowNs() / 1000;
  return offset;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Layer a cluster stage span belongs to.
const char* StageLayer(const std::string& stage) {
  if (stage == "log_append") return "log";
  if (stage == "channel_forward") return "streaming";
  return "engine";
}

}  // namespace

// ---- Statistics -------------------------------------------------------------

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) { return Percentile(v, 0.5); }

double WindowedPercentile(const std::vector<double>& v, size_t windows, double p) {
  windows = std::clamp<size_t>(windows, 1, std::max<size_t>(1, v.size()));
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> part(v.begin() + static_cast<std::ptrdiff_t>(v.size() * w / windows),
                             v.begin() + static_cast<std::ptrdiff_t>(v.size() * (w + 1) / windows));
    if (!part.empty()) per_window.push_back(Percentile(part, p));
  }
  return Median(per_window);
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---- SpanRecorder ------------------------------------------------------------

int64_t SpanRecorder::Begin(const char* name, const char* layer) {
  Open open{name, layer, NowNs(), -1,
            stack_.empty() ? -1 : stack_.back().kept_index};
  if (kept_.size() < kMaxKept) {
    open.kept_index = static_cast<int32_t>(kept_.size());
    kept_.push_back(Span{name, layer, open.start_ns, 0, open.parent});
  } else {
    ++dropped_;
  }
  stack_.push_back(open);
  return static_cast<int64_t>(stack_.size() - 1);
}

void SpanRecorder::End(int64_t token) {
  // Spans nest strictly on the one recording thread.
  const Open open = stack_[static_cast<size_t>(token)];
  stack_.resize(static_cast<size_t>(token));
  const int64_t dur = NowNs() - open.start_ns;
  if (open.kept_index >= 0) kept_[open.kept_index].dur_ns = dur;
  durations_us_[open.name].push_back(static_cast<double>(dur) * 1e-3);
}

std::vector<double> SpanRecorder::DurationsUs(const std::string& name) const {
  auto it = durations_us_.find(name);
  return it == durations_us_.end() ? std::vector<double>{} : it->second;
}

// ---- Report ------------------------------------------------------------------

void Report::Emit(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit) {
  info_.push_back({name, value, unit});
}

void Report::Context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, value);
}

bool Report::Check(const std::string& name, double observed,
                   double expected) {
  if (args_.corrupt == name) observed += 1;
  const bool ok = observed == expected;
  char line[256];
  std::snprintf(line, sizeof(line), "check %-28s %s (observed %.12g, expected %.12g)",
                name.c_str(), ok ? "ok  " : "FAIL", observed, expected);
  check_lines_.push_back(line);
  if (!ok) correct_ = false;
  return ok;
}

bool Report::CheckStatus(const std::string& name,
                         const sstore::Status& status) {
  sstore::Status s = status;
  if (args_.corrupt == name && s.ok()) {
    s = sstore::Status::Internal("deliberately corrupted result");
  }
  check_lines_.push_back("check " + name + " " +
                         (s.ok() ? std::string("ok") : "FAIL: " + s.ToString()));
  if (!s.ok()) correct_ = false;
  return s.ok();
}

void Report::Threads(int generator_threads, int program_threads) {
  const unsigned nproc = std::thread::hardware_concurrency();
  const int total = generator_threads + program_threads;
  Context("generator_threads", std::to_string(generator_threads));
  Context("program_threads", std::to_string(program_threads));
  Context("oversubscribed",
          total > static_cast<int>(nproc) ? "yes (" + std::to_string(total) +
                                                " threads > nproc " +
                                                std::to_string(nproc) + ")"
                                          : "no");
}

void Report::Fail(const std::string& why) {
  check_lines_.push_back("error: " + why);
  correct_ = false;
}

void Report::Print() const {
  std::printf("== perfbench %s (seed %llu, %s run) ==\n", args_.workload.c_str(),
              static_cast<unsigned long long>(args_.seed),
              args_.trace ? "traced" : "untraced");
  std::printf("context: nproc=%u build=%s compiler=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER);
  for (const auto& [k, v] : context_) {
    std::printf("context: %s=%s\n", k.c_str(), v.c_str());
  }
  for (const Metric& m : info_) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : metrics_) {
    std::printf("* %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& line : check_lines_) {
    std::printf("%s\n", line.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted_, 1));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i != 0) json += ", ";
    json += JsonString(metrics_[i].name) + ": {\"value\": " +
            JsonNumber(metrics_[i].value) +
            ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- Per-layer metrics ---------------------------------------------------------

namespace {

struct LayerMetricDef {
  const char* name;
  const char* unit;
};

// The README's layer -> end-to-end map documents what each one should move.
const LayerMetricDef kLayerMetrics[] = {
    {"server.encode_us_p50", "us"},
    {"server.encode_us_p99", "us"},
    {"server.flush_us_p50", "us"},
    {"server.flush_us_p99", "us"},
    {"server.frames_per_batch", "ratio"},
    {"server.busy_shed_frac", "ratio"},
    {"server.max_conn_inflight", "count"},
    {"server.self_us_p50", "us"},
    {"server.self_us_p99", "us"},
    {"cluster.inject_us_p50", "us"},
    {"cluster.inject_us_p99", "us"},
    {"cluster.producer_blocks", "count"},
    {"cluster.submit_us_p50", "us"},
    {"cluster.submit_us_p99", "us"},
    {"engine.queue_wait_us_p50", "us"},
    {"engine.queue_wait_us_p99", "us"},
    {"engine.execute_us_p50", "us"},
    {"engine.execute_us_p99", "us"},
    {"engine.commit_hooks_us_p50", "us"},
    {"engine.commit_hooks_us_p99", "us"},
    {"engine.fragments_per_txn", "ratio"},
    {"engine.queue_hwm", "count"},
    {"engine.abort_frac", "ratio"},
    {"streaming.internal_txns_per_report", "ratio"},
    {"streaming.ee_firings_per_report", "ratio"},
    {"streaming.boundary_bytes_per_report", "B"},
    {"storage.state_rows", "count"},
    {"log.flushes_per_ktxn", "ratio"},
    {"log.bytes_per_txn", "B"},
    {"log.append_us_p50", "us"},
    {"log.append_us_p99", "us"},
    {"txn_coord.call_us_p50", "us"},
    {"txn_coord.call_us_p99", "us"},
    {"txn_coord.round_us", "us"},
    {"txn_coord.prepares_per_mp", "ratio"},
    {"txn_coord.abort_frac", "ratio"},
    {"checkpointer.cuts", "count"},
    {"checkpointer.max_pause_us", "us"},
    {"checkpointer.busy_deferred", "count"},
    {"checkpointer.delta_tables", "count"},
    {"recovery.suffix_bytes", "B"},
    {"obs.trace_overhead_frac", "ratio"},
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

LayerMetrics::LayerMetrics() {
  for (const LayerMetricDef& def : kLayerMetrics) values_[def.name] = 0;
}

void LayerMetrics::Set(const std::string& name, double value) {
  auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::invalid_argument("unknown per-layer metric " + name);
  }
  it->second = value;
}

void LayerMetrics::Emit(Report* report) const {
  for (const LayerMetricDef& def : kLayerMetrics) {
    report->Emit(def.name, values_.at(def.name), def.unit);
  }
}

sstore::ClusterStats StatsSince(const sstore::ClusterStats& before,
                                sstore::ClusterStats after) {
  after.txn.committed -= before.txn.committed;
  after.txn.aborted -= before.txn.aborted;
  after.txn.client_requests -= before.txn.client_requests;
  after.txn.internal_requests -= before.txn.internal_requests;
  after.txn.producer_blocks -= before.txn.producer_blocks;
  after.engine.fragments_executed -= before.engine.fragments_executed;
  after.engine.ee_trigger_firings -= before.engine.ee_trigger_firings;
  after.engine.boundary_crossings -= before.engine.boundary_crossings;
  after.engine.boundary_bytes -= before.engine.boundary_bytes;
  after.log.records_appended -= before.log.records_appended;
  after.log.flush_count -= before.log.flush_count;
  after.log.bytes_written -= before.log.bytes_written;
  after.coord.multi_txns -= before.coord.multi_txns;
  after.coord.prepares -= before.coord.prepares;
  after.coord.aborts -= before.coord.aborts;
  after.coord.rounds -= before.coord.rounds;
  after.coord.round_latency_us_total -= before.coord.round_latency_us_total;
  return after;
}

void FillEngineAndLog(const sstore::ClusterStats& stats,
                      const StageSpans& stages, LayerMetrics* m) {
  auto stage = [&](const char* name, double p) {
    auto it = stages.stage_us.find(name);
    if (it == stages.stage_us.end()) return 0.0;
    std::vector<double> v = it->second;
    return Percentile(v, p);
  };
  m->Set("engine.queue_wait_us_p50", stage("queue_wait", 0.5));
  m->Set("engine.queue_wait_us_p99", stage("queue_wait", 0.99));
  m->Set("engine.execute_us_p50", stage("execute", 0.5));
  m->Set("engine.execute_us_p99", stage("execute", 0.99));
  m->Set("engine.commit_hooks_us_p50", stage("commit_hooks", 0.5));
  m->Set("engine.commit_hooks_us_p99", stage("commit_hooks", 0.99));
  m->Set("log.append_us_p50", stage("log_append", 0.5));
  m->Set("log.append_us_p99", stage("log_append", 0.99));
  const double txns = static_cast<double>(stats.txn.committed + stats.txn.aborted);
  m->Set("engine.fragments_per_txn",
         Ratio(static_cast<double>(stats.engine.fragments_executed), txns));
  m->Set("engine.queue_hwm", static_cast<double>(stats.txn.queue_high_watermark));
  m->Set("engine.abort_frac", Ratio(static_cast<double>(stats.txn.aborted), txns));
  m->Set("cluster.producer_blocks", static_cast<double>(stats.txn.producer_blocks));
  const double records = static_cast<double>(stats.log.records_appended);
  m->Set("log.flushes_per_ktxn",
         Ratio(static_cast<double>(stats.log.flush_count) * 1000.0, records));
  m->Set("log.bytes_per_txn", Ratio(static_cast<double>(stats.log.bytes_written), records));
}

// ---- Cluster stage spans -----------------------------------------------------

StageSpans CollectStageSpans(sstore::Cluster& cluster) {
  StageSpans out;
  std::map<std::pair<int32_t, int64_t>, double> per_txn;
  for (size_t p = 0; p < cluster.num_partitions(); ++p) {
    sstore::TraceRing* ring = cluster.trace_ring(p);
    if (ring == nullptr) continue;
    for (const sstore::TraceEvent& ev : ring->Events()) {
      out.events.push_back(ev);
      out.stage_us[ev.name].push_back(static_cast<double>(ev.dur_us));
      per_txn[{ev.tid, ev.id}] += static_cast<double>(ev.dur_us);
    }
  }
  for (const auto& [key, total] : per_txn) out.txn_total_us.push_back(total);
  return out;
}

void ApplyTraceSampling(sstore::Cluster::Options* opts, uint32_t trace_every) {
  opts->latency_sample_every = 1;
  opts->trace_sample_every = trace_every;
  opts->trace_ring_capacity = 1 << 17;
}

// ---- Trace file + per-layer table ---------------------------------------------

std::string WriteTrace(const Args& args, const SpanRecorder& spans,
                       const std::vector<sstore::TraceEvent>& stage_events) {
  std::filesystem::create_directories(args.out_dir);
  const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return "";
  const int64_t offset = TraceOffsetUs();
  std::fprintf(f, "[");
  bool first = true;
  for (const Span& s : spans.kept()) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":\"bench\"}",
                 first ? "" : ",", s.name, s.layer,
                 static_cast<double>(s.start_ns) * 1e-3 + static_cast<double>(offset),
                 static_cast<double>(s.dur_ns) * 1e-3);
    first = false;
  }
  for (const sstore::TraceEvent& ev : stage_events) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%lld,"
                 "\"dur\":%lld,\"pid\":1,\"tid\":\"partition-%d\","
                 "\"args\":{\"txn\":%lld}}",
                 first ? "" : ",", ev.name, StageLayer(ev.name),
                 static_cast<long long>(ev.ts_us),
                 static_cast<long long>(ev.dur_us), ev.tid,
                 static_cast<long long>(ev.id));
    first = false;
  }
  std::fprintf(f, "\n]\n");
  std::fclose(f);

  // Per-layer table: total span time, and self time = span minus the time
  // its (same-thread, nested) child spans cover. Stage spans are leaves.
  struct Row {
    uint64_t spans = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Row> rows;
  std::vector<double> child_ms(spans.kept().size(), 0.0);
  for (const Span& s : spans.kept()) {
    if (s.parent >= 0) child_ms[s.parent] += static_cast<double>(s.dur_ns) * 1e-6;
  }
  for (size_t i = 0; i < spans.kept().size(); ++i) {
    const Span& s = spans.kept()[i];
    Row& row = rows[std::string("bench:") + s.layer];
    ++row.spans;
    row.total_ms += static_cast<double>(s.dur_ns) * 1e-6;
    row.self_ms += static_cast<double>(s.dur_ns) * 1e-6 - child_ms[i];
  }
  for (const sstore::TraceEvent& ev : stage_events) {
    Row& row = rows[std::string("partition:") + StageLayer(ev.name)];
    ++row.spans;
    row.total_ms += static_cast<double>(ev.dur_us) * 1e-3;
    row.self_ms += static_cast<double>(ev.dur_us) * 1e-3;
  }
  std::printf("per-layer table (%s; benchmark spans kept %zu, dropped %llu):\n",
              args.workload.c_str(), spans.kept().size(),
              static_cast<unsigned long long>(spans.dropped()));
  std::printf("  %-22s %10s %14s %14s\n", "layer", "spans", "total_ms", "self_ms");
  for (const auto& [layer, row] : rows) {
    std::printf("  %-22s %10llu %14.3f %14.3f\n", layer.c_str(),
                static_cast<unsigned long long>(row.spans), row.total_ms,
                row.self_ms);
  }
  std::printf("trace file: %s\n", path.c_str());
  return path;
}

// ---- Scratch directories -----------------------------------------------------

std::string MakeRunDir(const Args& args) {
  const std::string dir =
      args.out_dir + "/data-" + args.workload + "-" + std::to_string(::getpid());
  RemoveTree(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

void SyncFileSystem(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

}  // namespace perfbench
