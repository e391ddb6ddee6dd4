// perfbench_run: runs one dphist benchmark workload in this process and
// prints a human-readable report followed by one "RESULT {json}" line
// (see run.py, which builds the program and turns that line into the
// benchmark's result).
//
//   perfbench_run --workload refresh_scan --seed 1 --seconds 10 --trace 0
//                 [--work-dir .bench_build/perfbench/work]
//
// Untraced runs measure the end-to-end metrics. Traced runs time half of
// the run untraced and half with spans on, and report the per-layer
// metrics plus the tracing overhead. run.py splits an untraced run over
// several such processes and reports the median of each metric.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "perfbench.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench/work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "refresh_scan") return MakeRefreshScan(seed);
  if (name == "planner_reads") return MakePlannerReads(seed);
  if (name == "maintenance_window") return MakeMaintenanceWindow(seed);
  if (name == "ingest_churn") return MakeIngestChurn(seed);
  return nullptr;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794c7630:
      return "overlayfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::string JsonObject(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    if (out.size() > 1) out += ",";
    out += JsonString(key) + ":" + JsonNumber(value);
  }
  return out + "}";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Highest percentile of the ladder, starting at `preferred`, that keeps
/// at least ten samples beyond it.
double TailPercentile(double preferred, size_t samples) {
  for (double p : {99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
    if (p > preferred) continue;
    if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer metrics in report order, with units.
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"svc.submit_us", "us"},          {"svc.queue_ms", "ms"},
      {"svc.serve_ms", "ms"},           {"svc.cache_hit_ratio", "ratio"},
      {"svc.notify_us", "us"},          {"accel.job_ms", "ms"},
      {"accel.rows_per_job_s", "1/s"},  {"accel.parallel_eff", "ratio"},
      {"accel.straggler_ratio", "ratio"}, {"accel.rows_binned", "count"},
      {"accel.pages_parsed", "count"},  {"sim.device_ms", "ms"},
      {"db.batch_self_ms", "ms"},       {"hist.estimate_us", "us"},
      {"ingest.absorb_ms", "ms"},       {"ingest.rescan_ms", "ms"},
      {"ingest.rescan_share", "ratio"}, {"persist.append_us", "us"},
      {"persist.checkpoint_ms", "ms"},  {"persist.sync_us", "us"},
      {"persist.syncs_per_install", "ratio"},
      {"persist.bytes_per_install", "B"},
      {"page.table_build_s", "s"},      {"obs.trace_overhead", "ratio"},
  };
  return kUnits;
}

double MeanNs(const SpanAggregate& totals, SpanKind kind) {
  const SpanTotals& t = totals[static_cast<size_t>(kind)];
  return t.count == 0 ? 0.0
                      : static_cast<double>(t.total_ns) /
                            static_cast<double>(t.count);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_run --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--work-dir DIR]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  namespace fs = std::filesystem;
  const std::string run_dir = args.work_dir + "/" + args.workload + "-seed" +
                              std::to_string(args.seed) +
                              (args.trace ? "-traced" : "");
  std::error_code ec;
  fs::remove_all(run_dir, ec);
  fs::create_directories(run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", run_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  // Set-up, timed from process start to the first timed operation.
  Spans::NameThread("main");
  Status status = workload->Setup(run_dir);
  if (!status.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const double setup_s = static_cast<double>(NowNanos()) * 1e-9;

  // Timed phases.
  Phase untraced, traced;
  SpanAggregate spans{};
  if (args.trace) {
    untraced = workload->Run(args.seconds / 2);
    Spans::SetEnabled(true);
    traced = workload->Run(args.seconds / 2);
    Spans::SetEnabled(false);
    spans = Spans::Totals();
  } else {
    untraced = workload->Run(args.seconds);
  }
  const Phase& main_phase = untraced;
  Outcome outcome = workload->Finish();

  // Correctness.
  uint64_t attempted = untraced.attempted + traced.attempted +
                       outcome.attempted;
  uint64_t failed = untraced.failed + traced.failed + outcome.failed;
  for (const std::string& key : outcome.must_be_zero) {
    if (outcome.guards[key] != 0) {
      outcome.errors.push_back("guard " + key + " = " +
                               JsonNumber(outcome.guards[key]) +
                               ", must be 0");
      ++failed;
    }
  }
  if (untraced.failed + traced.failed > 0) {
    outcome.errors.push_back(std::to_string(untraced.failed + traced.failed) +
                             " timed operations failed their output check");
  }
  const size_t samples = main_phase.latency.count();
  const double tail_p = TailPercentile(workload->tail_percentile(), samples);
  std::vector<std::string> notes = args.trace ? traced.notes : untraced.notes;
  if (tail_p != workload->tail_percentile()) {
    notes.push_back("tail_ms fell back to p" + JsonNumber(tail_p) +
                    ": too few samples for the preferred percentile");
  }

  std::vector<Metric> metrics;
  std::string trace_file;
  if (!args.trace) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"p50_ms", main_phase.latency.PercentileMs(50), "ms"},
        {"tail_ms", main_phase.latency.PercentileMs(tail_p), "ms"},
        {"work_per_s",
         main_phase.elapsed_s > 0 ? main_phase.work / main_phase.elapsed_s : 0,
         "1/s"},
        {"est_rel_err", workload->est_rel_err(), "ratio"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    std::map<std::string, double> layers = traced.layers;
    // Mean span durations, for the layers the traced phase called into.
    const std::pair<const char*, std::pair<SpanKind, double>> from_spans[] = {
        {"svc.submit_us", {SpanKind::kSvcSubmit, 1e-3}},
        {"svc.notify_us", {SpanKind::kSvcNotify, 1e-3}},
        {"hist.estimate_us", {SpanKind::kHistEstimate, 1e-3}},
        {"persist.append_us", {SpanKind::kPersistAppend, 1e-3}},
        {"persist.checkpoint_ms", {SpanKind::kPersistCheckpoint, 1e-6}},
        {"persist.sync_us", {SpanKind::kFsSync, 1e-3}},
    };
    for (const auto& [name, source] : from_spans) {
      if (spans[static_cast<size_t>(source.first)].count > 0) {
        layers[name] = MeanNs(spans, source.first) * source.second;
      }
    }
    layers["page.table_build_s"] = workload->table_build_s();
    const double p50_untraced = untraced.latency.PercentileMs(50);
    const double p50_traced = traced.latency.PercentileMs(50);
    layers["obs.trace_overhead"] =
        p50_untraced > 0 ? p50_traced / p50_untraced - 1 : 0;
    notes.push_back("obs.trace_overhead: traced p50 " +
                    JsonNumber(p50_traced) + " ms / untraced p50 " +
                    JsonNumber(p50_untraced) + " ms - 1");
    std::string unexercised;
    for (const auto& [name, unit] : LayerMetricUnits()) {
      auto it = layers.find(name);
      if (it == layers.end()) unexercised += " " + name;
      metrics.push_back({name, it == layers.end() ? 0.0 : it->second, unit});
    }
    if (!unexercised.empty()) {
      notes.push_back("reported as 0, the traced phase makes no call into "
                      "these layers:" + unexercised);
    }
    trace_file = args.work_dir + "/" + args.workload + "-seed" +
                 std::to_string(args.seed) + ".trace.json";
    Status written = Spans::WriteChromeTrace(trace_file);
    if (!written.ok()) {
      outcome.errors.push_back("trace: " + written.ToString());
      ++failed;
    }
  }
  fs::remove_all(run_dir, ec);

  // Human-readable report.
  const std::string wal_fs = FilesystemOf(args.work_dir);
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const std::string cpu = CpuModel();
  const char* flush_policy =
      "one fsync per WAL event (PosixFileSystem: fflush + fsync); snapshot "
      "fsync + rename + directory fsync; checkpoint every 64 stats installs "
      "(count trigger only)";
  std::printf("== perfbench %s  seed=%llu  seconds=%g  trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("host: nproc=%ld cpu=\"%s\" wal_fs=%s (work dir %s)\n", nproc,
              cpu.c_str(), wal_fs.c_str(), args.work_dir.c_str());
  std::printf("flush policy: %s\n", flush_policy);
  for (const auto& [key, value] : workload->facts()) {
    std::printf("workload %s: %s\n", key.c_str(), value.c_str());
  }
  std::printf("set-up seconds: %.4f\n", setup_s);
  std::printf("timed: %zu ops in %.3f s (%s), tail = p%g of %zu samples\n",
              samples, main_phase.elapsed_s, workload->work_unit(), tail_p,
              samples);
  std::printf("latency ms:");
  for (double p : {50.0, 90.0, 95.0, 98.0, 99.0, 99.9}) {
    std::printf(" p%g=%.4f", p, main_phase.latency.PercentileMs(p));
  }
  std::printf("\n%-28s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (args.trace) {
    std::printf("%-28s %10s %12s %12s %12s\n", "span (traced phase)", "count",
                "total_ms", "self_ms", "mean_us");
    for (size_t k = 0; k < spans.size(); ++k) {
      const SpanTotals& t = spans[k];
      if (t.count == 0) continue;
      std::printf("%-28s %10llu %12.3f %12.3f %12.3f\n",
                  SpanName(static_cast<SpanKind>(k)),
                  static_cast<unsigned long long>(t.count),
                  static_cast<double>(t.total_ns) * 1e-6,
                  static_cast<double>(t.self_ns) * 1e-6,
                  static_cast<double>(t.total_ns) * 1e-3 /
                      static_cast<double>(t.count));
    }
    std::printf("trace: %s\n", trace_file.c_str());
  }
  std::printf("guards:");
  for (const auto& [key, value] : outcome.guards) {
    std::printf(" %s=%s", key.c_str(), JsonNumber(value).c_str());
  }
  std::printf("\n");
  for (const std::string& note : notes) std::printf("note: %s\n", note.c_str());
  for (const std::string& error : outcome.errors) {
    std::printf("ERROR: %s\n", error.c_str());
  }

  // Machine-readable result.
  std::string json = "{\"workload\":" + JsonString(args.workload) +
                     ",\"seed\":" + std::to_string(args.seed) +
                     ",\"trace\":" + (args.trace ? "1" : "0") +
                     ",\"correct\":" +
                     (failed == 0 && main_phase.attempted > 0 ? "true"
                                                              : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ",";
    json += JsonString(metrics[i].name) + ":{\"value\":" +
            JsonNumber(metrics[i].value) +
            ",\"unit\":" + JsonString(metrics[i].unit) + "}";
  }
  json += "},\"guards\":" + JsonObject(outcome.guards) +
          ",\"setup_guards\":" + JsonObject(workload->setup_guards()) +
          ",\"detail\":{\"tail_percentile\":" + JsonNumber(tail_p) +
          ",\"samples\":" + std::to_string(samples) +
          ",\"work_unit\":" + JsonString(workload->work_unit()) +
          ",\"nproc\":" + std::to_string(nproc) +
          ",\"cpu\":" + JsonString(cpu) + ",\"wal_fs\":" + JsonString(wal_fs) +
          ",\"flush_policy\":" + JsonString(flush_policy) +
          ",\"trace_file\":" + JsonString(trace_file) + ",\"facts\":{";
  for (const auto& [key, value] : workload->facts()) {
    if (json.back() != '{') json += ",";
    json += JsonString(key) + ":" + JsonString(value);
  }
  json += "},\"errors\":[";
  for (size_t i = 0; i < outcome.errors.size(); ++i) {
    if (i > 0) json += ",";
    json += JsonString(outcome.errors[i]);
  }
  json += "]}}";
  std::printf("RESULT %s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
