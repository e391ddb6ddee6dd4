// maintenance_window: a fixed batch of refresh jobs through
// db::DataPathScanner::ScanAndRefreshTables on two executor threads and
// the cycle-accurate engine. Bypasses svc and persist.

#include <algorithm>
#include <cmath>

#include "db/datapath.h"
#include "perfbench.h"
#include "workload/tpch.h"

namespace perfbench {
namespace {

using dphist::accel::ScanOutcome;

constexpr uint64_t kRows = 25000;
constexpr int kTables = 4;
constexpr uint32_t kThreads = 2;
constexpr size_t kProbesPerTarget = 1024;

/// The batch mixes 50-bin columns with ~200k-bin ones whose bin arrays
/// (over 1 MB) exceed a core's L2: the large-domain case where the cycle
/// engine's thread scaling is in question.
struct Domain {
  size_t column;
  int64_t lo;
  int64_t hi;
  int64_t granularity;
};
constexpr Domain kDomains[] = {
    {dphist::workload::kLQuantity, 1, 50, 1},    // 50 bins
    {dphist::workload::kLPartKey, 1, 200000, 1},  // 200,000 bins
};

class MaintenanceWindow : public Workload {
 public:
  explicit MaintenanceWindow(uint64_t seed) : seed_(seed) {}

  const char* work_unit() const override { return "rows/s"; }
  double tail_percentile() const override { return 80; }

  Status Setup(const std::string& dir) override {
    (void)dir;  // no persistence: the batch path installs without a sink
    auto env = std::make_unique<Env>();
    std::vector<std::vector<RangeProbe>> probes;
    dphist::Rng probe_rng(SubSeed(seed_, 1000));
    for (int t = 0; t < kTables; ++t) {
      const std::string table = "lineitem_" + std::to_string(t);
      auto* file = env->catalog.AddTable(
          table, BuildLineitem(SubSeed(seed_, t), kRows, &table_build_s_));
      for (const Domain& domain : kDomains) {
        dphist::db::TableScanJob job;
        job.table = table;
        job.column = domain.column;
        job.request.min_value = domain.lo;
        job.request.max_value = domain.hi;
        job.request.granularity = domain.granularity;
        job.request.num_buckets = 64;
        job.request.top_k = 16;
        env->jobs.push_back(job);
        std::vector<int64_t> values = file->ReadColumn(domain.column);
        std::sort(values.begin(), values.end());
        probes.push_back(DrawRangeProbes(values, domain.lo, domain.hi,
                                         kProbesPerTarget, &probe_rng));
      }
    }
    // Warm-up: one batch. Its outcomes are the reference every timed
    // batch must repeat (rows, pages, simulated device time), and its
    // installed stats are what est_rel_err scores.
    auto outcomes = env->scanner.ScanAndRefreshTables(
        env->jobs, kThreads, dphist::accel::EngineMode::kCycleAccurate);
    if (!outcomes.ok()) return outcomes.status();
    std::string problem = CheckBatch(*env, *outcomes);
    if (!problem.empty()) return Status::Internal("warm-up batch: " + problem);
    RelErr err;
    for (size_t i = 0; i < env->jobs.size(); ++i) {
      auto stats = env->catalog.GetColumnStats(env->jobs[i].table,
                                               env->jobs[i].column);
      if (!stats.ok()) return stats.status();
      ScoreHistogram((*stats)->histogram, probes[i], &err);
    }
    est_rel_err_ = err.Mean();
    env->reference = BatchCounts(*outcomes);
    setup_guards_ = {
        {"accel.rows_binned_per_batch",
         static_cast<double>(env->reference.rows_binned)},
        {"accel.pages_parsed_per_batch",
         static_cast<double>(env->reference.pages_parsed)},
        {"sim.device_seconds_per_batch", env->reference.device_seconds}};
    env_ = std::move(env);
    batches_ = 0;
    return Status::OK();
  }

  Phase Run(double seconds) override {
    Phase phase;
    double job_ms = 0, rows_per_job_s = 0, parallel_eff = 0, straggler = 0;
    double self_ms = 0, device_ms = 0;
    uint64_t jobs = 0, ok_batches = 0, mismatched = 0;
    phase.elapsed_s = RunClients(1, seconds, [&](int, int64_t deadline) {
      Spans::NameThread("client 0");
      while (NowNanos() < deadline) {
        const uint64_t request_id = (uint64_t{1} << 32) | (++batches_);
        Spans::Scope root(SpanKind::kOp, request_id);
        const int64_t start = NowNanos();
        auto outcomes = [&] {
          Spans::Scope batch(SpanKind::kDbBatch);
          return env_->scanner.ScanAndRefreshTables(
              env_->jobs, kThreads, dphist::accel::EngineMode::kCycleAccurate);
        }();
        const int64_t nanos = NowNanos() - start;
        const double batch_ms = static_cast<double>(nanos) * 1e-6;
        phase.latency.Record(nanos);
        ++phase.attempted;
        if (!outcomes.ok() || !CheckBatch(*env_, *outcomes).empty()) {
          ++phase.failed;
          continue;
        }
        const Counts counts = BatchCounts(*outcomes);
        if (counts != env_->reference) ++mismatched;
        phase.work += static_cast<double>(counts.rows);
        ++ok_batches;
        // Per-worker busy time from ScanJobStats.worker.
        std::vector<double> worker_ms(kThreads, 0);
        double sum_ms = 0;
        for (const ScanOutcome& outcome : *outcomes) {
          const double ms = outcome.stats.wall_seconds * 1e3;
          job_ms += ms;
          sum_ms += ms;
          if (outcome.stats.wall_seconds > 0) {
            rows_per_job_s += static_cast<double>(outcome.stats.rows_binned) /
                              outcome.stats.wall_seconds;
          }
          if (outcome.stats.worker < kThreads) {
            worker_ms[outcome.stats.worker] += ms;
          }
          device_ms += outcome.stats.device_seconds * 1e3;
          ++jobs;
        }
        const double busiest = *std::max_element(worker_ms.begin(),
                                                 worker_ms.end());
        const double mean_worker = sum_ms / kThreads;
        parallel_eff += sum_ms / (kThreads * batch_ms);
        straggler += mean_worker > 0 ? busiest / mean_worker : 0;
        self_ms += batch_ms - busiest;
      }
    });
    mismatched_batches_ += mismatched;
    const double nb = static_cast<double>(std::max<uint64_t>(ok_batches, 1));
    const double nj = static_cast<double>(std::max<uint64_t>(jobs, 1));
    phase.layers["accel.job_ms"] = job_ms / nj;
    phase.layers["accel.rows_per_job_s"] = rows_per_job_s / nj;
    phase.layers["accel.parallel_eff"] = parallel_eff / nb;
    phase.layers["accel.straggler_ratio"] = straggler / nb;
    phase.layers["accel.rows_binned"] =
        static_cast<double>(env_->reference.rows_binned);
    phase.layers["accel.pages_parsed"] =
        static_cast<double>(env_->reference.pages_parsed);
    phase.layers["sim.device_ms"] = device_ms / nj;
    phase.layers["db.batch_self_ms"] = self_ms / nb;
    phase.notes.push_back(
        "accel.rows_binned, accel.pages_parsed: per batch of " +
        std::to_string(env_->jobs.size()) + " jobs; sim.device_ms: mean per "
        "job (simulated clock); accel.parallel_eff base: " +
        std::to_string(kThreads) + " threads x batch wall");
    return phase;
  }

  Outcome Finish() override {
    Outcome out;
    out.guards["accel.rows_binned_per_batch"] =
        static_cast<double>(env_->reference.rows_binned);
    out.guards["accel.pages_parsed_per_batch"] =
        static_cast<double>(env_->reference.pages_parsed);
    out.guards["sim.device_seconds_per_batch"] = env_->reference.device_seconds;
    out.guards["accel.mismatched_batches"] =
        static_cast<double>(mismatched_batches_);
    out.must_be_zero.push_back("accel.mismatched_batches");
    out.guards["ops.client0"] = static_cast<double>(batches_);
    env_.reset();
    return out;
  }

  double est_rel_err() const override { return est_rel_err_; }

  std::map<std::string, std::string> facts() const override {
    return {{"engine", "cycle-accurate"},
            {"executor_threads", std::to_string(kThreads)},
            {"jobs_per_batch", std::to_string(kTables * std::size(kDomains))},
            {"rows_per_table", std::to_string(kRows)},
            {"bins_per_job", "50 (l_quantity), 200000 (l_partkey)"},
            {"primary_op", "ScanAndRefreshTables(batch)"}};
  }

 private:
  /// Work counts of one batch that depend only on the seed.
  struct Counts {
    uint64_t rows = 0;
    uint64_t rows_binned = 0;
    uint64_t pages_parsed = 0;
    double device_seconds = 0;
    bool operator==(const Counts&) const = default;
  };

  struct Env {
    Env()
        : device(dphist::accel::AcceleratorConfig{}),
          scanner(&catalog, &device) {}
    dphist::db::Catalog catalog;
    dphist::accel::Device device;
    dphist::db::DataPathScanner scanner;
    std::vector<dphist::db::TableScanJob> jobs;
    Counts reference;
  };

  static Counts BatchCounts(const std::vector<ScanOutcome>& outcomes) {
    Counts counts;
    for (const ScanOutcome& outcome : outcomes) {
      counts.rows += outcome.report.rows;
      counts.rows_binned += outcome.stats.rows_binned;
      counts.pages_parsed += outcome.stats.pages_parsed;
      counts.device_seconds += outcome.stats.device_seconds;
    }
    return counts;
  }

  /// Empty when every job is OK and its stats are installed fresh.
  static std::string CheckBatch(const Env& env,
                                const std::vector<ScanOutcome>& outcomes) {
    if (outcomes.size() != env.jobs.size()) return "outcome count";
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const auto& job = env.jobs[i];
      if (!outcomes[i].status.ok()) {
        return job.table + ": " + outcomes[i].status.ToString();
      }
      auto stats = env.catalog.GetColumnStats(job.table, job.column);
      if (!stats.ok() || !(*stats)->valid ||
          (*stats)->row_count != kRows ||
          !env.catalog.StatsFresh(job.table, job.column)) {
        return job.table + ": stats not installed";
      }
    }
    return "";
  }

  uint64_t seed_;
  std::unique_ptr<Env> env_;
  uint64_t batches_ = 0;
  uint64_t mismatched_batches_ = 0;
  double est_rel_err_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeMaintenanceWindow(uint64_t seed) {
  return std::make_unique<MaintenanceWindow>(seed);
}

}  // namespace perfbench
