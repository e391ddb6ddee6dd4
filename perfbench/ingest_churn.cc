// ingest_churn: Zipf-hot-key append/delete batches (50% deletes) through
// ingest::IngestPipeline with an IncrementalMaintainer, on_ingest wired
// to StatsService::NotifyIngest, and a RecoveryManager as the sink. One
// thread; the only workload on the functional engine.

#include <algorithm>

#include "db/stats_codec.h"
#include "hist/estimator.h"
#include "ingest/maintainer.h"
#include "ingest/pipeline.h"
#include "ingest/stream.h"
#include "perfbench.h"
#include "workload/distributions.h"

namespace perfbench {
namespace {

using dphist::ingest::IngestOp;

const std::string kTable = "churn";
constexpr uint64_t kInitialRows = 100000;
constexpr int64_t kDomainHi = 16384;  // 16,384 bins at granularity 1
constexpr double kZipfS = 1.0;
/// Large enough that a batch's two WAL fsyncs are a small share of it.
constexpr size_t kBatchOps = 65536;
constexpr double kDeleteFraction = 0.5;
constexpr uint32_t kBuckets = 128;
/// Inserts between rebuild signals: with ~32,768 inserts per batch the
/// maintainer rescans on about one batch in 10, so absorb batches set
/// p50_ms and the rescan batches, well above the checkpointing ones
/// (one in ~32), set the p95 tail.
constexpr uint64_t kRebuildHysteresis = 10 * 32768;
/// est_rel_err averages probes taken after every warm-up batch, so it
/// spans three staleness cycles between rescans.
constexpr int kWarmupBatches = 30;
constexpr size_t kProbesPerPoint = 64;

class IngestChurn : public Workload {
 public:
  explicit IngestChurn(uint64_t seed) : seed_(seed) {}

  const char* work_unit() const override { return "ops/s"; }
  double tail_percentile() const override { return 95; }

  Status Setup(const std::string& dir) override {
    wal_dir_ = dir + "/wal";
    auto env = std::make_unique<Env>(wal_dir_);
    DPHIST_RETURN_NOT_OK(env->stack.Recover());

    std::vector<int64_t> initial = dphist::workload::ZipfColumn(
        kInitialRows, kDomainHi, kZipfS, SubSeed(seed_, 1));
    dphist::ingest::PipelineOptions options;
    options.request.min_value = 1;
    options.request.max_value = kDomainHi;
    options.request.num_buckets = kBuckets;
    options.request.top_k = 16;
    options.engine = dphist::accel::EngineMode::kFunctional;
    options.table_seed = SubSeed(seed_, 2);
    options.persistence = &env->stack.sink;
    env->pipeline = std::make_unique<dphist::ingest::IngestPipeline>(
        &env->stack.catalog, &env->stack.device, kTable, options);
    // Load materializes the table (ColumnToTable) and seed-scans it.
    const int64_t load_start = NowNanos();
    DPHIST_RETURN_NOT_OK(env->pipeline->Load(initial));
    table_build_s_ = static_cast<double>(NowNanos() - load_start) * 1e-9;
    DPHIST_RETURN_NOT_OK(env->stack.Start());
    auto* service = env->stack.service.get();
    env->pipeline->on_ingest = [service](const std::string& table) {
      Spans::Scope span(SpanKind::kSvcNotify);
      service->NotifyIngest(table);
    };
    auto seed_stats = env->stack.catalog.GetColumnStats(kTable, 0);
    if (!seed_stats.ok()) return seed_stats.status();
    env->pipeline->AddMaintainer(
        std::make_unique<dphist::ingest::IncrementalMaintainer>(
            **seed_stats, 2.0, kRebuildHysteresis));

    dphist::ingest::StreamOptions stream;
    stream.seed = SubSeed(seed_, 3);
    stream.profile = dphist::ingest::ChurnProfile::kZipfHotKey;
    stream.delete_fraction = kDeleteFraction;
    stream.domain_lo = 1;
    stream.domain_hi = kDomainHi;
    stream.zipf_s = kZipfS;
    env->stream = std::make_unique<dphist::ingest::StreamGenerator>(stream);
    env->stream->SeedLiveRows(initial);

    // Warm-up batches. est_rel_err scores the catalog stats against the
    // pipeline's exact live counts at fixed batch positions, so it is a
    // function of the seed alone.
    dphist::Rng probe_rng(SubSeed(seed_, 1000));
    RelErr err;
    for (int b = 1; b <= kWarmupBatches; ++b) {
      const std::vector<IngestOp> ops = env->stream->Batch(kBatchOps);
      DPHIST_RETURN_NOT_OK(env->pipeline->ApplyBatch(ops));
      auto stats = env->stack.catalog.GetColumnStats(kTable, 0);
      if (!stats.ok()) return stats.status();
      dphist::hist::Estimator estimator(&(*stats)->histogram);
      const auto min_exact = static_cast<uint64_t>(
          kMinProbeShare * static_cast<double>(env->pipeline->live_rows()));
      for (size_t i = 0; i < kProbesPerPoint; ++i) {
        auto probe = DrawRangeProbe(
            1, kDomainHi, min_exact, &probe_rng, [&](int64_t a, int64_t b) {
              return env->pipeline->ExactRangeCount(a, b);
            });
        if (!probe.has_value()) continue;
        err.Add(estimator.EstimateRange(probe->lo, probe->hi),
                static_cast<double>(probe->exact));
      }
    }
    est_rel_err_ = err.Mean();
    Outcome warm;
    FillServiceGuards(env->stack.service->counters(), &warm);
    FillPersistGuards(env->stack.recovery.counters(), &warm);
    const auto& counters = env->pipeline->counters();
    warm.guards["ingest.batches"] = static_cast<double>(counters.batches);
    warm.guards["ingest.rescans"] = static_cast<double>(counters.rescans);
    warm.guards["ingest.rescan_rows"] =
        static_cast<double>(counters.rescan_rows);
    setup_guards_ = warm.guards;
    env_ = std::move(env);
    batches_ = 0;
    return Status::OK();
  }

  Phase Run(double seconds) override {
    Phase phase;
    const PersistTally persist_before = TallyOf(env_->stack);
    const uint64_t rescans_before = env_->pipeline->counters().rescans;
    double absorb_ms = 0, rescan_ms = 0;
    uint64_t absorbs = 0, rescans = 0;
    phase.elapsed_s = RunClients(1, seconds, [&](int, int64_t deadline) {
      Spans::NameThread("client 0");
      while (NowNanos() < deadline) {
        const uint64_t request_id = (uint64_t{1} << 32) | (++batches_);
        const std::vector<IngestOp> ops = env_->stream->Batch(kBatchOps);
        const uint64_t rescans_seen = env_->pipeline->counters().rescans;
        Spans::Scope root(SpanKind::kOp, request_id);
        const int64_t start = NowNanos();
        Status status = [&] {
          Spans::Scope apply(SpanKind::kIngestApply);
          return env_->pipeline->ApplyBatch(ops);
        }();
        const int64_t nanos = NowNanos() - start;
        const double ms = static_cast<double>(nanos) * 1e-6;
        phase.latency.Record(nanos);
        ++phase.attempted;
        if (!status.ok()) {
          ++phase.failed;
          continue;
        }
        phase.work += static_cast<double>(ops.size());
        if (env_->pipeline->counters().rescans != rescans_seen) {
          rescan_ms += ms;
          ++rescans;
        } else {
          absorb_ms += ms;
          ++absorbs;
        }
      }
    });
    const uint64_t batches = absorbs + rescans;
    phase.layers["ingest.absorb_ms"] =
        absorbs == 0 ? 0 : absorb_ms / static_cast<double>(absorbs);
    phase.layers["ingest.rescan_ms"] =
        rescans == 0 ? 0 : rescan_ms / static_cast<double>(rescans);
    phase.layers["ingest.rescan_share"] =
        batches == 0 ? 0
                     : static_cast<double>(rescans) /
                           static_cast<double>(batches);
    phase.notes.push_back(
        "ingest.rescan_share: " + std::to_string(rescans) + " rescans / " +
        std::to_string(batches) + " batches (pipeline counter advanced by " +
        std::to_string(env_->pipeline->counters().rescans - rescans_before) +
        ")");
    AddPersistLayers(persist_before, TallyOf(env_->stack), &phase);
    phase.notes.push_back(
        "accel.*, sim.device_ms: not measurable from outside; rescans run "
        "inside ApplyBatch, which returns no ScanJobStats or report");
    return phase;
  }

  Outcome Finish() override {
    Outcome out;
    const auto svc = env_->stack.service->counters();
    const auto persist = env_->stack.recovery.counters();
    const auto pipeline = env_->pipeline->counters();
    FillServiceGuards(svc, &out);
    out.guards["svc.ingest_notified"] =
        static_cast<double>(svc.ingest_notified);
    FillPersistGuards(persist, &out);
    out.guards["ingest.batches"] = static_cast<double>(pipeline.batches);
    out.guards["ingest.rescans"] = static_cast<double>(pipeline.rescans);
    out.guards["ingest.rescan_rows"] =
        static_cast<double>(pipeline.rescan_rows);
    out.guards["ops.client0"] = static_cast<double>(batches_);

    // Ledger: every batch bumps once and installs once, every rescan
    // installs once more, and Load installed the seed scan.
    out.attempted = 2;
    const uint64_t expected_appends =
        2 * pipeline.batches + pipeline.rescans + 1;
    if (persist.wal_appends != expected_appends ||
        svc.ingest_notified != pipeline.batches) {
      ++out.failed;
      out.errors.push_back(
          "ledger: " + std::to_string(pipeline.batches) + " batches, " +
          std::to_string(pipeline.rescans) + " rescans, " +
          std::to_string(persist.wal_appends) + " wal appends, " +
          std::to_string(svc.ingest_notified) + " notifies");
    }

    // Recover() into a fresh catalog must reproduce the churned column.
    auto live_stats = env_->stack.catalog.GetColumnStats(kTable, 0);
    auto live_entry = env_->stack.catalog.Find(kTable);
    std::string problem;
    if (!live_stats.ok() || !live_entry.ok()) {
      problem = "live stats missing";
    } else {
      const std::vector<uint8_t> live_bytes =
          dphist::db::SerializeColumnStats(**live_stats);
      const uint64_t live_version = (*live_entry)->data_version;
      const uint32_t columns = env_->pipeline->options().num_columns;
      env_.reset();
      problem = CheckRecovery(live_bytes, live_version, columns);
    }
    if (!problem.empty()) {
      ++out.failed;
      out.errors.push_back("recovery: " + problem);
    }
    env_.reset();
    return out;
  }

  double est_rel_err() const override { return est_rel_err_; }

  std::map<std::string, std::string> facts() const override {
    return {{"engine", "functional (rescans)"},
            {"threads", "1"},
            {"service_workers", "2 (idle; NotifyIngest only)"},
            {"initial_rows", std::to_string(kInitialRows)},
            {"batch_ops", std::to_string(kBatchOps)},
            {"delete_fraction", "0.5"},
            {"bins", std::to_string(kDomainHi)},
            {"rebuild_hysteresis_inserts", std::to_string(kRebuildHysteresis)},
            {"primary_op", "IngestPipeline::ApplyBatch"}};
  }

 private:
  struct Env {
    explicit Env(const std::string& wal_dir) : stack(wal_dir) {}
    ServiceStack stack;
    std::unique_ptr<dphist::ingest::IngestPipeline> pipeline;
    std::unique_ptr<dphist::ingest::StreamGenerator> stream;
  };

  std::string CheckRecovery(const std::vector<uint8_t>& live_bytes,
                            uint64_t live_version, uint32_t columns) const {
    dphist::db::Catalog catalog;
    catalog.AddTable(kTable, dphist::workload::ColumnToTable(
                                 {1}, columns, SubSeed(seed_, 2)));
    dphist::persist::PersistOptions options;
    options.dir = wal_dir_;
    options.checkpoint_every_seconds = 0;
    options.mark_recovered = false;  // compare bit for bit
    dphist::persist::RecoveryManager recovery(&catalog, options);
    auto report = recovery.Recover();
    if (!report.ok()) return report.status().ToString();
    auto stats = catalog.GetColumnStats(kTable, 0);
    auto entry = catalog.Find(kTable);
    if (!stats.ok() || !entry.ok()) return "recovered stats missing";
    if ((*entry)->data_version != live_version) {
      return "data version " + std::to_string((*entry)->data_version) +
             " != live " + std::to_string(live_version);
    }
    if (dphist::db::SerializeColumnStats(**stats) != live_bytes) {
      return "recovered stats differ from the live stats";
    }
    return "";
  }

  uint64_t seed_;
  std::string wal_dir_;
  std::unique_ptr<Env> env_;
  uint64_t batches_ = 0;
  double est_rel_err_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeIngestChurn(uint64_t seed) {
  return std::make_unique<IngestChurn>(seed);
}

}  // namespace perfbench
