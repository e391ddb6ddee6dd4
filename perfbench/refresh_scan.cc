// refresh_scan: kRefresh through svc::StatsService on the cycle-accurate
// engine with a RecoveryManager as the persistence sink; two closed-loop
// clients, each owning the targets of its own two tables.

#include <algorithm>
#include <cstdio>

#include "perfbench.h"
#include "workload/tpch.h"

namespace perfbench {
namespace {

using dphist::svc::RequestKind;
using dphist::svc::StatsRequest;
using dphist::svc::StatsResponse;

constexpr uint64_t kRows = 100000;
constexpr int kClients = 2;
constexpr int kTablesPerClient = 2;
constexpr size_t kProbesPerTarget = 1024;

/// Target columns with bin domains of 10k-16k bins, so every refresh has
/// one cost class and its bins fit a core's L2.
struct Domain {
  size_t column;
  int64_t lo;
  int64_t hi;
  int64_t granularity;
};
constexpr Domain kDomains[] = {
    {dphist::workload::kLPartKey, 1, 200000, 16},  // 12,500 bins
    {dphist::workload::kLExtendedPrice, dphist::workload::kPriceScaledMin,
     dphist::workload::kPriceScaledMax, 800},  // 13,013 bins
};

class RefreshScan : public Workload {
 public:
  explicit RefreshScan(uint64_t seed) : seed_(seed) {}

  const char* work_unit() const override { return "rows/s"; }
  double tail_percentile() const override { return 90; }

  Status Setup(const std::string& dir) override {
    targets_.assign(kClients, {});
    auto stack = std::make_unique<ServiceStack>(dir + "/wal");
    std::vector<std::vector<RangeProbe>> probes;
    dphist::Rng probe_rng(SubSeed(seed_, 1000));
    for (int c = 0; c < kClients; ++c) {
      for (int t = 0; t < kTablesPerClient; ++t) {
        const int index = c * kTablesPerClient + t;
        const std::string table = "lineitem_" + std::to_string(index);
        auto* file = stack->catalog.AddTable(
            table, BuildLineitem(SubSeed(seed_, index), kRows,
                                 &table_build_s_));
        for (const Domain& domain : kDomains) {
          StatsRequest request;
          request.table = table;
          request.column = domain.column;
          request.kind = RequestKind::kRefresh;
          request.params.min_value = domain.lo;
          request.params.max_value = domain.hi;
          request.params.granularity = domain.granularity;
          request.params.num_buckets = 64;
          request.params.top_k = 16;
          targets_[c].push_back(request);
          std::vector<int64_t> values = file->ReadColumn(domain.column);
          std::sort(values.begin(), values.end());
          probes.push_back(DrawRangeProbes(values, domain.lo, domain.hi,
                                           kProbesPerTarget, &probe_rng));
        }
      }
    }
    DPHIST_RETURN_NOT_OK(stack->Recover());
    DPHIST_RETURN_NOT_OK(stack->Start());

    // Warm-up: one refresh of every target; its stats are what
    // est_rel_err scores (the data never changes, so every later refresh
    // installs the same histogram).
    RelErr err;
    size_t probe_set = 0;
    for (const auto& client_targets : targets_) {
      for (const StatsRequest& request : client_targets) {
        StatsResponse response = stack->service->SubmitAndWait(request);
        const std::string problem = CheckScanResponse(response, kRows);
        if (!problem.empty()) {
          return dphist::Status::Internal("warm-up refresh of " +
                                          request.table + ": " + problem);
        }
        ScoreHistogram(response.stats.histogram, probes[probe_set++], &err);
      }
    }
    est_rel_err_ = err.Mean();
    warmup_refreshes_ = probe_set;
    Outcome warm;
    FillServiceGuards(stack->service->counters(), &warm);
    FillPersistGuards(stack->recovery.counters(), &warm);
    warm.guards["svc.served"] = stack->service->counters().served;
    setup_guards_ = warm.guards;
    stack_ = std::move(stack);
    ops_per_client_.assign(kClients, 0);
    return Status::OK();
  }

  Phase Run(double seconds) override {
    struct ClientTally {
      LatencyLog latency;
      uint64_t attempted = 0, failed = 0, rows = 0;
      double queue_ms = 0, serve_ms = 0, device_ms = 0;
    };
    std::vector<ClientTally> tally(kClients);
    const auto before = stack_->service->counters();
    const PersistTally persist_before = TallyOf(*stack_);
    const double elapsed = RunClients(
        kClients, seconds, [&](int c, int64_t deadline) {
          Spans::NameThread("client " + std::to_string(c));
          ClientTally& mine = tally[c];
          const auto& targets = targets_[c];
          while (NowNanos() < deadline) {
            const uint64_t op = ops_per_client_[c]++;
            const StatsRequest& request = targets[op % targets.size()];
            const uint64_t request_id = (uint64_t(c + 1) << 32) | (op + 1);
            Spans::Scope root(SpanKind::kOp, request_id);
            const int64_t start = NowNanos();
            StatsResponse response;
            auto ticket = [&] {
              Spans::Scope submit(SpanKind::kSvcSubmit);
              return stack_->service->Submit(request);
            }();
            if (ticket.ok()) {
              Spans::Scope wait(SpanKind::kSvcWait);
              response = ticket->Wait();
            } else {
              response.status = ticket.status();
            }
            const int64_t end = NowNanos();
            mine.latency.Record(end - start);
            ++mine.attempted;
            if (!CheckScanResponse(response, kRows).empty()) {
              ++mine.failed;
              continue;
            }
            mine.rows += response.stats.row_count;
            mine.queue_ms += static_cast<double>(response.queue_nanos) * 1e-6;
            mine.serve_ms += static_cast<double>(response.total_nanos -
                                                 response.queue_nanos) *
                             1e-6;
            mine.device_ms += response.stats.build_seconds * 1e3;
            const int64_t served_at =
                end - static_cast<int64_t>(response.total_nanos);
            const int64_t dequeued_at =
                served_at + static_cast<int64_t>(response.queue_nanos);
            Spans::RecordDerived(SpanKind::kSvcQueue, served_at, dequeued_at,
                                 root.id(), request_id);
            Spans::RecordDerived(SpanKind::kSvcServe, dequeued_at, end,
                                 root.id(), request_id);
          }
        });
    const auto after = stack_->service->counters();

    Phase phase;
    phase.elapsed_s = elapsed;
    double queue_ms = 0, serve_ms = 0, device_ms = 0;
    for (const ClientTally& t : tally) {
      phase.latency.Merge(t.latency);
      phase.attempted += t.attempted;
      phase.failed += t.failed;
      phase.work += static_cast<double>(t.rows);
      queue_ms += t.queue_ms;
      serve_ms += t.serve_ms;
      device_ms += t.device_ms;
    }
    const double n = static_cast<double>(
        std::max<uint64_t>(phase.attempted - phase.failed, 1));
    phase.layers["svc.queue_ms"] = queue_ms / n;
    phase.layers["svc.serve_ms"] = serve_ms / n;
    phase.layers["sim.device_ms"] = device_ms / n;
    AddPersistLayers(persist_before, TallyOf(*stack_), &phase);
    // kRefresh never reads the cache: hits over reads has base 0.
    phase.layers["svc.cache_hit_ratio"] = 0;
    phase.notes.push_back(
        "svc.cache_hit_ratio: base 0 reads (kRefresh bypasses the cache); "
        "hits " + std::to_string(after.cache_hits - before.cache_hits));
    phase.notes.push_back(
        "accel.*: not measurable from outside; the service scans through "
        "ScanEngine::ScanPages and returns no ScanJobStats. sim.device_ms "
        "is StatsResponse.stats.build_seconds (simulated clock)");
    return phase;
  }

  Outcome Finish() override {
    Outcome out;
    const auto svc = stack_->service->counters();
    const auto persist = stack_->recovery.counters();
    uint64_t refreshes = warmup_refreshes_;
    for (uint64_t ops : ops_per_client_) refreshes += ops;
    FillServiceGuards(svc, &out);
    out.guards["svc.served"] = static_cast<double>(svc.served);
    FillPersistGuards(persist, &out);
    for (size_t c = 0; c < ops_per_client_.size(); ++c) {
      out.guards["ops.client" + std::to_string(c)] =
          static_cast<double>(ops_per_client_[c]);
    }
    // Every refresh installs once and logs one WAL event.
    out.attempted = 1;
    if (persist.wal_appends != stack_->sink.installs() ||
        svc.submitted != refreshes) {
      out.failed = 1;
      out.errors.push_back(
          "ledger: " + std::to_string(refreshes) + " refreshes, " +
          std::to_string(svc.submitted) + " submitted, " +
          std::to_string(stack_->sink.installs()) + " installs, " +
          std::to_string(persist.wal_appends) + " wal appends");
    }
    stack_.reset();
    return out;
  }

  double est_rel_err() const override { return est_rel_err_; }

  std::map<std::string, std::string> facts() const override {
    return {{"engine", "cycle-accurate"},
            {"clients", std::to_string(kClients)},
            {"service_workers", "2"},
            {"targets", std::to_string(kClients * kTablesPerClient *
                                       std::size(kDomains))},
            {"rows_per_table", std::to_string(kRows)},
            {"bins_per_target", "12500 (l_partkey), 13013 (l_extendedprice)"},
            {"primary_op", "Submit(kRefresh) -> Wait"}};
  }

 private:
  uint64_t seed_;
  std::unique_ptr<ServiceStack> stack_;
  std::vector<std::vector<StatsRequest>> targets_;
  std::vector<uint64_t> ops_per_client_;
  uint64_t warmup_refreshes_ = 0;
  double est_rel_err_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeRefreshScan(uint64_t seed) {
  return std::make_unique<RefreshScan>(seed);
}

}  // namespace perfbench
