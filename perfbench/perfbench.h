// Shared pieces of the dphist benchmark: the span recorder behind the
// traced run, decorators that time the persistence layer from outside,
// latency and estimate-error helpers, and the Workload interface the four
// workloads implement. Everything here wraps public program APIs; the
// program itself is not instrumented.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "accel/device.h"
#include "common/random.h"
#include "common/status.h"
#include "db/catalog.h"
#include "db/stats.h"
#include "hist/types.h"
#include "page/table_file.h"
#include "persist/io.h"
#include "persist/recovery.h"
#include "svc/service.h"

namespace perfbench {

using dphist::Status;

/// Nanoseconds on the steady clock since the benchmark process started.
int64_t NowNanos();

/// `s` as a JSON string literal (control characters become spaces).
std::string JsonString(const std::string& s);

// ---------------------------------------------------------------------------
// Spans

/// The layer boundaries the benchmark records. Each is a call the
/// benchmark makes into one program module (or, for kSvcQueue/kSvcServe,
/// a service-clock interval the response reports).
enum class SpanKind : uint8_t {
  kOp,                 ///< one primary operation of the workload (root)
  kSvcSubmit,          ///< svc::StatsService::Submit
  kSvcWait,            ///< svc::Ticket::Wait
  kSvcQueue,           ///< StatsResponse.queue_nanos (derived)
  kSvcServe,           ///< total_nanos - queue_nanos (derived)
  kSvcNotify,          ///< svc::StatsService::NotifyIngest via on_ingest
  kHistEstimate,       ///< hist::Estimator / EstimateCountLessPairs
  kDbBatch,            ///< db::DataPathScanner::ScanAndRefreshTables
  kIngestApply,        ///< ingest::IngestPipeline::ApplyBatch
  kPersistAppend,      ///< RecoveryManager sink call, no checkpoint
  kPersistCheckpoint,  ///< RecoveryManager sink call that checkpointed
  kFsAppend,           ///< persist::WritableFile::Append (PosixFileSystem)
  kFsSync,             ///< persist::WritableFile::Sync (PosixFileSystem)
  kCount,
};

const char* SpanName(SpanKind kind);

struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;  ///< total minus time covered by child spans
};

using SpanAggregate =
    std::array<SpanTotals, static_cast<size_t>(SpanKind::kCount)>;

/// In-memory span recorder on the benchmark's own wall-clock tracks (one
/// track per host thread). Disabled by default; a disabled Scope costs one
/// relaxed atomic load. Spans nest per thread: a span's parent is the
/// innermost open span of the same thread, and it inherits that span's
/// request id. Every span feeds the per-kind totals; the first
/// kKeptPerThread spans of each thread are also kept for the trace file.
class Spans {
 public:
  static constexpr size_t kKeptPerThread = 20000;

  static void SetEnabled(bool on);
  static bool enabled();

  /// Names the calling thread's track in the trace file.
  static void NameThread(const std::string& name);

  static SpanAggregate Totals();

  /// Records an interval measured elsewhere (e.g. by the service clock)
  /// as a child of `parent`'s request on the calling thread's track.
  static void RecordDerived(SpanKind kind, int64_t start_ns, int64_t end_ns,
                            uint64_t parent_id, uint64_t request_id);

  /// Writes the kept spans as Chrome trace-event JSON and validates the
  /// file with obs::ValidateChromeTrace.
  static Status WriteChromeTrace(const std::string& path);

  class Scope {
   public:
    explicit Scope(SpanKind kind, uint64_t request_id = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Reclassifies the span before it ends (e.g. an append that turned
    /// out to checkpoint).
    void set_kind(SpanKind kind);
    uint64_t id() const { return id_; }

   private:
    bool active_ = false;
    uint64_t id_ = 0;
  };
};

// ---------------------------------------------------------------------------
// Persistence decorators

/// persist::FileSystem decorator that forwards to another filesystem and
/// counts (and, when tracing, times) the bytes appended and the syncs.
class CountingFileSystem : public dphist::persist::FileSystem {
 public:
  explicit CountingFileSystem(dphist::persist::FileSystem* base)
      : base_(base) {}

  dphist::Result<std::unique_ptr<dphist::persist::WritableFile>> Create(
      const std::string& path) override;
  dphist::Result<std::unique_ptr<dphist::persist::WritableFile>>
  OpenForAppend(const std::string& path) override;
  dphist::Result<std::vector<uint8_t>> ReadAll(
      const std::string& path) const override {
    return base_->ReadAll(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  dphist::Result<std::vector<std::string>> List(
      const std::string& dir) const override {
    return base_->List(dir);
  }
  bool Exists(const std::string& path) const override {
    return base_->Exists(path);
  }
  Status CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }
  Status SyncDir(const std::string& dir) override {
    syncs_.fetch_add(1, std::memory_order_relaxed);
    return base_->SyncDir(dir);
  }

  uint64_t bytes_appended() const { return bytes_.load(); }
  uint64_t syncs() const { return syncs_.load(); }

 private:
  friend class CountingWritableFile;
  dphist::persist::FileSystem* base_;
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> syncs_{0};
};

/// db::StatsEventSink decorator in front of a RecoveryManager: counts the
/// stats installs it forwards and, when tracing, times each call,
/// classifying calls during which a checkpoint ran.
class TimedSink : public dphist::db::StatsEventSink {
 public:
  explicit TimedSink(dphist::persist::RecoveryManager* inner)
      : inner_(inner) {}

  void OnStatsInstalled(const std::string& table, size_t column,
                        const dphist::db::ColumnStats& stats) override;
  void OnDataVersionBump(const std::string& table, uint64_t version) override;

  uint64_t installs() const { return installs_.load(); }

 private:
  dphist::persist::RecoveryManager* inner_;
  std::atomic<uint64_t> installs_{0};
};

/// The program stack the service workloads run against: a catalog, one
/// device, the WAL and snapshots under `wal_dir` through the real
/// PosixFileSystem (counted), a RecoveryManager with its default
/// count-only checkpoint trigger, and a StatsService whose persistence
/// sink is that manager. Configured so that the work depends only on the
/// inputs: no deadlines, cache TTL 0, two workers, default high water.
struct ServiceStack {
  explicit ServiceStack(const std::string& wal_dir);
  ~ServiceStack();
  ServiceStack(const ServiceStack&) = delete;
  ServiceStack& operator=(const ServiceStack&) = delete;

  /// Recover() into the catalog; must precede any install.
  Status Recover();
  /// Starts the service; tables must be registered first.
  Status Start();

  dphist::db::Catalog catalog;
  dphist::accel::Device device;
  CountingFileSystem fs;
  dphist::persist::RecoveryManager recovery;
  TimedSink sink;
  std::unique_ptr<dphist::svc::StatsService> service;
};

/// Empty when `response` is a served full scan of a `rows`-row table
/// (status OK, path kScan, coverage 1.0, row_count == rows); otherwise
/// what is wrong.
std::string CheckScanResponse(const dphist::svc::StatsResponse& response,
                              uint64_t rows);

// ---------------------------------------------------------------------------
// Inputs

/// Independent seed for input stream `stream` of workload seed `seed`.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// A lineitem-style table of `rows` rows (8 columns), generated from
/// `seed`; the build time is added to `*build_s`.
dphist::page::TableFile BuildLineitem(uint64_t seed, uint64_t rows,
                                      double* build_s);

// ---------------------------------------------------------------------------
// Measurement helpers

/// Latency samples in log-linear buckets (1,024 per power of two, so a
/// reported percentile is within 0.1% of the sample's value). Its memory
/// is fixed and touched at construction, so the number of operations a
/// run completes does not change the process's resident set.
class LatencyLog {
 public:
  LatencyLog();

  void Record(int64_t nanos);
  void Merge(const LatencyLog& other);
  uint64_t count() const { return count_; }
  /// Nearest-rank percentile (p in [0, 100]) in milliseconds, at the
  /// midpoint of the sample's bucket; 0 when empty.
  double PercentileMs(double p) const;

 private:
  static constexpr int kSubBits = 10;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// Mean of |estimate - exact| / exact over range probes whose exact count
/// is positive.
class RelErr {
 public:
  void Add(double estimate, double exact);
  double Mean() const {
    return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_);
  }

 private:
  double sum_ = 0;
  uint64_t n_ = 0;
};

/// A range predicate [lo, hi] with its exact row count.
struct RangeProbe {
  int64_t lo = 0;
  int64_t hi = 0;
  uint64_t exact = 0;
};

/// Draws `count` range probes over [lo, hi] whose widths span 1-20% of
/// the domain and whose exact count (from `sorted_values`) is at least
/// kMinProbeShare of the rows: relative error is then not dominated by
/// a few near-empty ranges whose exact count is a handful of rows.
inline constexpr double kMinProbeShare = 0.005;
std::vector<RangeProbe> DrawRangeProbes(std::span<const int64_t> sorted_values,
                                        int64_t lo, int64_t hi, size_t count,
                                        dphist::Rng* rng);

/// One probe range over [lo, hi] (width 1-20% of the domain) whose
/// `exact(lo, hi)` count is at least `min_exact`, redrawn up to 64 times;
/// nullopt when none qualified.
template <typename ExactFn>
std::optional<RangeProbe> DrawRangeProbe(int64_t lo, int64_t hi,
                                         uint64_t min_exact, dphist::Rng* rng,
                                         ExactFn&& exact) {
  const int64_t span = hi - lo + 1;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const double fraction = 0.01 + 0.19 * rng->NextDouble();
    const int64_t width = std::clamp<int64_t>(
        static_cast<int64_t>(fraction * static_cast<double>(span)), 1, span);
    const int64_t start = rng->NextInRange(lo, hi - width + 1);
    RangeProbe probe{start, start + width - 1, 0};
    probe.exact = exact(probe.lo, probe.hi);
    if (probe.exact >= min_exact && probe.exact > 0) return probe;
  }
  return std::nullopt;
}

/// Mean relative error of `histogram` on `probes`, accumulated into `err`.
void ScoreHistogram(const dphist::hist::Histogram& histogram,
                    std::span<const RangeProbe> probes, RelErr* err);

// ---------------------------------------------------------------------------
// Workloads

/// What one timed phase measured.
struct Phase {
  LatencyLog latency;  ///< primary-operation latencies
  double elapsed_s = 0;
  double work = 0;  ///< work units completed (unit: Workload::work_unit)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Per-layer metrics the workload derives from what the program
  /// returns (responses, job stats, counters) over this phase.
  std::map<std::string, double> layers;
  /// Bases of ratios and reasons a per-layer metric reads 0.
  std::vector<std::string> notes;
};

/// Checks after the timed phase and the figures that depend only on the
/// seed and the number of operations.
struct Outcome {
  uint64_t attempted = 0;  ///< post-phase checks run
  uint64_t failed = 0;     ///< post-phase checks that failed
  std::vector<std::string> errors;
  /// Determinism guards. Keys listed in must_be_zero fail the run when
  /// nonzero.
  std::map<std::string, double> guards;
  std::vector<std::string> must_be_zero;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Unit of work_per_s, e.g. "rows/s".
  virtual const char* work_unit() const = 0;
  /// The tail percentile reported as tail_ms, chosen so that every
  /// process of a run keeps at least ten samples beyond it.
  virtual double tail_percentile() const = 0;
  /// Builds a complete environment (data, catalog, service, recovery,
  /// warm-up) under `dir`; called once per process. Deterministic in the
  /// seed given at construction.
  virtual Status Setup(const std::string& dir) = 0;
  /// Closed-loop timed phase of `seconds` on the current environment.
  virtual Phase Run(double seconds) = 0;
  /// Post-phase output checks and determinism guards.
  virtual Outcome Finish() = 0;

  /// est_rel_err of the stats the set-up built or served; fixed by the
  /// seed.
  virtual double est_rel_err() const = 0;
  /// Engine, thread and sizing facts recorded with every result.
  virtual std::map<std::string, std::string> facts() const = 0;
  /// Seconds spent building tables in Setup.
  double table_build_s() const { return table_build_s_; }
  /// Work counts after Setup (its warm-up included); they depend only on
  /// the seed, so every set-up of a seed by the same build must repeat
  /// them.
  const std::map<std::string, double>& setup_guards() const {
    return setup_guards_;
  }

 protected:
  double table_build_s_ = 0;
  std::map<std::string, double> setup_guards_;
};

/// Service counters that must stay 0 when the work depends only on the
/// seed (coalesced, shed, displaced, degraded, deadline_expired, ladder
/// levels above 0, fallbacks, scan failures, errors), plus cache hits.
void FillServiceGuards(const dphist::svc::ServiceCounters& counters,
                       Outcome* out);
/// WAL appends, bytes and checkpoints; append and checkpoint failures
/// must stay 0.
void FillPersistGuards(const dphist::persist::PersistCounters& counters,
                       Outcome* out);

/// Stats installs the sink forwarded and syncs/bytes the filesystem saw.
struct PersistTally {
  uint64_t installs = 0;
  uint64_t syncs = 0;
  uint64_t bytes = 0;
};
PersistTally TallyOf(const ServiceStack& stack);
/// persist.syncs_per_install and persist.bytes_per_install between two
/// tallies (snapshot and WAL bytes and syncs alike, per stats install).
void AddPersistLayers(const PersistTally& before, const PersistTally& after,
                      Phase* phase);

std::unique_ptr<Workload> MakeRefreshScan(uint64_t seed);
std::unique_ptr<Workload> MakePlannerReads(uint64_t seed);
std::unique_ptr<Workload> MakeMaintenanceWindow(uint64_t seed);
std::unique_ptr<Workload> MakeIngestChurn(uint64_t seed);

/// Runs `client(c, deadline_ns)` on `clients` threads, each issuing
/// operations until the deadline, and returns the wall seconds from the
/// common start until every client returned. A single client runs on the
/// calling thread: its allocations then reuse the heap the set-up grew,
/// whereas a new thread's malloc arena raised ingest_churn's peak RSS by
/// about 4 MB in some processes and not in others.
template <typename Fn>
double RunClients(int clients, double seconds, Fn&& client) {
  const int64_t start = NowNanos();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  if (clients == 1) {
    client(0, deadline);
    return static_cast<double>(NowNanos() - start) * 1e-9;
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&client, c, deadline] { client(c, deadline); });
  }
  for (auto& thread : threads) thread.join();
  return static_cast<double>(NowNanos() - start) * 1e-9;
}

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
