#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <tuple>

#include "hist/estimator.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "workload/tpch.h"

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

std::atomic<bool> g_enabled{false};

struct OpenSpan {
  SpanKind kind;
  int64_t start_ns;
  int64_t child_ns;
  uint64_t id;
  uint64_t parent;
  uint64_t request;
};

struct KeptSpan {
  SpanKind kind;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;
  uint64_t request;
};

/// One host thread's track. `open` is touched only by its owner thread;
/// `mu` guards what other threads read (totals, kept spans, name).
struct Track {
  uint32_t tid = 0;
  uint64_t next_seq = 1;
  std::vector<OpenSpan> open;
  std::mutex mu;
  std::string name;
  SpanAggregate totals{};
  std::vector<KeptSpan> kept;

  void Book(SpanKind kind, int64_t start_ns, int64_t end_ns, int64_t child_ns,
            uint64_t id, uint64_t parent, uint64_t request) {
    std::lock_guard<std::mutex> lock(mu);
    SpanTotals& t = totals[static_cast<size_t>(kind)];
    ++t.count;
    t.total_ns += end_ns - start_ns;
    t.self_ns += end_ns - start_ns - child_ns;
    if (kept.size() < Spans::kKeptPerThread) {
      kept.push_back({kind, start_ns, end_ns, id, parent, request});
    }
  }
};

std::mutex g_tracks_mu;

std::vector<std::unique_ptr<Track>>& AllTracks() {
  static std::vector<std::unique_ptr<Track>> tracks;
  return tracks;
}

/// The calling thread's track, registered on first use. Tracks live until
/// exit so spans of finished threads stay readable.
Track* CurrentTrack() {
  thread_local Track* track = nullptr;
  if (track == nullptr) {
    auto owned = std::make_unique<Track>();
    std::lock_guard<std::mutex> lock(g_tracks_mu);
    owned->tid = static_cast<uint32_t>(AllTracks().size() + 1);
    owned->name = "thread " + std::to_string(owned->tid);
    track = owned.get();
    AllTracks().push_back(std::move(owned));
  }
  return track;
}

uint64_t CountInRange(std::span<const int64_t> sorted_values, int64_t lo,
                      int64_t hi) {
  auto first = std::lower_bound(sorted_values.begin(), sorted_values.end(), lo);
  auto last = std::upper_bound(first, sorted_values.end(), hi);
  return static_cast<uint64_t>(last - first);
}

}  // namespace

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp:
      return "op";
    case SpanKind::kSvcSubmit:
      return "svc.submit";
    case SpanKind::kSvcWait:
      return "svc.wait";
    case SpanKind::kSvcQueue:
      return "svc.queue";
    case SpanKind::kSvcServe:
      return "svc.serve";
    case SpanKind::kSvcNotify:
      return "svc.notify_ingest";
    case SpanKind::kHistEstimate:
      return "hist.estimate";
    case SpanKind::kDbBatch:
      return "db.scan_and_refresh_tables";
    case SpanKind::kIngestApply:
      return "ingest.apply_batch";
    case SpanKind::kPersistAppend:
      return "persist.append";
    case SpanKind::kPersistCheckpoint:
      return "persist.checkpoint";
    case SpanKind::kFsAppend:
      return "persist.fs_append";
    case SpanKind::kFsSync:
      return "persist.fs_sync";
    case SpanKind::kCount:
      break;
  }
  return "?";
}

void Spans::SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Spans::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Spans::NameThread(const std::string& name) {
  Track* track = CurrentTrack();
  std::lock_guard<std::mutex> lock(track->mu);
  track->name = name;
}

SpanAggregate Spans::Totals() {
  SpanAggregate sum{};
  std::lock_guard<std::mutex> lock(g_tracks_mu);
  for (auto& track : AllTracks()) {
    std::lock_guard<std::mutex> track_lock(track->mu);
    for (size_t k = 0; k < sum.size(); ++k) {
      sum[k].count += track->totals[k].count;
      sum[k].total_ns += track->totals[k].total_ns;
      sum[k].self_ns += track->totals[k].self_ns;
    }
  }
  return sum;
}

void Spans::RecordDerived(SpanKind kind, int64_t start_ns, int64_t end_ns,
                          uint64_t parent_id, uint64_t request_id) {
  if (!enabled()) return;
  Track* track = CurrentTrack();
  const uint64_t id = (uint64_t{track->tid} << 40) | track->next_seq++;
  track->Book(kind, start_ns, std::max(start_ns, end_ns), 0, id, parent_id,
              request_id);
}

Spans::Scope::Scope(SpanKind kind, uint64_t request_id) {
  if (!enabled()) return;
  Track* track = CurrentTrack();
  const uint64_t parent = track->open.empty() ? 0 : track->open.back().id;
  if (request_id == 0 && !track->open.empty()) {
    request_id = track->open.back().request;
  }
  id_ = (uint64_t{track->tid} << 40) | track->next_seq++;
  active_ = true;
  track->open.push_back({kind, NowNanos(), 0, id_, parent, request_id});
}

Spans::Scope::~Scope() {
  if (!active_) return;
  const int64_t end = NowNanos();
  Track* track = CurrentTrack();
  const OpenSpan span = track->open.back();
  track->open.pop_back();
  if (!track->open.empty()) track->open.back().child_ns += end - span.start_ns;
  track->Book(span.kind, span.start_ns, end, span.child_ns, span.id,
              span.parent, span.request);
}

void Spans::Scope::set_kind(SpanKind kind) {
  if (!active_) return;
  CurrentTrack()->open.back().kind = kind;
}

Status Spans::WriteChromeTrace(const std::string& path) {
  struct Event {
    uint32_t tid;
    KeptSpan span;
  };
  std::vector<Event> events;
  std::vector<std::pair<uint32_t, std::string>> names;
  {
    std::lock_guard<std::mutex> lock(g_tracks_mu);
    for (auto& track : AllTracks()) {
      std::lock_guard<std::mutex> track_lock(track->mu);
      names.emplace_back(track->tid, track->name);
      for (const KeptSpan& span : track->kept) {
        events.push_back({track->tid, span});
      }
    }
  }
  // Chrome requires non-decreasing timestamps per track.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return std::tie(a.tid, a.span.start_ns) < std::tie(b.tid, b.span.start_ns);
  });

  std::string json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  json +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"perfbench host wall clock (not simulated "
      "device time)\"}}";
  for (const auto& [tid, name] : names) {
    json += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
            std::to_string(tid) + ",\"args\":{\"name\":";
    json += JsonString(name);
    json += "}}";
  }
  char buf[320];
  for (const Event& event : events) {
    const KeptSpan& s = event.span;
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                  "\"span\":%llu,\"parent\":%llu,\"request\":%llu}}",
                  SpanName(s.kind), event.tid,
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    json += buf;
  }
  json += "\n]}\n";

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json;
  out.close();
  if (!out) return Status::Internal("cannot write trace file " + path);
  std::ifstream in(path, std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  return dphist::obs::ValidateChromeTrace(written);
}

// ---------------------------------------------------------------------------

class CountingWritableFile : public dphist::persist::WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<dphist::persist::WritableFile> inner,
                       CountingFileSystem* fs)
      : inner_(std::move(inner)), fs_(fs) {}

  Status Append(std::span<const uint8_t> data) override {
    Spans::Scope span(SpanKind::kFsAppend);
    Status status = inner_->Append(data);
    if (status.ok()) fs_->bytes_.fetch_add(data.size());
    return status;
  }
  Status Sync() override {
    Spans::Scope span(SpanKind::kFsSync);
    fs_->syncs_.fetch_add(1);
    return inner_->Sync();
  }
  Status Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<dphist::persist::WritableFile> inner_;
  CountingFileSystem* fs_;
};

dphist::Result<std::unique_ptr<dphist::persist::WritableFile>>
CountingFileSystem::Create(const std::string& path) {
  auto file = base_->Create(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<dphist::persist::WritableFile>(
      new CountingWritableFile(std::move(*file), this));
}

dphist::Result<std::unique_ptr<dphist::persist::WritableFile>>
CountingFileSystem::OpenForAppend(const std::string& path) {
  auto file = base_->OpenForAppend(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<dphist::persist::WritableFile>(
      new CountingWritableFile(std::move(*file), this));
}

void TimedSink::OnStatsInstalled(const std::string& table, size_t column,
                                 const dphist::db::ColumnStats& stats) {
  Spans::Scope span(SpanKind::kPersistAppend);
  const bool traced = Spans::enabled();
  const uint64_t before = traced ? inner_->counters().checkpoints : 0;
  inner_->OnStatsInstalled(table, column, stats);
  if (traced && inner_->counters().checkpoints != before) {
    span.set_kind(SpanKind::kPersistCheckpoint);
  }
  installs_.fetch_add(1);
}

void TimedSink::OnDataVersionBump(const std::string& table, uint64_t version) {
  Spans::Scope span(SpanKind::kPersistAppend);
  const bool traced = Spans::enabled();
  const uint64_t before = traced ? inner_->counters().checkpoints : 0;
  inner_->OnDataVersionBump(table, version);
  if (traced && inner_->counters().checkpoints != before) {
    span.set_kind(SpanKind::kPersistCheckpoint);
  }
}

// ---------------------------------------------------------------------------

ServiceStack::ServiceStack(const std::string& wal_dir)
    : device(dphist::accel::AcceleratorConfig{}),
      fs(dphist::persist::PosixFileSystem()),
      recovery(&catalog, [&] {
        dphist::persist::PersistOptions options;
        options.dir = wal_dir;
        options.fs = &fs;
        options.checkpoint_every_seconds = 0;  // count trigger only
        return options;
      }()),
      sink(&recovery) {}

ServiceStack::~ServiceStack() {
  if (service != nullptr) service->Stop();
}

Status ServiceStack::Recover() {
  auto report = recovery.Recover();
  return report.ok() ? Status::OK() : report.status();
}

Status ServiceStack::Start() {
  dphist::svc::ServiceOptions options;
  options.num_workers = 2;
  options.default_deadline_nanos = 0;
  options.cache_ttl_nanos = 0;
  options.engine = dphist::accel::EngineMode::kCycleAccurate;
  options.persistence = &sink;
  service = std::make_unique<dphist::svc::StatsService>(&catalog, &device,
                                                         options);
  return service->Start();
}

std::string CheckScanResponse(const dphist::svc::StatsResponse& response,
                              uint64_t rows) {
  if (!response.status.ok()) return response.status.ToString();
  if (response.path != dphist::svc::ServePath::kScan) {
    return std::string("served by path ") +
           dphist::svc::ServePathName(response.path);
  }
  if (response.stats.coverage != 1.0) {
    return "coverage " + std::to_string(response.stats.coverage);
  }
  if (response.stats.row_count != rows) {
    return "row_count " + std::to_string(response.stats.row_count) +
           " != " + std::to_string(rows);
  }
  return "";
}

void FillServiceGuards(const dphist::svc::ServiceCounters& counters,
                       Outcome* out) {
  uint64_t above_zero = 0;
  for (size_t level = 1; level < counters.ladder_occupancy.size(); ++level) {
    above_zero += counters.ladder_occupancy[level];
  }
  const std::pair<const char*, uint64_t> zero[] = {
      {"svc.coalesced", counters.coalesced},
      {"svc.shed", counters.shed},
      {"svc.displaced", counters.displaced},
      {"svc.degraded", counters.degraded},
      {"svc.deadline_expired", counters.deadline_expired},
      {"svc.ladder_above_0", above_zero},
      {"svc.fallbacks", counters.fallbacks},
      {"svc.scan_failures", counters.scan_failures},
      {"svc.errors", counters.errors},
  };
  for (const auto& [key, value] : zero) {
    out->guards[key] = static_cast<double>(value);
    out->must_be_zero.push_back(key);
  }
  out->guards["svc.cache_hits"] = static_cast<double>(counters.cache_hits);
}

void FillPersistGuards(const dphist::persist::PersistCounters& counters,
                       Outcome* out) {
  out->guards["persist.wal_appends"] =
      static_cast<double>(counters.wal_appends);
  out->guards["persist.wal_bytes"] = static_cast<double>(counters.wal_bytes);
  out->guards["persist.checkpoints"] =
      static_cast<double>(counters.checkpoints);
  out->guards["persist.wal_append_failures"] =
      static_cast<double>(counters.wal_append_failures);
  out->guards["persist.checkpoint_failures"] =
      static_cast<double>(counters.checkpoint_failures);
  out->must_be_zero.push_back("persist.wal_append_failures");
  out->must_be_zero.push_back("persist.checkpoint_failures");
}

PersistTally TallyOf(const ServiceStack& stack) {
  return {stack.sink.installs(), stack.fs.syncs(), stack.fs.bytes_appended()};
}

void AddPersistLayers(const PersistTally& before, const PersistTally& after,
                      Phase* phase) {
  const uint64_t installs = after.installs - before.installs;
  const double base = static_cast<double>(std::max<uint64_t>(installs, 1));
  phase->layers["persist.syncs_per_install"] =
      static_cast<double>(after.syncs - before.syncs) / base;
  phase->layers["persist.bytes_per_install"] =
      static_cast<double>(after.bytes - before.bytes) / base;
  phase->notes.push_back(
      "persist.syncs_per_install, persist.bytes_per_install: base " +
      std::to_string(installs) + " stats installs (WAL, snapshot and "
      "directory syncs and bytes all counted)");
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 finalizer over (seed, stream).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

dphist::page::TableFile BuildLineitem(uint64_t seed, uint64_t rows,
                                      double* build_s) {
  const int64_t start = NowNanos();
  dphist::workload::LineitemOptions options;
  options.scale_factor = 1.0;
  options.row_limit = rows;
  options.seed = seed;
  dphist::page::TableFile table = dphist::workload::GenerateLineitem(options);
  *build_s += static_cast<double>(NowNanos() - start) * 1e-9;
  return table;
}

LatencyLog::LatencyLog() : buckets_((64 - kSubBits + 1) << kSubBits, 0) {}

void LatencyLog::Record(int64_t nanos) {
  const uint64_t v = nanos > 0 ? static_cast<uint64_t>(nanos) : 0;
  size_t index = v;
  if (v >= (uint64_t{1} << kSubBits)) {
    const int exponent = 63 - __builtin_clzll(v);
    const uint64_t sub = (v >> (exponent - kSubBits)) &
                         ((uint64_t{1} << kSubBits) - 1);
    index = (static_cast<size_t>(exponent - kSubBits + 1) << kSubBits) + sub;
  }
  ++buckets_[index];
  ++count_;
}

void LatencyLog::Merge(const LatencyLog& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyLog::PercentileMs(double p) const {
  if (count_ == 0) return 0;
  const double rank = std::clamp(
      std::ceil(p / 100.0 * static_cast<double>(count_)), 1.0,
      static_cast<double>(count_));
  uint64_t seen = 0;
  for (size_t index = 0; index < buckets_.size(); ++index) {
    seen += buckets_[index];
    if (static_cast<double>(seen) < rank) continue;
    if (index < (size_t{1} << kSubBits)) {
      return static_cast<double>(index) * 1e-6;
    }
    const int shift = static_cast<int>(index >> kSubBits) - 1;
    const uint64_t sub = index & ((uint64_t{1} << kSubBits) - 1);
    const double low = static_cast<double>(((uint64_t{1} << kSubBits) + sub)
                                           << shift);
    const double width = static_cast<double>(uint64_t{1} << shift);
    return (low + width / 2) * 1e-6;
  }
  return 0;
}

void RelErr::Add(double estimate, double exact) {
  if (exact <= 0) return;
  sum_ += std::fabs(estimate - exact) / exact;
  ++n_;
}

std::vector<RangeProbe> DrawRangeProbes(std::span<const int64_t> sorted_values,
                                        int64_t lo, int64_t hi, size_t count,
                                        dphist::Rng* rng) {
  std::vector<RangeProbe> probes;
  probes.reserve(count);
  const auto min_exact = static_cast<uint64_t>(
      kMinProbeShare * static_cast<double>(sorted_values.size()));
  for (size_t i = 0; i < count; ++i) {
    auto probe = DrawRangeProbe(
        lo, hi, min_exact, rng, [&](int64_t a, int64_t b) {
          return CountInRange(sorted_values, a, b);
        });
    if (probe.has_value()) probes.push_back(*probe);
  }
  return probes;
}

void ScoreHistogram(const dphist::hist::Histogram& histogram,
                    std::span<const RangeProbe> probes, RelErr* err) {
  dphist::hist::Estimator estimator(&histogram);
  for (const RangeProbe& probe : probes) {
    err->Add(estimator.EstimateRange(probe.lo, probe.hi),
             static_cast<double>(probe.exact));
  }
}

}  // namespace perfbench
