// kvbench: one run of one workload of the kvscale benchmark.
//
//   kvbench --workload coarse|fine|ingest_read --seed N --seconds S
//           --trace 0|1 --work-dir DIR
//
// A run builds a warm 4-node InProcessCluster several times over (the
// repetitions), drives closed-loop load on each for its share of S
// seconds, checks every answer against the dataset's oracle, and prints
// as its last stdout line one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics;
// --trace 1 alternates untraced and traced repetitions and reports the
// per-layer metrics (README.md lists both sets and their sources). WAL
// files and the benchmark's span file go under DIR.
#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/in_process_cluster.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/span_tracer.hpp"
#include "trace/stage_trace.hpp"
#include "workload.hpp"

namespace kvbench {
namespace {

using kvscale::BatchPutItem;
using kvscale::GatherResult;
using kvscale::InProcessCluster;
using kvscale::MetricsRegistry;
using kvscale::PutResult;
using kvscale::QueryPlan;
using kvscale::Rng;
using kvscale::SpanTracer;
using Clock = std::chrono::steady_clock;
using LoadBatches = std::vector<std::vector<BatchPutItem>>;

/// Repetitions per --trace 0 run; every end-to-end metric is the median
/// over them.
constexpr int kRepetitions = 5;
/// --trace 1 alternates untraced and traced repetitions, U T U T.
constexpr int kTracedRunRepetitions = 4;
/// Window of the unmeasured priming repetition that precedes them.
constexpr double kPrimingSeconds = 2.0;
/// coarse / fine: share of each repetition's window given to the count
/// gathers.
constexpr double kReadShare = 0.75;
/// coarse / fine: the writer's PutBatch calls per repetition (262,144
/// columns, which leaves every node's memtable well below a flush). A
/// fixed amount of work rather than a time share, so the memory it
/// leaves is the same in every run. A repetition's whole window caps its
/// time.
constexpr uint64_t kWriteCalls = 64;
/// coarse / fine: the window alternates this many spells of gathers with
/// as many slices of the writer's calls, so the puts sample the host over
/// the whole window, as the gathers do, rather than in one burst.
constexpr int kWriteSlices = 8;
static_assert(kWriteCalls % kWriteSlices == 0);
/// ingest_read: the writer's PutBatch calls per second of a repetition's
/// window, below its usual pace (115-145 a second on a 4-vCPU VM). The
/// window lasts until the writer has made them, up to twice its nominal
/// length, and the reader stops with the writer. A fixed amount of work
/// rather than a time share, so the data, and with it peak_rss_mb and
/// the flush and compaction counts, do not follow the writer's speed.
constexpr double kIngestCallsPerSecond = 100.0;
/// Traced windows pause this often to move the stage traces into a
/// bounded sample, so their memory stays bounded.
constexpr double kTraceChunkSeconds = 0.5;
/// Warm-up: gathers per client per round, and the round limits.
constexpr int kWarmupGathersPerClient = 2;
constexpr int kWarmupMinRounds = 3;
constexpr int kWarmupMaxRounds = 30;
constexpr double kSteadyHitRatioDelta = 0.01;
constexpr int kIngestWarmupScans = 96;
/// gather_p95_ms needs at least this many of the run's gathers beyond it.
constexpr uint64_t kMinTailSamples = 10;
/// ingest_read: scans the store probe replays.
constexpr size_t kProbeScans = 8;
/// Span tracks of the benchmark's own spans.
constexpr uint32_t kMainTrack = 0;
constexpr uint32_t kWriterTrack = 10;
constexpr uint32_t kReaderTrack = 11;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t state = a ^ (b * 0x9e3779b97f4a7c15ull);
  return kvscale::SplitMix64(state);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have[5] = {false, false, false, false, false};
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have[2] = *end == '\0' && args.seconds > 0.0 && args.seconds <= 600.0;
    } else if (flag == "--trace") {
      args.trace = value == "1";
      have[3] = value == "0" || value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
      have[4] = !value.empty();
    } else {
      return false;
    }
  }
  return std::all_of(std::begin(have), std::end(have),
                     [](bool b) { return b; });
}

kvscale::GatherOptions ReadOptions() {
  kvscale::GatherOptions options;
  options.transport = kvscale::GatherTransport::kMessage;
  options.codec = kvscale::WireCodecKind::kCompact;
  options.batch = true;
  options.workers_per_node = 1;
  return options;
}

kvscale::PutOptions WriteOptions(uint64_t flush_watermark_bytes) {
  kvscale::PutOptions options;
  options.transport = kvscale::GatherTransport::kMessage;
  options.codec = kvscale::WireCodecKind::kCompact;
  options.quorum = kvscale::PutQuorum::kAll;
  options.batch = kPutColumns;
  options.workers_per_node = 1;
  options.flush_watermark_bytes = flush_watermark_bytes;
  return options;
}

/// Operations attempted and failed, and the checks that fail a run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  ///< why the run is not correct

  void Problem(std::string what) {
    std::fprintf(stderr, "kvbench: %s\n", what.c_str());
    problems.push_back(std::move(what));
  }
};

bool Degraded(const GatherResult& r) {
  return r.partial || r.shed_by_admission || r.failed > 0;
}

/// Empty when the gather is complete and its totals match the oracle.
std::string CheckCount(const GatherResult& r, const kvscale::TypeCounts& want) {
  if (Degraded(r)) return "degraded";
  return r.totals == want ? "" : "wrong count totals";
}

/// Empty when the gather is complete and returned exactly `want`.
std::string CheckScan(const GatherResult& r,
                      const std::vector<kvscale::QueryRow>& want) {
  if (Degraded(r)) return "degraded";
  std::vector<kvscale::QueryRow> got = r.rows;
  std::sort(got.begin(), got.end(), RowLess);
  return got == want ? "" : "wrong scan rows";
}

/// One correct gather of a window.
struct GatherSample {
  double wall_us = 0.0;
  double admission_us = 0.0;
  double encode_us = 0.0;
  double decode_us = 0.0;
  double queue_us = 0.0;
  uint64_t subqueries = 0;
  uint64_t frames = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t columns = 0;  ///< columns the stores counted or returned
};

GatherSample SampleOf(const GatherResult& r, uint64_t columns) {
  return {r.wall_us,          r.admission_wait_us, r.wire_encode_us,
          r.wire_decode_us,   r.queue_wait_us,     r.subqueries,
          r.wire_frames_sent, r.wire_bytes_sent,   r.wire_bytes_received,
          columns};
}

/// One acknowledged PutBatch call.
struct PutSample {
  double wall_us = 0.0;
  uint64_t columns = 0;
  uint64_t replica_acks = 0;
  uint64_t write_batches = 0;
};

/// What one closed loop did. Each loop owns one; they are merged once
/// the loop's thread has been joined.
struct LoopStats {
  uint64_t attempted = 0;  ///< gathers, or PutBatch keys
  uint64_t failed = 0;     ///< degraded or wrong gathers, quorum-failed keys
  std::vector<GatherSample> gathers;
  std::vector<PutSample> puts;
};

/// Counts that must repeat exactly across the repetitions of one seed.
struct Determinism {
  uint64_t subqueries = 0;            ///< reference count gather
  double req_bytes_per_subq = 0.0;    ///< reference count gather
  double load_max_over_mean = 0.0;    ///< reference count gather
  double replica_acks_per_col = 0.0;  ///< the preload's PutBatch calls
  double wal_appends_per_col = -1.0;  ///< the preload (traced reps only)

  std::string ToString() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "subqueries=%llu req_bytes_per_subq=%.6f "
                  "load_max_over_mean=%.6f replica_acks_per_col=%.6f "
                  "wal_appends_per_col=%.6f",
                  static_cast<unsigned long long>(subqueries),
                  req_bytes_per_subq, load_max_over_mean,
                  replica_acks_per_col, wal_appends_per_col);
    return buf;
  }
};

/// Everything one repetition measured.
struct RepResult {
  bool traced = false;
  double setup_s = 0.0;
  double read_s = 0.0;   ///< the gathers' window
  double write_s = 0.0;  ///< the puts' windows
  std::vector<GatherSample> gathers;
  std::vector<PutSample> puts;
  double stored_bytes_per_user_byte = 0.0;
  Determinism determinism;
  std::map<std::string, double> layer;  ///< traced reps: per-layer metrics
};

/// The parts only a traced repetition has.
struct Instruments {
  /// Stage samples kept per repetition; past it, reservoir sampling.
  static constexpr size_t kMaxStageSamples = 200000;

  MetricsRegistry registry;
  kvscale::StageTracer stages;
  /// One row per kept sub-query: its four stage durations, exact.
  std::vector<std::array<double, kvscale::kStageCount>> stage_samples;
  uint64_t stage_seen = 0;
  Rng reservoir{0x5a3e1};

  /// Moves the recorded stage traces into the sample and drops them.
  /// Only while no gather is in flight.
  void DrainStages() {
    for (const kvscale::RequestTrace& t : stages.traces()) {
      std::array<double, kvscale::kStageCount> row;
      for (size_t s = 0; s < kvscale::kStageCount; ++s) {
        row[s] = t.StageDuration(static_cast<kvscale::Stage>(s));
      }
      ++stage_seen;
      if (stage_samples.size() < kMaxStageSamples) {
        stage_samples.push_back(row);
      } else if (const uint64_t j = reservoir.Below(stage_seen);
                 j < kMaxStageSamples) {
        stage_samples[j] = row;
      }
    }
    stages.Clear();
  }

  double StageMedian(kvscale::Stage stage) const {
    std::vector<double> values;
    values.reserve(stage_samples.size());
    for (const auto& row : stage_samples) {
      values.push_back(row[static_cast<size_t>(stage)]);
    }
    return Median(values);
  }

  double Counter(const char* name) {
    return static_cast<double>(registry.GetCounter(name).Value());
  }
};

/// Σ block-cache hits and misses over the nodes.
std::pair<uint64_t, uint64_t> CacheCounts(InProcessCluster& cluster) {
  uint64_t hits = 0, misses = 0;
  for (uint32_t n = 0; n < cluster.node_count(); ++n) {
    if (kvscale::BlockCache* cache = cluster.node(n).cache()) {
      hits += cache->hits();
      misses += cache->misses();
    }
  }
  return {hits, misses};
}

double HitRatio(std::pair<uint64_t, uint64_t> before,
                std::pair<uint64_t, uint64_t> after) {
  const double hits = static_cast<double>(after.first - before.first);
  const double misses = static_cast<double>(after.second - before.second);
  return Ratio(hits, hits + misses);
}

/// One closed loop: a thread issuing operations until the deadline.
using Loop = std::function<void(Clock::time_point)>;

/// Runs every loop on its own thread until `seconds` pass and joins them.
/// Returns the elapsed time, each loop's last operation included.
double RunLoops(double seconds, const std::vector<Loop>& loops) {
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  threads.reserve(loops.size());
  for (const Loop& loop : loops) threads.emplace_back(loop, deadline);
  for (std::thread& t : threads) t.join();
  return SecondsSince(t0);
}

class Runner {
 public:
  Runner(const Args& args, const Dataset& data)
      : args_(args),
        data_(data),
        count_plan_(MakeCountPlan(data.spec())),
        preload_sizes_(data.PreloadSizes()),
        preload_totals_(data.PreloadTotals()),
        load_batches_(data.LoadBatches()),
        preload_columns_(std::accumulate(preload_sizes_.begin(),
                                         preload_sizes_.end(), uint64_t{0})) {
    spans_.SetTrackName(kMainTrack, "main");
    spans_.SetTrackName(kWriterTrack, "writer");
    spans_.SetTrackName(kReaderTrack, "reader");
    for (uint32_t c = 0; c < data.config().count_clients; ++c) {
      spans_.SetTrackName(1 + c, "client-" + std::to_string(c));
    }
  }

  RepResult RunRep(int rep, bool traced, double window_seconds);

  Tally& tally() { return tally_; }
  SpanTracer& spans() { return spans_; }

 private:
  /// A span of the benchmark's own; only traced repetitions record them.
  SpanTracer::Scope Span(const Instruments* inst, const char* name,
                         uint32_t track) {
    return inst != nullptr ? spans_.StartSpan(name, track)
                           : SpanTracer::Scope();
  }

  void Load(InProcessCluster& cluster, Instruments* inst,
            LoadBatches batches, RepResult& out);
  void Warmup(InProcessCluster& cluster, Instruments* inst);
  void Reference(InProcessCluster& cluster, RepResult& out);
  /// Runs `loops` for `seconds` and folds their stats into `out` and the
  /// tally. Traced windows pause every kTraceChunkSeconds to drain the
  /// stage traces. Returns the elapsed time.
  double Window(double seconds, const std::vector<Loop>& loops,
                std::vector<LoopStats>& stats, Instruments* inst,
                RepResult& out);
  Loop CountClient(InProcessCluster& cluster, Instruments* inst, uint32_t c,
                   LoopStats& stats);
  /// Appends Dataset::NextAppend calls until `max_calls` of them were
  /// acknowledged, then sets `*done` if given; `sizes` holds each
  /// partition's element count and is advanced.
  Loop Writer(InProcessCluster& cluster, Instruments* inst, Rng& rng,
              std::vector<uint64_t>& sizes, uint64_t max_calls,
              LoopStats& stats, std::atomic<bool>* done = nullptr);
  /// Scans until the deadline or until `done` is set.
  Loop ScanReader(InProcessCluster& cluster, Instruments* inst, Rng& rng,
                  LoopStats& stats, const std::atomic<bool>& done);
  /// Flushes, then checks a count over every partition the writer
  /// appended to against `sizes`.
  void FinalCheck(InProcessCluster& cluster, Instruments* inst,
                  const std::vector<uint64_t>& sizes);
  /// Σ Table::PartitionEncodedBytes of the replicas of `partitions` each
  /// node holds.
  std::vector<uint64_t> StoredBytesPerNode(
      InProcessCluster& cluster,
      const std::vector<kvscale::PartitionRef>& partitions);
  /// Over the preload and, on coarse and fine, the appended partitions.
  double StoredBytesPerUserByte(InProcessCluster& cluster,
                                const std::vector<uint64_t>& sizes);
  void CaptureReadLayers(Instruments& inst, double hit_ratio, RepResult& out);
  void CaptureWriteLayers(InProcessCluster& cluster, Instruments& inst,
                          RepResult& out);
  void Probe(InProcessCluster& cluster, RepResult& out);
  /// Waits until the file system of the work directory has written back
  /// and committed everything, so the disk work a repetition's WAL left
  /// behind (write-back, freed blocks) is not charged to the next one.
  void SyncWorkDir();

  const Args& args_;
  const Dataset& data_;
  const QueryPlan count_plan_;
  const std::vector<uint64_t> preload_sizes_;
  const kvscale::TypeCounts preload_totals_;
  const LoadBatches load_batches_;
  const uint64_t preload_columns_;
  std::vector<QueryPlan> probe_scans_;  ///< ingest_read: the store probe's keys
  SpanTracer spans_;
  Tally tally_;
};

void Runner::Load(InProcessCluster& cluster, Instruments* inst,
                  LoadBatches batches, RepResult& out) {
  const kvscale::PutOptions options = WriteOptions(0);
  uint64_t acks = 0;
  for (std::vector<BatchPutItem>& batch : batches) {
    SpanTracer::Scope span = Span(inst, "put-batch", kMainTrack);
    const PutResult r =
        cluster.PutBatch(data_.spec().table, std::move(batch), options);
    span.End();
    if (!r.ok()) tally_.Problem("preload PutBatch missed its quorum");
    acks += r.replica_acks;
  }
  out.determinism.replica_acks_per_col =
      Ratio(static_cast<double>(acks), static_cast<double>(preload_columns_));
  if (inst != nullptr) {
    out.determinism.wal_appends_per_col =
        Ratio(inst->Counter("store.commitlog.appends"),
              static_cast<double>(preload_columns_));
  }
  SpanTracer::Scope span = Span(inst, "flush-all", kMainTrack);
  cluster.FlushAll();
}

void Runner::Warmup(InProcessCluster& cluster, Instruments* inst) {
  const kvscale::GatherOptions options = ReadOptions();
  if (data_.config().ingest) {
    Rng rng(Mix(args_.seed, 0x3a11));
    for (int i = 0; i < kIngestWarmupScans; ++i) {
      const ScanQuery q = data_.NextScan(rng);
      SpanTracer::Scope span = Span(inst, "warmup-gather", kReaderTrack);
      const std::string bad =
          CheckScan(cluster.Gather(q.plan, options), q.expected);
      if (!bad.empty()) tally_.Problem("warm-up scan: " + bad);
    }
    return;
  }
  // Rounds of concurrent count gathers until the cache hit ratio of a
  // round stops moving. The first round is cold, so no cold gather can
  // land in the window.
  double previous = -1.0;
  for (int round = 1; round <= kWarmupMaxRounds; ++round) {
    const auto before = CacheCounts(cluster);
    std::vector<std::string> bad(data_.config().count_clients);
    std::vector<std::thread> clients;
    for (uint32_t c = 0; c < data_.config().count_clients; ++c) {
      clients.emplace_back([&, c] {
        for (int g = 0; g < kWarmupGathersPerClient; ++g) {
          SpanTracer::Scope span = Span(inst, "warmup-gather", 1 + c);
          const std::string why = CheckCount(
              cluster.Gather(count_plan_, options), preload_totals_);
          if (!why.empty()) bad[c] = why;
        }
      });
    }
    for (std::thread& t : clients) t.join();
    for (const std::string& why : bad) {
      if (!why.empty()) tally_.Problem("warm-up gather: " + why);
    }
    const double ratio = HitRatio(before, CacheCounts(cluster));
    if (round >= kWarmupMinRounds &&
        std::fabs(ratio - previous) <= kSteadyHitRatioDelta) {
      return;
    }
    previous = ratio;
  }
  tally_.Problem("warm-up: the cache hit ratio did not settle");
}

void Runner::Reference(InProcessCluster& cluster, RepResult& out) {
  // One gather alone on the warm cluster: its counts repeat exactly.
  const GatherResult r = cluster.Gather(count_plan_, ReadOptions());
  ++tally_.attempted;
  const std::string bad = CheckCount(r, preload_totals_);
  if (!bad.empty()) {
    ++tally_.failed;
    tally_.Problem("reference gather: " + bad);
  }
  Determinism& d = out.determinism;
  d.subqueries = r.subqueries;
  d.req_bytes_per_subq = Ratio(static_cast<double>(r.wire_bytes_sent),
                               static_cast<double>(r.subqueries));
  uint64_t max = 0, sum = 0;
  for (const uint64_t n : r.requests_per_node) {
    max = std::max(max, n);
    sum += n;
  }
  d.load_max_over_mean =
      Ratio(static_cast<double>(max) * kNodes, static_cast<double>(sum));
}

double Runner::Window(double seconds, const std::vector<Loop>& loops,
                      std::vector<LoopStats>& stats, Instruments* inst,
                      RepResult& out) {
  const double chunk = inst != nullptr ? kTraceChunkSeconds : seconds;
  double elapsed = 0.0;
  for (double done = 0.0; done < seconds - 1e-9; done += chunk) {
    elapsed += RunLoops(std::min(chunk, seconds - done), loops);
    if (inst != nullptr) inst->DrainStages();
  }
  for (LoopStats& s : stats) {
    tally_.attempted += s.attempted;
    tally_.failed += s.failed;
    if (s.failed > 0) {
      tally_.Problem(std::to_string(s.failed) +
                     " operations failed or disagreed with the oracle");
    }
    out.gathers.insert(out.gathers.end(), s.gathers.begin(), s.gathers.end());
    out.puts.insert(out.puts.end(), s.puts.begin(), s.puts.end());
  }
  return elapsed;
}

Loop Runner::CountClient(InProcessCluster& cluster, Instruments* inst,
                         uint32_t c, LoopStats& stats) {
  return [this, &cluster, inst, c, &stats](Clock::time_point end) {
    const kvscale::GatherOptions options = ReadOptions();
    while (Clock::now() < end) {
      SpanTracer::Scope span = Span(inst, "gather", 1 + c);
      const GatherResult r = cluster.Gather(count_plan_, options);
      span.End();
      ++stats.attempted;
      if (!CheckCount(r, preload_totals_).empty()) {
        ++stats.failed;
        continue;
      }
      stats.gathers.push_back(SampleOf(r, preload_columns_));
    }
  };
}

Loop Runner::Writer(InProcessCluster& cluster, Instruments* inst, Rng& rng,
                    std::vector<uint64_t>& sizes, uint64_t max_calls,
                    LoopStats& stats, std::atomic<bool>* done) {
  return [this, &cluster, inst, &rng, &sizes, max_calls, &stats,
          done](Clock::time_point end) {
    const kvscale::PutOptions options =
        WriteOptions(data_.config().flush_watermark_bytes);
    while (Clock::now() < end && stats.puts.size() < max_calls) {
      std::vector<BatchPutItem> items = data_.NextAppend(rng, sizes);
      const uint64_t columns = items.size();
      SpanTracer::Scope span = Span(inst, "put-batch", kWriterTrack);
      const PutResult r =
          cluster.PutBatch(data_.spec().table, std::move(items), options);
      span.End();
      stats.attempted += r.keys;
      stats.failed += r.keys_quorum_failed;
      if (r.ok()) {
        stats.puts.push_back(
            {r.wall_us, columns, r.replica_acks, r.batches_sent});
      }
    }
    if (done != nullptr && stats.puts.size() >= max_calls) *done = true;
  };
}

Loop Runner::ScanReader(InProcessCluster& cluster, Instruments* inst,
                        Rng& rng, LoopStats& stats,
                        const std::atomic<bool>& done) {
  return [this, &cluster, inst, &rng, &stats, &done](Clock::time_point end) {
    const kvscale::GatherOptions options = ReadOptions();
    while (Clock::now() < end && !done) {
      ScanQuery q = data_.NextScan(rng);
      SpanTracer::Scope span = Span(inst, "gather", kReaderTrack);
      const GatherResult r = cluster.Gather(q.plan, options);
      span.End();
      ++stats.attempted;
      if (!CheckScan(r, q.expected).empty()) {
        ++stats.failed;
        continue;
      }
      stats.gathers.push_back(SampleOf(r, q.expected.size()));
      if (probe_scans_.size() < kProbeScans) {
        probe_scans_.push_back(std::move(q.plan));
      }
    }
  };
}

void Runner::FinalCheck(InProcessCluster& cluster, Instruments* inst,
                        const std::vector<uint64_t>& sizes) {
  {
    SpanTracer::Scope span = Span(inst, "flush-all", kMainTrack);
    cluster.FlushAll();
  }
  // Every acknowledged column must be found.
  SpanTracer::Scope span = Span(inst, "final-gather", kMainTrack);
  const GatherResult r =
      cluster.Gather(MakeCountPlan(data_.Appended(sizes)), ReadOptions());
  ++tally_.attempted;
  const std::string bad = CheckCount(r, data_.TotalsFor(sizes));
  if (!bad.empty()) {
    ++tally_.failed;
    tally_.Problem("final gather after the writes: " + bad);
  }
}

std::vector<uint64_t> Runner::StoredBytesPerNode(
    InProcessCluster& cluster,
    const std::vector<kvscale::PartitionRef>& partitions) {
  std::vector<uint64_t> stored(cluster.node_count(), 0);
  for (const kvscale::PartitionRef& part : partitions) {
    for (const kvscale::NodeId n : cluster.ReplicasOf(part.key)) {
      auto table = cluster.node(n).FindTable(data_.spec().table);
      if (table.ok()) {
        stored[n] += table.value()->PartitionEncodedBytes(part.key);
      }
    }
  }
  return stored;
}

double Runner::StoredBytesPerUserByte(InProcessCluster& cluster,
                                      const std::vector<uint64_t>& sizes) {
  std::vector<kvscale::PartitionRef> partitions = data_.spec().partitions;
  uint64_t columns = std::accumulate(sizes.begin(), sizes.end(), uint64_t{0});
  if (!data_.config().ingest) {
    const kvscale::WorkloadSpec appended = data_.Appended(sizes);
    partitions.insert(partitions.end(), appended.partitions.begin(),
                      appended.partitions.end());
    columns += preload_columns_;
  }
  const std::vector<uint64_t> stored = StoredBytesPerNode(cluster, partitions);
  return Ratio(static_cast<double>(std::accumulate(
                   stored.begin(), stored.end(), uint64_t{0})),
               static_cast<double>(columns * kUserBytesPerColumn));
}

void Runner::CaptureReadLayers(Instruments& inst, double hit_ratio,
                               RepResult& out) {
  double subq = 0, encode = 0, decode = 0, queue = 0, frames = 0, sent = 0,
         received = 0, columns = 0;
  std::vector<double> admission;
  for (const GatherSample& g : out.gathers) {
    subq += static_cast<double>(g.subqueries);
    encode += g.encode_us;
    decode += g.decode_us;
    queue += g.queue_us;
    frames += static_cast<double>(g.frames);
    sent += static_cast<double>(g.bytes_sent);
    received += static_cast<double>(g.bytes_received);
    columns += static_cast<double>(g.columns);
    admission.push_back(g.admission_us);
  }
  const double gathers = static_cast<double>(out.gathers.size());
  auto& l = out.layer;
  l["store.cache_hit_ratio"] = hit_ratio;
  l["store.bytes_decoded_per_column"] =
      Ratio(inst.Counter("store.read.bytes_decoded"), columns);
  l["store.bloom_negatives_per_read"] =
      Ratio(inst.Counter("store.bloom.negatives"),
            inst.Counter("store.read.count"));
  l["gather.subqueries"] = Ratio(subq, gathers);
  l["gather.encode_us_per_subq"] = Ratio(encode, subq);
  l["gather.decode_us_per_subq"] = Ratio(decode, subq);
  l["gather.admission_wait_us"] = Median(admission);
  l["runtime.queue_wait_us_per_subq"] = Ratio(queue, subq);
  l["stage.master_to_node_us"] =
      inst.StageMedian(kvscale::Stage::kMasterToSlave);
  l["stage.in_queue_us"] = inst.StageMedian(kvscale::Stage::kInQueue);
  l["stage.in_db_us"] = inst.StageMedian(kvscale::Stage::kInDb);
  l["stage.node_to_master_us"] =
      inst.StageMedian(kvscale::Stage::kSlaveToMaster);
  l["wire.req_bytes_per_subq"] = Ratio(sent, subq);
  l["wire.reply_bytes_per_subq"] = Ratio(received, subq);
  l["wire.frames_per_gather"] = Ratio(frames, gathers);
  l["placement.load_max_over_mean"] = out.determinism.load_max_over_mean;
}

void Runner::CaptureWriteLayers(InProcessCluster& cluster, Instruments& inst,
                                RepResult& out) {
  double columns = 0.0, acks = 0.0, write_batches = 0.0;
  std::vector<double> walls;
  for (const PutSample& p : out.puts) {
    columns += static_cast<double>(p.columns);
    acks += static_cast<double>(p.replica_acks);
    write_batches += static_cast<double>(p.write_batches);
    walls.push_back(p.wall_us);
  }
  double segments = 0.0;
  for (uint32_t n = 0; n < cluster.node_count(); ++n) {
    auto table = cluster.node(n).FindTable(data_.spec().table);
    if (table.ok()) {
      segments += static_cast<double>(table.value()->segment_count());
    }
  }
  auto& l = out.layer;
  l["write.batch_us_p50"] = Percentile(walls, 0.50);
  l["write.batch_us_p95"] = Percentile(walls, 0.95);
  l["write.replica_acks_per_col"] = Ratio(acks, columns);
  l["write.group_syncs_per_batch"] =
      Ratio(inst.Counter("store.ingest.group_syncs"), write_batches);
  l["wal.appends_per_col"] =
      Ratio(inst.Counter("store.commitlog.appends"), columns);
  l["maint.flushes"] = inst.Counter("store.memtable.flushes");
  l["maint.compactions"] = inst.Counter("store.compactions");
  // The registry's histogram quantizes percentiles to its buckets; its
  // sum and max are exact.
  const kvscale::LatencyHistogram& flush =
      inst.registry.GetHistogram("store.flush.latency_us");
  l["maint.flush_us_mean"] = flush.Mean();
  l["maint.flush_us_max"] = flush.Max();
  l["maint.runs"] = inst.Counter("cluster.maintenance.runs");
  l["maint.dropped"] = inst.Counter("cluster.maintenance.dropped");
  l["store.segments_per_table"] = segments / cluster.node_count();
}

void Runner::Probe(InProcessCluster& cluster, RepResult& out) {
  std::vector<QueryPlan> plans;
  if (data_.config().ingest) {
    plans = probe_scans_;
  } else {
    // At least 400 reads: 10 passes on coarse, 1 on fine.
    const size_t passes =
        std::clamp<size_t>(400 / count_plan_.partitions.size(), 1, 10);
    plans.assign(passes, count_plan_);
  }
  const StoreProbe store = ProbeStore(cluster, plans, &spans_);
  const WireProbe wire = ProbeWire(cluster, plans, &spans_);
  if (!store.ok || !wire.ok || plans.empty()) {
    tally_.Problem("isolated layer probes failed");
  }
  out.layer["store.read_us_per_partition"] = Median(store.call_us);
  out.layer["store.ns_per_column"] =
      Ratio(store.total_ns, static_cast<double>(store.columns));
  out.layer["wire.encode_us_per_frame"] =
      Ratio(wire.encode_us, static_cast<double>(wire.frames));
  out.layer["wire.decode_us_per_frame"] =
      Ratio(wire.decode_us, static_cast<double>(wire.frames));
}

void Runner::SyncWorkDir() {
  const int fd = open(args_.work_dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0 || syncfs(fd) != 0) {
    tally_.Problem("cannot sync the work directory " + args_.work_dir);
  }
  if (fd >= 0) close(fd);
}

RepResult Runner::RunRep(int rep, bool traced, double window_seconds) {
  RepResult out;
  out.traced = traced;
  std::unique_ptr<Instruments> instruments =
      traced ? std::make_unique<Instruments>() : nullptr;
  Instruments* inst = instruments.get();

  kvscale::StoreOptions store_options;
  store_options.block_cache_bytes = data_.config().block_cache_bytes;
  const std::filesystem::path wal_dir =
      std::filesystem::path(args_.work_dir) /
      ("wal-" + std::to_string(getpid()) + "-" + std::to_string(rep));
  if (data_.config().ingest) {
    std::filesystem::remove_all(wal_dir);
    std::filesystem::create_directories(wal_dir);
    store_options.wal_path = (wal_dir / "log").string();
  }
  if (inst != nullptr) store_options.metrics = &inst->registry;
  // The copy PutBatch consumes is the benchmark's work: made before the
  // set-up clock starts.
  LoadBatches batches = load_batches_;
  if (data_.config().ingest) SyncWorkDir();

  const auto setup_t0 = Clock::now();
  {
    InProcessCluster cluster(kNodes, kvscale::PlacementKind::kDhtRandom,
                             store_options, /*seed=*/1, kReplication);
    if (inst != nullptr) {
      cluster.AttachTelemetry(nullptr, &inst->registry);
      cluster.AttachStageTracer(&inst->stages);
    }
    Load(cluster, inst, std::move(batches), out);
    Warmup(cluster, inst);
    if (cluster.runtime_builds() != 1) {
      tally_.Problem("warm-up ended with runtime_builds() != 1");
    }
    out.setup_s = SecondsSince(setup_t0);

    if (rep < 0) {
      std::printf("data per node after the preload (encoded bytes):");
      for (const uint64_t bytes :
           StoredBytesPerNode(cluster, data_.spec().partitions)) {
        std::printf(" %llu", static_cast<unsigned long long>(bytes));
      }
      std::printf("; block cache per node: %zu bytes\n",
                  data_.config().block_cache_bytes);
    }
    Reference(cluster, out);
    if (inst != nullptr) {
      inst->stages.Clear();
      inst->registry.Reset();
    }
    const auto cache_before = CacheCounts(cluster);

    // One writer appends. On ingest_read it appends above the preloaded
    // range, and a reader scans that range beside it, so every scan has a
    // fixed answer however far the writer got. On coarse and fine the
    // writer's slices alternate with the count gathers, and append the
    // next step's partitions, which the gathers do not read.
    std::vector<uint64_t> sizes = data_.AppendStart();
    Rng writer_rng(Mix(args_.seed, 0x3417e));
    if (data_.config().ingest) {
      Rng reader_rng(Mix(args_.seed, 0x5ead));
      probe_scans_.clear();
      std::vector<LoopStats> stats(2);
      std::atomic<bool> writer_done{false};
      const auto calls =
          static_cast<uint64_t>(kIngestCallsPerSecond * window_seconds);
      const std::vector<Loop> loops = {
          Writer(cluster, inst, writer_rng, sizes, calls, stats[0],
                 &writer_done),
          ScanReader(cluster, inst, reader_rng, stats[1], writer_done)};
      out.read_s = out.write_s =
          Window(2 * window_seconds, loops, stats, inst, out);
      if (!writer_done) {
        std::printf("rep %d: WARNING the writer made %zu of its %llu calls "
                    "within twice the window\n",
                    rep, out.puts.size(),
                    static_cast<unsigned long long>(calls));
      }
      if (inst != nullptr) {
        CaptureReadLayers(*inst, HitRatio(cache_before, CacheCounts(cluster)),
                          out);
      }
    } else {
      const uint32_t clients = data_.config().count_clients;
      for (int slice = 0; slice < kWriteSlices; ++slice) {
        std::vector<LoopStats> stats(clients);
        std::vector<Loop> loops;
        for (uint32_t c = 0; c < clients; ++c) {
          loops.push_back(CountClient(cluster, inst, c, stats[c]));
        }
        out.read_s += Window(window_seconds * kReadShare / kWriteSlices,
                             loops, stats, inst, out);
        std::vector<LoopStats> write_stats(1);
        out.write_s += Window(window_seconds * (1.0 - kReadShare) /
                                  kWriteSlices,
                              {Writer(cluster, inst, writer_rng, sizes,
                                      kWriteCalls / kWriteSlices,
                                      write_stats[0])},
                              write_stats, inst, out);
      }
      // The writes neither read nor touch the block cache, and the read
      // layers' counters are not the write path's.
      if (inst != nullptr) {
        CaptureReadLayers(*inst, HitRatio(cache_before, CacheCounts(cluster)),
                          out);
      }
    }
    FinalCheck(cluster, inst, sizes);
    if (inst != nullptr) CaptureWriteLayers(cluster, *inst, out);
    out.stored_bytes_per_user_byte = StoredBytesPerUserByte(cluster, sizes);
    if (data_.config().ingest) {
      uint64_t compactions = 0;
      for (uint32_t n = 0; n < cluster.node_count(); ++n) {
        auto table = cluster.node(n).FindTable(data_.spec().table);
        if (table.ok()) compactions += table.value()->auto_compactions();
      }
      if (compactions == 0) {
        std::printf("rep %d: WARNING no compaction ran in the window\n", rep);
      }
    }
    if (inst != nullptr) {
      Probe(cluster, out);
      cluster.AttachStageTracer(nullptr);
    }
  }
  std::filesystem::remove_all(wal_dir);

  std::vector<double> walls;
  for (const GatherSample& g : out.gathers) walls.push_back(g.wall_us);
  std::printf("rep %d (%s): setup %.3f s, %zu gathers in %.3f s (p50 %.3f "
              "ms), %zu PutBatch calls in %.3f s; %s\n",
              rep, rep < 0 ? "priming" : traced ? "traced" : "untraced",
              out.setup_s,
              out.gathers.size(), out.read_s, Median(walls) / 1e3,
              out.puts.size(), out.write_s,
              out.determinism.ToString().c_str());
  return out;
}

/// The determinism self-check: every repetition's reference counts must
/// equal the first one's, and the WAL count the first traced one's.
void CheckDeterminism(const std::vector<RepResult>& reps, Tally& tally) {
  const Determinism& first = reps.front().determinism;
  const Determinism* first_traced = nullptr;
  for (const RepResult& rep : reps) {
    const Determinism& d = rep.determinism;
    bool same = d.subqueries == first.subqueries &&
                d.req_bytes_per_subq == first.req_bytes_per_subq &&
                d.load_max_over_mean == first.load_max_over_mean &&
                d.replica_acks_per_col == first.replica_acks_per_col;
    if (rep.traced) {
      if (first_traced == nullptr) first_traced = &d;
      same = same && d.wal_appends_per_col == first_traced->wal_appends_per_col;
    }
    if (!same) {
      tally.Problem("determinism: " + d.ToString() + " differs from " +
                    first.ToString());
    }
  }
  std::printf("determinism self-check over %zu repetitions: %s\n",
              reps.size(), first.ToString().c_str());
}

/// End-to-end metrics: each repetition's value, then the median over the
/// repetitions, so host noise that hits one of them does not move the
/// result. The run fails when fewer than kMinTailSamples of its gathers
/// lie beyond the gather_p95_ms it reports.
void EndToEnd(const std::vector<RepResult>& reps, MetricList& metrics,
              Tally& tally) {
  std::vector<double> setup, qps, p50, p95, put_rate, put_p50, stored;
  for (const RepResult& rep : reps) {
    std::vector<double> walls, put_walls;
    uint64_t acked = 0;
    double put_us = 0.0;
    for (const GatherSample& g : rep.gathers) walls.push_back(g.wall_us);
    for (const PutSample& p : rep.puts) {
      put_walls.push_back(p.wall_us);
      acked += p.columns;
      put_us += p.wall_us;
    }
    const double tail = Percentile(walls, 0.95);
    setup.push_back(rep.setup_s);
    qps.push_back(Ratio(static_cast<double>(walls.size()), rep.read_s));
    p50.push_back(Percentile(walls, 0.50) / 1e3);
    p95.push_back(tail / 1e3);
    // Per second inside PutBatch: drawing the next call's columns is the
    // benchmark's work, not the system's.
    put_rate.push_back(Ratio(static_cast<double>(acked), put_us / 1e6));
    put_p50.push_back(Percentile(put_walls, 0.50) / 1e3);
    stored.push_back(rep.stored_bytes_per_user_byte);
    std::printf("repetition: setup %.3f s, %.2f gathers/s, gather p50 %.3f "
                "p95 %.3f ms (%zu gathers), %.0f columns/s, put p50 %.3f p95 "
                "%.3f ms (%zu calls)\n",
                setup.back(), qps.back(), p50.back(), p95.back(),
                walls.size(), put_rate.back(), put_p50.back(),
                Percentile(put_walls, 0.95) / 1e3, put_walls.size());
  }
  const double tail_us = Median(p95) * 1e3;
  uint64_t beyond = 0;
  for (const RepResult& rep : reps) {
    for (const GatherSample& g : rep.gathers) beyond += g.wall_us > tail_us;
  }
  std::printf("gather_p95_ms: %llu of the run's gathers lie beyond it\n",
              static_cast<unsigned long long>(beyond));
  if (beyond < kMinTailSamples) {
    tally.Problem("fewer than " + std::to_string(kMinTailSamples) +
                  " gathers lie beyond gather_p95_ms");
  }
  metrics.Add("setup_s", Median(setup), "s");
  metrics.Add("gather_qps", Median(qps), "gathers/s");
  metrics.Add("gather_p50_ms", Median(p50), "ms");
  metrics.Add("gather_p95_ms", Median(p95), "ms");
  metrics.Add("put_cols_per_s", Median(put_rate), "columns/s");
  metrics.Add("put_p50_ms", Median(put_p50), "ms");
  metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  metrics.Add("stored_bytes_per_user_byte", Median(stored), "ratio");
}

/// Per-layer metrics: the median over the traced repetitions, plus the
/// tracing overhead against the untraced ones.
void PerLayer(const std::vector<RepResult>& reps, MetricList& metrics) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"store.read_us_per_partition", "us"},
      {"store.ns_per_column", "ns"},
      {"store.cache_hit_ratio", "ratio"},
      {"store.bytes_decoded_per_column", "B"},
      {"store.bloom_negatives_per_read", "count"},
      {"store.segments_per_table", "count"},
      {"gather.subqueries", "count"},
      {"gather.encode_us_per_subq", "us"},
      {"gather.decode_us_per_subq", "us"},
      {"gather.admission_wait_us", "us"},
      {"runtime.queue_wait_us_per_subq", "us"},
      {"stage.master_to_node_us", "us"},
      {"stage.in_queue_us", "us"},
      {"stage.in_db_us", "us"},
      {"stage.node_to_master_us", "us"},
      {"wire.req_bytes_per_subq", "B"},
      {"wire.reply_bytes_per_subq", "B"},
      {"wire.frames_per_gather", "count"},
      {"wire.encode_us_per_frame", "us"},
      {"wire.decode_us_per_frame", "us"},
      {"placement.load_max_over_mean", "ratio"},
      {"write.batch_us_p50", "us"},
      {"write.batch_us_p95", "us"},
      {"write.replica_acks_per_col", "count"},
      {"write.group_syncs_per_batch", "count"},
      {"wal.appends_per_col", "count"},
      {"maint.flushes", "count"},
      {"maint.compactions", "count"},
      {"maint.flush_us_mean", "us"},
      {"maint.flush_us_max", "us"},
      {"maint.runs", "count"},
      {"maint.dropped", "count"},
  };
  for (const auto& [name, unit] : kLayers) {
    std::vector<double> values;
    for (const RepResult& rep : reps) {
      const auto it = rep.layer.find(name);
      if (rep.traced && it != rep.layer.end()) values.push_back(it->second);
    }
    metrics.Add(name, Median(values), unit);
  }
  std::vector<double> traced_p50, untraced_p50;
  for (const RepResult& rep : reps) {
    std::vector<double> walls;
    for (const GatherSample& g : rep.gathers) walls.push_back(g.wall_us);
    (rep.traced ? traced_p50 : untraced_p50).push_back(Median(walls));
  }
  const double base = Median(untraced_p50);
  metrics.Add("trace.overhead_frac",
              Ratio(Median(traced_p50) - base, base), "ratio");
}

int Run(const Args& args) {
  const WorkloadConfig* config = FindWorkload(args.workload);
  if (config == nullptr) {
    std::fprintf(stderr, "kvbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "kvbench: cannot create %s\n", args.work_dir.c_str());
    return 2;
  }
  std::printf("env at start: %s\n", EnvironmentJson().c_str());
  std::printf(
      "workload %s: %u partitions x %u elements, %u nodes x 1 worker, "
      "replication %u, message transport, compact codec, batched scatter, "
      "block cache %zu bytes per node, %s\n",
      config->name.c_str(), config->partitions, config->elements_per_partition,
      kNodes, kReplication, config->block_cache_bytes,
      config->ingest ? "WAL on (CommitLog::Sync is fflush without fsync: "
                       "durable against a process crash, not power loss)"
                     : "WAL off");

  const Dataset data(*config, args.seed);
  Runner runner(args, data);
  // Unmeasured: the process's first clusters grow its heap and fault in
  // its pages, which made the first repetitions' puts and set-up slower.
  runner.RunRep(-1, false, kPrimingSeconds);
  const int count = args.trace ? kTracedRunRepetitions : kRepetitions;
  std::vector<RepResult> reps;
  for (int rep = 0; rep < count; ++rep) {
    const bool traced = args.trace && rep % 2 == 1;
    reps.push_back(runner.RunRep(rep, traced, args.seconds / count));
  }
  Tally& tally = runner.tally();
  CheckDeterminism(reps, tally);

  MetricList metrics;
  if (args.trace) {
    PerLayer(reps, metrics);
    const std::string path =
        (std::filesystem::path(args.work_dir) /
         ("spans-" + args.workload + "-seed" + std::to_string(args.seed) +
          ".json"))
            .string();
    if (!kvscale::WriteChromeTrace(runner.spans(), path).ok()) {
      tally.Problem("cannot write " + path);
    }
    std::printf("benchmark spans (%zu) written to %s\n", runner.spans().size(),
                path.c_str());
  } else {
    EndToEnd(reps, metrics, tally);
  }
  std::printf("failed_op_frac: %.6g (%llu failed of %llu attempted)\n",
              Ratio(static_cast<double>(tally.failed),
                    static_cast<double>(tally.attempted)),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  std::printf("env at end: %s\n", EnvironmentJson().c_str());
  std::printf("%s", metrics.ToTable().c_str());
  const bool correct = tally.problems.empty() && tally.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              metrics.ToJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace kvbench

int main(int argc, char** argv) {
  // Keep freed memory in the process. Every repetition builds a cluster
  // and frees it; glibc would return those pages to the kernel, and the
  // next repetition's set-up and writes would fault them in again:
  // kernel work, whose cost depends on the host rather than on kvscale.
  // This way the priming repetition faults in the heap once for the run.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  kvbench::Args args;
  if (!kvbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: kvbench --workload coarse|fine|ingest_read "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR\n");
    return 2;
  }
  return kvbench::Run(args);
}
