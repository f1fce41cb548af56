// Seeded inputs and the correctness oracle of the three workloads.
//
// The dataset is a pure function of (workload, seed): partition keys are
// the fixed cube ids a simulation mesh would give (UniformWorkload's
// "cube:<k%8>:<k>"), element j of a partition has type j % 8, a
// clustering key j*16 + a seed-drawn jitter in [0, 16), and a 24-byte
// payload drawn from the seed. Partition k has zipf popularity rank k.
// Keeping the key set and the popularity order fixed makes the placement
// imbalance (paper F1), and which nodes hold the hot partitions, a
// property of the workload rather than of the seed, so the seed-to-seed
// spread of a run measures the system.
// Everything the cluster receives comes from here; everything the
// benchmark checks an answer against comes from here too.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "cluster/query_plan.hpp"
#include "common/rng.hpp"
#include "stats/zipf.hpp"
#include "store/local_store.hpp"

namespace kvbench {

/// The knobs that define one workload. The cluster shape (4 nodes, 1
/// worker each, replication 2, compact codec, batched scatter) is shared.
struct WorkloadConfig {
  std::string name;
  uint32_t partitions = 0;
  uint32_t elements_per_partition = 0;
  /// Closed-loop count-gather clients (coarse, fine).
  uint32_t count_clients = 0;
  /// ingest_read only: one PutBatch writer and one scan reader.
  bool ingest = false;
  /// Per-node block cache (StoreOptions::block_cache_bytes).
  size_t block_cache_bytes = 64ull << 20;
  /// The writer's PutOptions::flush_watermark_bytes: past it, a node
  /// flushes its memtable in the background. 0 leaves flushing to the
  /// full memtable.
  uint64_t flush_watermark_bytes = 0;
  /// Columns per PutBatch call of the writer. Short calls (64 columns,
  /// ~0.1 ms without a WAL) let a few milliseconds of vCPU steal on a
  /// shared host decide their p95, which then swung 2x between runs;
  /// longer calls average those stalls out, as gathers do. No trace of
  /// real simulation output backs these sizes: they were chosen for a
  /// steady measurement.
  uint32_t append_columns = 0;
};

/// Null when `name` is not a workload.
const WorkloadConfig* FindWorkload(std::string_view name);

inline constexpr uint32_t kNodes = 4;
inline constexpr uint32_t kReplication = 2;
inline constexpr uint32_t kTypes = 8;
inline constexpr size_t kPayloadBytes = 24;
/// Keys per WriteBatch frame (PutOptions::batch), and columns per
/// PutBatch call of the preload.
inline constexpr uint32_t kPutColumns = 64;
/// ingest_read: partitions per scan, and preloaded rows each scan reads
/// from every one of them.
inline constexpr uint32_t kScanPartitions = 16;
inline constexpr uint32_t kScanRows = 256;
inline constexpr double kZipfExponent = 0.99;
/// Bytes of one user column: 8-byte clustering key, 4-byte type id and
/// the payload — the base of stored_bytes_per_user_byte.
inline constexpr uint64_t kUserBytesPerColumn = 8 + 4 + kPayloadBytes;

/// Orders scan rows by (clustering, type id).
bool RowLess(const kvscale::QueryRow& a, const kvscale::QueryRow& b);

/// One scan gather and the rows it must return.
struct ScanQuery {
  kvscale::QueryPlan plan;
  std::vector<kvscale::QueryRow> expected;  ///< sorted by RowLess
};

class Dataset {
 public:
  Dataset(const WorkloadConfig& config, uint64_t seed);

  const WorkloadConfig& config() const { return *config_; }
  const kvscale::WorkloadSpec& spec() const { return spec_; }

  /// The preload, in PutBatch calls of kPutColumns columns, partition
  /// after partition.
  std::vector<std::vector<kvscale::BatchPutItem>> LoadBatches() const;

  /// Count-by-type totals of the preload.
  kvscale::TypeCounts PreloadTotals() const;

  /// Count-by-type totals once partition p holds `elements[p]` elements.
  kvscale::TypeCounts TotalsFor(const std::vector<uint64_t>& elements) const;

  /// ingest_read: a scan over kScanPartitions distinct partitions drawn
  /// by zipf popularity, each over kScanRows preloaded rows.
  ScanQuery NextScan(kvscale::Rng& rng) const;

  /// One PutBatch call (append_columns) of new elements appended to
  /// zipf-drawn partitions. On ingest_read they go above the preloaded
  /// range of the preloaded partitions. On coarse and fine they go to the
  /// partitions of the simulation's next step ("<key>:next", same
  /// popularity), which the count gathers over the preload do not read.
  /// `next` holds each partition's next element index and is advanced.
  std::vector<kvscale::BatchPutItem> NextAppend(
      kvscale::Rng& rng, std::vector<uint64_t>& next) const;

  /// The `next` NextAppend starts from: elements each partition it
  /// appends to holds before the first call.
  std::vector<uint64_t> AppendStart() const;

  /// The partitions NextAppend wrote to once partition p holds
  /// `elements[p]` elements (a count over them must find
  /// TotalsFor(elements)).
  kvscale::WorkloadSpec Appended(const std::vector<uint64_t>& elements) const;

  /// Elements preloaded into each partition.
  std::vector<uint64_t> PreloadSizes() const;

 private:
  /// Clustering key of element `j` of partition `p`.
  uint64_t Clustering(uint32_t p, uint64_t j) const;
  /// The column stored as element `j` of partition `p`.
  kvscale::Column MakeColumn(uint32_t p, uint64_t j) const;

  const WorkloadConfig* config_;
  uint64_t seed_;
  kvscale::WorkloadSpec spec_;
  kvscale::ZipfSampler zipf_;  ///< rank k is partition k
  std::vector<std::string> append_keys_;  ///< NextAppend's partition keys
};

}  // namespace kvbench
