// A wide-column table: memtable + immutable segments + block cache.
//
// This is the per-node storage engine the simulated slaves conceptually run;
// it is also used directly (in-process) by the calibration benches and the
// examples. Every read goes through one core that visits the partition's
// sorted runs in place: the segments' shared decoded blocks (oldest to
// newest) and the memtable's map. One run is streamed; several are k-way
// merged on the clustering key, the newest write winning on collisions and
// tombstones skipped. The operators (CountByType, ScanRange,
// TopKByClustering) read keys and types only and never copy a payload;
// GetPartition and Slice materialise Columns. Thread-safe: writes and
// structural changes take an exclusive lock, reads a shared one.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.hpp"
#include "store/block_cache.hpp"
#include "store/memtable.hpp"
#include "store/segment.hpp"

namespace kvscale {

class MetricsRegistry;       // telemetry/metrics_registry.hpp
struct StoreInstruments;     // store/store_metrics.hpp
class Rng;                   // common/rng.hpp

/// Tuning knobs of a table.
struct TableOptions {
  SegmentOptions segment;
  size_t memtable_flush_bytes = 8 * kMiB; ///< auto-flush threshold
  bool auto_flush = true;                 ///< flush when the memtable fills
  /// Size-tiered compaction (Cassandra's STCS): after a flush, if at
  /// least `compaction_min_segments` segments fall in the same size tier
  /// (within `compaction_size_ratio` of each other), they are merged into
  /// one. 0 disables automatic compaction (Compact() still works).
  uint32_t compaction_min_segments = 4;
  double compaction_size_ratio = 2.0;
  /// When set, the table records read latency histograms plus cache /
  /// bloom / flush / compaction counters into this registry (must
  /// outlive the table). Null keeps the hot path uninstrumented.
  MetricsRegistry* metrics = nullptr;
};

/// Count-by-type aggregation result: type id -> element count.
using TypeCounts = std::map<uint32_t, uint64_t>;

/// A cell without its payload: one row of ScanRange / TopKByClustering.
struct CellHeader {
  uint64_t clustering = 0;
  uint32_t type_id = 0;
  friend bool operator==(const CellHeader&, const CellHeader&) = default;
};

class Table {
 public:
  /// `cache` may be null (no block caching) and must outlive the table.
  Table(std::string name, TableOptions options, BlockCache* cache);
  ~Table();

  /// Inserts or overwrites one column.
  void Put(std::string_view partition_key, Column column);

  /// Deletes (partition, clustering) by writing a tombstone: the marker
  /// shadows older values in any segment and is purged by Compact().
  /// Deleting a non-existent cell is a no-op that still writes the marker
  /// (Cassandra semantics: deletes cannot check existence cheaply).
  void Delete(std::string_view partition_key, uint64_t clustering);

  /// Reads a whole partition (merged across memtable and segments);
  /// NotFound if no source has it.
  Result<std::vector<Column>> GetPartition(std::string_view partition_key,
                                           ReadProbe* probe = nullptr) const;

  /// Reads columns with clustering key in [lo, hi].
  Result<std::vector<Column>> Slice(std::string_view partition_key,
                                    uint64_t lo, uint64_t hi,
                                    ReadProbe* probe = nullptr) const;

  /// The paper's benchmark aggregation: counts elements per type within
  /// one partition, as a map.
  Result<TypeCounts> CountByType(std::string_view partition_key,
                                 ReadProbe* probe = nullptr) const;

  /// The same count as columns, and the body of the kOpCountByType
  /// operator: appends one (type id, count) pair per type present in the
  /// partition to `type_ids` / `counts`, ascending by type id — the
  /// reply's column layout, so the operator ships them without a copy.
  Status CountByTypeColumns(std::string_view partition_key,
                            std::vector<uint64_t>& type_ids,
                            std::vector<uint64_t>& counts,
                            ReadProbe* probe = nullptr) const;

  /// Bounded range scan: cells with clustering key in [lo, hi],
  /// ascending, stopping after the first `limit` rows (0 = unbounded).
  /// The per-node body of the kOpRangeScan operator — the limit caps
  /// what one node ships back; the master merges and re-limits.
  Result<std::vector<CellHeader>> ScanRange(std::string_view partition_key,
                                            uint64_t lo, uint64_t hi,
                                            uint32_t limit,
                                            ReadProbe* probe = nullptr) const;

  /// The `k` cells with the largest clustering keys, descending.
  /// The per-node body of the kOpTopK operator; the master k-way merges
  /// the per-partition candidates.
  Result<std::vector<CellHeader>> TopKByClustering(
      std::string_view partition_key, uint32_t k,
      ReadProbe* probe = nullptr) const;

  bool HasPartition(std::string_view partition_key) const;

  /// Freezes the memtable into a new segment (no-op when empty).
  void Flush();

  /// Merges all segments (and the memtable) into one segment, purging
  /// tombstones. A segment block that fails its checksum fails the merge
  /// (kCorruption) and leaves the segments as they were, so a damaged
  /// block keeps failing reads loudly instead of its cells vanishing.
  Status Compact();

  /// Total automatic (size-tiered) compactions performed so far.
  uint64_t auto_compactions() const;

  /// Compactions (automatic or full) abandoned because an input segment
  /// could not be read; their segments stayed in place.
  uint64_t compaction_failures() const;

  /// Persists the table (memtable flushed first) to `path` as a
  /// checksummed snapshot of its segments.
  Status SaveSnapshot(const std::string& path);

  /// Replaces this table's contents with a snapshot written by
  /// SaveSnapshot. Fails with kCorruption on damaged files, leaving the
  /// table unchanged.
  Status LoadSnapshot(const std::string& path);

  /// FAULT INJECTION ONLY: flips one bit in roughly `fraction` of this
  /// table's segment blocks (at least one when fraction > 0 and any
  /// block exists) and evicts the touched segments from the block cache,
  /// so subsequent reads hit the stale checksum and fail with
  /// kCorruption. Returns the number of blocks corrupted.
  uint64_t CorruptBlocksForFaultInjection(double fraction, Rng& rng);

  /// FAULT INJECTION ONLY: precise single-block variant — corrupts bit
  /// `bit_index` of block `block_no` of segment `segment_index` (oldest
  /// first). Fails with kOutOfRange on bad indices.
  Status CorruptBlockForFaultInjection(size_t segment_index,
                                       uint32_t block_no, uint64_t bit_index);

  const std::string& name() const { return name_; }
  size_t segment_count() const;
  size_t memtable_bytes() const;
  uint64_t column_count() const;
  uint64_t put_count() const;
  /// Union of partition keys across memtable and segments, sorted.
  std::vector<std::string> PartitionKeys() const;
  /// Encoded size of one partition on "disk" (0 if absent or memtable-only).
  uint64_t PartitionEncodedBytes(std::string_view partition_key) const;

 private:
  /// The read core behind every read. Visits the live cells of one
  /// partition — clustering key in `range`, or all — in clustering order
  /// (descending if asked), merged newest-wins across segments and
  /// memtable, tombstones skipped. `visit(const CellView&)` returns false to
  /// stop early. Every block is read before the first visit, so an
  /// error (NotFound if no source holds the partition, kCorruption for a
  /// damaged block) comes before any cell. Records one read into the
  /// telemetry, when attached.
  template <typename Visit>
  Status ReadCells(std::string_view partition_key,
                   std::optional<ClusteringRange> range, bool descending,
                   ReadProbe* probe, Visit&& visit) const;

  /// The one count loop behind CountByType and CountByTypeColumns:
  /// tallies the partition's live cells by type id, then calls
  /// `reserve(bound)` with an upper bound on the distinct types and
  /// `emit(type_id, count)` once per type present, ascending.
  template <typename Reserve, typename Emit>
  Status CountTypes(std::string_view partition_key, ReadProbe* probe,
                    Reserve&& reserve, Emit&& emit) const;

  void FlushLocked() KV_REQUIRES(mu_);

  /// Size-tiered compaction pass; merges one tier if one qualifies.
  /// Tombstones are kept (only a full Compact may purge them safely).
  void MaybeCompactLocked() KV_REQUIRES(mu_);

  /// Merges the given segment indices (ascending) into one new segment.
  /// `purge_tombstones` only when merging *all* segments. Fails, building
  /// nothing, when any input block cannot be read.
  Result<std::shared_ptr<const Segment>> MergeSegmentsLocked(
      const std::vector<size_t>& indices, bool purge_tombstones)
      KV_REQUIRES(mu_);

  std::string name_;
  TableOptions options_;
  BlockCache* cache_;
  std::unique_ptr<StoreInstruments> instruments_;  ///< null = no telemetry
  mutable SharedMutex mu_;
  Memtable memtable_ KV_GUARDED_BY(mu_);
  // oldest first
  std::vector<std::shared_ptr<const Segment>> segments_ KV_GUARDED_BY(mu_);
  uint64_t next_segment_id_ KV_GUARDED_BY(mu_) = 1;
  uint64_t put_count_ KV_GUARDED_BY(mu_) = 0;
  uint64_t auto_compactions_ KV_GUARDED_BY(mu_) = 0;
  uint64_t compaction_failures_ KV_GUARDED_BY(mu_) = 0;
};

}  // namespace kvscale
