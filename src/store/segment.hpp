// Immutable on-"disk" segment (SSTable equivalent).
//
// A segment stores partitions contiguously, each packed into one or more
// fixed-size blocks of encoded columns. Following Cassandra's
// `column_index_size_in_kb` behaviour described in Section V of the paper:
// partitions whose encoded size exceeds the column-index threshold (default
// 64 KB) get a per-block *column index* (first/last clustering key of each
// block), enabling block-granular slices; smaller partitions are not
// indexed, so any read must decode the whole partition. That asymmetry is
// the mechanism behind the response-time discontinuity at ~1425 elements
// that the paper's Figure 6 reports.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "store/bloom.hpp"
#include "store/decoded_block.hpp"
#include "store/memtable.hpp"
#include "store/row.hpp"

namespace kvscale {

/// Build-time knobs for segments.
struct SegmentOptions {
  size_t block_size = 64 * kKiB;             ///< max encoded bytes per block
  size_t column_index_threshold = 64 * kKiB; ///< partitions above get an index
  double bloom_fp_rate = 0.01;
};

/// Telemetry of a single read, accumulated across memtable/segments/cache.
struct ReadProbe {
  uint64_t segments_consulted = 0;
  uint64_t bloom_negatives = 0;   ///< segments skipped by bloom filter
  uint64_t index_probes = 0;      ///< column-index binary searches
  uint64_t blocks_decoded = 0;    ///< blocks actually deserialized
  uint64_t blocks_from_cache = 0; ///< decoded blocks served by the cache
  uint64_t bytes_decoded = 0;
  uint64_t columns_returned = 0;

  void MergeFrom(const ReadProbe& other);
};

class BlockCache;  // forward declaration (block_cache.hpp)

/// Inclusive clustering-key bounds of a range read.
struct ClusteringRange {
  uint64_t lo = 0;
  uint64_t hi = 0;
};

/// One block's share of a sorted run: cells [begin, end) of `block`.
/// Holding the pointer keeps the block alive even if the cache evicts it.
struct BlockSlice {
  BlockPtr block;
  uint32_t begin = 0;
  uint32_t end = 0;
};

/// Immutable sorted segment.
class Segment {
 public:
  /// Per-block column-index entry (only for indexed partitions).
  struct ColumnIndexEntry {
    uint64_t first_clustering = 0;
    uint64_t last_clustering = 0;
    uint32_t block = 0;  ///< absolute block number within the segment
  };

  /// Directory entry for one partition.
  struct PartitionMeta {
    uint32_t first_block = 0;
    uint32_t block_count = 0;
    uint64_t column_count = 0;
    uint64_t encoded_bytes = 0;
    bool has_column_index = false;
    std::vector<ColumnIndexEntry> column_index;
  };

  /// Freezes a memtable into a segment.
  static std::shared_ptr<const Segment> Build(const Memtable& memtable,
                                              uint64_t segment_id,
                                              const SegmentOptions& options);

  /// Builds from pre-merged partitions (compaction); `partitions` must be
  /// sorted by key and each column vector sorted by clustering key.
  static std::shared_ptr<const Segment> Build(
      const std::vector<std::pair<std::string, std::vector<Column>>>&
          partitions,
      uint64_t segment_id, const SegmentOptions& options);

  /// Bloom-filter pre-check; false means the partition is definitely not
  /// in this segment.
  bool MayContain(std::string_view partition_key) const;

  /// Reads one partition's cells as decoded blocks, in place: appends to
  /// `out` the non-empty slice of every block read, in clustering order.
  /// With no `range` every block of the partition is read. With a range,
  /// an indexed partition reads only the blocks the column index says
  /// overlap [lo, hi]; an unindexed one (< 64 KB) still reads all of its
  /// blocks (the threshold effect). Tombstones are kept. NotFound if the
  /// partition is absent, kCorruption if a block fails its checksum.
  /// `cache` may be null.
  Status ReadRun(std::string_view partition_key,
                 std::optional<ClusteringRange> range, BlockCache* cache,
                 ReadProbe* probe, std::vector<BlockSlice>* out) const;

  bool HasPartition(std::string_view partition_key) const;
  const PartitionMeta* FindMeta(std::string_view partition_key) const;

  /// Serialises the whole segment (directory, column indexes, blocks,
  /// per-block checksums) into `out`; Deserialize restores an identical
  /// segment (the bloom filter is rebuilt from the keys) and rejects
  /// blocks whose stored checksum no longer matches their bytes. This is
  /// the snapshot format used by Table::SaveSnapshot.
  void SerializeTo(WireBuffer& out) const;
  static Result<std::shared_ptr<const Segment>> Deserialize(
      std::span<const std::byte> data);

  /// FAULT INJECTION ONLY: flips one bit of block `block_no`'s encoded
  /// bytes while leaving the stored checksum untouched, so the next
  /// uncached read of that block fails verification with kCorruption.
  /// Must not race with reads of this segment.
  void FlipBlockBitForFaultInjection(uint32_t block_no, uint64_t bit_index);

  uint64_t id() const { return id_; }
  /// Process-unique key of this segment object in the block cache. Unlike
  /// id(), which each table numbers from 1 and snapshots persist, it is
  /// never shared by two segments.
  uint64_t cache_id() const { return cache_id_; }
  size_t partition_count() const { return directory_.size(); }
  size_t block_count() const { return blocks_.size(); }
  uint64_t column_count() const { return total_columns_; }
  uint64_t encoded_bytes() const { return total_bytes_; }
  std::vector<std::string> PartitionKeys() const;

 private:
  Segment(uint64_t id, const SegmentOptions& options, size_t partitions);

  void AddPartition(const std::string& key, const std::vector<Column>& columns);

  /// Decodes block `block_no`, through `cache` when provided. Verifies
  /// the block's checksum before decoding (cache hits skip the check:
  /// cached entries were verified when first decoded) and surfaces a
  /// mismatch as kCorruption instead of returning damaged columns.
  Result<BlockPtr> ReadBlock(uint32_t block_no, BlockCache* cache,
                             ReadProbe* probe) const;

  uint64_t id_;
  uint64_t cache_id_;
  SegmentOptions options_;
  BloomFilter bloom_;
  std::map<std::string, PartitionMeta, std::less<>> directory_;
  std::vector<std::vector<std::byte>> blocks_;  // encoded column runs
  std::vector<uint64_t> block_checksums_;       // fnv1a of each block
  uint64_t total_columns_ = 0;
  uint64_t total_bytes_ = 0;
};

}  // namespace kvscale
