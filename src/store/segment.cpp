#include "store/segment.hpp"

#include <algorithm>
#include <atomic>

#include "common/check.hpp"
#include "hash/hash.hpp"
#include "store/block_cache.hpp"

namespace kvscale {

void ReadProbe::MergeFrom(const ReadProbe& other) {
  segments_consulted += other.segments_consulted;
  bloom_negatives += other.bloom_negatives;
  index_probes += other.index_probes;
  blocks_decoded += other.blocks_decoded;
  blocks_from_cache += other.blocks_from_cache;
  bytes_decoded += other.bytes_decoded;
  columns_returned += other.columns_returned;
}

Segment::Segment(uint64_t id, const SegmentOptions& options,
                 size_t partitions)
    : id_(id),
      options_(options),
      bloom_(std::max<size_t>(partitions, 1), options.bloom_fp_rate) {
  static std::atomic<uint64_t> next_cache_id{1};
  cache_id_ = next_cache_id.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const Segment> Segment::Build(const Memtable& memtable,
                                              uint64_t segment_id,
                                              const SegmentOptions& options) {
  std::vector<std::pair<std::string, std::vector<Column>>> partitions;
  partitions.reserve(memtable.partition_count());
  for (const auto& key : memtable.PartitionKeys()) {
    partitions.emplace_back(key, memtable.Get(key));
  }
  return Build(partitions, segment_id, options);
}

std::shared_ptr<const Segment> Segment::Build(
    const std::vector<std::pair<std::string, std::vector<Column>>>& partitions,
    uint64_t segment_id, const SegmentOptions& options) {
  KV_CHECK(options.block_size > 0);
  // Private constructor: cannot use make_shared.
  std::shared_ptr<Segment> segment(
      new Segment(segment_id, options, partitions.size()));
  for (const auto& [key, columns] : partitions) {
    KV_CHECK(std::is_sorted(columns.begin(), columns.end(),
                            [](const Column& a, const Column& b) {
                              return a.clustering < b.clustering;
                            }));
    segment->AddPartition(key, columns);
  }
  return segment;
}

void Segment::AddPartition(const std::string& key,
                           const std::vector<Column>& columns) {
  KV_CHECK(directory_.find(key) == directory_.end());
  if (columns.empty()) return;

  PartitionMeta meta;
  meta.first_block = static_cast<uint32_t>(blocks_.size());
  meta.column_count = columns.size();

  // Pack columns into blocks of at most block_size encoded bytes.
  std::vector<Column> pending;
  size_t pending_bytes = 0;
  std::vector<ColumnIndexEntry> index;
  auto flush_block = [&]() {
    if (pending.empty()) return;
    WireBuffer buf;
    EncodeColumns(pending, buf);
    ColumnIndexEntry entry;
    entry.first_clustering = pending.front().clustering;
    entry.last_clustering = pending.back().clustering;
    entry.block = static_cast<uint32_t>(blocks_.size());
    index.push_back(entry);
    auto span = buf.data();
    blocks_.emplace_back(span.begin(), span.end());
    block_checksums_.push_back(Fnv1a64(blocks_.back()));
    meta.encoded_bytes += blocks_.back().size();
    pending.clear();
    pending_bytes = 0;
  };

  for (const Column& c : columns) {
    const size_t sz = c.EncodedSize();
    if (!pending.empty() && pending_bytes + sz > options_.block_size) {
      flush_block();
    }
    pending.push_back(c);
    pending_bytes += sz;
  }
  flush_block();

  meta.block_count = static_cast<uint32_t>(blocks_.size()) - meta.first_block;
  // Cassandra's column_index_size_in_kb rule: only partitions larger than
  // the threshold carry a column index.
  meta.has_column_index = meta.encoded_bytes > options_.column_index_threshold;
  if (meta.has_column_index) meta.column_index = std::move(index);

  total_columns_ += meta.column_count;
  total_bytes_ += meta.encoded_bytes;
  bloom_.Add(key);
  directory_.emplace(key, std::move(meta));
}

bool Segment::MayContain(std::string_view partition_key) const {
  return bloom_.MayContain(partition_key);
}

bool Segment::HasPartition(std::string_view partition_key) const {
  return directory_.find(partition_key) != directory_.end();
}

const Segment::PartitionMeta* Segment::FindMeta(
    std::string_view partition_key) const {
  auto it = directory_.find(partition_key);
  return it == directory_.end() ? nullptr : &it->second;
}

std::vector<std::string> Segment::PartitionKeys() const {
  std::vector<std::string> keys;
  keys.reserve(directory_.size());
  for (const auto& [key, meta] : directory_) keys.push_back(key);
  return keys;
}

void Segment::SerializeTo(WireBuffer& out) const {
  out.WriteU64(id_);
  out.WriteVarint(options_.block_size);
  out.WriteVarint(options_.column_index_threshold);
  out.WriteF64(options_.bloom_fp_rate);
  out.WriteVarint(directory_.size());
  for (const auto& [key, meta] : directory_) {
    out.WriteString(key);
    out.WriteVarint(meta.first_block);
    out.WriteVarint(meta.block_count);
    out.WriteVarint(meta.column_count);
    out.WriteVarint(meta.encoded_bytes);
    out.WriteU8(meta.has_column_index ? 1 : 0);
    out.WriteVarint(meta.column_index.size());
    for (const auto& entry : meta.column_index) {
      out.WriteVarint(entry.first_clustering);
      out.WriteVarint(entry.last_clustering);
      out.WriteVarint(entry.block);
    }
  }
  out.WriteVarint(blocks_.size());
  for (const auto& block : blocks_) out.WriteBytes(block);
  for (uint64_t checksum : block_checksums_) out.WriteU64(checksum);
}

Result<std::shared_ptr<const Segment>> Segment::Deserialize(
    std::span<const std::byte> data) {
  WireReader r(data);
  const uint64_t id = r.ReadU64();
  SegmentOptions options;
  options.block_size = r.ReadVarint();
  options.column_index_threshold = r.ReadVarint();
  options.bloom_fp_rate = r.ReadF64();
  const uint64_t partitions = r.ReadVarint();
  if (!r.ok() || partitions > data.size()) {
    return Status::Corruption("segment header");
  }

  std::shared_ptr<Segment> segment(
      new Segment(id, options, std::max<size_t>(partitions, 1)));
  for (uint64_t p = 0; p < partitions; ++p) {
    std::string key = r.ReadString();
    PartitionMeta meta;
    meta.first_block = static_cast<uint32_t>(r.ReadVarint());
    meta.block_count = static_cast<uint32_t>(r.ReadVarint());
    meta.column_count = r.ReadVarint();
    meta.encoded_bytes = r.ReadVarint();
    meta.has_column_index = r.ReadU8() == 1;
    const uint64_t index_entries = r.ReadVarint();
    if (!r.ok() || index_entries > data.size()) {
      return Status::Corruption("segment directory");
    }
    meta.column_index.reserve(index_entries);
    for (uint64_t e = 0; e < index_entries; ++e) {
      ColumnIndexEntry entry;
      entry.first_clustering = r.ReadVarint();
      entry.last_clustering = r.ReadVarint();
      entry.block = static_cast<uint32_t>(r.ReadVarint());
      meta.column_index.push_back(entry);
    }
    segment->total_columns_ += meta.column_count;
    segment->total_bytes_ += meta.encoded_bytes;
    segment->bloom_.Add(key);
    segment->directory_.emplace(std::move(key), std::move(meta));
  }
  const uint64_t block_count = r.ReadVarint();
  if (!r.ok() || block_count > data.size()) {
    return Status::Corruption("segment block table");
  }
  segment->blocks_.reserve(block_count);
  for (uint64_t b = 0; b < block_count; ++b) {
    segment->blocks_.push_back(r.ReadBytes());
  }
  segment->block_checksums_.reserve(block_count);
  for (uint64_t b = 0; b < block_count; ++b) {
    const uint64_t checksum = r.ReadU64();
    if (!r.ok() || Fnv1a64(segment->blocks_[b]) != checksum) {
      return Status::Corruption("segment block checksum mismatch");
    }
    segment->block_checksums_.push_back(checksum);
  }
  if (!r.AtEnd()) return Status::Corruption("segment trailing bytes");
  // Validate directory block ranges against the block table.
  for (const auto& [key, meta] : segment->directory_) {
    if (static_cast<uint64_t>(meta.first_block) + meta.block_count >
        segment->blocks_.size()) {
      return Status::Corruption("segment directory out of range");
    }
  }
  return std::shared_ptr<const Segment>(std::move(segment));
}

void Segment::FlipBlockBitForFaultInjection(uint32_t block_no,
                                            uint64_t bit_index) {
  KV_CHECK(block_no < blocks_.size());
  auto& block = blocks_[block_no];
  KV_CHECK(!block.empty());
  const uint64_t bit = bit_index % (block.size() * 8);
  block[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
}

Result<BlockPtr> Segment::ReadBlock(uint32_t block_no, BlockCache* cache,
                                    ReadProbe* probe) const {
  KV_CHECK(block_no < blocks_.size());
  if (cache != nullptr) {
    if (BlockPtr cached = cache->Lookup(cache_id_, block_no)) {
      if (probe != nullptr) ++probe->blocks_from_cache;
      return cached;
    }
  }
  if (Fnv1a64(blocks_[block_no]) != block_checksums_[block_no]) {
    return Status::Corruption("segment " + std::to_string(id_) + " block " +
                              std::to_string(block_no) +
                              " checksum mismatch");
  }
  auto decoded = DecodedBlock::Decode(blocks_[block_no]);
  if (!decoded.ok()) return decoded.status();
  if (probe != nullptr) {
    ++probe->blocks_decoded;
    probe->bytes_decoded += blocks_[block_no].size();
  }
  if (cache != nullptr) cache->Insert(cache_id_, block_no, decoded.value());
  return decoded;
}

Status Segment::ReadRun(std::string_view partition_key,
                        std::optional<ClusteringRange> range,
                        BlockCache* cache, ReadProbe* probe,
                        std::vector<BlockSlice>* out) const {
  const PartitionMeta* meta = FindMeta(partition_key);
  if (meta == nullptr) {
    return Status::NotFound(std::string(partition_key));
  }
  auto add_block = [&](uint32_t block_no) -> Status {
    auto block = ReadBlock(block_no, cache, probe);
    if (!block.ok()) return block.status();
    const auto& keys = block.value()->clustering;
    // Columns are sorted: binary-search the block's share of the range.
    auto first = keys.begin();
    auto last = keys.end();
    if (range.has_value()) {
      first = std::lower_bound(keys.begin(), keys.end(), range->lo);
      last = std::upper_bound(first, keys.end(), range->hi);
    }
    if (probe != nullptr) {
      probe->columns_returned += static_cast<uint64_t>(last - first);
    }
    if (first != last) {
      out->push_back(BlockSlice{std::move(block).value(),
                                static_cast<uint32_t>(first - keys.begin()),
                                static_cast<uint32_t>(last - keys.begin())});
    }
    return Status::Ok();
  };

  if (range.has_value() && meta->has_column_index) {
    // Indexed partition: binary-search the column index, read only the
    // blocks overlapping [lo, hi].
    if (probe != nullptr) ++probe->index_probes;
    const auto& index = meta->column_index;
    auto first = std::lower_bound(index.begin(), index.end(), range->lo,
                                  [](const ColumnIndexEntry& e, uint64_t v) {
                                    return e.last_clustering < v;
                                  });
    for (auto it = first;
         it != index.end() && it->first_clustering <= range->hi; ++it) {
      KV_RETURN_IF_ERROR(add_block(it->block));
    }
    return Status::Ok();
  }
  // A whole-partition read, or an unindexed (< 64 KB) partition: every
  // block must be read.
  for (uint32_t b = meta->first_block;
       b < meta->first_block + meta->block_count; ++b) {
    KV_RETURN_IF_ERROR(add_block(b));
  }
  return Status::Ok();
}

}  // namespace kvscale
