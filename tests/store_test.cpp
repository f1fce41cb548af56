// Tests for src/store: memtable, bloom, segments (column-index threshold),
// block cache, table read/write/flush/compact paths.
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "store/block_cache.hpp"
#include "store/bloom.hpp"
#include "store/decoded_block.hpp"
#include "store/local_store.hpp"
#include "store/memtable.hpp"
#include "store/row.hpp"
#include "store/segment.hpp"
#include "store/table.hpp"

namespace kvscale {
namespace {

Column MakeColumn(uint64_t clustering, uint32_t type, size_t payload = 30) {
  Column c;
  c.clustering = clustering;
  c.type_id = type;
  c.payload = MakePayload(1, clustering, payload);
  return c;
}

TEST(RowCodecTest, EncodeDecodeRoundTrip) {
  std::vector<Column> cols;
  for (uint64_t i = 0; i < 100; ++i) cols.push_back(MakeColumn(i * 3, i % 5));
  WireBuffer buf;
  EncodeColumns(cols, buf);
  auto decoded = DecodeColumns(buf.data());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), cols);
}

TEST(RowCodecTest, RejectsCorruptedCount) {
  WireBuffer buf;
  buf.WriteVarint(1000000);  // claims a million columns in 2 bytes
  auto decoded = DecodeColumns(buf.data());
  EXPECT_FALSE(decoded.ok());
}

TEST(RowCodecTest, EmptyRoundTrip) {
  WireBuffer buf;
  EncodeColumns({}, buf);
  auto decoded = DecodeColumns(buf.data());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(MemtableTest, PutGetSorted) {
  Memtable mt;
  mt.Put("p1", MakeColumn(5, 0));
  mt.Put("p1", MakeColumn(1, 1));
  mt.Put("p1", MakeColumn(3, 2));
  const auto cols = mt.Get("p1");
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_EQ(cols[0].clustering, 1u);
  EXPECT_EQ(cols[1].clustering, 3u);
  EXPECT_EQ(cols[2].clustering, 5u);
  EXPECT_TRUE(mt.Get("absent").empty());
}

TEST(MemtableTest, OverwriteKeepsSingleColumn) {
  Memtable mt;
  mt.Put("p", MakeColumn(1, 0));
  mt.Put("p", MakeColumn(1, 9));
  const auto cols = mt.Get("p");
  ASSERT_EQ(cols.size(), 1u);
  EXPECT_EQ(cols[0].type_id, 9u);
  EXPECT_EQ(mt.column_count(), 1u);
}

TEST(MemtableTest, ApproximateBytesGrowsAndClears) {
  Memtable mt;
  EXPECT_EQ(mt.approximate_bytes(), 0u);
  mt.Put("p", MakeColumn(1, 0));
  const size_t one = mt.approximate_bytes();
  EXPECT_GT(one, 0u);
  mt.Put("p", MakeColumn(2, 0));
  EXPECT_GT(mt.approximate_bytes(), one);
  mt.Clear();
  EXPECT_EQ(mt.approximate_bytes(), 0u);
  EXPECT_TRUE(mt.empty());
}

TEST(BloomFilterTest, NoFalseNegativesEver) {
  BloomFilter bloom(1000, 0.01);
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back("key-" + std::to_string(i));
  for (const auto& k : keys) bloom.Add(k);
  for (const auto& k : keys) EXPECT_TRUE(bloom.MayContain(k)) << k;
}

TEST(BloomFilterTest, FalsePositiveRateNearTarget) {
  BloomFilter bloom(5000, 0.01);
  for (int i = 0; i < 5000; ++i) bloom.Add("present-" + std::to_string(i));
  std::vector<std::string> absent;
  for (int i = 0; i < 20000; ++i) absent.push_back("absent-" + std::to_string(i));
  const double fp = bloom.MeasureFpRate(absent);
  EXPECT_LT(fp, 0.03);
}

TEST(BloomFilterTest, SizingScalesWithItems) {
  BloomFilter small(100, 0.01), large(10000, 0.01);
  EXPECT_GT(large.memory_bytes(), small.memory_bytes());
  EXPECT_GE(small.hash_count(), 1u);
}

SegmentOptions SmallBlockOptions() {
  SegmentOptions opt;
  opt.block_size = 1024;             // force multi-block partitions
  opt.column_index_threshold = 4096; // and a low index threshold
  return opt;
}

/// Cells in a run read by Segment::ReadRun.
size_t CellCount(const std::vector<BlockSlice>& run) {
  size_t cells = 0;
  for (const BlockSlice& slice : run) cells += slice.end - slice.begin;
  return cells;
}

TEST(SegmentTest, GetPartitionReturnsAllColumns) {
  Memtable mt;
  for (uint64_t i = 0; i < 200; ++i) mt.Put("p1", MakeColumn(i, i % 4));
  auto segment = Segment::Build(mt, 1, SmallBlockOptions());
  ReadProbe probe;
  std::vector<BlockSlice> run;
  ASSERT_TRUE(
      segment->ReadRun("p1", std::nullopt, nullptr, &probe, &run).ok());
  EXPECT_EQ(CellCount(run), 200u);
  EXPECT_EQ(run.front().block->clustering[run.front().begin], 0u);
  EXPECT_GT(probe.blocks_decoded, 1u);  // small blocks => several decodes
  EXPECT_EQ(probe.index_probes, 0u);    // whole-partition reads skip it
  EXPECT_EQ(probe.columns_returned, 200u);
  std::vector<BlockSlice> absent;
  EXPECT_EQ(
      segment->ReadRun("absent", std::nullopt, nullptr, nullptr, &absent)
          .code(),
      StatusCode::kNotFound);
  EXPECT_TRUE(absent.empty());
}

TEST(SegmentTest, ColumnIndexOnlyAboveThreshold) {
  // This is the Cassandra column_index_size_in_kb behaviour behind the
  // paper's Figure 6 discontinuity.
  Memtable mt;
  for (uint64_t i = 0; i < 50; ++i) mt.Put("small", MakeColumn(i, 0));
  for (uint64_t i = 0; i < 500; ++i) mt.Put("big", MakeColumn(i, 0));
  auto segment = Segment::Build(mt, 1, SmallBlockOptions());
  const auto* small_meta = segment->FindMeta("small");
  const auto* big_meta = segment->FindMeta("big");
  ASSERT_NE(small_meta, nullptr);
  ASSERT_NE(big_meta, nullptr);
  EXPECT_FALSE(small_meta->has_column_index);
  EXPECT_TRUE(big_meta->has_column_index);
  EXPECT_EQ(big_meta->column_index.size(), big_meta->block_count);
}

TEST(SegmentTest, IndexedSliceDecodesFewerBlocks) {
  Memtable mt;
  for (uint64_t i = 0; i < 1000; ++i) mt.Put("big", MakeColumn(i, 0));
  auto segment = Segment::Build(mt, 1, SmallBlockOptions());
  ASSERT_TRUE(segment->FindMeta("big")->has_column_index);

  ReadProbe narrow_probe;
  std::vector<BlockSlice> narrow;
  ASSERT_TRUE(segment
                  ->ReadRun("big", ClusteringRange{10, 20}, nullptr,
                            &narrow_probe, &narrow)
                  .ok());
  EXPECT_EQ(CellCount(narrow), 11u);
  EXPECT_EQ(narrow_probe.columns_returned, 11u);
  EXPECT_EQ(narrow_probe.index_probes, 1u);
  EXPECT_LT(narrow_probe.blocks_decoded,
            segment->FindMeta("big")->block_count);
}

TEST(SegmentTest, UnindexedSliceDecodesAllBlocks) {
  SegmentOptions opt;
  opt.block_size = 512;
  opt.column_index_threshold = 1 * kMiB;  // nothing gets indexed
  Memtable mt;
  for (uint64_t i = 0; i < 300; ++i) mt.Put("p", MakeColumn(i, 0));
  auto segment = Segment::Build(mt, 1, opt);
  const auto* meta = segment->FindMeta("p");
  ASSERT_FALSE(meta->has_column_index);
  ReadProbe probe;
  std::vector<BlockSlice> narrow;
  ASSERT_TRUE(
      segment->ReadRun("p", ClusteringRange{5, 6}, nullptr, &probe, &narrow)
          .ok());
  EXPECT_EQ(CellCount(narrow), 2u);
  // The whole partition had to be decoded despite the tiny slice.
  EXPECT_EQ(probe.blocks_decoded, meta->block_count);
  EXPECT_EQ(probe.index_probes, 0u);
}

TEST(SegmentTest, BlocksRespectSizeLimit) {
  Memtable mt;
  for (uint64_t i = 0; i < 2000; ++i) mt.Put("p", MakeColumn(i, 0, 60));
  SegmentOptions opt;
  opt.block_size = 2048;
  auto segment = Segment::Build(mt, 1, opt);
  const auto* meta = segment->FindMeta("p");
  // Each column encodes to ~77 bytes; blocks must hold at most ~26 each.
  EXPECT_GT(meta->block_count, 2000u * 70 / 2048 / 2);
}

TEST(SegmentTest, BloomSkipsAbsentPartitions) {
  Memtable mt;
  for (int p = 0; p < 50; ++p) {
    mt.Put("part-" + std::to_string(p), MakeColumn(1, 0));
  }
  auto segment = Segment::Build(mt, 1, SegmentOptions{});
  for (int p = 0; p < 50; ++p) {
    EXPECT_TRUE(segment->MayContain("part-" + std::to_string(p)));
  }
  int false_positives = 0;
  for (int p = 0; p < 2000; ++p) {
    false_positives += segment->MayContain("nope-" + std::to_string(p));
  }
  EXPECT_LT(false_positives, 2000 * 0.05);
}

/// Encodes then decodes `columns`: the block a segment read would cache.
BlockPtr MakeBlock(const std::vector<Column>& columns) {
  WireBuffer buf;
  EncodeColumns(columns, buf);
  auto block = DecodedBlock::Decode(buf.data());
  KV_CHECK(block.ok());
  return std::move(block).value();
}

std::vector<Column> ColumnsOf(const DecodedBlock& block) {
  std::vector<Column> out;
  for (size_t i = 0; i < block.size(); ++i) {
    out.push_back(block.cell(i).ToColumn());
  }
  return out;
}

TEST(DecodedBlockTest, HoldsEveryCellInColumnArrays) {
  std::vector<Column> cols{MakeColumn(1, 3), Column::Tombstone(2),
                           MakeColumn(5, 1, 0), MakeColumn(9, 7, 200)};
  const BlockPtr block = MakeBlock(cols);
  EXPECT_EQ(ColumnsOf(*block), cols);
  EXPECT_EQ(block->payload(2).size(), 0u);
  EXPECT_GE(block->ChargeBytes(), sizeof(DecodedBlock) + 30 + 200);
}

TEST(DecodedBlockTest, RejectsMalformedBlocks) {
  WireBuffer count;
  count.WriteVarint(1000000);  // claims a million columns in 3 bytes
  WireBuffer flags;
  flags.WriteVarint(1);
  flags.WriteVarint(4);
  flags.WriteU8(7);  // neither value nor tombstone
  WireBuffer truncated;
  EncodeColumns({MakeColumn(1, 0, 40)}, truncated);
  const auto bytes = truncated.data();
  for (const auto data :
       {count.data(), flags.data(), bytes.first(bytes.size() - 1)}) {
    EXPECT_EQ(DecodedBlock::Decode(data).status().code(),
              StatusCode::kCorruption);
    // DecodeColumns is built on the same parser.
    EXPECT_EQ(DecodeColumns(data).status().code(), StatusCode::kCorruption);
  }
}

TEST(BlockCacheTest, HitAfterInsert) {
  BlockCache cache(1 * kMiB);
  std::vector<Column> columns{MakeColumn(1, 0), MakeColumn(2, 1)};
  const BlockPtr block = MakeBlock(columns);
  cache.Insert(7, 0, block);
  const BlockPtr out = cache.Lookup(7, 0);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out.get(), block.get());  // a hit shares the block, no copy
  EXPECT_EQ(ColumnsOf(*out), columns);
  EXPECT_EQ(cache.Lookup(7, 1), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
  EXPECT_EQ(cache.used_bytes(), block->ChargeBytes());
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsed) {
  const BlockPtr block = MakeBlock({MakeColumn(1, 0, 200)});
  const size_t charge = block->ChargeBytes();
  BlockCache cache(2 * charge + charge / 2);  // fits two blocks, not three
  cache.Insert(1, 0, block);
  cache.Insert(1, 1, block);
  EXPECT_EQ(cache.used_bytes(), 2 * charge);
  ASSERT_NE(cache.Lookup(1, 0), nullptr);  // promote block 0
  cache.Insert(1, 2, block);               // must evict block 1
  EXPECT_NE(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);
  EXPECT_NE(cache.Lookup(1, 2), nullptr);
  EXPECT_EQ(cache.used_bytes(), 2 * charge);
}

TEST(BlockCacheTest, OversizedBlockNotCached) {
  BlockCache cache(100);
  std::vector<Column> huge;
  for (int i = 0; i < 100; ++i) huge.push_back(MakeColumn(i, 0, 100));
  cache.Insert(1, 0, MakeBlock(huge));
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(BlockCacheTest, EraseSegmentDropsOnlyThatSegment) {
  BlockCache cache(1 * kMiB);
  const BlockPtr block = MakeBlock({MakeColumn(1, 0)});
  cache.Insert(1, 0, block);
  cache.Insert(2, 0, block);
  cache.EraseSegment(1);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_NE(cache.Lookup(2, 0), nullptr);
  EXPECT_EQ(cache.used_bytes(), block->ChargeBytes());
}

TEST(BlockCacheTest, UsedBytesIsTheSumOfBlockCharges) {
  std::vector<BlockPtr> blocks;
  for (int b = 0; b < 6; ++b) {
    std::vector<Column> columns;
    for (int i = 0; i <= b * 3; ++i) {
      columns.push_back(MakeColumn(i, 0, 10 + 20 * b));
    }
    blocks.push_back(MakeBlock(columns));
  }
  const size_t largest = blocks.back()->ChargeBytes();
  BlockCache cache(2 * largest);  // too small for all six: forces eviction
  auto charged = [&cache, &blocks] {
    size_t sum = 0;
    for (uint32_t b = 0; b < blocks.size(); ++b) {
      // Lookup promotes, which does not change what is charged.
      if (cache.Lookup(b % 2, b) != nullptr) sum += blocks[b]->ChargeBytes();
    }
    return sum;
  };
  for (uint32_t b = 0; b < blocks.size(); ++b) {
    cache.Insert(b % 2, b, blocks[b]);
    EXPECT_EQ(cache.used_bytes(), charged()) << "after insert " << b;
  }
  EXPECT_LT(cache.entry_count(), blocks.size());
  EXPECT_LE(cache.used_bytes(), cache.capacity_bytes());
  cache.EraseSegment(1);
  EXPECT_EQ(cache.used_bytes(), charged());
}

TableOptions SmallTableOptions() {
  TableOptions opt;
  opt.segment = SegmentOptions{};
  opt.memtable_flush_bytes = 16 * kKiB;
  // These tests assert exact segment counts: keep compaction manual.
  opt.compaction_min_segments = 0;
  return opt;
}

TEST(TableTest, ReadYourWritesAcrossFlush) {
  Table table("t", SmallTableOptions(), nullptr);
  for (uint64_t i = 0; i < 100; ++i) table.Put("p", MakeColumn(i, i % 3));
  table.Flush();
  for (uint64_t i = 100; i < 150; ++i) table.Put("p", MakeColumn(i, i % 3));

  auto cols = table.GetPartition("p");
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(cols.value().size(), 150u);
  for (size_t i = 1; i < cols.value().size(); ++i) {
    EXPECT_LT(cols.value()[i - 1].clustering, cols.value()[i].clustering);
  }
}

TEST(TableTest, NewestWriteWinsAcrossSegments) {
  Table table("t", SmallTableOptions(), nullptr);
  table.Put("p", MakeColumn(7, 1));
  table.Flush();
  table.Put("p", MakeColumn(7, 2));
  table.Flush();
  table.Put("p", MakeColumn(7, 3));  // stays in memtable
  auto cols = table.GetPartition("p");
  ASSERT_TRUE(cols.ok());
  ASSERT_EQ(cols.value().size(), 1u);
  EXPECT_EQ(cols.value()[0].type_id, 3u);
}

TEST(TableTest, AutoFlushCreatesSegments) {
  TableOptions opt = SmallTableOptions();
  opt.memtable_flush_bytes = 2 * kKiB;
  Table table("t", opt, nullptr);
  for (uint64_t i = 0; i < 500; ++i) {
    table.Put("p" + std::to_string(i % 7), MakeColumn(i, 0));
  }
  EXPECT_GT(table.segment_count(), 1u);
  for (int p = 0; p < 7; ++p) {
    auto cols = table.GetPartition("p" + std::to_string(p));
    ASSERT_TRUE(cols.ok());
  }
}

TEST(TableTest, CompactMergesToOneSegment) {
  Table table("t", SmallTableOptions(), nullptr);
  for (int round = 0; round < 4; ++round) {
    for (uint64_t i = 0; i < 50; ++i) {
      table.Put("p" + std::to_string(i % 3),
                MakeColumn(round * 100 + i, round));
    }
    table.Flush();
  }
  EXPECT_EQ(table.segment_count(), 4u);
  const auto before = table.GetPartition("p0");
  EXPECT_TRUE(table.Compact().ok());
  EXPECT_EQ(table.segment_count(), 1u);
  const auto after = table.GetPartition("p0");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before.value(), after.value());
}

TEST(TableTest, CompactResolvesOverwrites) {
  Table table("t", SmallTableOptions(), nullptr);
  table.Put("p", MakeColumn(1, 1));
  table.Flush();
  table.Put("p", MakeColumn(1, 2));
  table.Flush();
  EXPECT_TRUE(table.Compact().ok());
  auto cols = table.GetPartition("p");
  ASSERT_TRUE(cols.ok());
  ASSERT_EQ(cols.value().size(), 1u);
  EXPECT_EQ(cols.value()[0].type_id, 2u);
}

TEST(TableTest, CountByTypeAggregates) {
  Table table("t", SmallTableOptions(), nullptr);
  for (uint64_t i = 0; i < 90; ++i) table.Put("p", MakeColumn(i, i % 3));
  table.Flush();
  auto counts = table.CountByType("p");
  ASSERT_TRUE(counts.ok());
  ASSERT_EQ(counts.value().size(), 3u);
  for (const auto& [type, count] : counts.value()) EXPECT_EQ(count, 30u);
}

// The count loop emits ascending (type, count) columns with no map: the
// dense small ids and the sorted large ones meet in one ascending run.
TEST(TableTest, CountByTypeColumnsAscendAcrossSmallAndLargeTypeIds) {
  Table table("t", SmallTableOptions(), nullptr);
  const uint32_t types[] = {900, 3, 64, 0, 63, 900, 70000, 3, 64, 900};
  for (uint64_t i = 0; i < std::size(types); ++i) {
    table.Put("p", MakeColumn(i, types[i]));
  }
  table.Flush();
  std::vector<uint64_t> type_ids;
  std::vector<uint64_t> counts;
  ASSERT_TRUE(table.CountByTypeColumns("p", type_ids, counts).ok());
  EXPECT_EQ(type_ids, (std::vector<uint64_t>{0, 3, 63, 64, 900, 70000}));
  EXPECT_EQ(counts, (std::vector<uint64_t>{1, 2, 1, 2, 3, 1}));
  // CountByType is the same loop seen as a map.
  auto map = table.CountByType("p");
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map.value(), (TypeCounts{{0, 1}, {3, 2}, {63, 1}, {64, 2},
                                     {900, 3}, {70000, 1}}));
  EXPECT_EQ(table.CountByTypeColumns("absent", type_ids, counts).code(),
            StatusCode::kNotFound);
}

// A block that fails its checksum must fail a full compaction rather
// than vanish into it: the input segments stay, so the partition keeps
// failing loudly instead of its cells silently disappearing.
TEST(TableTest, CompactionFailsOnADamagedBlockAndKeepsTheSegments) {
  Table table("t", SmallTableOptions(), nullptr);
  for (uint64_t i = 0; i < 40; ++i) table.Put("a", MakeColumn(i, i % 3));
  table.Flush();
  for (uint64_t i = 0; i < 40; ++i) table.Put("b", MakeColumn(i, i % 3));
  table.Flush();
  ASSERT_EQ(table.segment_count(), 2u);
  ASSERT_TRUE(table.CorruptBlockForFaultInjection(0, 0, 12345).ok());

  const Status compacted = table.Compact();
  EXPECT_EQ(compacted.code(), StatusCode::kCorruption);
  EXPECT_EQ(table.segment_count(), 2u);
  EXPECT_EQ(table.compaction_failures(), 1u);
  const auto damaged = table.CountByType("a");
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kCorruption);
  const auto clean = table.CountByType("b");
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean.value().at(0), 14u);
}

// The size-tiered path behind a flush meets the same damage: it leaves
// the segments as they were and counts the abandoned merge.
TEST(TableTest, AutoCompactionKeepsSegmentsBehindADamagedBlock) {
  TableOptions opt = SmallTableOptions();
  opt.compaction_min_segments = 2;
  opt.compaction_size_ratio = 100.0;
  Table table("t", opt, nullptr);
  for (uint64_t i = 0; i < 40; ++i) table.Put("a", MakeColumn(i, i % 3));
  table.Flush();
  ASSERT_EQ(table.segment_count(), 1u);
  ASSERT_TRUE(table.CorruptBlockForFaultInjection(0, 0, 777).ok());
  for (uint64_t i = 0; i < 40; ++i) table.Put("b", MakeColumn(i, i % 3));
  table.Flush();  // two segments in one tier: the merge is attempted

  EXPECT_EQ(table.segment_count(), 2u);
  EXPECT_EQ(table.auto_compactions(), 0u);
  EXPECT_EQ(table.compaction_failures(), 1u);
  EXPECT_EQ(table.CountByType("a").status().code(), StatusCode::kCorruption);
  EXPECT_TRUE(table.CountByType("b").ok());
}

TEST(TableTest, SliceMergesMemtableAndSegments) {
  Table table("t", SmallTableOptions(), nullptr);
  for (uint64_t i = 0; i < 50; ++i) table.Put("p", MakeColumn(i * 2, 0));
  table.Flush();
  for (uint64_t i = 0; i < 50; ++i) table.Put("p", MakeColumn(i * 2 + 1, 1));
  auto cols = table.Slice("p", 10, 19);
  ASSERT_TRUE(cols.ok());
  ASSERT_EQ(cols.value().size(), 10u);
  for (const auto& c : cols.value()) {
    EXPECT_EQ(c.type_id, c.clustering % 2);
  }
}

TEST(TableTest, SliceRejectsInvertedBounds) {
  Table table("t", SmallTableOptions(), nullptr);
  table.Put("p", MakeColumn(1, 0));
  EXPECT_EQ(table.Slice("p", 10, 5).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, MissingPartitionIsNotFound) {
  Table table("t", SmallTableOptions(), nullptr);
  table.Put("p", MakeColumn(1, 0));
  table.Flush();
  EXPECT_EQ(table.GetPartition("q").status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(table.HasPartition("q"));
  EXPECT_TRUE(table.HasPartition("p"));
}

TEST(TableTest, CacheServesRepeatedReads) {
  BlockCache cache(8 * kMiB);
  Table table("t", SmallTableOptions(), &cache);
  for (uint64_t i = 0; i < 200; ++i) table.Put("p", MakeColumn(i, 0));
  table.Flush();
  ReadProbe cold, warm;
  ASSERT_TRUE(table.GetPartition("p", &cold).ok());
  ASSERT_TRUE(table.GetPartition("p", &warm).ok());
  EXPECT_GT(cold.blocks_decoded, 0u);
  EXPECT_EQ(warm.blocks_decoded, 0u);
  EXPECT_GT(warm.blocks_from_cache, 0u);
}

TEST(TableTest, PartitionKeysUnion) {
  Table table("t", SmallTableOptions(), nullptr);
  table.Put("b", MakeColumn(1, 0));
  table.Flush();
  table.Put("a", MakeColumn(1, 0));
  const auto keys = table.PartitionKeys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(keys[1], "b");
}

TEST(SizeTieredCompactionTest, SimilarSizedRunsAreMerged) {
  TableOptions opt = SmallTableOptions();
  opt.compaction_min_segments = 4;
  opt.compaction_size_ratio = 2.0;
  Table table("t", opt, nullptr);
  for (int round = 0; round < 4; ++round) {
    for (uint64_t i = 0; i < 100; ++i) {
      table.Put("p" + std::to_string(i % 5),
                MakeColumn(round * 1000 + i, round));
    }
    table.Flush();
  }
  // The fourth flush created a tier of four similar segments -> merged.
  EXPECT_EQ(table.auto_compactions(), 1u);
  EXPECT_EQ(table.segment_count(), 1u);
  // All data still readable with newest-wins intact.
  auto cols = table.GetPartition("p0");
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(cols.value().size(), 80u);  // 20 per round x 4 rounds
}

TEST(SizeTieredCompactionTest, DissimilarSizesAreLeftAlone) {
  TableOptions opt = SmallTableOptions();
  opt.compaction_min_segments = 2;
  opt.compaction_size_ratio = 1.5;
  opt.auto_flush = false;  // only explicit flushes create segments here
  Table table("t", opt, nullptr);
  // One big segment, then one tiny one: ratio >> 1.5, no merge.
  for (uint64_t i = 0; i < 2000; ++i) table.Put("big", MakeColumn(i, 0));
  table.Flush();
  table.Put("small", MakeColumn(1, 0));
  table.Flush();
  EXPECT_EQ(table.auto_compactions(), 0u);
  EXPECT_EQ(table.segment_count(), 2u);
}

TEST(SizeTieredCompactionTest, PreservesNewestWinsAndTombstones) {
  TableOptions opt = SmallTableOptions();
  opt.compaction_min_segments = 3;
  opt.compaction_size_ratio = 4.0;
  Table table("t", opt, nullptr);
  table.Put("p", MakeColumn(1, 1));
  table.Flush();
  table.Put("p", MakeColumn(1, 2));  // overwrite in a newer segment
  table.Delete("p", 9);              // tombstone for a cell that never existed
  table.Flush();
  table.Put("p", MakeColumn(2, 7));
  table.Flush();  // third flush: tier of three merges
  EXPECT_GE(table.auto_compactions(), 1u);
  auto cols = table.GetPartition("p");
  ASSERT_TRUE(cols.ok());
  ASSERT_EQ(cols.value().size(), 2u);
  EXPECT_EQ(cols.value()[0].type_id, 2u);  // the overwrite won
  EXPECT_EQ(cols.value()[1].clustering, 2u);
}

TEST(SizeTieredCompactionTest, BoundsSegmentCountUnderSustainedWrites) {
  TableOptions opt;
  opt.memtable_flush_bytes = 4 * kKiB;  // frequent flushes
  opt.compaction_min_segments = 4;
  Table table("t", opt, nullptr);
  for (uint64_t i = 0; i < 5000; ++i) {
    table.Put("p" + std::to_string(i % 11), MakeColumn(i, 0));
  }
  // Without STCS this produces dozens of segments; with it the count
  // stays bounded by roughly the tier width times the tier count.
  EXPECT_LE(table.segment_count(), 12u);
  EXPECT_GE(table.auto_compactions(), 1u);
  // Full data still present.
  uint64_t total = 0;
  for (int p = 0; p < 11; ++p) {
    auto counts = table.CountByType("p" + std::to_string(p));
    ASSERT_TRUE(counts.ok());
    for (const auto& [type, count] : counts.value()) total += count;
  }
  EXPECT_EQ(total, 5000u);
}

TEST(TableDeleteTest, DeleteHidesTheCell) {
  Table table("t", SmallTableOptions(), nullptr);
  for (uint64_t i = 0; i < 10; ++i) table.Put("p", MakeColumn(i, 0));
  table.Delete("p", 4);
  auto cols = table.GetPartition("p");
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(cols.value().size(), 9u);
  for (const auto& c : cols.value()) EXPECT_NE(c.clustering, 4u);
}

TEST(TableDeleteTest, TombstoneShadowsOlderSegments) {
  Table table("t", SmallTableOptions(), nullptr);
  table.Put("p", MakeColumn(7, 1));
  table.Flush();  // the value is sealed in a segment
  table.Delete("p", 7);
  table.Flush();  // the tombstone is sealed in a newer segment
  auto cols = table.GetPartition("p");
  ASSERT_TRUE(cols.ok());
  EXPECT_TRUE(cols.value().empty());
  auto slice = table.Slice("p", 0, 100);
  ASSERT_TRUE(slice.ok());
  EXPECT_TRUE(slice.value().empty());
}

TEST(TableDeleteTest, ReinsertAfterDeleteWins) {
  Table table("t", SmallTableOptions(), nullptr);
  table.Put("p", MakeColumn(1, 1));
  table.Flush();
  table.Delete("p", 1);
  table.Flush();
  table.Put("p", MakeColumn(1, 9));  // newest write revives the cell
  auto cols = table.GetPartition("p");
  ASSERT_TRUE(cols.ok());
  ASSERT_EQ(cols.value().size(), 1u);
  EXPECT_EQ(cols.value()[0].type_id, 9u);
}

TEST(TableDeleteTest, CompactionPurgesTombstones) {
  Table table("t", SmallTableOptions(), nullptr);
  for (uint64_t i = 0; i < 100; ++i) table.Put("p", MakeColumn(i, 0));
  table.Flush();
  for (uint64_t i = 0; i < 50; ++i) table.Delete("p", i * 2);
  table.Flush();
  const uint64_t before = table.column_count();  // values + tombstones
  EXPECT_TRUE(table.Compact().ok());
  // After a full compaction only the 50 live cells remain on disk.
  EXPECT_EQ(table.column_count(), 50u);
  EXPECT_LT(table.column_count(), before);
  auto counts = table.CountByType("p");
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ(counts.value().at(0), 50u);
}

TEST(TableDeleteTest, FullyDeletedPartitionDisappearsAfterCompaction) {
  Table table("t", SmallTableOptions(), nullptr);
  table.Put("doomed", MakeColumn(1, 0));
  table.Put("kept", MakeColumn(1, 0));
  table.Flush();
  table.Delete("doomed", 1);
  EXPECT_TRUE(table.Compact().ok());
  EXPECT_FALSE(table.HasPartition("doomed"));
  EXPECT_TRUE(table.HasPartition("kept"));
}

TEST(TableDeleteTest, DeleteOfAbsentCellIsHarmless) {
  Table table("t", SmallTableOptions(), nullptr);
  table.Put("p", MakeColumn(1, 0));
  table.Delete("p", 999);
  auto cols = table.GetPartition("p");
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(cols.value().size(), 1u);
}

TEST(RowCodecTest, TombstonesRoundTrip) {
  std::vector<Column> cols{MakeColumn(1, 3), Column::Tombstone(2),
                           MakeColumn(5, 1)};
  WireBuffer buf;
  EncodeColumns(cols, buf);
  auto decoded = DecodeColumns(buf.data());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), cols);
  EXPECT_TRUE(decoded.value()[1].tombstone);
}

TEST(LocalStoreTest, CreatesAndFindsTables) {
  LocalStore store;
  Table& t1 = store.GetOrCreateTable("alpha");
  Table& t2 = store.GetOrCreateTable("alpha");
  EXPECT_EQ(&t1, &t2);
  EXPECT_EQ(store.table_count(), 1u);
  EXPECT_TRUE(store.FindTable("alpha").ok());
  EXPECT_EQ(store.FindTable("beta").status().code(), StatusCode::kNotFound);
}

TEST(LocalStoreTest, FlushAllFlushesEveryTable) {
  LocalStore store;
  store.GetOrCreateTable("a").Put("p", MakeColumn(1, 0));
  store.GetOrCreateTable("b").Put("p", MakeColumn(1, 0));
  store.FlushAll();
  EXPECT_EQ(store.GetOrCreateTable("a").segment_count(), 1u);
  EXPECT_EQ(store.GetOrCreateTable("b").segment_count(), 1u);
}

TEST(LocalStoreTest, TablesDoNotShareCachedBlocks) {
  LocalStore store;  // both tables read through the store's one cache
  Table& a = store.GetOrCreateTable("a");
  Table& b = store.GetOrCreateTable("b");
  for (uint64_t i = 0; i < 100; ++i) {
    a.Put("p", MakeColumn(i, 1));
    b.Put("p", MakeColumn(i, 2));
  }
  store.FlushAll();  // each table's only segment is its segment 1
  for (int round = 0; round < 2; ++round) {  // round 1 reads warm
    auto from_a = a.GetPartition("p");
    auto from_b = b.GetPartition("p");
    ASSERT_TRUE(from_a.ok());
    ASSERT_TRUE(from_b.ok());
    ASSERT_EQ(from_a.value().size(), 100u);
    ASSERT_EQ(from_b.value().size(), 100u);
    for (const Column& c : from_a.value()) EXPECT_EQ(c.type_id, 1u);
    for (const Column& c : from_b.value()) EXPECT_EQ(c.type_id, 2u);
    EXPECT_EQ(a.CountByType("p").value(), (TypeCounts{{1, 100}}));
    EXPECT_EQ(b.CountByType("p").value(), (TypeCounts{{2, 100}}));
  }
  EXPECT_GT(store.cache()->hits(), 0u);
}

TEST(LocalStoreTest, ZeroCacheBytesDisablesCache) {
  StoreOptions opt;
  opt.block_cache_bytes = 0;
  LocalStore store(opt);
  EXPECT_EQ(store.cache(), nullptr);
}

/// The storage mechanism behind Figure 6: with ~46-byte elements, rows
/// around 1425 elements cross the 64 KB threshold and gain a column index.
TEST(TableTest, RealisticRowsCrossIndexThresholdNear1425Elements) {
  TableOptions opt;  // default 64 KiB block/threshold
  Table table("t", opt, nullptr);
  // 43-byte payloads encode to ~46 bytes/element, the dataset's row
  // density (see workload/alya.hpp).
  for (uint64_t i = 0; i < 1200; ++i) {
    table.Put("below", MakeColumn(i, 0, 43));
  }
  for (uint64_t i = 0; i < 1700; ++i) {
    table.Put("above", MakeColumn(i, 0, 43));
  }
  table.Flush();
  EXPECT_LT(table.PartitionEncodedBytes("below"), 64 * kKiB);
  EXPECT_GT(table.PartitionEncodedBytes("above"), 64 * kKiB);
}

}  // namespace
}  // namespace kvscale
