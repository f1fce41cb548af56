#include "store/table.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <iterator>
#include <numeric>
#include <set>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "hash/hash.hpp"
#include "store/store_metrics.hpp"

namespace kvscale {

namespace {

using ReadClock = std::chrono::steady_clock;

double ElapsedMicros(ReadClock::time_point since) {
  return std::chrono::duration<double, std::micro>(ReadClock::now() - since)
      .count();
}

/// Per-read telemetry deltas: probes may arrive pre-populated by a
/// caller accumulating across reads, so only the growth since `before`
/// belongs to this read.
ReadProbe ProbeDelta(const ReadProbe& before, const ReadProbe& after) {
  ReadProbe delta;
  delta.segments_consulted = after.segments_consulted - before.segments_consulted;
  delta.bloom_negatives = after.bloom_negatives - before.bloom_negatives;
  delta.index_probes = after.index_probes - before.index_probes;
  delta.blocks_decoded = after.blocks_decoded - before.blocks_decoded;
  delta.blocks_from_cache = after.blocks_from_cache - before.blocks_from_cache;
  delta.bytes_decoded = after.bytes_decoded - before.bytes_decoded;
  delta.columns_returned = after.columns_returned - before.columns_returned;
  return delta;
}

using MemtableCells = std::map<uint64_t, Column>;

/// One source's cells of a partition, ascending and never empty: a
/// segment's block slices, or the memtable's [first, last) range.
struct SortedRun {
  std::vector<BlockSlice> slices;
  bool in_memtable = false;
  MemtableCells::const_iterator first, last;
};

/// Walks one SortedRun in either direction.
class RunCursor {
 public:
  RunCursor(const SortedRun& run, bool descending)
      : run_(&run), descending_(descending) {
    if (run.in_memtable) {
      it_ = descending ? std::prev(run.last) : run.first;
    } else {
      Enter(descending ? run.slices.size() - 1 : 0);
    }
  }

  bool done() const { return done_; }

  uint64_t key() const {
    return run_->in_memtable ? it_->first : block_->clustering[cell_];
  }

  CellView cell() const {
    return run_->in_memtable ? CellView::Of(it_->second) : block_->cell(cell_);
  }

  void Next() {
    if (run_->in_memtable) {
      if (!descending_) {
        done_ = ++it_ == run_->last;
      } else if (it_ == run_->first) {
        done_ = true;
      } else {
        --it_;
      }
      return;
    }
    const BlockSlice& slice = run_->slices[slice_];
    if (!descending_) {
      if (++cell_ < slice.end) return;
      if (slice_ + 1 < run_->slices.size()) {
        Enter(slice_ + 1);
      } else {
        done_ = true;
      }
    } else if (cell_ > slice.begin) {
      --cell_;
    } else if (slice_ > 0) {
      Enter(slice_ - 1);
    } else {
      done_ = true;
    }
  }

 private:
  void Enter(size_t slice) {
    slice_ = slice;
    const BlockSlice& s = run_->slices[slice];
    block_ = s.block.get();
    cell_ = descending_ ? s.end - 1 : s.begin;
  }

  const SortedRun* run_;
  bool descending_;
  bool done_ = false;
  MemtableCells::const_iterator it_;  // memtable run
  size_t slice_ = 0;                  // segment run
  const DecodedBlock* block_ = nullptr;
  uint32_t cell_ = 0;
};

/// Visits the cells of `runs` (oldest source first) in clustering order,
/// descending if asked. One run is streamed; several are k-way merged,
/// and a key held by several runs is visited once, from the newest.
/// Tombstones are skipped unless `keep_tombstones`. `visit` returns
/// false to stop.
template <typename Visit>
void WalkRuns(const std::vector<SortedRun>& runs, bool descending,
              bool keep_tombstones, Visit&& visit) {
  std::vector<RunCursor> cursors;
  cursors.reserve(runs.size());
  for (const SortedRun& run : runs) cursors.emplace_back(run, descending);
  if (cursors.size() == 1) {
    for (RunCursor& only = cursors.front(); !only.done(); only.Next()) {
      const CellView cell = only.cell();
      if (cell.tombstone && !keep_tombstones) continue;
      if (!visit(cell)) return;
    }
    return;
  }
  while (true) {
    // The next key in walk order; on a tie the later (newer) run wins.
    RunCursor* newest = nullptr;
    for (RunCursor& cursor : cursors) {
      if (cursor.done()) continue;
      if (newest == nullptr ||
          (descending ? cursor.key() >= newest->key()
                      : cursor.key() <= newest->key())) {
        newest = &cursor;
      }
    }
    if (newest == nullptr) return;
    const CellView cell = newest->cell();
    for (RunCursor& cursor : cursors) {
      if (!cursor.done() && cursor.key() == cell.clustering) cursor.Next();
    }
    if (cell.tombstone && !keep_tombstones) continue;
    if (!visit(cell)) return;
  }
}

/// The visitor of the materialising reads: appends every cell as a Column.
auto AppendTo(std::vector<Column>* out) {
  return [out](const CellView& cell) {
    out->push_back(cell.ToColumn());
    return true;
  };
}

}  // namespace

Table::Table(std::string name, TableOptions options, BlockCache* cache)
    : name_(std::move(name)), options_(options), cache_(cache) {
  if (options_.metrics != nullptr) {
    instruments_ = std::make_unique<StoreInstruments>(
        StoreInstruments::Resolve(*options_.metrics));
  }
}

Table::~Table() = default;

void Table::Put(std::string_view partition_key, Column column) {
  WriterMutexLock lock(mu_);
  memtable_.Put(partition_key, std::move(column));
  ++put_count_;
  if (options_.auto_flush &&
      memtable_.approximate_bytes() >= options_.memtable_flush_bytes) {
    FlushLocked();
  }
}

void Table::FlushLocked() {
  if (memtable_.empty()) return;
  const auto t0 = ReadClock::now();
  segments_.push_back(
      Segment::Build(memtable_, next_segment_id_++, options_.segment));
  memtable_.Clear();
  if (options_.compaction_min_segments > 0) MaybeCompactLocked();
  if (instruments_ != nullptr) {
    instruments_->memtable_flushes->Increment();
    instruments_->flush_latency->Record(ElapsedMicros(t0));
  }
}

Result<std::shared_ptr<const Segment>> Table::MergeSegmentsLocked(
    const std::vector<size_t>& indices, bool purge_tombstones) {
  std::set<std::string> keys;
  for (size_t idx : indices) {
    for (auto& key : segments_[idx]->PartitionKeys()) {
      keys.insert(std::move(key));
    }
  }
  std::vector<std::pair<std::string, std::vector<Column>>> partitions;
  partitions.reserve(keys.size());
  for (const auto& key : keys) {
    std::vector<SortedRun> runs;
    for (size_t idx : indices) {  // ascending = oldest first
      SortedRun run;
      const Status read = segments_[idx]->ReadRun(key, std::nullopt, nullptr,
                                                  nullptr, &run.slices);
      if (read.code() == StatusCode::kNotFound) continue;
      // A damaged block must fail the merge: skipping it would drop its
      // cells from the merged segment, and the checksum that could still
      // report the damage would be gone with the old segment.
      KV_RETURN_IF_ERROR(read);
      if (!run.slices.empty()) runs.push_back(std::move(run));
    }
    std::vector<Column> columns;
    WalkRuns(runs, /*descending=*/false, /*keep_tombstones=*/!purge_tombstones,
             AppendTo(&columns));
    if (columns.empty()) continue;
    partitions.emplace_back(key, std::move(columns));
  }
  return Segment::Build(partitions, next_segment_id_++, options_.segment);
}

void Table::MaybeCompactLocked() {
  // Size-tiered selection restricted to *age-contiguous* runs: without
  // per-cell timestamps, merging non-adjacent segments could promote an
  // old cell past a newer overwrite that sits between them. A contiguous
  // run preserves newer-wins by construction.
  const size_t want = options_.compaction_min_segments;
  if (segments_.size() < want) return;
  for (size_t start = 0; start + want <= segments_.size(); ++start) {
    uint64_t smallest = UINT64_MAX;
    uint64_t largest = 0;
    for (size_t i = start; i < start + want; ++i) {
      const uint64_t bytes = std::max<uint64_t>(
          segments_[i]->encoded_bytes(), 1);
      smallest = std::min(smallest, bytes);
      largest = std::max(largest, bytes);
    }
    if (static_cast<double>(largest) / static_cast<double>(smallest) >
        options_.compaction_size_ratio) {
      continue;
    }

    // Merge the run. Tombstones survive: older data may live in segments
    // outside the run.
    std::vector<size_t> run;
    run.reserve(want);
    for (size_t i = start; i < start + want; ++i) run.push_back(i);
    auto merged = MergeSegmentsLocked(run, /*purge_tombstones=*/false);
    if (!merged.ok()) {
      // The segments stay as they are: their reads keep reporting the
      // damage, and the failure is counted rather than hidden.
      ++compaction_failures_;
      if (instruments_ != nullptr) {
        instruments_->compaction_failures->Increment();
      }
      return;
    }
    if (cache_ != nullptr) {
      for (size_t idx : run) cache_->EraseSegment(segments_[idx]->cache_id());
    }
    segments_[start] = std::move(merged).value();
    segments_.erase(
        segments_.begin() + static_cast<ptrdiff_t>(start + 1),
        segments_.begin() + static_cast<ptrdiff_t>(start + want));
    ++auto_compactions_;
    if (instruments_ != nullptr) instruments_->compactions->Increment();
    return;  // one run per flush keeps the pause bounded
  }
}

uint64_t Table::CorruptBlocksForFaultInjection(double fraction, Rng& rng) {
  WriterMutexLock lock(mu_);
  uint64_t corrupted = 0;
  bool any_block = false;
  for (auto& segment : segments_) {
    bool touched = false;
    for (uint32_t b = 0; b < segment->block_count(); ++b) {
      any_block = true;
      if (!rng.Chance(fraction)) continue;
      // Segments are shared as immutable; deliberate damage is the one
      // sanctioned exception, applied under the exclusive table lock.
      const_cast<Segment&>(*segment).FlipBlockBitForFaultInjection(
          b, rng.Next());
      ++corrupted;
      touched = true;
    }
    if (touched && cache_ != nullptr) cache_->EraseSegment(segment->cache_id());
  }
  if (corrupted == 0 && fraction > 0.0 && any_block) {
    // Guarantee at least one casualty so a chaos run always has teeth.
    std::vector<size_t> candidates;
    for (size_t s = 0; s < segments_.size(); ++s) {
      if (segments_[s]->block_count() > 0) candidates.push_back(s);
    }
    auto& segment = segments_[candidates[rng.Below(candidates.size())]];
    const auto block =
        static_cast<uint32_t>(rng.Below(segment->block_count()));
    const_cast<Segment&>(*segment).FlipBlockBitForFaultInjection(block,
                                                                 rng.Next());
    if (cache_ != nullptr) cache_->EraseSegment(segment->cache_id());
    corrupted = 1;
  }
  return corrupted;
}

Status Table::CorruptBlockForFaultInjection(size_t segment_index,
                                            uint32_t block_no,
                                            uint64_t bit_index) {
  WriterMutexLock lock(mu_);
  if (segment_index >= segments_.size()) {
    return Status::OutOfRange("segment index " +
                              std::to_string(segment_index));
  }
  auto& segment = segments_[segment_index];
  if (block_no >= segment->block_count()) {
    return Status::OutOfRange("block " + std::to_string(block_no));
  }
  const_cast<Segment&>(*segment).FlipBlockBitForFaultInjection(block_no,
                                                               bit_index);
  if (cache_ != nullptr) cache_->EraseSegment(segment->cache_id());
  return Status::Ok();
}

uint64_t Table::auto_compactions() const {
  ReaderMutexLock lock(mu_);
  return auto_compactions_;
}

uint64_t Table::compaction_failures() const {
  ReaderMutexLock lock(mu_);
  return compaction_failures_;
}

namespace {
constexpr uint32_t kSnapshotMagic = 0x4b565353;  // "KVSS"
// v2 added per-block checksums to the segment wire format.
constexpr uint32_t kSnapshotVersion = 2;
}  // namespace

Status Table::SaveSnapshot(const std::string& path) {
  WriterMutexLock lock(mu_);
  FlushLocked();

  WireBuffer out;
  out.WriteU32(kSnapshotMagic);
  out.WriteU32(kSnapshotVersion);
  out.WriteString(name_);
  out.WriteVarint(next_segment_id_);
  out.WriteVarint(segments_.size());
  for (const auto& segment : segments_) {
    WireBuffer body;
    segment->SerializeTo(body);
    out.WriteU64(Fnv1a64(body.data()));
    out.WriteBytes(body.data());
  }

  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Unavailable("cannot create snapshot: " + path);
  }
  const auto data = out.data();
  const bool ok =
      std::fwrite(data.data(), 1, data.size(), file) == data.size();
  const bool closed = std::fclose(file) == 0;
  if (!ok || !closed) {
    return Status::Unavailable("snapshot write failed: " + path);
  }
  return Status::Ok();
}

Status Table::LoadSnapshot(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("snapshot: " + path);
  }
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);
  std::vector<std::byte> bytes(static_cast<size_t>(std::max(size, 0L)));
  const bool read_ok =
      std::fread(bytes.data(), 1, bytes.size(), file) == bytes.size();
  std::fclose(file);
  if (!read_ok) return Status::Unavailable("snapshot read failed: " + path);

  WireReader r(bytes);
  if (r.ReadU32() != kSnapshotMagic || r.ReadU32() != kSnapshotVersion) {
    return Status::Corruption("snapshot header: " + path);
  }
  // kvscale-lint: allow(discarded-status) stored table name is informational
  (void)r.ReadString();
  const uint64_t next_id = r.ReadVarint();
  const uint64_t segment_count = r.ReadVarint();
  if (!r.ok() || segment_count > bytes.size()) {
    return Status::Corruption("snapshot directory: " + path);
  }
  std::vector<std::shared_ptr<const Segment>> loaded;
  loaded.reserve(segment_count);
  for (uint64_t s = 0; s < segment_count; ++s) {
    const uint64_t checksum = r.ReadU64();
    const std::vector<std::byte> body = r.ReadBytes();
    if (!r.ok()) return Status::Corruption("snapshot truncated: " + path);
    if (Fnv1a64(body) != checksum) {
      return Status::Corruption("snapshot checksum mismatch: " + path);
    }
    auto segment = Segment::Deserialize(body);
    if (!segment.ok()) return segment.status();
    loaded.push_back(std::move(segment).value());
  }

  WriterMutexLock lock(mu_);
  if (cache_ != nullptr) {
    for (const auto& segment : segments_) {
      cache_->EraseSegment(segment->cache_id());
    }
  }
  memtable_.Clear();
  segments_ = std::move(loaded);
  next_segment_id_ = std::max<uint64_t>(next_id, 1);
  return Status::Ok();
}

void Table::Flush() {
  WriterMutexLock lock(mu_);
  FlushLocked();
}

void Table::Delete(std::string_view partition_key, uint64_t clustering) {
  Put(partition_key, Column::Tombstone(clustering));
}

template <typename Visit>
Status Table::ReadCells(std::string_view partition_key,
                        std::optional<ClusteringRange> range, bool descending,
                        ReadProbe* probe, Visit&& visit) const {
  // Telemetry needs this read's probe deltas even when the caller passed
  // no probe.
  ReadProbe local;
  ReadProbe before;
  ReadClock::time_point t0;
  if (instruments_ != nullptr) {
    if (probe == nullptr) probe = &local;
    before = *probe;
    t0 = ReadClock::now();
  }
  auto walk = [&]() -> Status {
    if (range.has_value() && range->lo > range->hi) {
      return Status::InvalidArgument("slice lo > hi");
    }
    ReaderMutexLock lock(mu_);
    std::vector<SortedRun> runs;
    bool found = false;
    for (const auto& segment : segments_) {  // oldest -> newest
      if (!segment->MayContain(partition_key)) {
        if (probe != nullptr) ++probe->bloom_negatives;
        continue;
      }
      if (probe != nullptr) ++probe->segments_consulted;
      SortedRun run;
      const Status read_run =
          segment->ReadRun(partition_key, range, cache_, probe, &run.slices);
      if (read_run.code() == StatusCode::kNotFound) continue;  // bloom FP
      KV_RETURN_IF_ERROR(read_run);
      found = true;
      if (!run.slices.empty()) runs.push_back(std::move(run));
    }
    if (const MemtableCells* cells = memtable_.Find(partition_key)) {
      found = true;
      SortedRun run;
      run.in_memtable = true;
      run.first =
          range.has_value() ? cells->lower_bound(range->lo) : cells->begin();
      run.last =
          range.has_value() ? cells->upper_bound(range->hi) : cells->end();
      if (run.first != run.last) runs.push_back(std::move(run));
    }
    if (!found) return Status::NotFound(std::string(partition_key));
    WalkRuns(runs, descending, /*keep_tombstones=*/false, visit);
    return Status::Ok();
  };
  const Status status = walk();
  if (instruments_ != nullptr) {
    instruments_->RecordRead(ProbeDelta(before, *probe), ElapsedMicros(t0));
    if (status.code() == StatusCode::kCorruption) {
      instruments_->corruption_errors->Increment();
    }
  }
  return status;
}

Result<std::vector<Column>> Table::GetPartition(std::string_view partition_key,
                                                ReadProbe* probe) const {
  std::vector<Column> out;
  KV_RETURN_IF_ERROR(ReadCells(partition_key, std::nullopt,
                               /*descending=*/false, probe, AppendTo(&out)));
  return out;
}

Result<std::vector<Column>> Table::Slice(std::string_view partition_key,
                                         uint64_t lo, uint64_t hi,
                                         ReadProbe* probe) const {
  std::vector<Column> out;
  KV_RETURN_IF_ERROR(ReadCells(partition_key, ClusteringRange{lo, hi},
                               /*descending=*/false, probe, AppendTo(&out)));
  return out;
}

template <typename Reserve, typename Emit>
Status Table::CountTypes(std::string_view partition_key, ReadProbe* probe,
                         Reserve&& reserve, Emit&& emit) const {
  // Small type ids count into an array; the rare large ones are sorted
  // afterwards. Both come out ascending, and every dense id sorts below
  // every large one, so no map is needed.
  std::array<uint64_t, 64> dense{};
  std::vector<uint32_t> large;
  KV_RETURN_IF_ERROR(ReadCells(partition_key, std::nullopt,
                               /*descending=*/false, probe,
                               [&](const CellView& cell) {
                                 if (cell.type_id < dense.size()) {
                                   ++dense[cell.type_id];
                                 } else {
                                   large.push_back(cell.type_id);
                                 }
                                 return true;
                               }));
  reserve(static_cast<size_t>(std::count_if(
              dense.begin(), dense.end(), [](uint64_t n) { return n > 0; })) +
          large.size());
  for (uint32_t type = 0; type < dense.size(); ++type) {
    if (dense[type] > 0) emit(type, dense[type]);
  }
  std::sort(large.begin(), large.end());
  for (size_t i = 0; i < large.size();) {
    size_t end = i;
    while (end < large.size() && large[end] == large[i]) ++end;
    emit(large[i], end - i);
    i = end;
  }
  return Status::Ok();
}

Result<TypeCounts> Table::CountByType(std::string_view partition_key,
                                      ReadProbe* probe) const {
  TypeCounts out;
  KV_RETURN_IF_ERROR(CountTypes(
      partition_key, probe, [](size_t) {},
      [&](uint32_t type, uint64_t count) {
        out.emplace_hint(out.end(), type, count);
      }));
  return out;
}

Status Table::CountByTypeColumns(std::string_view partition_key,
                                 std::vector<uint64_t>& type_ids,
                                 std::vector<uint64_t>& counts,
                                 ReadProbe* probe) const {
  return CountTypes(
      partition_key, probe,
      [&](size_t distinct) {
        type_ids.reserve(type_ids.size() + distinct);
        counts.reserve(counts.size() + distinct);
      },
      [&](uint32_t type, uint64_t count) {
        type_ids.push_back(type);
        counts.push_back(count);
      });
}

Result<std::vector<CellHeader>> Table::ScanRange(
    std::string_view partition_key, uint64_t lo, uint64_t hi, uint32_t limit,
    ReadProbe* probe) const {
  std::vector<CellHeader> rows;
  KV_RETURN_IF_ERROR(ReadCells(partition_key, ClusteringRange{lo, hi},
                               /*descending=*/false, probe,
                               [&](const CellView& cell) {
                                 rows.push_back({cell.clustering, cell.type_id});
                                 return limit == 0 || rows.size() < limit;
                               }));
  return rows;
}

Result<std::vector<CellHeader>> Table::TopKByClustering(
    std::string_view partition_key, uint32_t k, ReadProbe* probe) const {
  if (k == 0) return Status::InvalidArgument("top-k with k == 0");
  std::vector<CellHeader> rows;
  KV_RETURN_IF_ERROR(ReadCells(partition_key, std::nullopt,
                               /*descending=*/true, probe,
                               [&](const CellView& cell) {
                                 rows.push_back({cell.clustering, cell.type_id});
                                 return rows.size() < k;
                               }));
  return rows;
}

bool Table::HasPartition(std::string_view partition_key) const {
  ReaderMutexLock lock(mu_);
  if (memtable_.Contains(partition_key)) return true;
  for (const auto& segment : segments_) {
    if (segment->HasPartition(partition_key)) return true;
  }
  return false;
}

Status Table::Compact() {
  WriterMutexLock lock(mu_);
  FlushLocked();
  if (segments_.empty()) return Status::Ok();

  // A full compaction sees every copy, so tombstones (and what they
  // shadow) are purged for good and fully deleted partitions disappear.
  std::vector<size_t> all(segments_.size());
  std::iota(all.begin(), all.end(), size_t{0});
  auto merged = MergeSegmentsLocked(all, /*purge_tombstones=*/true);
  if (!merged.ok()) {
    ++compaction_failures_;
    if (instruments_ != nullptr) {
      instruments_->compaction_failures->Increment();
    }
    return merged.status();
  }
  if (cache_ != nullptr) {
    for (const auto& segment : segments_) cache_->EraseSegment(segment->cache_id());
  }
  segments_.clear();
  if (merged.value()->partition_count() > 0) {
    segments_.push_back(std::move(merged).value());
  }
  if (instruments_ != nullptr) instruments_->compactions->Increment();
  return Status::Ok();
}

size_t Table::segment_count() const {
  ReaderMutexLock lock(mu_);
  return segments_.size();
}

size_t Table::memtable_bytes() const {
  ReaderMutexLock lock(mu_);
  return memtable_.approximate_bytes();
}

uint64_t Table::column_count() const {
  ReaderMutexLock lock(mu_);
  uint64_t total = memtable_.column_count();
  for (const auto& segment : segments_) total += segment->column_count();
  return total;  // note: counts duplicates across segments until compaction
}

uint64_t Table::put_count() const {
  ReaderMutexLock lock(mu_);
  return put_count_;
}

std::vector<std::string> Table::PartitionKeys() const {
  ReaderMutexLock lock(mu_);
  std::set<std::string> keys;
  for (auto& key : memtable_.PartitionKeys()) keys.insert(std::move(key));
  for (const auto& segment : segments_) {
    for (auto& key : segment->PartitionKeys()) keys.insert(std::move(key));
  }
  return {keys.begin(), keys.end()};
}

uint64_t Table::PartitionEncodedBytes(std::string_view partition_key) const {
  ReaderMutexLock lock(mu_);
  uint64_t bytes = 0;
  for (const auto& segment : segments_) {
    if (const auto* meta = segment->FindMeta(partition_key)) {
      bytes += meta->encoded_bytes;
    }
  }
  return bytes;
}

}  // namespace kvscale
