#include "workload.hpp"

#include <algorithm>
#include <set>

#include "common/check.hpp"
#include "store/row.hpp"

namespace kvbench {

using kvscale::BatchPutItem;
using kvscale::Column;
using kvscale::QueryRow;
using kvscale::Rng;
using kvscale::TypeCounts;

namespace {

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const WorkloadConfig kWorkloads[] = {
    // The writer's appends stay below a full memtable, so its puts
    // measure the write path alone: flushes and compactions are
    // ingest_read's subject. Its calls run between spells of gathers,
    // not beside them, and are longer, so each one keeps every node's
    // worker busy for milliseconds.
    {"coarse", 40, 5000, 2, false, 64ull << 20, 0, 4096},
    {"fine", 4000, 10, 2, false, 64ull << 20, 0, 4096},
    // The cache (1 MiB) is well below each node's ~2.8 MB encoded share
    // of the preload; the run prints both.
    {"ingest_read", 200, 1000, 0, true, 1ull << 20, 256 << 10, 1024},
};

uint64_t Mix(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t state =
      a ^ (b * 0x9e3779b97f4a7c15ull) ^ (c * 0xc2b2ae3d27d4eb4full);
  return kvscale::SplitMix64(state);
}

}  // namespace

bool RowLess(const QueryRow& a, const QueryRow& b) {
  return a.clustering != b.clustering ? a.clustering < b.clustering
                                      : a.type_id < b.type_id;
}

const WorkloadConfig* FindWorkload(std::string_view name) {
  for (const WorkloadConfig& config : kWorkloads) {
    if (config.name == name) return &config;
  }
  return nullptr;
}

Dataset::Dataset(const WorkloadConfig& config, uint64_t seed)
    : config_(&config),
      seed_(seed),
      spec_(kvscale::UniformWorkload(
          uint64_t{config.partitions} * config.elements_per_partition,
          config.partitions)),
      zipf_(config.partitions, kZipfExponent) {
  for (const kvscale::PartitionRef& part : spec_.partitions) {
    append_keys_.push_back(config.ingest ? part.key : part.key + ":next");
  }
}

uint64_t Dataset::Clustering(uint32_t p, uint64_t j) const {
  return j * 16 + (Mix(seed_, p, j) & 15);
}

Column Dataset::MakeColumn(uint32_t p, uint64_t j) const {
  Column column;
  column.clustering = Clustering(p, j);
  column.type_id = static_cast<uint32_t>(j % kTypes);
  column.payload =
      kvscale::MakePayload(Mix(seed_, p, 0x9a7), column.clustering,
                           kPayloadBytes);
  return column;
}

std::vector<std::vector<BatchPutItem>> Dataset::LoadBatches() const {
  std::vector<std::vector<BatchPutItem>> batches;
  std::vector<BatchPutItem> current;
  for (uint32_t p = 0; p < spec_.partitions.size(); ++p) {
    for (uint64_t j = 0; j < spec_.partitions[p].elements; ++j) {
      current.push_back({spec_.partitions[p].key, MakeColumn(p, j)});
      if (current.size() == kPutColumns) {
        batches.push_back(std::move(current));
        current.clear();
      }
    }
  }
  if (!current.empty()) batches.push_back(std::move(current));
  return batches;
}

std::vector<uint64_t> Dataset::PreloadSizes() const {
  std::vector<uint64_t> sizes;
  sizes.reserve(spec_.partitions.size());
  for (const kvscale::PartitionRef& part : spec_.partitions) {
    sizes.push_back(part.elements);
  }
  return sizes;
}

TypeCounts Dataset::TotalsFor(const std::vector<uint64_t>& elements) const {
  TypeCounts totals;
  for (const uint64_t n : elements) {
    for (uint32_t t = 0; t < kTypes; ++t) {
      // Elements j < n with j % kTypes == t.
      const uint64_t count = n / kTypes + (t < n % kTypes ? 1 : 0);
      if (count > 0) totals[t] += count;
    }
  }
  return totals;
}

TypeCounts Dataset::PreloadTotals() const { return TotalsFor(PreloadSizes()); }

ScanQuery Dataset::NextScan(Rng& rng) const {
  KV_CHECK(config_->elements_per_partition >= kScanRows);
  std::set<uint32_t> chosen;
  while (chosen.size() < kScanPartitions) {
    chosen.insert(static_cast<uint32_t>(zipf_.Sample(rng)));
  }
  const uint64_t first_row =
      rng.Below(config_->elements_per_partition - kScanRows + 1);
  // Clustering keys of rows [first_row, first_row + kScanRows) are
  // exactly the keys in [first_row*16, (first_row + kScanRows)*16 - 1].
  kvscale::ScanSpec scan;
  scan.start = first_row * 16;
  scan.end = (first_row + kScanRows) * 16 - 1;

  kvscale::WorkloadSpec subset;
  subset.table = spec_.table;
  ScanQuery query;
  for (const uint32_t p : chosen) {
    subset.partitions.push_back(spec_.partitions[p]);
    for (uint64_t j = first_row; j < first_row + kScanRows; ++j) {
      query.expected.push_back(
          {Clustering(p, j), static_cast<uint32_t>(j % kTypes)});
    }
  }
  std::sort(query.expected.begin(), query.expected.end(), RowLess);
  query.plan = kvscale::MakeScanPlan(subset, scan);
  return query;
}

std::vector<uint64_t> Dataset::AppendStart() const {
  return config_->ingest ? PreloadSizes()
                         : std::vector<uint64_t>(spec_.partitions.size(), 0);
}

kvscale::WorkloadSpec Dataset::Appended(
    const std::vector<uint64_t>& elements) const {
  kvscale::WorkloadSpec appended;
  appended.table = spec_.table;
  for (size_t p = 0; p < elements.size(); ++p) {
    if (elements[p] > 0) {
      appended.partitions.push_back(
          {append_keys_[p], static_cast<uint32_t>(elements[p])});
    }
  }
  return appended;
}

std::vector<BatchPutItem> Dataset::NextAppend(
    Rng& rng, std::vector<uint64_t>& next) const {
  // The next step's partition p draws its columns as partition
  // partitions + p would, so they differ from the preload's.
  const uint32_t shift = config_->ingest ? 0 : config_->partitions;
  std::vector<BatchPutItem> items;
  items.reserve(config_->append_columns);
  for (uint32_t i = 0; i < config_->append_columns; ++i) {
    const auto p = static_cast<uint32_t>(zipf_.Sample(rng));
    items.push_back({append_keys_[p], MakeColumn(shift + p, next[p]++)});
  }
  return items;
}

}  // namespace kvbench
