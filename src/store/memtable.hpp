// In-memory write buffer (memtable).
//
// Writes land here first; when the approximate footprint passes the flush
// threshold the Table freezes it into an immutable Segment. Columns are kept
// sorted per partition, so flushes stream in clustering order.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "store/row.hpp"

namespace kvscale {

/// Sorted in-memory partition -> columns map.
class Memtable {
 public:
  /// Inserts or overwrites (partition, clustering) with the column value.
  void Put(std::string_view partition_key, Column column);

  /// All columns of a partition, sorted by clustering key; empty if absent.
  std::vector<Column> Get(std::string_view partition_key) const;

  bool Contains(std::string_view partition_key) const;

  /// The partition's sorted cells, read in place (no copy); null if
  /// absent. Valid until the next Put or Clear.
  const std::map<uint64_t, Column>* Find(std::string_view partition_key) const;

  size_t partition_count() const { return partitions_.size(); }
  size_t column_count() const { return column_count_; }
  /// Approximate heap footprint of buffered data.
  size_t approximate_bytes() const { return approximate_bytes_; }
  bool empty() const { return partitions_.empty(); }

  /// Sorted partition keys (flush order).
  std::vector<std::string> PartitionKeys() const;

  void Clear();

 private:
  // partition key -> (clustering -> column)
  std::map<std::string, std::map<uint64_t, Column>, std::less<>> partitions_;
  size_t column_count_ = 0;
  size_t approximate_bytes_ = 0;
};

}  // namespace kvscale
