// Decoded, immutable form of one segment block.
//
// A segment block holds a run of encoded columns (EncodeColumns in
// row.hpp). A read decodes a verified block once into column arrays:
// clustering keys, type ids and tombstone flags side by side, and every
// payload packed into one byte arena. From then on the block is shared
// as `std::shared_ptr<const DecodedBlock>`. The block cache hands the
// same object to every reader, so a hit copies nothing, and operators
// that need only keys and types (count, scan, top-k) never touch the
// payload bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "store/row.hpp"

namespace kvscale {

/// One cell read in place: the payload is a view into a decoded block's
/// arena or a memtable Column, valid while that owner is.
struct CellView {
  uint64_t clustering = 0;
  uint32_t type_id = 0;
  bool tombstone = false;
  std::span<const std::byte> payload;

  static CellView Of(const Column& column) {
    return {column.clustering, column.type_id, column.tombstone,
            column.payload};
  }

  /// Materialises the cell as a Column (copies its payload).
  Column ToColumn() const;
};

/// A verified segment block decoded into column arrays (see above).
struct DecodedBlock {
  std::vector<uint64_t> clustering;  ///< ascending
  std::vector<uint32_t> type_id;
  std::vector<uint8_t> tombstone;    ///< 1 = deletion marker
  /// Payload i is arena[payload_offset[i], payload_offset[i + 1]).
  std::vector<uint32_t> payload_offset;
  std::vector<std::byte> arena;

  size_t size() const { return clustering.size(); }

  std::span<const std::byte> payload(size_t i) const {
    return {arena.data() + payload_offset[i],
            payload_offset[i + 1] - payload_offset[i]};
  }

  CellView cell(size_t i) const {
    return {clustering[i], type_id[i], tombstone[i] != 0, payload(i)};
  }

  /// Bytes this block holds in memory, object included: what the block
  /// cache charges for it.
  size_t ChargeBytes() const;

  /// Decodes an encoded column run (EncodeColumns in row.hpp);
  /// kCorruption on malformed input.
  static Result<std::shared_ptr<const DecodedBlock>> Decode(
      std::span<const std::byte> data);
};

using BlockPtr = std::shared_ptr<const DecodedBlock>;

/// Decodes an encoded column run into Columns (copies every payload), for
/// callers that need owned cells, such as migration; kCorruption exactly
/// where DecodedBlock::Decode fails.
Result<std::vector<Column>> DecodeColumns(std::span<const std::byte> data);

}  // namespace kvscale
