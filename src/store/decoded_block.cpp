#include "store/decoded_block.hpp"

#include <limits>

namespace kvscale {

Column CellView::ToColumn() const {
  Column column;
  column.clustering = clustering;
  column.type_id = type_id;
  column.tombstone = tombstone;
  column.payload.assign(payload.begin(), payload.end());
  return column;
}

size_t DecodedBlock::ChargeBytes() const {
  return sizeof(DecodedBlock) + clustering.capacity() * sizeof(uint64_t) +
         type_id.capacity() * sizeof(uint32_t) +
         tombstone.capacity() * sizeof(uint8_t) +
         payload_offset.capacity() * sizeof(uint32_t) + arena.capacity();
}

Result<std::shared_ptr<const DecodedBlock>> DecodedBlock::Decode(
    std::span<const std::byte> data) {
  // Offsets are 32-bit: the arena is never larger than the encoded block.
  if (data.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::Corruption("block too large");
  }
  WireReader r(data);
  const uint64_t count = r.ReadVarint();
  if (!r.ok()) return r.status();
  // Guard against corrupted counts before reserving memory.
  if (count > data.size()) return Status::Corruption("column count too large");
  auto block = std::make_shared<DecodedBlock>();
  block->clustering.reserve(count);
  block->type_id.reserve(count);
  block->tombstone.reserve(count);
  block->payload_offset.reserve(count + 1);
  block->arena.reserve(r.remaining());
  block->payload_offset.push_back(0);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    prev += r.ReadVarint();
    const uint8_t flags = r.ReadU8();
    if (flags > 1) return Status::Corruption("bad column flags");
    const auto type = static_cast<uint32_t>(r.ReadVarint());
    const auto payload = r.ReadBytesView();
    if (!r.ok()) return r.status();
    block->clustering.push_back(prev);
    block->tombstone.push_back(flags);
    block->type_id.push_back(type);
    block->arena.insert(block->arena.end(), payload.begin(), payload.end());
    block->payload_offset.push_back(
        static_cast<uint32_t>(block->arena.size()));
  }
  return std::shared_ptr<const DecodedBlock>(std::move(block));
}

Result<std::vector<Column>> DecodeColumns(std::span<const std::byte> data) {
  auto block = DecodedBlock::Decode(data);
  if (!block.ok()) return block.status();
  const DecodedBlock& cells = *block.value();
  std::vector<Column> out;
  out.reserve(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    out.push_back(cells.cell(i).ToColumn());
  }
  return out;
}

}  // namespace kvscale
