#include "store/row.hpp"

#include "common/check.hpp"
#include "common/rng.hpp"

namespace kvscale {

void EncodeColumns(const std::vector<Column>& columns, WireBuffer& out) {
  out.WriteVarint(columns.size());
  uint64_t prev = 0;
  for (const Column& c : columns) {
    KV_DCHECK(c.clustering >= prev);
    out.WriteVarint(c.clustering - prev);
    prev = c.clustering;
    out.WriteU8(c.tombstone ? 1 : 0);
    out.WriteVarint(c.type_id);
    out.WriteBytes(c.payload);
  }
}

std::vector<std::byte> MakePayload(uint64_t seed, uint64_t clustering,
                                   size_t payload_bytes) {
  std::vector<std::byte> payload(payload_bytes);
  uint64_t state = seed ^ (clustering * 0x9e3779b97f4a7c15ULL);
  for (size_t i = 0; i < payload_bytes; i += 8) {
    const uint64_t word = SplitMix64(state);
    for (size_t j = 0; j < 8 && i + j < payload_bytes; ++j) {
      payload[i + j] = static_cast<std::byte>((word >> (8 * j)) & 0xff);
    }
  }
  return payload;
}

}  // namespace kvscale
