#include "wire/buffer.hpp"

namespace kvscale {

void WireBuffer::WriteVarint(uint64_t v) {
  while (v >= 0x80) {
    WriteU8(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  WriteU8(static_cast<uint8_t>(v));
}

void WireBuffer::WriteZigZag(int64_t v) {
  WriteVarint((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
}

void WireBuffer::WriteString(std::string_view s) {
  WriteVarint(s.size());
  WriteRaw(s.data(), s.size());
}

void WireBuffer::WriteBytes(std::span<const std::byte> data) {
  WriteVarint(data.size());
  WriteRaw(data.data(), data.size());
}

uint8_t WireReader::ReadU8() { return ReadRaw<uint8_t>(); }
uint16_t WireReader::ReadU16() { return ReadRaw<uint16_t>(); }
uint32_t WireReader::ReadU32() { return ReadRaw<uint32_t>(); }
uint64_t WireReader::ReadU64() { return ReadRaw<uint64_t>(); }
double WireReader::ReadF64() { return ReadRaw<double>(); }

uint64_t WireReader::ReadVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (shift >= 64) {  // over-long encoding
      ok_ = false;
      return 0;
    }
    const uint8_t b = ReadU8();
    if (!ok_) return 0;
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

int64_t WireReader::ReadZigZag() {
  const uint64_t z = ReadVarint();
  return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

std::string WireReader::ReadString() {
  const uint64_t len = ReadVarint();
  if (!Ensure(len)) return {};
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return s;
}

std::vector<std::byte> WireReader::ReadBytes() {
  const auto view = ReadBytesView();
  return {view.begin(), view.end()};
}

std::span<const std::byte> WireReader::ReadBytesView() {
  const uint64_t len = ReadVarint();
  if (!Ensure(len)) return {};
  const auto out = data_.subspan(pos_, len);
  pos_ += len;
  return out;
}

Status WireReader::status() const {
  if (ok_) return Status::Ok();
  return Status::Corruption("wire decode failed at offset " +
                            std::to_string(pos_));
}

}  // namespace kvscale
