// Wire format used by checkpoints, attestation messages and the secure
// channel: little-endian fixed-width integers, length-prefixed byte strings.
// A checkpoint produced on the "source machine" must parse bit-identically on
// the "target machine", so everything that crosses a machine boundary goes
// through these two classes.
#pragma once

#include <cstdint>
#include <string>

#include "util/bytes.h"
#include "util/status.h"

namespace mig {

class Writer {
 public:
  void u8(uint8_t v) { buf_.push_back(v); }
  void u16(uint16_t v) { put_le(v, 2); }
  void u32(uint32_t v) { put_le(v, 4); }
  void u64(uint64_t v) { put_le(v, 8); }

  // Length-prefixed (u32) byte string.
  void bytes(ByteSpan b) {
    u32(static_cast<uint32_t>(b.size()));
    append(buf_, b);
  }
  void str(std::string_view s) {
    bytes(ByteSpan(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
  }
  // Raw bytes with no length prefix (fixed-size fields like digests).
  void raw(ByteSpan b) { append(buf_, b); }

  // Pre-sizes the buffer for a message whose length the caller knows.
  void reserve(size_t n) { buf_.reserve(n); }

  const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  void put_le(uint64_t v, int n) {
    for (int i = 0; i < n; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  Bytes buf_;
};

// Reader never throws on malformed input: a truncated or hostile message sets
// a sticky failure flag and all subsequent reads return zeros/empties. Callers
// check ok() once at the end (mirrors how robust protocol parsers behave).
class Reader {
 public:
  explicit Reader(ByteSpan data) : data_(data) {}
  // A Reader only *views* its input; constructing one from a temporary
  // buffer would leave it dangling after this full-expression.
  explicit Reader(Bytes&&) = delete;

  uint8_t u8() { return static_cast<uint8_t>(get_le(1)); }
  uint16_t u16() { return static_cast<uint16_t>(get_le(2)); }
  uint32_t u32() { return static_cast<uint32_t>(get_le(4)); }
  uint64_t u64() { return get_le(8); }

  Bytes bytes() {
    uint32_t n = u32();
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return {};
    }
    Bytes out(data_.begin() + pos_, data_.begin() + pos_ + n);
    pos_ += n;
    return out;
  }
  std::string str() {
    Bytes b = bytes();
    return std::string(b.begin(), b.end());
  }
  Bytes raw(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return {};
    }
    Bytes out(data_.begin() + pos_, data_.begin() + pos_ + n);
    pos_ += n;
    return out;
  }

  bool ok() const { return ok_; }
  bool at_end() const { return ok_ && pos_ == data_.size(); }
  size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

  // Convenience: OK iff the whole buffer parsed with no trailing garbage.
  Status finish() const {
    if (!ok_) return Error(ErrorCode::kInvalidArgument, "malformed message");
    if (pos_ != data_.size())
      return Error(ErrorCode::kInvalidArgument, "trailing bytes in message");
    return OkStatus();
  }

 private:
  uint64_t get_le(int n) {
    if (!ok_ || data_.size() - pos_ < static_cast<size_t>(n)) {
      ok_ = false;
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < n; ++i) v |= uint64_t{data_[pos_ + i]} << (8 * i);
    pos_ += n;
    return v;
  }

  ByteSpan data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace mig
