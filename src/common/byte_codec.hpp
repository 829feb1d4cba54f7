// Little-endian byte codec shared by every binary format of the project:
// the job-server wire protocol (server/wire.cpp), the job journal
// (server/journal.cpp) and the checkpoint container (core/run_control.cpp).
//
// Integers are little-endian, doubles travel by bit pattern, booleans as
// one byte, strings as a u32 length followed by the raw bytes. The reader
// is bounds-checked and throws the format's own error type (`Error`, any
// type constructible from a std::string), so callers keep dispatching on
// WireError, JournalError or CheckpointError.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace mmsyn {

class ByteWriter {
public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// u32 length prefix, then the bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s);
  }
  /// The bytes alone, no length prefix.
  void raw(std::string_view s) { out_.append(s.data(), s.size()); }

  [[nodiscard]] std::string take() { return std::move(out_); }

private:
  void le(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  std::string out_;
};

template <typename Error>
class ByteReader {
public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }
  std::string str() { return std::string(raw(u32())); }
  /// The next `n` bytes, no length prefix.
  std::string_view raw(std::size_t n) {
    need(n);
    const std::string_view slice = data_.substr(pos_, n);
    pos_ += n;
    return slice;
  }

  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  void expect_end() const {
    if (!done()) throw Error("trailing bytes in payload");
  }

private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) throw Error("truncated payload");
  }
  std::uint64_t le(int width) {
    need(static_cast<std::size_t>(width));
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i)
      v |= std::uint64_t{static_cast<std::uint8_t>(data_[pos_++])} << (8 * i);
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace mmsyn
