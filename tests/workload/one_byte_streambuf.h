// A stream buffer over a byte string that refills one byte at a time:
// every get() and read() through it crosses a refill, so a decoder
// reading through it sees each header varint, checksum, payload and
// index field straddle a buffer boundary. Shared by the framed trace
// unit and oracle tests.
#pragma once

#include <streambuf>
#include <string>
#include <utility>

namespace pipo::testbuf {

class OneByteStreambuf final : public std::streambuf {
 public:
  explicit OneByteStreambuf(std::string bytes) : bytes_(std::move(bytes)) {}

 protected:
  int_type underflow() override {
    if (next_ >= bytes_.size()) return traits_type::eof();
    ch_ = bytes_[next_++];
    setg(&ch_, &ch_, &ch_ + 1);
    return traits_type::to_int_type(ch_);
  }

 private:
  std::string bytes_;
  std::size_t next_ = 0;  ///< next byte of bytes_ to hand out
  char ch_ = 0;           ///< the one-byte get area
};

}  // namespace pipo::testbuf
