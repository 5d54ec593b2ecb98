#include "workload/trace_frame.h"

#include <array>
#include <cstring>
#include <stdexcept>
#include <string>

namespace pipo {

namespace {

constexpr std::uint8_t kFrameEnd = 0x00;
constexpr std::uint8_t kFrameRaw = 0x01;
constexpr std::uint8_t kRetiredFrameZstd = 0x02;
constexpr char kFramedIndexMagic[8] = {'P', 'I', 'P', 'O',
                                       'I', 'D', 'X', '1'};
// A frame the encoder would never write (the default is ~tens of KiB);
// a corrupt length varint must not turn into a gigabyte allocation.
constexpr std::uint64_t kMaxFramePayloadBytes = 256ull * 1024 * 1024;
// Smallest possible record: flags + 1-byte delta + offset + 1-byte
// pre_delay.
constexpr std::uint64_t kMinRecordBytes = 4;
constexpr std::uint64_t kFooterBytes = 16;

/// The most bytes from the end marker to the end of the file that a
/// container of `frames` frames can hold: the marker, the frame-count
/// varint, two varints per index entry, the index checksum and the
/// footer (31 + 20 * frames).
std::uint64_t max_tail_bytes(std::uint64_t frames) {
  return 1 + trace_v2::kMaxVarintBytes +
         2 * trace_v2::kMaxVarintBytes * frames + 4 + kFooterBytes;
}

/// The diagnostic for a frame marker other than raw (0x01) or the end
/// marker (0x00). Marker 0x02, the retired zstd-compressed frame, is
/// named for the same reason as the retired magic (read_magic).
std::string bad_marker(int marker) {
  if (marker == kRetiredFrameZstd) {
    return "frame marker 0x02 is the retired zstd-compressed frame, which "
           "this build no longer reads (convert the trace to text with "
           "trace_convert from an older build)";
  }
  return "unknown frame marker";
}

void append_u32le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}

void append_u64le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}

template <class Source>
std::uint32_t read_u32le(Source& src, const char* what) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(src.need_byte(what)) << (8 * i);
  }
  return v;
}

template <class Source>
std::uint64_t read_u64le(Source& src, const char* what) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(src.need_byte(what)) << (8 * i);
  }
  return v;
}

/// Reads the 8-byte container magic at the start of a file. The retired
/// flat binary v2 format shares the 'P' that autodetection routes here,
/// so its files are named rather than called garbage.
void read_magic(trace_v2::StreamByteSource& src) {
  char magic[sizeof kTraceMagicV3] = {};
  for (char& c : magic) {
    const int got = src.get_byte();
    if (got < 0) src.bad("truncated magic (want \"PIPOTRC3\")");
    c = static_cast<char>(got);
  }
  if (std::memcmp(magic, "PIPOTRC2", sizeof magic) == 0) {
    src.bad("bad magic: \"PIPOTRC2\" is the retired flat binary v2 trace "
            "format, which this build no longer reads (convert it to text "
            "with trace_convert from an older build)");
  }
  if (std::memcmp(magic, kTraceMagicV3, sizeof magic) != 0) {
    src.bad("bad magic (want \"PIPOTRC3\")");
  }
}

/// Parses a container's tail, [end marker, end of file), held in `tail`
/// whose first byte is at absolute offset `end_off`: the end marker, the
/// index, its checksum and the footer, with every structural check.
/// Diagnostics name absolute file bytes.
std::vector<FramedIndexEntry> parse_tail(
    const std::vector<std::uint8_t>& tail, std::uint64_t end_off) {
  trace_v2::BufferByteSource src(tail.data(), tail.size(), end_off,
                                 "framed trace");
  if (src.need_byte("end marker") != kFrameEnd) {
    src.bad("no end marker at the footer's offset");
  }
  const std::uint64_t frame_count =
      trace_v2::read_varint(src, "index frame count");
  std::vector<FramedIndexEntry> frames;
  std::uint64_t off = 0;
  for (std::uint64_t i = 0; i < frame_count; ++i) {
    const std::uint64_t delta =
        trace_v2::read_varint(src, "index frame offset");
    const std::uint64_t requests =
        trace_v2::read_varint(src, "index request count");
    if (requests == 0) src.bad("index request count is zero");
    // Frames sit between the magic and the end marker in rising order;
    // the first entry is absolute, later ones are deltas.
    if ((i == 0 ? delta < sizeof kTraceMagicV3 : delta == 0) ||
        delta >= end_off - off) {
      src.bad("index frame offset out of range");
    }
    off += delta;
    frames.push_back({off, requests});
  }
  const std::uint64_t idx_len = src.consumed() - (end_off + 1);
  const std::uint32_t want_crc = read_u32le(src, "index checksum");
  if (framed_crc32(tail.data() + 1, idx_len) != want_crc) {
    src.bad("index checksum mismatch");
  }
  const std::uint64_t foot_off = read_u64le(src, "footer offset");
  if (foot_off != end_off) {
    src.bad("footer end-marker offset disagrees with the stream (" +
            std::to_string(foot_off) + " vs " + std::to_string(end_off) +
            ")");
  }
  for (char want : kFramedIndexMagic) {
    if (src.need_byte("footer magic") != static_cast<unsigned char>(want)) {
      src.bad("bad footer magic (want \"PIPOIDX1\")");
    }
  }
  if (!src.exhausted()) src.bad("trailing bytes after the footer");
  return frames;
}

}  // namespace

std::uint32_t framed_crc32(const std::uint8_t* data, std::size_t len) {
  // Slice-by-8: t[0] is the byte-at-a-time table; t[k][b] is the CRC
  // register after byte b is followed by k zero bytes, so eight table
  // lookups fold eight bytes at once. The tail goes a byte at a time.
  using Table = std::array<std::uint32_t, 256>;
  static const std::array<Table, 8> t = [] {
    std::array<Table, 8> s{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      s[0][i] = c;
    }
    for (std::size_t k = 1; k < s.size(); ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        s[k][i] = (s[k - 1][i] >> 8) ^ s[0][s[k - 1][i] & 0xFF];
      }
    }
    return s;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    std::uint64_t v = 0;  // little-endian, at any alignment
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data[i]) << (8 * i);
    }
    v ^= c;
    c = t[7][v & 0xFF] ^ t[6][(v >> 8) & 0xFF] ^ t[5][(v >> 16) & 0xFF] ^
        t[4][(v >> 24) & 0xFF] ^ t[3][(v >> 32) & 0xFF] ^
        t[2][(v >> 40) & 0xFF] ^ t[1][(v >> 48) & 0xFF] ^ t[0][v >> 56];
  }
  for (; len > 0; ++data, --len) {
    c = t[0][(c ^ *data) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// -------------------------------------------------------------- encoder

FramedTraceEncoder::FramedTraceEncoder(std::ostream& os,
                                       FramedTraceOptions opts)
    : os_(os), opts_(opts) {
  if (opts_.frame_requests == 0) opts_.frame_requests = 1;
  write_bytes(reinterpret_cast<const std::uint8_t*>(kTraceMagicV3),
              sizeof kTraceMagicV3);
}

void FramedTraceEncoder::write_bytes(const std::uint8_t* data,
                                     std::size_t len) {
  os_.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(len));
  written_ += len;
}

void FramedTraceEncoder::put(const MemRequest& r) {
  if (finished_) {
    throw std::logic_error(
        "put() after finish() on a framed trace encoder (the seek index "
        "is already on disk)");
  }
  trace_v2::append_record(payload_, prev_line_, r);
  ++frame_count_;
  ++count_;
  if (frame_count_ >= opts_.frame_requests) flush_frame();
}

void FramedTraceEncoder::flush_frame() {
  if (frame_count_ == 0) return;
  head_.clear();
  head_.push_back(kFrameRaw);
  trace_v2::append_varint(head_, frame_count_);
  // payload_len, then raw_len: equal, as in every frame v3 writes.
  trace_v2::append_varint(head_, payload_.size());
  trace_v2::append_varint(head_, payload_.size());
  append_u32le(head_, framed_crc32(payload_.data(), payload_.size()));
  index_.push_back({written_, frame_count_});
  write_bytes(head_.data(), head_.size());
  write_bytes(payload_.data(), payload_.size());
  payload_.clear();
  prev_line_ = 0;  // each frame is a delta-base restart point
  frame_count_ = 0;
}

void FramedTraceEncoder::finish() {
  if (finished_) return;
  flush_frame();
  const std::uint64_t end_off = written_;
  head_.clear();
  head_.push_back(kFrameEnd);
  // The index checksum covers frame_count through the last entry, so
  // build those bytes separately from the marker.
  std::vector<std::uint8_t> idx;
  trace_v2::append_varint(idx, index_.size());
  std::uint64_t prev = 0;
  for (const FramedIndexEntry& e : index_) {
    trace_v2::append_varint(idx, e.offset - prev);
    trace_v2::append_varint(idx, e.requests);
    prev = e.offset;
  }
  append_u32le(idx, framed_crc32(idx.data(), idx.size()));
  append_u64le(idx, end_off);
  for (char c : kFramedIndexMagic) {
    idx.push_back(static_cast<std::uint8_t>(c));
  }
  head_.insert(head_.end(), idx.begin(), idx.end());
  write_bytes(head_.data(), head_.size());
  os_.flush();
  finished_ = true;
  // Sticky badbit from any earlier write surfaces here — a silently
  // truncated container must not look like a successful capture.
  if (!os_) throw std::runtime_error("trace write failed (framed encoder)");
}

// -------------------------------------------------------------- decoder

FramedTraceDecoder::FramedTraceDecoder(std::istream& is)
    : src_(is, "framed trace") {
  read_magic(src_);
}

std::optional<MemRequest> FramedTraceDecoder::next() {
  for (;;) {
    if (done_) return std::nullopt;
    if (!cur_) {
      if (!load_next_frame()) {
        done_ = true;
        return std::nullopt;
      }
    }
    auto r = trace_v2::decode_record(*cur_, prev_line_);
    if (r) {
      if (frame_left_ == 0) {
        cur_->bad("frame holds more records than its request count");
      }
      --frame_left_;
      ++count_;
      return r;
    }
    // Payload exhausted: the header's request count must be spent.
    if (frame_left_ != 0) {
      cur_->bad("frame payload ends " + std::to_string(frame_left_) +
                " record(s) short of its request count");
    }
    cur_.reset();
  }
}

bool FramedTraceDecoder::load_next_frame() {
  const std::uint64_t marker_off = src_.consumed();
  const int m = src_.get_byte();
  if (m < 0) src_.bad("truncated container (missing end marker and index)");
  if (m == kFrameEnd) {
    check_tail(marker_off);
    return false;
  }
  if (m != kFrameRaw) {
    throw std::invalid_argument("framed trace, byte " +
                                std::to_string(marker_off) + ": " +
                                bad_marker(m));
  }

  const std::uint64_t requests =
      trace_v2::read_varint(src_, "frame request count");
  if (requests == 0) src_.bad("frame request count is zero");
  const std::uint64_t payload_len =
      trace_v2::read_varint(src_, "frame payload length");
  const std::uint64_t raw_len =
      trace_v2::read_varint(src_, "frame raw length");
  if (payload_len == 0 || payload_len > kMaxFramePayloadBytes) {
    src_.bad("implausible frame payload length");
  }
  if (raw_len != payload_len) {
    src_.bad("raw frame whose raw length differs from its payload length");
  }
  if (requests > payload_len / kMinRecordBytes) {
    src_.bad("frame request count exceeds what the payload could hold");
  }
  const std::uint32_t want_crc = read_u32le(src_, "frame checksum");
  const std::uint64_t payload_off = src_.consumed();
  stored_.resize(payload_len);
  if (src_.read_some(stored_.data(), payload_len) != payload_len) {
    src_.bad("truncated record (frame payload)");
  }
  if (framed_crc32(stored_.data(), stored_.size()) != want_crc) {
    throw std::invalid_argument(
        "framed trace, byte " + std::to_string(marker_off) +
        ": frame checksum mismatch (payload corrupt)");
  }
  // The base offset makes record diagnostics absolute file bytes.
  cur_.emplace(stored_.data(), stored_.size(), payload_off, "framed trace");
  prev_line_ = 0;
  frame_left_ = requests;
  seen_.push_back({marker_off, requests});
  return true;
}

void FramedTraceDecoder::check_tail(std::uint64_t end_marker_offset) {
  // The index lists every frame; each entry takes at most two varints,
  // so a tail longer than this is not one.
  const std::size_t max_tail = max_tail_bytes(seen_.size());
  std::vector<std::uint8_t> tail(max_tail + 1);
  tail[0] = kFrameEnd;
  const std::size_t got = src_.read_some(tail.data() + 1, max_tail);
  if (got == max_tail) {
    src_.bad("trailing bytes after the footer (the tail runs past the " +
             std::to_string(max_tail) + " bytes an index of " +
             std::to_string(seen_.size()) + " frame(s) can take)");
  }
  tail.resize(1 + got);
  const std::vector<FramedIndexEntry> entries =
      parse_tail(tail, end_marker_offset);

  // The index must describe exactly the frames this decode saw.
  if (entries.size() != seen_.size()) {
    src_.bad("seek index holds " + std::to_string(entries.size()) +
             " frame(s) but the stream decoded " +
             std::to_string(seen_.size()));
  }
  for (std::size_t i = 0; i < seen_.size(); ++i) {
    if (entries[i] != seen_[i]) {
      src_.bad("seek index entry " + std::to_string(i) +
               " disagrees with the decoded frame");
    }
  }
}

}  // namespace pipo
