#include "ext/slz.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/codec.h"
#include "common/strings.h"
#include "common/units.h"

namespace sion::ext {

namespace {

constexpr char kSlzMagic[4] = {'S', 'L', 'Z', '1'};
constexpr std::size_t kHeaderBytes = 12;
constexpr std::size_t kTableSize = 1 << 13;

// The fixed over-copy: literal runs (and, when decoding, matches) of at most
// this many bytes are copied as one 16-byte block when source and
// destination allow it. Both output buffers keep this much slack behind the
// last byte written.
constexpr std::size_t kCopySlack = 16;

// Writes `v` as LEB128 at `p`; returns the byte after the encoding.
std::byte* put_varint(std::byte* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::byte>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<std::byte>(v);
  return p;
}

// Canonical LEB128 only: at most 10 bytes, the 10th byte may carry nothing
// but bit 63, and a terminating 0x00 byte is canonical only for the
// single-byte encoding of zero. Anything else means two byte sequences
// would alias to one value (overlong encodings) or high bits would be
// silently dropped (overflow past 64 bits) — both hide corruption, so both
// are decode failures.
bool get_varint(std::span<const std::byte> in, std::size_t& pos,
                std::uint64_t& v) {
  v = 0;
  for (int shift = 0; shift <= 63 && pos < in.size(); shift += 7) {
    const auto b = std::to_integer<std::uint64_t>(in[pos++]);
    if (shift == 63 && (b & 0x7E) != 0) return false;  // bits >= 64
    v |= (b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      return b != 0 || shift == 0;  // overlong: zero high byte
    }
  }
  return false;  // truncated, or continuation past the 10th byte
}

std::uint32_t load_u32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t hash4(const std::byte* p) {
  return (load_u32(p) * 2654435761u) >> 19;  // 13-bit table
}

// Length of the common prefix of `a` and `b`, at most `limit` bytes,
// compared eight bytes at a time: the first differing byte is the lowest
// set byte of the XOR of two loads (the highest on big-endian hosts).
std::size_t common_prefix(const std::byte* a, const std::byte* b,
                          std::size_t limit) {
  std::size_t len = 0;
  for (; len + 8 <= limit; len += 8) {
    std::uint64_t x;
    std::uint64_t y;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    if (const std::uint64_t diff = x ^ y; diff != 0) {
      const int bit = std::endian::native == std::endian::little
                          ? std::countr_zero(diff)
                          : std::countl_zero(diff);
      return len + static_cast<std::size_t>(bit / 8);
    }
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

// Emits a literal run of `run` bytes from `from`; `in_end` ends the input.
// Short runs are copied as one fixed 16-byte block; the output bound below
// leaves more than 16 bytes of slack behind the last token for it.
std::byte* put_literals(std::byte* op, const std::byte* from, std::size_t run,
                        const std::byte* in_end) {
  if (run == 0) return op;
  op = put_varint(op, static_cast<std::uint64_t>(run) << 1);  // even
  if (run <= kCopySlack && from + kCopySlack <= in_end) {
    std::memcpy(op, from, kCopySlack);
  } else {
    std::memcpy(op, from, run);
  }
  return op + run;
}

// The greedy matcher, writing tokens at `op`; returns the bytes written.
//
// Output bound (slz_compress_bound): the header is 12 bytes. A match token
// covering L >= 4 input bytes is a control varint of 2(L-4)+1 plus a
// distance varint of at most 65536 (3 bytes): 1 + 3 <= L bytes while
// L < 68, and at most (1 + L/64) + 3 <= L beyond, so matches never expand.
// A literal run of r bytes costs r plus a control varint of 2r, which takes
// at most 1 + r/64 bytes. Every literal run but the last is followed by a
// match, and the pair consumes at least 1 + 4 input bytes, so there are at
// most n/5 + 1 runs. In total the stream holds at most
//   12 + n + (n/5 + 1) + n/64  <=  12 + n + n/4 + 32 - 30  bytes,
// which also leaves room for put_literals' 16-byte block copy.
std::size_t compress_tokens(const std::byte* in, std::size_t n,
                            std::byte* op) {
  std::vector<std::size_t> table(kTableSize, SIZE_MAX);
  std::byte* const start = op;
  std::size_t pos = 0;
  std::size_t lit_start = 0;
  while (pos + kSlzMinMatch <= n) {
    const std::uint32_t h = hash4(in + pos);
    const std::size_t candidate = table[h];
    table[h] = pos;
    if (candidate != SIZE_MAX && pos - candidate <= kSlzWindow &&
        load_u32(in + candidate) == load_u32(in + pos)) {
      const std::size_t len =
          kSlzMinMatch + common_prefix(in + candidate + kSlzMinMatch,
                                       in + pos + kSlzMinMatch,
                                       n - pos - kSlzMinMatch);
      op = put_literals(op, in + lit_start, pos - lit_start, in + n);
      op = put_varint(op,
                      (static_cast<std::uint64_t>(len - kSlzMinMatch) << 1) | 1);
      op = put_varint(op, static_cast<std::uint64_t>(pos - candidate));
      // Seed the table sparsely inside the match to keep compression O(n).
      const std::size_t end = pos + len;
      for (std::size_t p = pos + 1; p + kSlzMinMatch <= end && p < pos + 16;
           ++p) {
        table[hash4(in + p)] = p;
      }
      pos = end;
      lit_start = pos;
    } else {
      ++pos;
    }
  }
  op = put_literals(op, in + lit_start, n - lit_start, in + n);
  return static_cast<std::size_t>(op - start);
}

}  // namespace

std::size_t slz_compress_to(std::span<const std::byte> input, std::byte* out) {
  std::memcpy(out, kSlzMagic, 4);
  for (std::size_t i = 0; i < 8; ++i) {
    out[4 + i] = static_cast<std::byte>((input.size() >> (8 * i)) & 0xFF);
  }
  return kHeaderBytes +
         compress_tokens(input.data(), input.size(), out + kHeaderBytes);
}

std::vector<std::byte> slz_compress(std::span<const std::byte> input) {
  std::vector<std::byte> out(slz_compress_bound(input.size()));
  out.resize(slz_compress_to(input, out.data()));
  return out;
}

Result<std::vector<std::byte>> slz_decompress(std::span<const std::byte> input,
                                              std::uint64_t max_bytes) {
  if (input.size() < kHeaderBytes ||
      std::memcmp(input.data(), kSlzMagic, 4) != 0) {
    return Corrupt("not an slz stream");
  }
  std::uint64_t usize = 0;
  for (int i = 0; i < 8; ++i) {
    usize |= std::to_integer<std::uint64_t>(input[4 + static_cast<std::size_t>(i)])
             << (8 * i);
  }
  if (usize > kSlzMaxDecode || usize > max_bytes) {
    return Corrupt("absurd uncompressed size");
  }
  // The header size is corruption-controlled: cap the up-front allocation
  // by what the input could plausibly expand to (a match token is >= 2 bytes
  // for >= kSlzMinMatch output) and grow geometrically past that. A forged
  // multi-TiB `usize` then costs nothing until real tokens (bounded by the
  // input) actually produce output. The buffer always keeps kCopySlack bytes
  // past the decoded ones for the fixed over-copy.
  const std::uint64_t plausible =
      static_cast<std::uint64_t>(input.size()) * 16 + 1024;
  std::vector<std::byte> out(
      static_cast<std::size_t>(std::min(usize, plausible)) + kCopySlack);
  const auto make_room = [&](std::uint64_t need) {
    if (need + kCopySlack > out.size()) {
      const std::uint64_t grown =
          std::min(usize, std::max<std::uint64_t>(need, 2 * out.size()));
      out.resize(static_cast<std::size_t>(grown) + kCopySlack);
    }
  };
  const std::byte* const in = input.data();
  std::size_t olen = 0;
  std::size_t pos = kHeaderBytes;
  while (olen < usize) {
    std::uint64_t control = 0;
    if (!get_varint(input, pos, control)) return Corrupt("truncated token");
    if ((control & 1) == 0) {
      const std::uint64_t run = control >> 1;
      if (pos + run > input.size()) return Corrupt("truncated literal run");
      if (olen + run > usize) return Corrupt("literal run overflows");
      make_room(olen + run);
      std::byte* const op = out.data() + olen;
      if (run <= kCopySlack && pos + kCopySlack <= input.size()) {
        std::memcpy(op, in + pos, kCopySlack);
      } else {
        std::memcpy(op, in + pos, static_cast<std::size_t>(run));
      }
      olen += static_cast<std::size_t>(run);
      pos += static_cast<std::size_t>(run);
    } else {
      const std::uint64_t len = (control >> 1) + kSlzMinMatch;
      std::uint64_t dist = 0;
      if (!get_varint(input, pos, dist)) return Corrupt("truncated distance");
      if (dist == 0 || dist > olen) return Corrupt("bad match distance");
      if (olen + len > usize) return Corrupt("match overflows");
      make_room(olen + len);
      std::byte* const op = out.data() + olen;
      const std::byte* const src = op - dist;
      if (len <= kCopySlack && dist >= kCopySlack) {
        std::memcpy(op, src, kCopySlack);
      } else if (dist >= len) {
        std::memcpy(op, src, static_cast<std::size_t>(len));
      } else {
        // The match overlaps itself (RLE-style): byte order matters.
        for (std::size_t i = 0; i < len; ++i) op[i] = src[i];
      }
      olen += static_cast<std::size_t>(len);
    }
  }
  if (pos != input.size()) return Corrupt("trailing garbage after stream");
  out.resize(olen);
  return out;
}

Status slz_validate_frame_size(std::uint64_t stream_bytes) {
  if (stream_bytes > 0xFFFFFFFFULL) {
    return OutOfRange(
        strformat("slz stream of %s overflows the u32 frame length field; "
                  "split the stream at the framing layer",
                  format_bytes(stream_bytes).c_str()));
  }
  return Status::Ok();
}

Result<std::vector<std::byte>> slz_frame(std::span<const std::byte> input) {
  std::vector<std::byte> out(4 + slz_compress_bound(input.size()));
  const std::size_t stream = slz_compress_to(input, out.data() + 4);
  SION_RETURN_IF_ERROR(slz_validate_frame_size(stream));
  for (std::size_t i = 0; i < 4; ++i) {
    out[i] = static_cast<std::byte>((stream >> (8 * i)) & 0xFF);
  }
  out.resize(4 + stream);
  return out;
}

Result<std::pair<std::vector<std::byte>, std::size_t>> slz_unframe(
    std::span<const std::byte> framed) {
  if (framed.size() < 4) return Corrupt("truncated slz frame header");
  std::uint32_t frame_bytes = 0;
  for (int i = 0; i < 4; ++i) {
    frame_bytes |= std::to_integer<std::uint32_t>(framed[static_cast<std::size_t>(i)])
                   << (8 * i);
  }
  if (framed.size() < 4ULL + frame_bytes) {
    return Corrupt("truncated slz frame body");
  }
  SION_ASSIGN_OR_RETURN(auto data,
                        slz_decompress(framed.subspan(4, frame_bytes)));
  return std::make_pair(std::move(data), static_cast<std::size_t>(4 + frame_bytes));
}

}  // namespace sion::ext
