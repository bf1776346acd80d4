#include "ext/compress.h"

#include <algorithm>
#include <cstring>

#include "common/crc32c.h"
#include "common/strings.h"
#include "ext/slz.h"

namespace sion::ext {

namespace {

void store_u32(std::byte* p, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFFu);
  }
}

std::uint32_t get_u32(std::span<const std::byte> in, std::size_t off) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= std::to_integer<std::uint32_t>(in[off + i]) << (8 * i);
  }
  return v;
}

struct Header {
  std::uint32_t comp_bytes = 0;
  std::uint32_t raw_bytes = 0;
};

// Validates sync, header CRC and the format caps; the lengths of a valid
// header are trustworthy (a random flip cannot also fix the CRC).
bool parse_header(std::span<const std::byte> hdr, Header* out) {
  if (hdr.size() < kFrameHeaderBytes) return false;
  if (std::memcmp(hdr.data(), kFrameSync.data(), kFrameSync.size()) != 0) {
    return false;
  }
  if (crc32c(hdr.first(16)) != get_u32(hdr, 16)) return false;
  out->comp_bytes = get_u32(hdr, 8);
  out->raw_bytes = get_u32(hdr, 12);
  return out->raw_bytes <= kMaxFrameRawBytes &&
         out->comp_bytes <= kMaxFrameCompBytes;
}

// First offset >= `from` where the sync marker starts, or `end` if none;
// reads the encoded stream in overlapping windows.
Result<std::uint64_t> scan_for_sync(std::uint64_t from, std::uint64_t end,
                                    const ReadAtFn& read_at) {
  const std::uint64_t kWindow = 64 * kKiB;
  std::vector<std::byte> buf(static_cast<std::size_t>(
      std::min<std::uint64_t>(kWindow, end > from ? end - from : 0)));
  std::uint64_t pos = from;
  while (end - pos >= kFrameSync.size()) {
    const std::uint64_t want = std::min<std::uint64_t>(kWindow, end - pos);
    SION_ASSIGN_OR_RETURN(
        const std::uint64_t got,
        read_at(pos, std::span<std::byte>(buf.data(),
                                          static_cast<std::size_t>(want))));
    if (got < kFrameSync.size()) return end;
    const auto hay = std::span<const std::byte>(
        buf.data(), static_cast<std::size_t>(got));
    const auto it = std::search(hay.begin(), hay.end(), kFrameSync.begin(),
                                kFrameSync.end());
    if (it != hay.end()) {
      return pos + static_cast<std::uint64_t>(it - hay.begin());
    }
    if (got < want) return end;  // stream ended early
    pos += got - (kFrameSync.size() - 1);  // overlap a partial marker
  }
  return end;
}

}  // namespace

Result<std::vector<std::byte>> compress_stream(std::span<const std::byte> input,
                                               const CompressionSpec& spec) {
  const std::uint64_t chunk =
      std::clamp<std::uint64_t>(spec.chunk_bytes, 512, kMaxFrameRawBytes);
  // One allocation for the worst case of every frame: the frames are then
  // encoded in place, with no reallocation between them.
  const std::uint64_t frames = (input.size() + chunk - 1) / chunk;
  std::vector<std::byte> out;
  out.reserve(static_cast<std::size_t>(
      frames * (kFrameHeaderBytes + slz_compress_bound(0) +
                kFrameTrailerBytes) +
      input.size() + input.size() / 4));
  for (std::uint64_t pos = 0; pos < input.size(); pos += chunk) {
    const std::uint64_t raw =
        std::min<std::uint64_t>(chunk, input.size() - pos);
    // Room for the frame's worst case is appended, the slz stream is written
    // behind the header slot, and the unused tail is cut off again once the
    // stream size is known.
    const std::size_t at = out.size();
    out.resize(at + kFrameHeaderBytes +
               slz_compress_bound(static_cast<std::size_t>(raw)) +
               kFrameTrailerBytes);
    std::byte* const frame = out.data() + at;
    const std::size_t comp = slz_compress_to(
        input.subspan(static_cast<std::size_t>(pos),
                      static_cast<std::size_t>(raw)),
        frame + kFrameHeaderBytes);
    SION_RETURN_IF_ERROR(slz_validate_frame_size(comp));
    std::memcpy(frame, kFrameSync.data(), kFrameSync.size());
    store_u32(frame + 8, static_cast<std::uint32_t>(comp));
    store_u32(frame + 12, static_cast<std::uint32_t>(raw));
    store_u32(frame + 16, crc32c(std::span<const std::byte>(frame, 16)));
    store_u32(frame + kFrameHeaderBytes + comp,
              crc32c(std::span<const std::byte>(frame + kFrameHeaderBytes,
                                                comp)));
    out.resize(at + kFrameHeaderBytes + comp + kFrameTrailerBytes);
  }
  // The stream usually outlives this call (it is written, staged or sent),
  // so it should not keep the worst-case room it was encoded in.
  out.shrink_to_fit();
  return out;
}

Result<FrameIndex> index_frames(std::uint64_t encoded_bytes,
                                const ReadAtFn& read_at) {
  FrameIndex idx;
  idx.encoded_bytes = encoded_bytes;
  std::array<std::byte, kFrameHeaderBytes> hdr{};
  std::uint64_t pos = 0;
  while (pos < encoded_bytes) {
    Header h;
    bool valid = false;
    if (encoded_bytes - pos >= kFrameHeaderBytes) {
      SION_ASSIGN_OR_RETURN(const std::uint64_t got,
                            read_at(pos, std::span<std::byte>(hdr)));
      valid = got == hdr.size() &&
              parse_header(std::span<const std::byte>(hdr), &h);
    }
    if (valid) {
      FrameEntry e;
      e.encoded_offset = pos;
      e.decoded_offset = idx.decoded_bytes;
      e.decoded_bytes = h.raw_bytes;
      e.comp_bytes = h.comp_bytes;
      const std::uint64_t body_end =
          pos + kFrameHeaderBytes + h.comp_bytes + kFrameTrailerBytes;
      if (body_end > encoded_bytes) {
        e.encoded_bytes = encoded_bytes - pos;
        e.torn = true;
        pos = encoded_bytes;
      } else {
        e.encoded_bytes = body_end - pos;
        pos = body_end;
      }
      idx.decoded_bytes += e.decoded_bytes;
      idx.frames.push_back(e);
    } else {
      // No frame here: discard up to the next sync marker. The extent of
      // whatever lived in this region is unknowable, so it contributes no
      // decoded bytes — one damaged region counts as one skipped frame.
      SION_ASSIGN_OR_RETURN(const std::uint64_t next,
                            scan_for_sync(pos + 1, encoded_bytes, read_at));
      idx.scan_loss.frames_skipped += 1;
      idx.scan_loss.bytes_discarded += next - pos;
      pos = next;
    }
  }
  return idx;
}

FrameStreamReader::FrameStreamReader(FrameIndex index, ReadAtFn read_at,
                                     StreamLossReport* loss)
    : index_(std::move(index)),
      read_at_(std::move(read_at)),
      loss_(loss),
      loss_counted_(index_.frames.size(), false) {
  if (loss_ != nullptr) loss_->merge(index_.scan_loss);
}

Status FrameStreamReader::materialize(std::size_t frame_i) {
  const FrameEntry& e = index_.frames[frame_i];
  bool damaged = e.torn;
  if (!damaged) {
    std::vector<std::byte> body(
        static_cast<std::size_t>(e.comp_bytes + kFrameTrailerBytes));
    SION_ASSIGN_OR_RETURN(
        const std::uint64_t got,
        read_at_(e.encoded_offset + kFrameHeaderBytes,
                 std::span<std::byte>(body)));
    encoded_read_ += kFrameHeaderBytes + got;
    const auto payload =
        std::span<const std::byte>(body).first(e.comp_bytes);
    if (got != body.size() ||
        crc32c(payload) != get_u32(body, e.comp_bytes)) {
      damaged = true;
    } else {
      // The header's raw size bounds the decode: a forged slz header inside
      // a CRC-valid frame still cannot drive a larger allocation.
      auto decoded = slz_decompress(payload, e.decoded_bytes);
      if (decoded.ok() && decoded.value().size() == e.decoded_bytes) {
        cache_ = std::move(decoded).value();
      } else {
        damaged = true;
      }
    }
  }
  if (damaged) {
    cache_.assign(static_cast<std::size_t>(e.decoded_bytes), std::byte{0});
  }
  cache_i_ = frame_i;
  if (!loss_counted_[frame_i] && loss_ != nullptr) {
    if (damaged) {
      loss_->frames_skipped += 1;
      loss_->bytes_zero_filled += e.decoded_bytes;
    } else {
      loss_->frames_decoded += 1;
    }
  }
  loss_counted_[frame_i] = true;
  return Status::Ok();
}

Status FrameStreamReader::read_decoded(std::uint64_t offset,
                                       std::span<std::byte> out) {
  if (offset + out.size() > index_.decoded_bytes) {
    return OutOfRange(strformat(
        "decoded read [%llu, %llu) past stream end %llu",
        static_cast<unsigned long long>(offset),
        static_cast<unsigned long long>(offset + out.size()),
        static_cast<unsigned long long>(index_.decoded_bytes)));
  }
  // First frame whose decoded range reaches `offset`.
  std::size_t i = static_cast<std::size_t>(
      std::upper_bound(index_.frames.begin(), index_.frames.end(), offset,
                       [](std::uint64_t off, const FrameEntry& e) {
                         return off < e.decoded_offset;
                       }) -
      index_.frames.begin());
  if (i > 0) --i;
  std::uint64_t done = 0;
  while (done < out.size()) {
    const FrameEntry& e = index_.frames[i];
    const std::uint64_t cur = offset + done;
    if (cur >= e.decoded_offset + e.decoded_bytes) {
      ++i;
      continue;
    }
    if (cache_i_ != i) SION_RETURN_IF_ERROR(materialize(i));
    const std::uint64_t in_frame = cur - e.decoded_offset;
    const std::uint64_t n = std::min<std::uint64_t>(
        e.decoded_bytes - in_frame, out.size() - done);
    std::memcpy(out.data() + done, cache_.data() + in_frame,
                static_cast<std::size_t>(n));
    done += n;
  }
  return Status::Ok();
}

Result<std::vector<std::byte>> decompress_stream(
    std::span<const std::byte> encoded, StreamLossReport* loss) {
  const ReadAtFn read_at =
      [encoded](std::uint64_t offset,
                std::span<std::byte> out) -> Result<std::uint64_t> {
    if (offset >= encoded.size()) return std::uint64_t{0};
    const std::uint64_t n =
        std::min<std::uint64_t>(out.size(), encoded.size() - offset);
    std::memcpy(out.data(), encoded.data() + offset,
                static_cast<std::size_t>(n));
    return n;
  };
  SION_ASSIGN_OR_RETURN(FrameIndex index,
                        index_frames(encoded.size(), read_at));
  StreamLossReport local;
  FrameStreamReader reader(std::move(index), read_at, &local);
  std::vector<std::byte> out(
      static_cast<std::size_t>(reader.decoded_bytes()));
  SION_RETURN_IF_ERROR(reader.read_decoded(0, out));
  if (loss != nullptr) loss->merge(local);
  return out;
}

bool stream_is_framed(std::span<const std::byte> head) {
  return head.size() >= kFrameSync.size() &&
         std::memcmp(head.data(), kFrameSync.data(), kFrameSync.size()) == 0;
}

}  // namespace sion::ext
