#include "core/metadata.h"

#include <algorithm>
#include <cstring>

#include "common/codec.h"
#include "common/strings.h"

namespace sion::core {

namespace {

// The bytes-written field and the checksum: the part a patch rewrites.
constexpr std::size_t kFramePatchAt = 24;
constexpr std::size_t kFramePatchBytes = 16;

Status pwrite_at(fs::File& file, std::span<const std::byte> bytes,
                 std::uint64_t offset) {
  SION_ASSIGN_OR_RETURN(const std::uint64_t n,
                        file.pwrite(fs::DataView(bytes), offset));
  (void)n;
  return Status::Ok();
}

}  // namespace

std::vector<std::byte> FileHeader::serialize() const {
  ByteWriter w;
  w.put_bytes(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(kMagic), sizeof(kMagic)));
  w.put_u32(version);
  w.put_u8(flags);
  w.put_u8(0);
  w.put_u16(0);
  // Trailer fields at fixed offsets 16 and 24 (patched at close).
  w.put_u64(nblocks);
  w.put_u64(meta2_offset);
  w.put_u64(fsblksize);
  w.put_u32(ntasks);
  w.put_u32(nfiles);
  w.put_u32(filenum);
  w.put_u32(0);
  w.put_u64_array(global_ranks);
  w.put_u64_array(chunksizes_req);
  return w.take();
}

Result<FileHeader> FileHeader::parse(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  SION_ASSIGN_OR_RETURN(auto magic, r.get_bytes(sizeof(kMagic)));
  if (std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
    return Corrupt("bad magic: not a SION multifile");
  }
  FileHeader h;
  SION_ASSIGN_OR_RETURN(h.version, r.get_u32());
  if (h.version != kFormatVersion) {
    return Corrupt(strformat("unsupported format version %u", h.version));
  }
  SION_ASSIGN_OR_RETURN(h.flags, r.get_u8());
  SION_RETURN_IF_ERROR(r.skip(3));
  SION_ASSIGN_OR_RETURN(h.nblocks, r.get_u64());
  SION_ASSIGN_OR_RETURN(h.meta2_offset, r.get_u64());
  SION_ASSIGN_OR_RETURN(h.fsblksize, r.get_u64());
  SION_ASSIGN_OR_RETURN(h.ntasks, r.get_u32());
  SION_ASSIGN_OR_RETURN(h.nfiles, r.get_u32());
  SION_ASSIGN_OR_RETURN(h.filenum, r.get_u32());
  SION_RETURN_IF_ERROR(r.skip(4));
  SION_ASSIGN_OR_RETURN(h.global_ranks, r.get_u64_array());
  SION_ASSIGN_OR_RETURN(h.chunksizes_req, r.get_u64_array());
  if (h.fsblksize == 0) return Corrupt("fsblksize is zero");
  if (h.ntasks == 0) return Corrupt("header lists zero tasks");
  if (h.global_ranks.size() != h.ntasks ||
      h.chunksizes_req.size() != h.ntasks) {
    return Corrupt("per-task arrays do not match task count");
  }
  if (h.filenum >= h.nfiles) return Corrupt("filenum out of range");
  return h;
}

std::uint64_t FileMeta2::nblocks() const {
  std::uint64_t most = 0;
  for (const auto& per_task : bytes_written) {
    most = std::max(most, static_cast<std::uint64_t>(per_task.size()));
  }
  return most;
}

std::vector<std::byte> FileMeta2::serialize() const {
  ByteWriter w;
  w.put_bytes(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(kMagic2), sizeof(kMagic2)));
  w.put_u32(static_cast<std::uint32_t>(bytes_written.size()));
  for (const auto& per_task : bytes_written) {
    w.put_u64_array(per_task);
  }
  return w.take();
}

Result<FileMeta2> FileMeta2::parse(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  SION_ASSIGN_OR_RETURN(auto magic, r.get_bytes(sizeof(kMagic2)));
  if (std::memcmp(magic.data(), kMagic2, sizeof(kMagic2)) != 0) {
    return Corrupt("bad metablock-2 magic");
  }
  SION_ASSIGN_OR_RETURN(const std::uint32_t ntasks, r.get_u32());
  // The count is untrusted: every entry needs at least its u64 array count,
  // so a claim beyond what the remaining bytes can hold is corruption, and
  // the reservation below stays bounded by the bytes actually read.
  if (ntasks > r.remaining() / sizeof(std::uint64_t)) {
    return Corrupt(strformat("metablock 2 claims %u tasks but holds only %zu "
                             "bytes of task arrays",
                             ntasks, r.remaining()));
  }
  FileMeta2 m;
  m.bytes_written.reserve(ntasks);
  for (std::uint32_t t = 0; t < ntasks; ++t) {
    SION_ASSIGN_OR_RETURN(auto per_task, r.get_u64_array());
    m.bytes_written.push_back(std::move(per_task));
  }
  return m;
}

Result<FileHeader> read_header(fs::File& file) {
  SION_ASSIGN_OR_RETURN(const fs::FileStat st, file.stat());
  // Metablock 1 never exceeds the data_start, which is <= header size
  // rounded up one fs block; reading header-sized prefix plus one block is
  // always enough.
  std::uint64_t want = 64 * 1024;
  for (;;) {
    const std::uint64_t n = std::min<std::uint64_t>(want, st.size);
    std::vector<std::byte> buf(n);
    SION_ASSIGN_OR_RETURN(const std::uint64_t got, file.pread(buf, 0));
    buf.resize(got);
    auto parsed = FileHeader::parse(buf);
    if (parsed.ok()) return parsed;
    if (parsed.status().code() == ErrorCode::kCorrupt && n < st.size &&
        n < (1ULL << 32)) {
      want *= 4;  // header larger than the slice; retry bigger
      continue;
    }
    return parsed;
  }
}

Result<FileMeta2> read_meta2(fs::File& file, const FileHeader& header) {
  if (header.meta2_offset == 0) {
    return FailedPrecondition(
        "metablock 2 missing (file was never closed cleanly); "
        "run sionrepair to reconstruct it");
  }
  SION_ASSIGN_OR_RETURN(const fs::FileStat st, file.stat());
  if (header.meta2_offset >= st.size) {
    return Corrupt("metablock-2 offset beyond end of file");
  }
  std::vector<std::byte> buf(st.size - header.meta2_offset);
  SION_ASSIGN_OR_RETURN(const std::uint64_t got,
                        file.pread(buf, header.meta2_offset));
  buf.resize(got);
  SION_ASSIGN_OR_RETURN(FileMeta2 meta2, FileMeta2::parse(buf));
  if (meta2.bytes_written.size() != header.ntasks) {
    return Corrupt(strformat("metablock 2 lists %zu tasks but metablock 1 "
                             "lists %u",
                             meta2.bytes_written.size(), header.ntasks));
  }
  return meta2;
}

Status write_meta2_and_trailer(fs::File& file, std::uint64_t data_start,
                               std::uint64_t block_span,
                               const FileMeta2& meta2) {
  const std::uint64_t nblocks = std::max<std::uint64_t>(1, meta2.nblocks());
  const std::uint64_t meta2_offset = data_start + nblocks * block_span;
  SION_RETURN_IF_ERROR(pwrite_at(file, meta2.serialize(), meta2_offset));
  ByteWriter trailer;
  trailer.put_u64(nblocks);
  trailer.put_u64(meta2_offset);
  return pwrite_at(file, trailer.bytes(), kTrailerNblocksOffset);
}

std::vector<std::byte> encode_chunk_frame(const ChunkFrame& frame) {
  ByteWriter w;
  w.put_bytes(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(kChunkFrameMagic),
      sizeof(kChunkFrameMagic)));
  w.put_u32(frame.grank);
  w.put_u32(frame.lrank);
  w.put_u64(frame.block);
  w.put_u64(frame.bytes_written);
  w.put_u64(chunk_frame_checksum(frame.grank, frame.lrank, frame.block,
                                 frame.bytes_written));
  w.pad_to(kChunkFrameSize);
  return w.take();
}

Result<ChunkFrame> parse_chunk_frame(std::span<const std::byte> bytes) {
  if (bytes.size() < kChunkFrameSize) return Corrupt("short frame");
  if (std::memcmp(bytes.data(), kChunkFrameMagic, sizeof(kChunkFrameMagic)) !=
      0) {
    return Corrupt("no frame magic");
  }
  ByteReader r(bytes.subspan(sizeof(kChunkFrameMagic)));
  ChunkFrame f;
  SION_ASSIGN_OR_RETURN(f.grank, r.get_u32());
  SION_ASSIGN_OR_RETURN(f.lrank, r.get_u32());
  SION_ASSIGN_OR_RETURN(f.block, r.get_u64());
  SION_ASSIGN_OR_RETURN(f.bytes_written, r.get_u64());
  SION_ASSIGN_OR_RETURN(const std::uint64_t checksum, r.get_u64());
  if (checksum !=
      chunk_frame_checksum(f.grank, f.lrank, f.block, f.bytes_written)) {
    return Corrupt("frame checksum mismatch (torn or bit-flipped frame)");
  }
  return f;
}

Status write_chunk_frame(fs::File& file, std::uint64_t offset,
                         const ChunkFrame& frame) {
  return pwrite_at(file, encode_chunk_frame(frame), offset);
}

Status patch_chunk_frame(fs::File& file, std::uint64_t offset,
                         const ChunkFrame& frame) {
  const std::vector<std::byte> bytes = encode_chunk_frame(frame);
  return pwrite_at(
      file, std::span<const std::byte>(bytes).subspan(kFramePatchAt,
                                                      kFramePatchBytes),
      offset + kFramePatchAt);
}

Status read_recorded(fs::File& file, std::span<std::byte> out,
                     std::uint64_t offset) {
  SION_ASSIGN_OR_RETURN(const std::uint64_t n, file.pread(out, offset));
  if (n < out.size()) return Corrupt("short read inside a recorded chunk");
  return Status::Ok();
}

Status put_chunk_frame(fs::File& file, const ChunkCursor& cursor,
                       const ChunkFrame& frame, bool fresh) {
  const std::uint64_t offset = cursor.at(frame.block) - kChunkFrameSize;
  return fresh ? write_chunk_frame(file, offset, frame)
               : patch_chunk_frame(file, offset, frame);
}

std::string physical_file_name(const std::string& base, int filenum,
                               int nfiles) {
  if (nfiles <= 1) return base;
  return strformat("%s.%06d", base.c_str(), filenum);
}

}  // namespace sion::core
