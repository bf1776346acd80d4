// Tests for the paper's "future work" extensions: the slz compression codec
// (property roundtrips on adversarial inputs), metablock-2 recovery from
// chunk frames, and per-thread channel multiplexing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/codec.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/api.h"
#include "ext/compress.h"
#include "ext/gf256.h"
#include "ext/recovery.h"
#include "ext/slz.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"
#include "workloads/tracer.h"

namespace sion::ext {
namespace {

using fs::DataView;

// ---------------------------------------------------------------------------
// slz codec
// ---------------------------------------------------------------------------

TEST(SlzTest, EmptyInput) {
  const auto compressed = slz_compress({});
  auto back = slz_decompress(compressed);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().empty());
}

TEST(SlzTest, ShortLiteralOnly) {
  const std::vector<std::byte> in{std::byte{1}, std::byte{2}, std::byte{3}};
  auto back = slz_decompress(slz_compress(in));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), in);
}

TEST(SlzTest, HighlyRepetitiveCompressesWell) {
  std::vector<std::byte> in(100000, std::byte{'A'});
  const auto compressed = slz_compress(in);
  EXPECT_LT(compressed.size(), in.size() / 50);
  auto back = slz_decompress(compressed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), in);
}

TEST(SlzTest, OverlappingMatchRle) {
  // "abcabcabc..." forces matches with distance < length.
  std::vector<std::byte> in;
  for (int i = 0; i < 10000; ++i) {
    in.push_back(static_cast<std::byte>('a' + (i % 3)));
  }
  auto back = slz_decompress(slz_compress(in));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), in);
}

TEST(SlzTest, RandomDataStaysIntactAndDoesNotExplode) {
  std::vector<std::byte> in(50000);
  Rng rng(99);
  rng.fill_bytes(in);
  const auto compressed = slz_compress(in);
  EXPECT_LT(compressed.size(), in.size() + in.size() / 8 + 64);
  auto back = slz_decompress(compressed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), in);
}

TEST(SlzTest, DecompressRejectsGarbage) {
  std::vector<std::byte> junk(100, std::byte{0x33});
  EXPECT_FALSE(slz_decompress(junk).ok());
  EXPECT_FALSE(slz_decompress({}).ok());
}

TEST(SlzTest, DecompressRejectsTruncation) {
  std::vector<std::byte> in(10000, std::byte{'x'});
  auto compressed = slz_compress(in);
  compressed.resize(compressed.size() / 2);
  EXPECT_FALSE(slz_decompress(compressed).ok());
}

TEST(SlzTest, FrameRoundtripReportsConsumedBytes) {
  std::vector<std::byte> in(5000, std::byte{'q'});
  auto framed_or = slz_frame(in);
  ASSERT_TRUE(framed_or.ok());
  std::vector<std::byte> framed = std::move(framed_or).value();
  // Append trailing data; unframe must stop at the frame boundary.
  const std::size_t frame_len = framed.size();
  framed.push_back(std::byte{0x77});
  auto back = slz_unframe(framed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().first, in);
  EXPECT_EQ(back.value().second, frame_len);
}

namespace {

// Hand-built slz stream: magic, u64 uncompressed size, then raw token bytes.
std::vector<std::byte> forge_slz_stream(std::uint64_t usize,
                                        std::initializer_list<int> tokens) {
  std::vector<std::byte> s;
  const char magic[4] = {'S', 'L', 'Z', '1'};
  for (const char c : magic) s.push_back(static_cast<std::byte>(c));
  for (int i = 0; i < 8; ++i) {
    s.push_back(static_cast<std::byte>((usize >> (8 * i)) & 0xFF));
  }
  for (const int t : tokens) s.push_back(static_cast<std::byte>(t));
  return s;
}

}  // namespace

TEST(SlzTest, ForgedSizeStreamRejectedWithoutHugeAllocation) {
  // A single flipped header byte used to drive out.reserve(usize) with a
  // corruption-controlled size (up to 1 TiB). The forged stream claims
  // 512 GiB but carries two literal bytes: the decoder must fail cleanly,
  // with its up-front reservation capped by the (tiny) input size.
  auto forged = forge_slz_stream(1ULL << 39, {0x04, 'h', 'i'});
  auto back = slz_decompress(forged);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), ErrorCode::kCorrupt);

  // A caller-supplied bound rejects sizes the context rules out entirely.
  auto honest = slz_compress(std::vector<std::byte>(100, std::byte{'x'}));
  EXPECT_TRUE(slz_decompress(honest, 100).ok());
  EXPECT_FALSE(slz_decompress(honest, 99).ok());
}

TEST(SlzTest, FrameLengthValidationCoversU32Boundary) {
  // slz_frame used to truncate stream.size() to u32 silently; the length
  // check is exposed so the >= 4 GiB boundary is testable without a real
  // 4 GiB allocation.
  EXPECT_TRUE(slz_validate_frame_size(0).ok());
  EXPECT_TRUE(slz_validate_frame_size(0xFFFFFFFFULL).ok());
  const Status over = slz_validate_frame_size(0x100000000ULL);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.code(), ErrorCode::kOutOfRange);
  EXPECT_FALSE(slz_validate_frame_size(5ULL << 30).ok());
}

TEST(SlzTest, NonCanonicalVarintRejected) {
  // [0x06] and [0x86, 0x00] both decode to control 6 under a permissive
  // reader; the overlong form must be Corrupt, not an alias.
  auto canonical = forge_slz_stream(3, {0x06, 'a', 'b', 'c'});
  ASSERT_TRUE(slz_decompress(canonical).ok());
  auto overlong = forge_slz_stream(3, {0x86, 0x00, 'a', 'b', 'c'});
  auto back = slz_decompress(overlong);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), ErrorCode::kCorrupt);
}

TEST(SlzTest, OverflowingVarintRejected) {
  // Ten 0xFF-continuation bytes would need bits >= 64: the old decoder
  // silently dropped the high bits at shift 63 and wrapped the control.
  auto overflow = forge_slz_stream(
      3, {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 'a'});
  EXPECT_FALSE(slz_decompress(overflow).ok());
  // Continuation past the 10th byte is truncation-of-canonical territory.
  auto too_long = forge_slz_stream(
      3, {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01});
  EXPECT_FALSE(slz_decompress(too_long).ok());
  // The canonical top-bit encoding still decodes: bit 63 alone in byte 10.
  std::vector<std::byte> in(64, std::byte{'z'});
  auto round = slz_decompress(slz_compress(in));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value(), in);
}

// Byte-identity pin: slz_compress output is a format, so faster mechanics
// must not change a single byte of it. Each digest is the CRC32C (and size)
// of the stream the original byte-at-a-time implementation produced.
std::vector<std::byte> periodic_bytes(std::size_t period, std::size_t n,
                                      std::uint64_t seed) {
  std::vector<std::byte> pattern(period);
  Rng(seed).fill_bytes(pattern);
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = pattern[i % period];
  return out;
}

// Literal/match alternation near the output bound: a random head, a zero
// run that pushes distances past 16 KiB (3-byte distance varints), then the
// head again with every fifth byte replaced, so 1-byte literal runs
// alternate with 4-byte matches.
std::vector<std::byte> alternation_bytes() {
  constexpr std::size_t kHead = 4000;
  std::vector<std::byte> head(kHead);
  Rng rng(0xA17);
  rng.fill_bytes(head);
  std::vector<std::byte> out = head;
  out.resize(kHead + 16 * kKiB, std::byte{0});
  for (std::size_t i = 0; i < kHead; ++i) {
    out.push_back(i % 5 == 0 ? static_cast<std::byte>(rng.next_below(256))
                             : head[i]);
  }
  return out;
}

TEST(SlzTest, CompressedBytesArePinned) {
  struct Pin {
    const char* name;
    std::vector<std::byte> input;
    std::size_t stream_bytes;
    std::uint32_t crc;
  };
  std::vector<std::byte> random(200000);
  Rng(0xC0FFEE).fill_bytes(random);
  const std::vector<Pin> pins = {
      {"trace",
       workloads::trace_serialize(workloads::trace_generate(5, 16384, 0x51A7)),
       137516, 0xF572A5D2u},
      {"empty", {}, 12, 0x82F1CE3Fu},
      {"one", {std::byte{'a'}}, 14, 0x461D2F94u},
      {"two", {std::byte{'a'}, std::byte{'b'}}, 15, 0xEA3B5E46u},
      {"three", {std::byte{'a'}, std::byte{'b'}, std::byte{'c'}}, 16,
       0xC9CD057Cu},
      {"zeros", std::vector<std::byte>(kMiB, std::byte{0}), 18, 0x0188523Du},
      {"random", random, 200017, 0x12778820u},
      {"period5", periodic_bytes(5, 100000, 5), 22, 0xC9DC8421u},
      {"period17", periodic_bytes(17, 100000, 17), 34, 0x8D461B21u},
      {"alternation", alternation_bytes(), 8565, 0x24961793u},
  };
  for (const Pin& pin : pins) {
    const std::vector<std::byte> stream = slz_compress(pin.input);
    EXPECT_LE(stream.size(), slz_compress_bound(pin.input.size())) << pin.name;
    EXPECT_EQ(stream.size(), pin.stream_bytes) << pin.name;
    EXPECT_EQ(crc32c(stream), pin.crc) << pin.name;
    auto back = slz_decompress(stream);
    ASSERT_TRUE(back.ok()) << pin.name << ": " << back.status().to_string();
    EXPECT_EQ(back.value(), pin.input) << pin.name;
  }
}

// ---------------------------------------------------------------------------
// kernels: dispatched CRC32C and GF(256) mul_add against their references
// ---------------------------------------------------------------------------

TEST(KernelTest, Crc32cMatchesPortableAtEveryLengthAndOffset) {
  std::vector<std::byte> buf(1024 + 8);
  Rng(0xC4C).fill_bytes(buf);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const auto span = std::span<const std::byte>(buf).subspan(off, len);
      ASSERT_EQ(crc32c(span), crc32c_portable(span))
          << "offset " << off << " length " << len;
    }
  }
  const char digits[] = "123456789";
  EXPECT_EQ(crc32c_portable(std::as_bytes(std::span(digits, 9))), 0xE3069283u);
}

TEST(KernelTest, GfMulAddMatchesScalarGfMul) {
  std::vector<std::byte> src_buf(97 + 3);
  std::vector<std::byte> dst_buf(97 + 1);
  Rng rng(0x6F);
  rng.fill_bytes(src_buf);
  for (int c = 0; c < 256; ++c) {
    const GfMulTable table(static_cast<std::uint8_t>(c));
    for (std::size_t len = 0; len <= 97; ++len) {
      for (const std::size_t shorter : {0, 1}) {
        // Misaligned src and dst; a shorter dst limits the bytes that change.
        const auto src = std::span<const std::byte>(src_buf).subspan(3, len);
        const auto dst = std::span<std::byte>(dst_buf).subspan(
            1, len - std::min(len, shorter));
        rng.fill_bytes(dst_buf);
        const std::vector<std::byte> before(dst_buf);
        table.mul_add(dst, src);
        for (std::size_t i = 0; i < dst_buf.size(); ++i) {
          std::byte want = before[i];
          if (i >= 1 && i - 1 < dst.size()) {
            want ^= static_cast<std::byte>(
                gf_mul(static_cast<std::uint8_t>(c),
                       std::to_integer<std::uint8_t>(src[i - 1])));
          }
          ASSERT_EQ(dst_buf[i], want) << "c " << c << " length " << len
                                      << " dst " << dst.size() << " byte " << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// frame layer (ext/compress.h)
// ---------------------------------------------------------------------------

TEST(CompressTest, Crc32cKnownAnswer) {
  const char digits[] = "123456789";
  std::vector<std::byte> in(9);
  std::memcpy(in.data(), digits, 9);
  EXPECT_EQ(crc32c(in), 0xE3069283u);
  EXPECT_EQ(crc32c({}), 0u);
}

TEST(CompressTest, EmptyStreamRoundtrip) {
  auto enc = compress_stream({});
  ASSERT_TRUE(enc.ok());
  EXPECT_TRUE(enc.value().empty());
  StreamLossReport loss;
  auto dec = decompress_stream(enc.value(), &loss);
  ASSERT_TRUE(dec.ok());
  EXPECT_TRUE(dec.value().empty());
  EXPECT_TRUE(loss.clean());
}

TEST(CompressTest, SingleFrameRoundtrip) {
  std::vector<std::byte> in(4000);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<std::byte>((i / 37) % 11);
  }
  auto enc = compress_stream(in);
  ASSERT_TRUE(enc.ok());
  ASSERT_GE(enc.value().size(), kFrameSync.size());
  EXPECT_TRUE(stream_is_framed(
      std::span<const std::byte>(enc.value()).first(kFrameSync.size())));
  StreamLossReport loss;
  auto dec = decompress_stream(enc.value(), &loss);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value(), in);
  EXPECT_EQ(loss.frames_decoded, 1u);
  EXPECT_TRUE(loss.clean());
}

TEST(CompressTest, MultiFrameRoundtripWithSmallChunks) {
  std::vector<std::byte> in(10 * 1024);
  Rng rng(0xC0DEC);
  rng.fill_bytes(in);
  CompressionSpec spec;
  spec.chunk_bytes = 1024;
  auto enc = compress_stream(in, spec);
  ASSERT_TRUE(enc.ok());
  StreamLossReport loss;
  auto dec = decompress_stream(enc.value(), &loss);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value(), in);
  EXPECT_EQ(loss.frames_decoded, 10u);
  EXPECT_TRUE(loss.clean());
}

TEST(CompressTest, ChunkBytesAreClampedNotFatal) {
  // chunk_bytes below the floor must still produce a decodable stream.
  std::vector<std::byte> in(2048, std::byte{'q'});
  CompressionSpec spec;
  spec.chunk_bytes = 1;  // clamped up to 512
  auto enc = compress_stream(in, spec);
  ASSERT_TRUE(enc.ok());
  auto dec = decompress_stream(enc.value());
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value(), in);
}

TEST(CompressTest, UnframedStreamIsDetected) {
  std::vector<std::byte> plain(64, std::byte{'p'});
  EXPECT_FALSE(stream_is_framed(
      std::span<const std::byte>(plain).first(kFrameSync.size())));
}

TEST(CompressTest, FrameIndexMatchesDeliveredBytes) {
  // The Remap::open rank-0 scan and the restore-time decoder must agree on
  // the decoded size; index_frames is that contract.
  std::vector<std::byte> in(5000);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<std::byte>(i % 251);
  }
  CompressionSpec spec;
  spec.chunk_bytes = 1500;
  auto enc = compress_stream(in, spec);
  ASSERT_TRUE(enc.ok());
  const std::vector<std::byte>& bytes = enc.value();
  auto read_at = [&bytes](std::uint64_t off,
                          std::span<std::byte> o) -> Result<std::uint64_t> {
    const std::uint64_t n =
        std::min<std::uint64_t>(o.size(), bytes.size() - off);
    std::memcpy(o.data(), bytes.data() + off, static_cast<std::size_t>(n));
    return n;
  };
  auto idx = index_frames(bytes.size(), read_at);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx.value().decoded_bytes, in.size());
  EXPECT_EQ(idx.value().encoded_bytes, bytes.size());
  EXPECT_EQ(idx.value().frames.size(), 4u);
  EXPECT_TRUE(idx.value().scan_loss.clean());

  // Random access through the reader: a slice from the middle crossing a
  // frame boundary comes back byte-identical.
  StreamLossReport loss;
  FrameStreamReader reader(std::move(idx).value(), read_at, &loss);
  std::vector<std::byte> slice(2000);
  ASSERT_TRUE(reader.read_decoded(1000, slice).ok());
  EXPECT_TRUE(std::equal(slice.begin(), slice.end(), in.begin() + 1000));
  EXPECT_TRUE(loss.clean());
  EXPECT_FALSE(reader.read_decoded(4000, slice).ok());  // past the end
}

// A frame header with the sync marker, the given lengths, and a valid CRC.
std::vector<std::byte> forged_frame_header(std::uint32_t comp_bytes,
                                           std::uint32_t raw_bytes) {
  ByteWriter w;
  w.put_bytes(kFrameSync);
  w.put_u32(comp_bytes);
  w.put_u32(raw_bytes);
  w.put_u32(crc32c(w.bytes()));
  return w.take();
}

TEST(CompressTest, FrameCapAdmitsWorstCaseSlzOutput) {
  // A near-1-GiB chunk of incompressible data encodes to up to
  // slz_compress_bound(kMaxFrameRawBytes) bytes; the header parser must
  // accept exactly that much and nothing more.
  const auto bound =
      static_cast<std::uint32_t>(slz_compress_bound(kMaxFrameRawBytes));
  const auto raw = static_cast<std::uint32_t>(kMaxFrameRawBytes);
  for (const std::uint32_t comp : {bound, bound + 1}) {
    const std::vector<std::byte> hdr = forged_frame_header(comp, raw);
    auto read_at = [&hdr](std::uint64_t off,
                          std::span<std::byte> o) -> Result<std::uint64_t> {
      const std::uint64_t n =
          std::min<std::uint64_t>(o.size(), hdr.size() - off);
      std::memcpy(o.data(), hdr.data() + off, static_cast<std::size_t>(n));
      return n;
    };
    auto idx = index_frames(hdr.size(), read_at);
    ASSERT_TRUE(idx.ok()) << idx.status().to_string();
    if (comp == bound) {
      // Accepted: a torn frame (its body is missing) of the claimed size.
      ASSERT_EQ(idx.value().frames.size(), 1u);
      EXPECT_EQ(idx.value().frames[0].comp_bytes, bound);
      EXPECT_TRUE(idx.value().frames[0].torn);
    } else {
      // Rejected: no frame, the region is scan loss.
      EXPECT_TRUE(idx.value().frames.empty());
      EXPECT_FALSE(idx.value().scan_loss.clean());
    }
  }
}

TEST(CompressTest, LossReportMergeAndFormat) {
  StreamLossReport a{.frames_decoded = 2,
                     .frames_skipped = 1,
                     .bytes_zero_filled = 100,
                     .bytes_discarded = 0};
  StreamLossReport b{.frames_decoded = 3,
                     .frames_skipped = 0,
                     .bytes_zero_filled = 0,
                     .bytes_discarded = 7};
  a.merge(b);
  EXPECT_EQ(a.frames_decoded, 5u);
  EXPECT_EQ(a.frames_skipped, 1u);
  EXPECT_EQ(a.bytes_zero_filled, 100u);
  EXPECT_EQ(a.bytes_discarded, 7u);
  EXPECT_FALSE(a.clean());
  EXPECT_FALSE(a.to_string().empty());
  EXPECT_TRUE(StreamLossReport{}.clean());
}

class SlzPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SlzPropertyTest, RoundtripOnStructuredRandomInputs) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    // Mix of runs, copies of earlier content, and random bytes — the three
    // regimes an LZ codec must handle.
    std::vector<std::byte> in;
    const int segments = 1 + static_cast<int>(rng.next_below(12));
    for (int s = 0; s < segments; ++s) {
      const std::uint64_t len = rng.next_below(3000);
      switch (rng.next_below(3)) {
        case 0:
          in.insert(in.end(), len,
                    static_cast<std::byte>(rng.next_below(256)));
          break;
        case 1: {
          if (in.empty()) break;
          const std::uint64_t start = rng.next_below(in.size());
          for (std::uint64_t i = 0; i < len; ++i) {
            in.push_back(in[start + (i % (in.size() - start))]);
          }
          break;
        }
        default: {
          const std::size_t old = in.size();
          in.resize(old + len);
          rng.fill_bytes(std::span<std::byte>(in.data() + old, len));
        }
      }
    }
    auto back = slz_decompress(slz_compress(in));
    ASSERT_TRUE(back.ok()) << back.status().to_string();
    ASSERT_EQ(back.value(), in) << "iter " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlzPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// recovery
// ---------------------------------------------------------------------------

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : fs_(fs::TestbedConfig()) {}

  // Write with frames; if `crash`, skip the collective close so metablock 2
  // is missing — the failure mode the paper's section 6 describes.
  void write_frames(const std::string& name, int ntasks, int nfiles,
                    std::uint64_t bytes_per_task, bool crash) {
    par::Engine engine;
    engine.run(ntasks, [&](par::Comm& world) {
      core::ParOpenSpec spec;
      spec.filename = name;
      spec.chunksize = 50000;
      spec.nfiles = nfiles;
      spec.chunk_frames = true;
      auto open = core::SionParFile::open_write(fs_, world, spec);
      ASSERT_TRUE(open.ok()) << open.status().to_string();
      std::vector<std::byte> data(bytes_per_task);
      Rng rng(7000 + static_cast<std::uint64_t>(world.rank()));
      rng.fill_bytes(data);
      ASSERT_TRUE(open.value()->write(DataView(data)).ok());
      if (!crash) {
        ASSERT_TRUE(open.value()->close().ok());
      }
    });
  }

  void verify_readable(const std::string& name, int ntasks,
                       std::uint64_t bytes_per_task) {
    par::Engine engine;
    engine.run(ntasks, [&](par::Comm& world) {
      auto ropen = core::SionParFile::open_read(fs_, world, name);
      ASSERT_TRUE(ropen.ok()) << ropen.status().to_string();
      std::vector<std::byte> expect(bytes_per_task);
      Rng rng(7000 + static_cast<std::uint64_t>(world.rank()));
      rng.fill_bytes(expect);
      std::vector<std::byte> back(bytes_per_task);
      auto got = ropen.value()->read(back);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), bytes_per_task);
      EXPECT_EQ(back, expect);
      ASSERT_TRUE(ropen.value()->close().ok());
    });
  }

  fs::SimFs fs_;
};

TEST_F(RecoveryTest, RepairsCrashedSingleFile) {
  write_frames("c1.sion", 4, 1, 30000, /*crash=*/true);
  // Unreadable before repair...
  {
    par::Engine engine;
    engine.run(4, [&](par::Comm& world) {
      EXPECT_FALSE(core::SionParFile::open_read(fs_, world, "c1.sion").ok());
    });
  }
  auto report = repair_multifile(fs_, "c1.sion");
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().repaired_files, 1);
  EXPECT_GE(report.value().chunks_recovered, 4u);
  verify_readable("c1.sion", 4, 30000);
}

TEST_F(RecoveryTest, RepairsMultiplePhysicalFilesAndBlocks) {
  // 120000 bytes with ~50 KiB usable chunks -> 3 blocks per task.
  write_frames("c2.sion", 6, 3, 120000, /*crash=*/true);
  auto report = repair_multifile(fs_, "c2.sion");
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().repaired_files, 3);
  verify_readable("c2.sion", 6, 120000);
}

TEST_F(RecoveryTest, IntactFileLeftAlone) {
  write_frames("ok.sion", 4, 2, 10000, /*crash=*/false);
  auto report = repair_multifile(fs_, "ok.sion");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().repaired_files, 0);
  EXPECT_EQ(report.value().intact_files, 2);
  verify_readable("ok.sion", 4, 10000);
}

TEST_F(RecoveryTest, WithoutFramesRepairRefuses) {
  par::Engine engine;
  engine.run(2, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "nf.sion";
    spec.chunksize = 1000;
    auto open = core::SionParFile::open_write(fs_, world, spec);
    ASSERT_TRUE(open.ok());
    // crash without close
  });
  auto report = repair_multifile(fs_, "nf.sion");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(RecoveryTest, QuotaFailureMidWriteIsRecoverable) {
  // The paper's other failure example: quota violation during the write.
  fs::SimConfig cfg = fs::TestbedConfig();
  cfg.quota_bytes = 800 * kKiB;
  fs::SimFs fs(cfg);
  par::Engine engine;
  engine.run(4, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "q.sion";
    spec.chunksize = 64 * kKiB;
    spec.chunk_frames = true;
    auto open = core::SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(open.ok());
    // Keep writing until the quota bites, then give up without closing.
    for (int i = 0; i < 64; ++i) {
      auto w = open.value()->write(DataView::fill(std::byte{1}, 32 * kKiB));
      if (!w.ok()) {
        EXPECT_EQ(w.status().code(), ErrorCode::kQuotaExceeded);
        break;
      }
    }
  });
  auto report = repair_multifile(fs, "q.sion");
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().repaired_files, 1);
  // Whatever survived must now be readable.
  engine.run(4, [&](par::Comm& world) {
    auto ropen = core::SionParFile::open_read(fs, world, "q.sion");
    ASSERT_TRUE(ropen.ok()) << ropen.status().to_string();
    ASSERT_TRUE(ropen.value()->read_skip(1 << 30).ok());
    ASSERT_TRUE(ropen.value()->close().ok());
  });
}

}  // namespace
}  // namespace sion::ext
