// Unit tests for src/common: status propagation, binary codec roundtrips,
// units parsing/formatting, string helpers, option parsing, RNG determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "common/codec.h"
#include "common/narrow.h"
#include "common/options.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/units.h"

namespace sion {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("no such multifile");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.message(), "no such multifile");
  EXPECT_EQ(s.to_string(), "NOT_FOUND: no such multifile");
}

TEST(StatusTest, AllFactoryFunctionsProduceMatchingCodes) {
  EXPECT_EQ(InvalidArgument("x").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(AlreadyExists("x").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(OutOfRange("x").code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(PermissionDenied("x").code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(QuotaExceeded("x").code(), ErrorCode::kQuotaExceeded);
  EXPECT_EQ(Corrupt("x").code(), ErrorCode::kCorrupt);
  EXPECT_EQ(IoError("x").code(), ErrorCode::kIoError);
  EXPECT_EQ(FailedPrecondition("x").code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(Unimplemented("x").code(), ErrorCode::kUnimplemented);
  EXPECT_EQ(Internal("x").code(), ErrorCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = IoError("disk on fire");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kIoError);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, OkStatusIsRejected) {
  Result<int> r = Status::Ok();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInternal);
}

Status fails() { return QuotaExceeded("quota"); }
Status propagates() {
  SION_RETURN_IF_ERROR(fails());
  return Internal("unreachable");
}
Result<int> value_or_error(bool ok) {
  if (ok) return 7;
  return NotFound("nope");
}
Status uses_assign(bool ok, int* out) {
  SION_ASSIGN_OR_RETURN(*out, value_or_error(ok));
  return Status::Ok();
}

TEST(ResultTest, Macros) {
  EXPECT_EQ(propagates().code(), ErrorCode::kQuotaExceeded);
  int out = 0;
  EXPECT_TRUE(uses_assign(true, &out).ok());
  EXPECT_EQ(out, 7);
  EXPECT_EQ(uses_assign(false, &out).code(), ErrorCode::kNotFound);
}

TEST(CodecTest, ScalarRoundtrip) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u16(0x1234);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFULL);
  w.put_i64(-42);
  w.put_f64(3.14159);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8().value(), 0xAB);
  EXPECT_EQ(r.get_u16().value(), 0x1234);
  EXPECT_EQ(r.get_u32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64().value(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.get_i64().value(), -42);
  EXPECT_DOUBLE_EQ(r.get_f64().value(), 3.14159);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(CodecTest, LittleEndianOnDisk) {
  ByteWriter w;
  w.put_u32(0x01020304);
  const auto& b = w.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(std::to_integer<int>(b[0]), 0x04);
  EXPECT_EQ(std::to_integer<int>(b[3]), 0x01);
}

TEST(CodecTest, StringAndArrayRoundtrip) {
  ByteWriter w;
  w.put_string("multifile.sion");
  std::vector<std::uint64_t> values{1, 2, 1ULL << 40, 0};
  w.put_u64_array(values);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_string().value(), "multifile.sion");
  EXPECT_EQ(r.get_u64_array().value(), values);
}

TEST(CodecTest, EmptyStringAndArray) {
  ByteWriter w;
  w.put_string("");
  w.put_u64_array({});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_string().value(), "");
  EXPECT_TRUE(r.get_u64_array().value().empty());
}

TEST(CodecTest, TruncationIsCorruptNotCrash) {
  ByteWriter w;
  w.put_u64(77);
  ByteReader r(std::span<const std::byte>(w.bytes()).subspan(0, 3));
  auto res = r.get_u64();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), ErrorCode::kCorrupt);
}

TEST(CodecTest, TruncatedStringPayload) {
  ByteWriter w;
  w.put_u32(100);  // claims 100 bytes follow
  ByteReader r(w.bytes());
  auto res = r.get_string();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), ErrorCode::kCorrupt);
}

TEST(CodecTest, HugeArrayCountDoesNotAllocate) {
  ByteWriter w;
  w.put_u64(~0ULL);  // absurd element count
  ByteReader r(w.bytes());
  auto res = r.get_u64_array();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), ErrorCode::kCorrupt);
}

TEST(CodecTest, PadTo) {
  ByteWriter w;
  w.put_u8(1);
  w.pad_to(16);
  EXPECT_EQ(w.size(), 16u);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8().value(), 1);
  for (int i = 0; i < 15; ++i) EXPECT_EQ(r.get_u8().value(), 0);
}

TEST(CodecTest, SkipAndPosition) {
  ByteWriter w;
  w.put_u64(1);
  w.put_u64(2);
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.skip(8).ok());
  EXPECT_EQ(r.position(), 8u);
  EXPECT_EQ(r.get_u64().value(), 2u);
  EXPECT_FALSE(r.skip(1).ok());
}

TEST(UnitsTest, RoundUp) {
  EXPECT_EQ(round_up(0, 4096), 0u);
  EXPECT_EQ(round_up(1, 4096), 4096u);
  EXPECT_EQ(round_up(4096, 4096), 4096u);
  EXPECT_EQ(round_up(4097, 4096), 8192u);
}

TEST(UnitsTest, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 3), 0u);
  EXPECT_EQ(ceil_div(1, 3), 1u);
  EXPECT_EQ(ceil_div(3, 3), 1u);
  EXPECT_EQ(ceil_div(4, 3), 2u);
}

TEST(UnitsTest, ParseSize) {
  EXPECT_EQ(parse_size("4096"), 4096u);
  EXPECT_EQ(parse_size("64k"), 64u * kKiB);
  EXPECT_EQ(parse_size("64K"), 64u * kKiB);
  EXPECT_EQ(parse_size("2M"), 2u * kMiB);
  EXPECT_EQ(parse_size("1g"), kGiB);
  EXPECT_EQ(parse_size("1t"), kTiB);
  EXPECT_EQ(parse_size("1.5k"), 1536u);
  EXPECT_EQ(parse_size(""), 0u);
  EXPECT_EQ(parse_size("abc"), 0u);
  EXPECT_EQ(parse_size("5x"), 0u);
}

TEST(UnitsTest, ParseSizeAcceptsSpelledOutBinarySuffixes) {
  EXPECT_EQ(parse_size("64Ki"), 64u * kKiB);
  EXPECT_EQ(parse_size("64ki"), 64u * kKiB);
  EXPECT_EQ(parse_size("2Mi"), 2u * kMiB);
  EXPECT_EQ(parse_size("1GiB"), kGiB);
  EXPECT_EQ(parse_size("1.5KiB"), 1536u);
  EXPECT_EQ(parse_size("1TiB"), kTiB);
}

TEST(UnitsTest, FormatTasks) {
  EXPECT_EQ(format_tasks(0), "0");
  EXPECT_EQ(format_tasks(768), "768");
  EXPECT_EQ(format_tasks(1000), "1000");  // not a binary multiple
  EXPECT_EQ(format_tasks(1024), "1Ki");
  EXPECT_EQ(format_tasks(4096), "4Ki");
  EXPECT_EQ(format_tasks(65536), "64Ki");
  EXPECT_EQ(format_tasks(1024 * 1024), "1Mi");
  EXPECT_EQ(format_tasks(65536 + 1), "65537");
}

TEST(UnitsTest, FormatTasksRoundTripsThroughParseSize) {
  for (const std::uint64_t n : {1u, 768u, 1024u, 4096u, 65536u, 1048576u}) {
    EXPECT_EQ(parse_size(format_tasks(n)), n) << format_tasks(n);
  }
}

TEST(UnitsTest, ParseSizeRejectsTrailingGarbage) {
  EXPECT_EQ(parse_size("4kfoo"), 0u);
  EXPECT_EQ(parse_size("4kb"), 0u);
  EXPECT_EQ(parse_size("1.5m "), 0u);
  EXPECT_EQ(parse_size("16 k"), 0u);
  EXPECT_EQ(parse_size("1t1"), 0u);
}

TEST(UnitsTest, ParseSizeRejectsNegativeAndNonFinite) {
  EXPECT_EQ(parse_size("-5"), 0u);
  EXPECT_EQ(parse_size("-5k"), 0u);
  EXPECT_EQ(parse_size("-0.1g"), 0u);
  EXPECT_EQ(parse_size("nan"), 0u);
  EXPECT_EQ(parse_size("inf"), 0u);
}

TEST(UnitsTest, ParseSizeRejectsOverflow) {
  EXPECT_EQ(parse_size("1e30"), 0u);
  EXPECT_EQ(parse_size("99999999999t"), 0u);
  EXPECT_EQ(parse_size("18446744073709551616"), 0u);  // 2^64
  // Large but representable values still parse.
  EXPECT_EQ(parse_size("1024t"), 1024u * kTiB);
}

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2 * kKiB), "2.0 KiB");
  EXPECT_EQ(format_bytes(3 * kMiB), "3.0 MiB");
  EXPECT_EQ(format_bytes(kGiB + kGiB / 2), "1.5 GiB");
}

TEST(UnitsTest, FormatBytesTiBBoundary) {
  EXPECT_EQ(format_bytes(kTiB), "1.0 TiB");
  // Regression: any non-GiB-multiple TiB value used to fall through to the
  // GiB branch and print a four-digit GiB string.
  EXPECT_EQ(format_bytes(kTiB + kTiB / 2), "1.5 TiB");
  EXPECT_EQ(format_bytes(kTiB + kTiB / 2 + 1), "1.5 TiB");
  EXPECT_EQ(format_bytes(2 * kTiB + 1), "2.0 TiB");
  // Just under the boundary still formats as GiB.
  EXPECT_EQ(format_bytes(kTiB - kGiB), "1023.0 GiB");
}

TEST(UnitsTest, PowerOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(4096));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
}

TEST(StringsTest, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("a,", ','), (std::vector<std::string>{"a", ""}));
}

TEST(StringsTest, JoinTrimAffixes) {
  EXPECT_EQ(join({"x", "y"}, "/"), "x/y");
  EXPECT_EQ(join({}, "/"), "");
  EXPECT_EQ(trim("  hi\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_TRUE(starts_with("multifile.sion", "multi"));
  EXPECT_FALSE(starts_with("m", "multi"));
  EXPECT_TRUE(ends_with("file.sion", ".sion"));
  EXPECT_FALSE(ends_with("n", ".sion"));
}

TEST(StringsTest, Strformat) {
  EXPECT_EQ(strformat("%s.%06d", "name", 3), "name.000003");
  EXPECT_EQ(strformat("%.1f MB/s", 2153.04), "2153.0 MB/s");
}

TEST(OptionsTest, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog",       "--ntasks=64k", "--nfiles=16",
                        "input.sion", "--verbose",    "out.sion"};
  Options opts(6, argv, {"ntasks", "nfiles", "verbose", "quiet"});
  EXPECT_FALSE(opts.stop());
  EXPECT_EQ(opts.get_u64("ntasks"), 64u * kKiB);
  EXPECT_EQ(opts.get_u64("nfiles"), 16u);
  EXPECT_TRUE(opts.get_bool("verbose"));
  EXPECT_FALSE(opts.get_bool("quiet"));
  EXPECT_TRUE(opts.get_bool("quiet", true));
  EXPECT_EQ(opts.positional(),
            (std::vector<std::string>{"input.sion", "out.sion"}));
  EXPECT_EQ(opts.get_string("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(opts.get_double("missing", 1.5), 1.5);
}

TEST(OptionsTest, DoubleDashEndsFlagParsing) {
  const char* argv[] = {"prog", "--verbose", "--", "--ntasks=8", "plain"};
  Options opts(5, argv, {"verbose"});
  EXPECT_EQ(opts.unknown_flag(), "");
  EXPECT_TRUE(opts.get_bool("verbose"));
  // After "--", flag-looking arguments are positional; no empty-named flag
  // is registered for the bare "--" itself.
  EXPECT_FALSE(opts.has(""));
  EXPECT_FALSE(opts.has("ntasks"));
  EXPECT_EQ(opts.positional(),
            (std::vector<std::string>{"--ntasks=8", "plain"}));
}

TEST(OptionsTest, EmptyValueAndRepeatedFlags) {
  const char* argv[] = {"prog", "--out=", "--n=1", "--n=2k"};
  Options opts(4, argv, {"out", "n"});
  EXPECT_TRUE(opts.has("out"));
  EXPECT_EQ(opts.get_string("out", "dflt"), "");
  // Last occurrence of a repeated flag wins.
  EXPECT_EQ(opts.get_u64("n"), 2u * kKiB);
}

TEST(OptionsTest, UnknownFlagStopsTheBinaryAndIsNamed) {
  const char* argv[] = {"bench_staging", "--scal=0.05", "--json", "--typo"};
  const Options opts(4, argv, {"scale", "json"});
  EXPECT_EQ(opts.unknown_flag(), "scal");  // the first one
  const std::optional<Options::Stop> stop = opts.stop();
  ASSERT_TRUE(stop.has_value());
  EXPECT_NE(stop->code, 0);
  EXPECT_NE(stop->text.find("--scal "), std::string::npos) << stop->text;
}

TEST(OptionsTest, HelpListsTheKnownFlagsAndExitsZero) {
  const char* argv[] = {"quickstart", "--help", "--ntasks=4"};
  const Options opts(3, argv, {"ntasks", "nfiles"});
  EXPECT_EQ(opts.unknown_flag(), "");
  const std::optional<Options::Stop> stop = opts.stop();
  ASSERT_TRUE(stop.has_value());
  EXPECT_EQ(stop->code, 0);
  EXPECT_NE(stop->text.find("--ntasks\n"), std::string::npos) << stop->text;
  EXPECT_NE(stop->text.find("--nfiles\n"), std::string::npos) << stop->text;
}

TEST(OptionsTest, KnownFlagsAndPositionalsRun) {
  const char* argv[] = {"siondump", "--chunks", "file.sion"};
  const Options opts(3, argv, {"chunks"});
  EXPECT_FALSE(opts.stop().has_value());
  EXPECT_TRUE(opts.get_bool("chunks"));
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(9);
  bool hit_lo = false;
  bool hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    hit_lo |= (v == 3);
    hit_hi |= (v == 5);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RngTest, FillBytesCoversTail) {
  Rng rng(11);
  std::vector<std::byte> buf(13, std::byte{0});
  rng.fill_bytes(buf);
  int nonzero = 0;
  for (auto b : buf) nonzero += (b != std::byte{0});
  EXPECT_GT(nonzero, 5);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(NarrowTest, CheckedNarrowRoundTrips) {
  EXPECT_EQ(checked_narrow<int>(std::uint64_t{65536}), 65536);
  EXPECT_EQ(checked_narrow<std::uint8_t>(255), 255);
  EXPECT_EQ(checked_narrow<std::int8_t>(-128), -128);
  EXPECT_EQ(checked_narrow<std::size_t>(std::int64_t{0}), 0U);
  EXPECT_EQ(checked_narrow<int>(std::numeric_limits<int>::max()),
            std::numeric_limits<int>::max());
}

TEST(NarrowTest, CheckedNarrowAbortsOnLoss) {
  // Out of range for To, and sign lost on signed -> unsigned.
  EXPECT_DEATH(
      { (void)checked_narrow<int>(std::uint64_t{1} << 40); },
      "narrowing lost value");
  EXPECT_DEATH({ (void)checked_narrow<std::uint32_t>(-1); },
               "narrowing lost value");
}

TEST(NarrowTest, CheckedTruncTruncatesTowardZero) {
  EXPECT_EQ(checked_trunc<int>(2.9), 2);
  EXPECT_EQ(checked_trunc<int>(-2.9), -2);
  EXPECT_EQ(checked_trunc<int>(0.0), 0);
  // The 16Mi-task sweep point times a fractional --scale must stay exact.
  EXPECT_EQ(checked_trunc<int>(16.0 * 1024 * 1024 * 0.25), 4 * 1024 * 1024);
  EXPECT_EQ(checked_trunc<std::uint64_t>(1.0e15), std::uint64_t{1000000000000000});
}

TEST(NarrowTest, CheckedTruncAbortsOnNonFiniteAndOverflow) {
  EXPECT_DEATH({ (void)checked_trunc<int>(std::nan("")); }, "non-finite");
  EXPECT_DEATH({ (void)checked_trunc<int>(1.0e18); }, "out of range");
  EXPECT_DEATH({ (void)checked_trunc<std::uint32_t>(-1.0); }, "out of range");
}

}  // namespace
}  // namespace sion
