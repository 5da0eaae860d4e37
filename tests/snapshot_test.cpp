// Tests for the snapshot codec: framing round-trips, fuzz-style corruption
// (every single-bit flip and every truncation must be detected, never crash),
// reordered-section and version-mismatch rejection, diff localization,
// RunMeta identity gating, atomic file IO — and the same corruption battery
// lifted to delta checkpoint chains (base + 2 deltas): every bit flip and
// truncation anywhere in the chain must be detected, and broken chains
// (missing, reordered, substituted, or foreign frames) must raise typed
// ChainErrors.
#include "snapshot/codec.h"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/multi_enclave.h"
#include "core/scheme.h"
#include "core/simulator.h"
#include "golden_recipe.h"
#include "sip/instrumenter.h"
#include "snapshot/chain.h"
#include "snapshot/snapshotter.h"
#include "trace/generators.h"

namespace sgxpl {
namespace {

using snapshot::Reader;
using snapshot::RunMeta;
using snapshot::Writer;

/// A two-section frame exercising every field type.
std::vector<std::uint8_t> sample_frame() {
  Writer w;
  w.begin_section("AAAA");
  w.u64("a.count", 42);
  w.f64("a.ratio", 0.375);
  w.boolean("a.flag", true);
  w.str("a.name", "leela");
  w.u64_vec("a.vec", {1, 2, 3, 0xFFFFFFFFFFFFFFFFull});
  w.end_section();
  w.begin_section("BBBB");
  w.u64("b.n", 7);
  w.end_section();
  return w.finish();
}

/// Fully decode a frame, cross-checking the section table against the
/// declared count (catches a shrunk count field, which strict sequential
/// reading alone would interpret as ignorable trailing bytes).
void decode_all(const std::vector<std::uint8_t>& bytes) {
  const auto spans = snapshot::section_spans(bytes);
  Reader r(bytes);
  SGXPL_CHECK_MSG(spans.size() == r.section_count(),
                  "section table does not match the declared count");
  while (r.sections_entered() < r.section_count()) {
    r.enter_any_section();
    while (r.more_fields()) {
      r.next_field();
    }
    r.leave_section();
  }
}

TEST(SnapshotCodec, Crc32cMatchesTheCastagnoliCheckVector) {
  const char* s = "123456789";
  EXPECT_EQ(snapshot::crc32c(reinterpret_cast<const std::uint8_t*>(s), 9),
            0xE3069283u);
  EXPECT_EQ(snapshot::crc32c(nullptr, 0), 0u);
}

TEST(SnapshotCodec, Crc32cSlicingMatchesABytewiseReference) {
  // Bit-at-a-time CRC32C: no tables, so it shares nothing with the codec's
  // slicing-by-8 path but the polynomial.
  const auto reference = [](const std::uint8_t* p, std::size_t n) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
      crc ^= p[i];
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
    }
    return crc ^ 0xFFFFFFFFu;
  };
  Rng rng(0xC5C32C);
  std::vector<std::uint8_t> buf(1024 + 8);
  for (auto& b : buf) {
    b = static_cast<std::uint8_t>(rng.next());
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(snapshot::crc32c_portable(buf.data() + offset, len),
                reference(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

// crc32c() runs on the SSE4.2 instruction wherever the CPU has it; the
// slicing-by-8 path is its oracle. Every length 0..4096 at every alignment
// covers the 8-byte loop, the byte tail and unaligned loads.
TEST(SnapshotCodec, Crc32cDispatchMatchesSlicingOnRandomBuffers) {
  Rng rng(0x55E42);
  std::vector<std::uint8_t> buf(4096 + 8);
  for (auto& b : buf) {
    b = static_cast<std::uint8_t>(rng.next());
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      ASSERT_EQ(snapshot::crc32c(buf.data() + offset, len),
                snapshot::crc32c_portable(buf.data() + offset, len))
          << "offset " << offset << " length " << len
          << (snapshot::crc32c_uses_sse42() ? " (sse4.2)" : " (portable)");
    }
  }
}

TEST(SnapshotCodec, Crc32cDispatchMatchesSlicingOnTheGoldenCorpus) {
  std::size_t frames = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(SGXPL_GOLDEN_DIR) + "/v2")) {
    const std::string name = entry.path().filename().string();
    const std::vector<std::uint8_t> bytes =
        snapshot::read_file(entry.path().string());
    ASSERT_GT(bytes.size(), 8u) << name;
    for (std::size_t offset = 0; offset < 8; ++offset) {
      EXPECT_EQ(snapshot::crc32c(bytes.data() + offset, bytes.size() - offset),
                snapshot::crc32c_portable(bytes.data() + offset,
                                          bytes.size() - offset))
          << name << " from byte " << offset;
    }
    for (const snapshot::SectionSpan& span : snapshot::section_spans(bytes)) {
      EXPECT_EQ(snapshot::crc32c(bytes.data() + span.offset, span.size),
                snapshot::crc32c_portable(bytes.data() + span.offset,
                                          span.size))
          << name << " section " << span.tag;
    }
    ++frames;
  }
  EXPECT_GE(frames, 8u);
}

TEST(SnapshotCodec, RoundTripsEveryFieldType) {
  const auto frame = sample_frame();
  Reader r(frame);
  EXPECT_EQ(r.version(), snapshot::kFormatVersion);
  EXPECT_EQ(r.section_count(), 2u);
  r.enter_section("AAAA");
  EXPECT_EQ(r.u64("a.count"), 42u);
  EXPECT_DOUBLE_EQ(r.f64("a.ratio"), 0.375);
  EXPECT_TRUE(r.boolean("a.flag"));
  EXPECT_EQ(r.str("a.name"), "leela");
  EXPECT_EQ(r.u64_vec("a.vec"),
            (std::vector<std::uint64_t>{1, 2, 3, 0xFFFFFFFFFFFFFFFFull}));
  EXPECT_FALSE(r.more_fields());
  r.leave_section();
  r.enter_section("BBBB");
  EXPECT_EQ(r.u64("b.n"), 7u);
  r.leave_section();
  EXPECT_EQ(r.sections_entered(), r.section_count());
}

TEST(SnapshotCodec, F64RestoresExactBitPatterns) {
  Writer w;
  w.begin_section("FLTS");
  w.f64("nan", std::numeric_limits<double>::quiet_NaN());
  w.f64("neg_zero", -0.0);
  w.f64("inf", std::numeric_limits<double>::infinity());
  w.f64("denorm", std::numeric_limits<double>::denorm_min());
  w.end_section();
  const auto frame = w.finish();
  Reader r(frame);
  r.enter_section("FLTS");
  EXPECT_TRUE(std::isnan(r.f64("nan")));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64("neg_zero")),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(r.f64("inf"), std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.f64("denorm"), std::numeric_limits<double>::denorm_min());
  r.leave_section();
}

TEST(SnapshotCodec, ZeroSectionFrameIsValid) {
  Writer w;
  const auto frame = w.finish();
  Reader r(frame);
  EXPECT_EQ(r.section_count(), 0u);
  EXPECT_TRUE(snapshot::section_spans(frame).empty());
  EXPECT_TRUE(snapshot::diff(frame, frame).identical);
}

TEST(SnapshotCodec, SectionSpansTableMatchesTheFrame) {
  const auto frame = sample_frame();
  const auto spans = snapshot::section_spans(frame);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].tag, "AAAA");
  EXPECT_EQ(spans[1].tag, "BBBB");
  EXPECT_EQ(spans[0].offset, snapshot::kMagic.size() + 8);
  EXPECT_EQ(spans[0].offset + spans[0].size, spans[1].offset);
  EXPECT_EQ(spans[1].offset + spans[1].size, frame.size());
}

TEST(SnapshotCodec, WriterEnforcesFraming) {
  Writer w;
  EXPECT_THROW(w.begin_section("TOOLONG"), CheckFailure);  // tag must be 4
  EXPECT_THROW(w.u64("loose", 1), CheckFailure);  // field outside a section
  w.begin_section("GOOD");
  EXPECT_THROW(w.begin_section("NEST"), CheckFailure);  // no nesting
  EXPECT_THROW(w.finish(), CheckFailure);  // section still open
  w.end_section();
  w.finish();
}

// --- structural drift between writer and reader ----------------------------

TEST(SnapshotCodec, MismatchedLabelNamesBothFields) {
  const auto frame = sample_frame();
  Reader r(frame);
  r.enter_section("AAAA");
  try {
    r.u64("a.wrong");
    FAIL() << "mismatched label accepted";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'a.wrong'"), std::string::npos) << what;
    EXPECT_NE(what.find("'a.count'"), std::string::npos) << what;
    EXPECT_NE(what.find("'AAAA'"), std::string::npos) << what;
  }
}

TEST(SnapshotCodec, MismatchedTypeIsDiagnosed) {
  const auto frame = sample_frame();
  Reader r(frame);
  r.enter_section("AAAA");
  try {
    r.f64("a.count");  // written as u64
    FAIL() << "mismatched type accepted";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("has type u64"), std::string::npos) << what;
    EXPECT_NE(what.find("expected f64"), std::string::npos) << what;
  }
}

TEST(SnapshotCodec, LeaveSectionRejectsUnreadState) {
  const auto frame = sample_frame();
  Reader r(frame);
  r.enter_section("AAAA");
  r.u64("a.count");
  try {
    r.leave_section();
    FAIL() << "unread payload bytes ignored";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("unread"), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotCodec, MissingTrailingFieldIsDiagnosed) {
  Writer w;
  w.begin_section("ONEF");
  w.u64("only", 1);
  w.end_section();
  const auto frame = w.finish();
  Reader r(frame);
  r.enter_section("ONEF");
  r.u64("only");
  try {
    r.u64("more");
    FAIL() << "read past the last field";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("no more fields"), std::string::npos)
        << e.what();
  }
}

// --- corruption fuzzing -----------------------------------------------------

TEST(SnapshotCorruption, EverySingleBitFlipIsDetected) {
  const auto pristine = sample_frame();
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = pristine;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      bool detected = false;
      try {
        decode_all(mutated);
        // Structurally valid (e.g. a flipped section tag, which no payload
        // CRC covers): the flip must still show up as a content difference.
        detected = !snapshot::diff(pristine, mutated).identical;
      } catch (const CheckFailure&) {
        detected = true;
      }
      EXPECT_TRUE(detected) << "byte " << byte << " bit " << bit
                            << " flipped without detection";
    }
  }
}

TEST(SnapshotCorruption, EveryTruncationIsDetected) {
  const auto pristine = sample_frame();
  for (std::size_t n = 0; n < pristine.size(); ++n) {
    const std::vector<std::uint8_t> cut(pristine.begin(),
                                        pristine.begin() +
                                            static_cast<std::ptrdiff_t>(n));
    EXPECT_THROW(decode_all(cut), CheckFailure) << "length " << n;
  }
}

TEST(SnapshotCorruption, WrappingU64VecCountIsATypedError) {
  // A one-element vector whose count is rewritten to 2^61 + 1, with the
  // section CRC recomputed: count * 8 wraps to 8, exactly the bytes present.
  Writer w;
  w.begin_section("VVVV");
  w.u64_vec("v", {7});
  w.end_section();
  auto bytes = w.finish();
  constexpr std::size_t kSectionAt = 16;  // magic + version + count
  constexpr std::size_t kPayloadAt = kSectionAt + 4 + 8 + 4;
  constexpr std::size_t kCountAt = kPayloadAt + 1 + 2 + 1;  // type, len, "v"
  const std::uint64_t count = (1ull << 61) + 1;
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[kCountAt + i] = static_cast<std::uint8_t>(count >> (8 * i));
  }
  const std::uint32_t crc =
      snapshot::crc32c(bytes.data() + kPayloadAt, bytes.size() - kPayloadAt);
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[kSectionAt + 12 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  ASSERT_TRUE(snapshot::probe_frame(bytes).ok)
      << "the crafted frame must be CRC-valid";
  Reader r(bytes);
  r.enter_section("VVVV");
  try {
    r.u64_vec("v");
    FAIL() << "a wrapping element count was accepted";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("declares 2305843009213693953 "
                                         "elements but only 8 bytes remain"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(decode_all(bytes), CheckFailure);
}

TEST(SnapshotCorruption, ReorderedSectionsAreRejectedByStrictReads) {
  const auto frame = sample_frame();
  const auto spans = snapshot::section_spans(frame);
  ASSERT_EQ(spans.size(), 2u);
  const auto begin = frame.begin();
  std::vector<std::uint8_t> reordered(
      begin, begin + static_cast<std::ptrdiff_t>(spans[0].offset));
  for (const std::size_t i : {std::size_t{1}, std::size_t{0}}) {
    const auto at = begin + static_cast<std::ptrdiff_t>(spans[i].offset);
    reordered.insert(reordered.end(), at,
                     at + static_cast<std::ptrdiff_t>(spans[i].size));
  }
  ASSERT_EQ(reordered.size(), frame.size());
  Reader r(reordered);
  try {
    r.enter_section("AAAA");
    FAIL() << "reordered section accepted";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("out of order"), std::string::npos)
        << e.what();
  }
  const auto d = snapshot::diff(frame, reordered);
  ASSERT_FALSE(d.identical);
  EXPECT_NE(d.first_divergence.find("section order"), std::string::npos)
      << d.first_divergence;
}

/// `entry` must throw a CheckFailure whose message contains `want`.
void expect_refused(const char* entry, const std::function<void()>& load,
                    const std::string& want) {
  try {
    load();
    ADD_FAILURE() << entry << " accepted the frame";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << entry << ": " << e.what();
  }
}

TEST(SnapshotCorruption, UnknownVersionIsRejectedWithGuidance) {
  auto frame = sample_frame();
  frame[snapshot::kMagic.size()] = 9;  // version u32 LSB (the writer emits 2)
  try {
    Reader r(frame);
    FAIL() << "version 9 accepted";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported format version 9"), std::string::npos)
        << what;
    EXPECT_NE(what.find("re-create"), std::string::npos) << what;
  }

  // Version 1 is the retired format: a v2 golden patched to claim it must
  // be refused, typed, at every entry point that reads run frames.
  const std::string dir = std::string(SGXPL_GOLDEN_DIR) + "/v2/";
  auto single = snapshot::read_file(dir + "single-dfpstop.snap");
  auto multi = snapshot::read_file(dir + "multi.snap");
  ASSERT_EQ(single[snapshot::kMagic.size()], snapshot::kFormatVersion);
  single[snapshot::kMagic.size()] = 1;
  multi[snapshot::kMagic.size()] = 1;
  const std::string want = "unsupported format version 1";

  const trace::Trace t = golden::single_trace();
  const sip::InstrumentationPlan plan = golden::single_plan();
  core::SimulationRun run(golden::single_config("dfpstop"), t, &plan);
  expect_refused("SimulationRun::load_bytes",
                 [&] { run.load_bytes(single); }, want);

  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);
  core::MultiEnclaveRun multi_run(golden::multi_config(),
                                  golden::multi_apps(a, b));
  expect_refused("MultiEnclaveRun::load_bytes",
                 [&] { multi_run.load_bytes(multi); }, want);

  const std::string single_path = testing::TempDir() + "sgxpl-v1-single.snap";
  snapshot::write_file_atomic(single_path, single);
  expect_refused(
      "restore_chain_from_files",
      [&] { (void)snapshot::restore_chain_from_files(run, single_path); },
      want);

  expect_refused("extract_enclave",
                 [&] { (void)snapshot::extract_enclave(multi, 0); }, want);

  const std::string multi_path = testing::TempDir() + "sgxpl-v1-multi.snap";
  snapshot::write_file_atomic(multi_path, multi);
  const std::string cmd =
      std::string(SGXPL_TOOL_BIN) + " info " + multi_path + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr) << cmd;
  std::string out;
  char buf[512];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  const int status = pclose(pipe);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1) << out;
  EXPECT_EQ(out.rfind("error: ", 0), 0u) << out;
  EXPECT_NE(out.find(want), std::string::npos) << out;
  std::remove(single_path.c_str());
  std::remove(multi_path.c_str());
}

TEST(SnapshotCorruption, NotASnapshotFileIsRejected) {
  const std::vector<std::uint8_t> junk{'n', 'o', 't', ' ', 'a', ' ', 's', 'n',
                                       'a', 'p', 's', 'h', 'o', 't', '!', '!'};
  EXPECT_THROW(Reader r(junk), CheckFailure);
  EXPECT_THROW(Reader(nullptr, 0), CheckFailure);
}

// --- diff -------------------------------------------------------------------

TEST(SnapshotDiff, IdenticalFramesCompareClean) {
  const auto frame = sample_frame();
  const auto d = snapshot::diff(frame, frame);
  EXPECT_TRUE(d.identical);
  EXPECT_TRUE(d.first_divergence.empty());
}

TEST(SnapshotDiff, LocalizesTheFirstDivergingField) {
  Writer wa;
  Writer wb;
  for (Writer* w : {&wa, &wb}) {
    w->begin_section("SAME");
    w->u64("x", 1);
    w->end_section();
  }
  wa.begin_section("DATA");
  wa.u64("count", 42);
  wa.end_section();
  wb.begin_section("DATA");
  wb.u64("count", 43);
  wb.end_section();
  const auto d = snapshot::diff(wa.finish(), wb.finish());
  ASSERT_FALSE(d.identical);
  EXPECT_NE(d.first_divergence.find("'DATA'"), std::string::npos)
      << d.first_divergence;
  EXPECT_NE(d.first_divergence.find("'count'"), std::string::npos);
  EXPECT_NE(d.first_divergence.find("42 != 43"), std::string::npos);
}

TEST(SnapshotDiff, LocalizesTheDivergingVectorElement) {
  Writer wa;
  Writer wb;
  wa.begin_section("DATA");
  wa.u64_vec("v", {5, 6, 7});
  wa.end_section();
  wb.begin_section("DATA");
  wb.u64_vec("v", {5, 9, 7});
  wb.end_section();
  const auto d = snapshot::diff(wa.finish(), wb.finish());
  ASSERT_FALSE(d.identical);
  EXPECT_NE(d.first_divergence.find("element [1]"), std::string::npos)
      << d.first_divergence;
  EXPECT_NE(d.first_divergence.find("6 != 9"), std::string::npos);
}

TEST(SnapshotDiff, ComparesF64ByBitPattern) {
  // +0.0 == -0.0 numerically, but the guarantee is bit-identical resume.
  Writer wa;
  Writer wb;
  wa.begin_section("DATA");
  wa.f64("z", 0.0);
  wa.end_section();
  wb.begin_section("DATA");
  wb.f64("z", -0.0);
  wb.end_section();
  const auto d = snapshot::diff(wa.finish(), wb.finish());
  ASSERT_FALSE(d.identical);
  EXPECT_NE(d.first_divergence.find("'z'"), std::string::npos)
      << d.first_divergence;
}

TEST(SnapshotDiff, ReportsDifferingSectionCounts) {
  Writer wa;
  wa.begin_section("DATA");
  wa.u64("x", 1);
  wa.end_section();
  Writer wb;
  const auto d = snapshot::diff(wa.finish(), wb.finish());
  ASSERT_FALSE(d.identical);
  EXPECT_NE(d.first_divergence.find("section counts differ"),
            std::string::npos)
      << d.first_divergence;
}

// --- RunMeta ----------------------------------------------------------------

TEST(SnapshotMeta, RoundTripsAndGatesOnIdentityNotCursor) {
  RunMeta m;
  m.kind = "enclave-sim";
  m.scheme = "DFP+stop";
  m.trace_name = "mcf";
  m.trace_accesses = 1000;
  m.elrange_pages = 4096;
  m.epc_pages = 96;
  m.chaos_spec = "jitter:1:0.3";
  m.chaos_seed = 9;
  m.cursor = 123;
  Writer w;
  snapshot::write_meta(w, m);
  const std::vector<std::uint8_t> bytes = w.finish();
  Reader r(bytes);
  const RunMeta got = snapshot::read_meta(r);
  EXPECT_EQ(got.kind, m.kind);
  EXPECT_EQ(got.scheme, m.scheme);
  EXPECT_EQ(got.trace_name, m.trace_name);
  EXPECT_EQ(got.trace_accesses, m.trace_accesses);
  EXPECT_EQ(got.elrange_pages, m.elrange_pages);
  EXPECT_EQ(got.epc_pages, m.epc_pages);
  EXPECT_EQ(got.chaos_spec, m.chaos_spec);
  EXPECT_EQ(got.chaos_seed, m.chaos_seed);
  EXPECT_EQ(got.cursor, m.cursor);

  RunMeta later = m;
  later.cursor = 999;  // progress, not identity
  EXPECT_EQ(m.incompatibility(later), "");
  RunMeta other = m;
  other.scheme = "baseline";
  const std::string why = m.incompatibility(other);
  EXPECT_NE(why.find("scheme"), std::string::npos) << why;
  EXPECT_NE(why.find("'DFP+stop'"), std::string::npos) << why;
  EXPECT_NE(why.find("'baseline'"), std::string::npos) << why;
  RunMeta squeezed = m;
  squeezed.epc_pages = 48;
  EXPECT_NE(m.incompatibility(squeezed).find("EPC pages"), std::string::npos);
}

// --- delta-chain corruption -------------------------------------------------

core::SimConfig fuzz_cfg() {
  core::SimConfig cfg;
  cfg.scheme = core::Scheme::kDfpStop;
  cfg.enclave.epc_pages = 16;
  cfg.dfp.predictor.stream_list_len = 4;
  cfg.dfp.predictor.load_length = 2;
  cfg.validate = true;
  return cfg;
}

trace::Trace fuzz_trace() {
  trace::Trace t("chain-fuzz", 64);
  Rng rng(5);
  const trace::GapModel gap{.mean = 1'000, .jitter_pct = 0};
  trace::seq_scan(t, rng, trace::Region{0, 48}, 1, gap);
  trace::random_access(t, rng, trace::Region{48, 16}, 72, 10, 2, gap);
  return t;
}

sip::InstrumentationPlan fuzz_plan() {
  sip::InstrumentationPlan plan;
  for (SiteId s = 10; s < 12; ++s) {
    plan.add_site(s);
  }
  return plan;
}

struct FuzzChain {
  /// Base + deltas, one frame per cut.
  std::vector<std::vector<std::uint8_t>> frames;
  /// Full snapshot of the victim at the last cut — what a correct chain
  /// restore must reproduce byte for byte.
  std::vector<std::uint8_t> reference;
};

/// Checkpoint a small DFP-stop run at each cut through one Snapshotter
/// (full_every large enough that only the first frame is a base).
FuzzChain make_fuzz_chain(const std::vector<std::uint64_t>& cuts) {
  const trace::Trace t = fuzz_trace();
  const sip::InstrumentationPlan plan = fuzz_plan();
  core::SimulationRun run(fuzz_cfg(), t, &plan);
  snapshot::Snapshotter<core::SimulationRun> snap(/*full_every=*/8);
  FuzzChain out;
  for (const std::uint64_t cut : cuts) {
    while (!run.done() && run.cursor() < cut) {
      run.step();
    }
    out.frames.push_back(snap.checkpoint(run).bytes);
  }
  out.reference = run.save_bytes();
  return out;
}

TEST(ChainCorruption, EverySingleBitFlipAnywhereInTheChainIsDetected) {
  const FuzzChain chain = make_fuzz_chain({40, 60, 80});
  ASSERT_EQ(chain.frames.size(), 3u);
  const trace::Trace t = fuzz_trace();
  const sip::InstrumentationPlan plan = fuzz_plan();
  for (std::size_t fi = 0; fi < chain.frames.size(); ++fi) {
    for (std::size_t byte = 0; byte < chain.frames[fi].size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto mutated = chain.frames;
        mutated[fi][byte] ^= static_cast<std::uint8_t>(1u << bit);
        bool detected = false;
        try {
          core::SimulationRun run(fuzz_cfg(), t, &plan);
          snapshot::restore_chain(run, mutated);
          // Restore went through structurally — the flip must still show
          // up as a state difference versus the pristine chain's endpoint.
          detected = run.save_bytes() != chain.reference;
        } catch (const CheckFailure&) {
          detected = true;  // CRC, framing, or chain-linkage rejection
        }
        ASSERT_TRUE(detected) << "frame " << fi << " byte " << byte << " bit "
                              << bit << " flipped without detection";
      }
    }
  }
}

TEST(ChainCorruption, EveryTruncationAnywhereInTheChainIsDetected) {
  const FuzzChain chain = make_fuzz_chain({40, 60, 80});
  const trace::Trace t = fuzz_trace();
  const sip::InstrumentationPlan plan = fuzz_plan();
  for (std::size_t fi = 0; fi < chain.frames.size(); ++fi) {
    for (std::size_t n = 0; n < chain.frames[fi].size(); ++n) {
      auto mutated = chain.frames;
      mutated[fi].resize(n);
      core::SimulationRun run(fuzz_cfg(), t, &plan);
      ASSERT_THROW(snapshot::restore_chain(run, mutated), CheckFailure)
          << "frame " << fi << " truncated to " << n << " bytes accepted";
    }
  }
}

TEST(ChainCorruption, MissingDeltaRaisesTypedChainError) {
  const FuzzChain chain = make_fuzz_chain({40, 60, 80});
  const trace::Trace t = fuzz_trace();
  const sip::InstrumentationPlan plan = fuzz_plan();
  core::SimulationRun run(fuzz_cfg(), t, &plan);
  const std::vector<std::vector<std::uint8_t>> gap = {chain.frames[0],
                                                      chain.frames[2]};
  try {
    snapshot::restore_chain(run, gap);
    FAIL() << "chain with a missing delta accepted";
  } catch (const snapshot::ChainError& e) {
    EXPECT_NE(std::string(e.what()).find("missing a frame or reordered"),
              std::string::npos)
        << e.what();
  }
}

TEST(ChainCorruption, ReorderedDeltasRaiseTypedChainError) {
  const FuzzChain chain = make_fuzz_chain({40, 60, 80});
  const trace::Trace t = fuzz_trace();
  const sip::InstrumentationPlan plan = fuzz_plan();
  core::SimulationRun run(fuzz_cfg(), t, &plan);
  const std::vector<std::vector<std::uint8_t>> swapped = {
      chain.frames[0], chain.frames[2], chain.frames[1]};
  EXPECT_THROW(snapshot::restore_chain(run, swapped), snapshot::ChainError);
}

TEST(ChainCorruption, SubstitutedDeltaFailsThePrevCrcLink) {
  // Two chains sharing the same base (both victims checkpointed at cut 40,
  // deterministically identical), then diverging: substituting chain B's
  // second delta into chain A passes the seq and chain-id checks but must
  // fail the prev-CRC link.
  const FuzzChain a = make_fuzz_chain({40, 60, 80});
  const FuzzChain b = make_fuzz_chain({40, 64, 84});
  ASSERT_EQ(a.frames[0], b.frames[0]) << "bases diverged; test premise broken";
  ASSERT_NE(a.frames[1], b.frames[1]);
  const trace::Trace t = fuzz_trace();
  const sip::InstrumentationPlan plan = fuzz_plan();
  core::SimulationRun run(fuzz_cfg(), t, &plan);
  const std::vector<std::vector<std::uint8_t>> franken = {
      a.frames[0], a.frames[1], b.frames[2]};
  try {
    snapshot::restore_chain(run, franken);
    FAIL() << "substituted delta accepted";
  } catch (const snapshot::ChainError& e) {
    EXPECT_NE(std::string(e.what()).find("substituted or reordered"),
              std::string::npos)
        << e.what();
  }
}

TEST(ChainCorruption, ChainWithoutItsBaseIsRejected) {
  const FuzzChain chain = make_fuzz_chain({40, 60, 80});
  const trace::Trace t = fuzz_trace();
  const sip::InstrumentationPlan plan = fuzz_plan();
  core::SimulationRun run(fuzz_cfg(), t, &plan);
  const std::vector<std::vector<std::uint8_t>> headless = {chain.frames[1],
                                                           chain.frames[2]};
  try {
    snapshot::restore_chain(run, headless);
    FAIL() << "chain starting with a delta accepted";
  } catch (const snapshot::ChainError& e) {
    EXPECT_NE(std::string(e.what()).find("full base frame"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(
      snapshot::restore_chain(run, std::vector<std::vector<std::uint8_t>>{}),
      snapshot::ChainError);
}

TEST(ChainCorruption, ForeignDeltaIsRejectedByChainId) {
  // A delta from a chain rooted at a different cut carries a different
  // content-derived chain id; mixing it in must be diagnosed as such.
  const FuzzChain a = make_fuzz_chain({40, 60});
  const FuzzChain c = make_fuzz_chain({44, 62});
  const trace::Trace t = fuzz_trace();
  const sip::InstrumentationPlan plan = fuzz_plan();
  core::SimulationRun run(fuzz_cfg(), t, &plan);
  const std::vector<std::vector<std::uint8_t>> mixed = {a.frames[0],
                                                        c.frames[1]};
  try {
    snapshot::restore_chain(run, mixed);
    FAIL() << "delta from a foreign chain accepted";
  } catch (const snapshot::ChainError& e) {
    EXPECT_NE(std::string(e.what()).find("different checkpoint chain"),
              std::string::npos)
        << e.what();
  }
}

TEST(ChainCorruption, DeltaFrameCannotBeRestoredOnItsOwn) {
  const FuzzChain chain = make_fuzz_chain({40, 60});
  const trace::Trace t = fuzz_trace();
  const sip::InstrumentationPlan plan = fuzz_plan();
  core::SimulationRun run(fuzz_cfg(), t, &plan);
  try {
    run.load_bytes(chain.frames[1]);
    FAIL() << "bare delta frame accepted as a full snapshot";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("restore the chain from its base"),
              std::string::npos)
        << e.what();
  }
}

// --- backing-store frame checks ---------------------------------------------

/// `bytes` decoded field by field, `edit` applied to the fields of section
/// `tag`, and re-encoded with every section CRC recomputed.
std::vector<std::uint8_t> edit_section(
    const std::vector<std::uint8_t>& bytes, const std::string& tag,
    const std::function<void(std::vector<snapshot::FieldView>&)>& edit) {
  Reader r(bytes);
  Writer w;
  bool found = false;
  while (r.sections_entered() < r.section_count()) {
    const std::string t = r.enter_any_section();
    std::vector<snapshot::FieldView> fields;
    while (r.more_fields()) fields.push_back(r.next_field());
    r.leave_section();
    if (t == tag) {
      edit(fields);
      found = true;
    }
    w.begin_section(t);
    for (const auto& f : fields) w.field(f);
    w.end_section();
  }
  SGXPL_CHECK_MSG(found, "frame has no " << tag << " section");
  auto out = w.finish();
  SGXPL_CHECK_MSG(snapshot::probe_frame(out).ok,
                  "the crafted frame must be CRC-valid");
  return out;
}

snapshot::FieldView& field_of(std::vector<snapshot::FieldView>& fields,
                              const std::string& label) {
  for (auto& f : fields) {
    if (f.label == label) return f;
  }
  throw CheckFailure("no field " + label);
}

/// Expect `fn` to throw a CheckFailure whose message contains `needle`.
void expect_refusal(const std::function<void()>& fn,
                    const std::string& needle) {
  try {
    fn();
    ADD_FAILURE() << "accepted a frame that should be refused (" << needle
                  << ")";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(BackingStoreFrames, FullFrameRefusesBadPagesAndVersions) {
  const FuzzChain chain = make_fuzz_chain({60});
  const trace::Trace t = fuzz_trace();  // ELRANGE = 64 pages
  const sip::InstrumentationPlan plan = fuzz_plan();
  const auto load = [&](const std::vector<std::uint8_t>& bytes) {
    return [&t, &plan, bytes] {
      core::SimulationRun run(fuzz_cfg(), t, &plan);
      run.load_bytes(bytes);
    };
  };
  // The unedited frame carries evicted pages and loads.
  const auto& base = chain.frames[0];
  edit_section(base, "BSTR", [](std::vector<snapshot::FieldView>& f) {
    ASSERT_FALSE(field_of(f, "backing.pages").vecv.empty());
  });
  EXPECT_NO_THROW(load(base)());

  expect_refusal(load(edit_section(base, "BSTR",
                                   [](std::vector<snapshot::FieldView>& f) {
                                     field_of(f, "backing.pages").vecv
                                         .push_back(64);
                                     field_of(f, "backing.versions").vecv
                                         .push_back(1);
                                   })),
                 "holds page 64 outside the 64-page ELRANGE");
  expect_refusal(load(edit_section(base, "BSTR",
                                   [](std::vector<snapshot::FieldView>& f) {
                                     field_of(f, "backing.versions").vecv[0] =
                                         0;
                                   })),
                 "holds version 0 for page");
  expect_refusal(load(edit_section(base, "BSTR",
                                   [](std::vector<snapshot::FieldView>& f) {
                                     field_of(f, "backing.versions").vecv[0] =
                                         1ull << 32;
                                   })),
                 "above the 32-bit version range");
}

TEST(RunFrames, ProgressFlagsMustAgreeWithTheCursor) {
  // A solo frame's run.started is written as cursor > 0 and a co-run
  // tenant that consumed its trace is marked done; a frame that says
  // otherwise is refused, not replayed from a cursor it cannot resume.
  const trace::Trace t = fuzz_trace();
  const sip::InstrumentationPlan plan = fuzz_plan();
  const auto solo_at = [&](std::uint64_t cut) {
    core::SimulationRun run(fuzz_cfg(), t, &plan);
    while (run.cursor() < cut) run.step();
    return run.save_bytes();
  };
  const auto solo_load = [&](const std::vector<std::uint8_t>& bytes) {
    return [&t, &plan, bytes] {
      core::SimulationRun run(fuzz_cfg(), t, &plan);
      run.load_bytes(bytes);
    };
  };
  const auto set_started = [](bool v) {
    return [v](std::vector<snapshot::FieldView>& f) {
      field_of(f, "run.started").boolv = v;
    };
  };
  EXPECT_NO_THROW(solo_load(solo_at(0))());
  EXPECT_NO_THROW(solo_load(solo_at(7))());
  expect_refusal(solo_load(edit_section(solo_at(0), "RUNS", set_started(true))),
                 "has started but its cursor is 0");
  expect_refusal(
      solo_load(edit_section(solo_at(7), "RUNS", set_started(false))),
      "has not started but its cursor is 7");

  const std::vector<core::EnclaveApp> apps = {
      {.trace = &t, .scheme = core::Scheme::kBaseline}};
  core::MultiEnclaveRun co(fuzz_cfg(), apps);
  while (!co.done()) co.step();
  const auto unfinished =
      edit_section(co.save_bytes(), "APPS",
                   [](std::vector<snapshot::FieldView>& f) {
                     field_of(f, "app.done").boolv = false;
                   });
  expect_refusal(
      [&] {
        core::MultiEnclaveRun fresh(fuzz_cfg(), apps);
        fresh.load_bytes(unfinished);
      },
      "consumed its trace but is not marked done");
}

TEST(BackingStoreFrames, DeltaFrameRefusesBadPagesAndVersions) {
  const FuzzChain chain = make_fuzz_chain({40, 60});
  const trace::Trace t = fuzz_trace();
  const sip::InstrumentationPlan plan = fuzz_plan();
  const auto apply = [&](const std::vector<std::uint8_t>& delta) {
    return [&t, &plan, &chain, delta] {
      core::SimulationRun run(fuzz_cfg(), t, &plan);
      run.load_bytes(chain.frames[0]);
      run.apply_delta_bytes(delta);
    };
  };
  const auto& delta = chain.frames[1];
  edit_section(delta, "BSTD", [](std::vector<snapshot::FieldView>& f) {
    ASSERT_FALSE(field_of(f, "backing.delta_pages").vecv.empty());
  });
  EXPECT_NO_THROW(apply(delta)());

  expect_refusal(apply(edit_section(
                     delta, "BSTD",
                     [](std::vector<snapshot::FieldView>& f) {
                       field_of(f, "backing.delta_pages").vecv.push_back(1000);
                       field_of(f, "backing.delta_versions").vecv.push_back(1);
                     })),
                 "holds page 1000 outside the 64-page ELRANGE");
  expect_refusal(apply(edit_section(
                     delta, "BSTD",
                     [](std::vector<snapshot::FieldView>& f) {
                       field_of(f, "backing.delta_versions").vecv[0] = 0;
                     })),
                 "holds version 0 for page");
  expect_refusal(apply(edit_section(
                     delta, "BSTD",
                     [](std::vector<snapshot::FieldView>& f) {
                       field_of(f, "backing.delta_versions").vecv[0] =
                           (1ull << 32) + 5;
                     })),
                 "above the 32-bit version range");
}

TEST(BackingStoreFrames, EvictionThatWouldWrapAVersionIsRefused) {
  // Every ELRANGE page restored at the top of the 32-bit version range: the
  // run's next EWB must refuse to wrap it.
  const FuzzChain chain = make_fuzz_chain({60});
  const trace::Trace t = fuzz_trace();
  const sip::InstrumentationPlan plan = fuzz_plan();
  const auto maxed = edit_section(
      chain.frames[0], "BSTR", [](std::vector<snapshot::FieldView>& f) {
        auto& pages = field_of(f, "backing.pages").vecv;
        auto& versions = field_of(f, "backing.versions").vecv;
        pages.clear();
        versions.clear();
        for (std::uint64_t p = 0; p < 64; ++p) {
          pages.push_back(p);
          versions.push_back(std::numeric_limits<std::uint32_t>::max());
        }
      });
  core::SimulationRun run(fuzz_cfg(), t, &plan);
  run.load_bytes(maxed);
  expect_refusal([&run] { run.run_to_end(); },
                 "would overflow its 32-bit version");
}

// --- file IO ----------------------------------------------------------------

TEST(SnapshotFile, AtomicWriteAndReadBack) {
  const std::string path = testing::TempDir() + "sgxpl-codec-io.snap";
  std::remove(path.c_str());
  EXPECT_FALSE(snapshot::file_readable(path));
  EXPECT_THROW(snapshot::read_file(path), CheckFailure);
  const auto frame = sample_frame();
  snapshot::write_file_atomic(path, frame);
  EXPECT_TRUE(snapshot::file_readable(path));
  EXPECT_FALSE(snapshot::file_readable(path + ".tmp"));  // no temp droppings
  EXPECT_EQ(snapshot::read_file(path), frame);
  // Overwrite in place: readers only ever see a whole frame.
  Writer w;
  w.begin_section("NEWF");
  w.u64("n", 1);
  w.end_section();
  const auto frame2 = w.finish();
  snapshot::write_file_atomic(path, frame2);
  EXPECT_EQ(snapshot::read_file(path), frame2);
  std::remove(path.c_str());
}

TEST(SnapshotFile, SizeCappedSinkFailsTypedAndLeavesTargetIntact) {
  // The disk-full regression rig: a sink that can only absorb a few bytes
  // must surface a typed kIoError — never a CHECK crash, never a torn or
  // half-replaced target, never a leftover temp file.
  const std::string path = testing::TempDir() + "sgxpl-codec-capped.snap";
  std::remove(path.c_str());
  const auto frame = sample_frame();
  snapshot::write_file_atomic(path, frame);  // a good file is already there

  snapshot::set_io_write_cap_for_testing(8);
  std::string detail;
  EXPECT_EQ(snapshot::try_write_file_atomic(path, frame, &detail),
            snapshot::IoResult::kIoError);
  EXPECT_NE(detail.find("sink full"), std::string::npos) << detail;
  // The failed write is invisible: previous contents intact, no droppings.
  EXPECT_EQ(snapshot::read_file(path), frame);
  EXPECT_FALSE(snapshot::file_readable(path + ".tmp"));
  // The throwing wrapper reports the same typed failure.
  try {
    snapshot::write_file_atomic(path, frame);
    snapshot::set_io_write_cap_for_testing(0);
    FAIL() << "size-capped write did not fail";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("sink full"), std::string::npos)
        << e.what();
  }
  snapshot::set_io_write_cap_for_testing(0);

  // With the cap lifted the same write goes through atomically again.
  snapshot::write_file_atomic(path, frame);
  EXPECT_EQ(snapshot::read_file(path), frame);
  EXPECT_EQ(std::string(snapshot::to_string(snapshot::IoResult::kOk)), "ok");
  EXPECT_EQ(std::string(snapshot::to_string(snapshot::IoResult::kIoError)),
            "io-error");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sgxpl
