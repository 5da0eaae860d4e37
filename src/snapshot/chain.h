// Checkpoint chains (snapshot format v2).
//
// A chain is one full base frame plus zero or more delta frames stacked on
// it. The Snapshotter decides per checkpoint whether to emit a base or a
// delta (CheckpointOptions::full_every bounds the chain length), stamps the
// CHNH chain header, and tracks the per-structure generation counters that
// let a delta skip sections whose state did not move. restore_chain()
// replays a chain and enforces its linkage invariants:
//
//   - frame 0 must be a full base,
//   - every later frame must be a delta of the SAME chain id,
//   - delta seq numbers must run 1, 2, ... with no gap or reorder,
//   - each delta's prev_crc must equal the CRC32C of the complete previous
//     frame's bytes (so a substituted or regenerated frame is rejected even
//     if its own CRCs are internally consistent).
//
// Violations throw ChainError (a CheckFailure subtype the recovery tests
// can assert on). Everything here is a template over the run type so the
// core library can drive chains for both SimulationRun and MultiEnclaveRun
// without a layering inversion (this header depends only on the codec).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "snapshot/codec.h"
#include "snapshot/fwd.h"

namespace sgxpl::snapshot {

/// A broken checkpoint chain: missing, reordered, mixed, or substituted
/// frames. Distinct from plain CheckFailure so tests can tell "the chain is
/// wrong" apart from "a frame is corrupt".
class ChainError : public CheckFailure {
 public:
  explicit ChainError(const std::string& what) : CheckFailure(what) {}
};

/// File layout of an on-disk chain: the base at `base_path`, deltas beside
/// it at `base_path`.delta-1, .delta-2, ...
inline std::string delta_path(const std::string& base_path,
                              std::uint64_t seq) {
  return base_path + ".delta-" + std::to_string(seq);
}

/// Best-effort removal of delta files left behind by a previous chain after
/// a new base was written at `base_path` (a stale delta would otherwise be
/// picked up by the next resume scan; the chain-id check would reject it,
/// but cleaning up keeps the directory honest).
inline void remove_stale_deltas(const std::string& base_path) {
  for (std::uint64_t seq = 1;; ++seq) {
    if (std::remove(delta_path(base_path, seq).c_str()) != 0) break;
  }
}

/// One emitted checkpoint frame.
struct ChainFrame {
  std::vector<std::uint8_t> bytes;
  ChainHeader header;
};

/// Emits the checkpoint stream for one run: a full base every `full_every`
/// checkpoints, deltas in between. Owns the chain bookkeeping (chain id,
/// sequence numbers, previous-frame CRC, last-checkpoint generation
/// counters) and clears the run's dirty tracking after every frame.
///
/// Requires of `Run`: save(Writer&, const ChainHeader&),
/// save_delta(Writer&, const ChainHeader&, const SectionGens&),
/// section_gens(), clear_dirty(), meta().
template <class Run>
class Snapshotter {
 public:
  /// `full_every` = 1 means every checkpoint is a full snapshot; N > 1 stacks N-1 deltas on each base. 0 is treated as 1.
  explicit Snapshotter(std::uint64_t full_every = 1)
      : full_every_(full_every == 0 ? 1 : full_every) {}

  ChainFrame checkpoint(Run& run) {
    const bool full = emitted_ % full_every_ == 0;
    ChainFrame f;
    Writer w;
    if (full) {
      seq_ = 0;
      chain_id_ = derive_chain_id(run);
      f.header = ChainHeader{
          .kind = FrameKind::kFull, .chain_id = chain_id_, .seq = 0,
          .prev_crc = 0};
      run.save(w, f.header);
    } else {
      f.header = ChainHeader{
          .kind = FrameKind::kDelta, .chain_id = chain_id_, .seq = ++seq_,
          .prev_crc = prev_crc_};
      run.save_delta(w, f.header, last_gens_);
    }
    f.bytes = w.finish();
    prev_crc_ = crc32c(f.bytes.data(), f.bytes.size());
    last_gens_ = run.section_gens();
    run.clear_dirty();
    ++emitted_;
    if (full) {
      ++full_frames_;
      full_bytes_ += f.bytes.size();
    } else {
      ++delta_frames_;
      delta_bytes_ += f.bytes.size();
    }
    return f;
  }

  std::uint64_t frames() const noexcept { return emitted_; }
  std::uint64_t full_frames() const noexcept { return full_frames_; }
  std::uint64_t delta_frames() const noexcept { return delta_frames_; }
  std::uint64_t full_bytes() const noexcept { return full_bytes_; }
  std::uint64_t delta_bytes() const noexcept { return delta_bytes_; }
  std::uint64_t bytes_written() const noexcept {
    return full_bytes_ + delta_bytes_;
  }

 private:
  /// Content-derived chain identity: CRC of the serialized META frame mixed
  /// with the cut cursor. Deterministic (no clock, no randomness) so chain
  /// goldens are byte-stable, yet distinct across bases of the same run.
  std::uint64_t derive_chain_id(const Run& run) const {
    const RunMeta m = run.meta();
    Writer w;
    write_meta(w, m);
    const std::vector<std::uint8_t> bytes = w.finish();
    const std::uint64_t h = crc32c(bytes.data(), bytes.size());
    return (h << 32) ^ (m.cursor + 1);  // +1: never 0, the standalone id
  }

  std::uint64_t full_every_;
  std::uint64_t emitted_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t chain_id_ = 0;
  std::uint32_t prev_crc_ = 0;
  SectionGens last_gens_{};
  std::uint64_t full_frames_ = 0;
  std::uint64_t delta_frames_ = 0;
  std::uint64_t full_bytes_ = 0;
  std::uint64_t delta_bytes_ = 0;
};

/// The META gate of every restore that skips a foreign snapshot instead of
/// refusing it: true when the validated frame `bytes` was written by a run
/// whose identity matches `run.meta()` (cursor excluded).
template <class Run>
bool belongs_to(const Run& run, const std::vector<std::uint8_t>& bytes) {
  Reader probe(bytes);
  (void)read_chain_header(probe);
  return read_meta(probe).incompatibility(run.meta()).empty();
}

/// Restore `run` from a chain given as in-memory frames (base first).
/// Throws ChainError on linkage violations and CheckFailure on corrupt
/// frames. Requires of `Run`: load_bytes(), apply_delta_bytes().
template <class Run>
void restore_chain(Run& run,
                   const std::vector<std::vector<std::uint8_t>>& frames) {
  if (frames.empty()) {
    throw ChainError("checkpoint chain is empty — nothing to restore");
  }
  for (const auto& f : frames) validate_frame(f);
  const ChainHeader base = read_chain_header_bytes(frames[0]);
  if (base.kind != FrameKind::kFull) {
    throw ChainError(
        "checkpoint chain does not start with a full base frame (found "
        "delta " +
        std::to_string(base.seq) +
        ") — the base is missing or the frames are reordered");
  }
  run.load_bytes(frames[0]);
  std::uint32_t prev = crc32c(frames[0].data(), frames[0].size());
  std::uint64_t expect_seq = 1;
  for (std::size_t i = 1; i < frames.size(); ++i) {
    const ChainHeader h = read_chain_header_bytes(frames[i]);
    if (h.kind != FrameKind::kDelta) {
      throw ChainError("frame " + std::to_string(i) +
                       " of the checkpoint chain is a full base — chains "
                       "hold one base followed by deltas only");
    }
    if (h.chain_id != base.chain_id) {
      throw ChainError("delta " + std::to_string(h.seq) +
                       " belongs to a different checkpoint chain (id " +
                       std::to_string(h.chain_id) + ", base chain is " +
                       std::to_string(base.chain_id) +
                       ") — frames from separate chains were mixed");
    }
    if (h.seq != expect_seq) {
      throw ChainError("expected delta seq " + std::to_string(expect_seq) +
                       " but found " + std::to_string(h.seq) +
                       " — the checkpoint chain is missing a frame or "
                       "reordered");
    }
    if (h.prev_crc != prev) {
      throw ChainError("delta " + std::to_string(h.seq) +
                       " does not link to the preceding frame (prev-CRC "
                       "mismatch) — a frame was substituted or reordered");
    }
    run.apply_delta_bytes(frames[i]);
    prev = crc32c(frames[i].data(), frames[i].size());
    ++expect_seq;
  }
}

// ---------------------------------------------------------------------------
// Chain salvage: restore the longest valid prefix of a torn chain
// ---------------------------------------------------------------------------

/// Why a salvage walk stopped before the end of the offered chain.
enum class ChainFault : std::uint8_t {
  kNone,             // whole chain valid and restored
  kEmptyChain,       // no frames offered
  kNoBase,           // frame 0 is not a full base frame
  kCorruptFrame,     // truncation / bit flip / undecodable header
  kWrongKind,        // a full base appeared mid-chain
  kChainIdMismatch,  // frame belongs to a different chain
  kSeqGap,           // delta sequence skipped or reordered
  kPrevCrcMismatch,  // frame does not link to its predecessor
  kApplyFailed,      // structurally valid but semantically unloadable
};

inline const char* to_string(ChainFault f) noexcept {
  switch (f) {
    case ChainFault::kNone:
      return "none";
    case ChainFault::kEmptyChain:
      return "empty-chain";
    case ChainFault::kNoBase:
      return "no-base";
    case ChainFault::kCorruptFrame:
      return "corrupt-frame";
    case ChainFault::kWrongKind:
      return "wrong-kind";
    case ChainFault::kChainIdMismatch:
      return "chain-id-mismatch";
    case ChainFault::kSeqGap:
      return "seq-gap";
    case ChainFault::kPrevCrcMismatch:
      return "prev-crc-mismatch";
    case ChainFault::kApplyFailed:
      return "apply-failed";
  }
  return "?";
}

/// Typed result of a salvage walk: how much of the chain survives, and the
/// exact position and nature of the first fault. `first_bad_index` is the
/// 0-based frame position (== the delta seq for a well-formed chain) and
/// `byte_offset` the fault's offset within that frame (0 for pure linkage
/// faults, which have no single corrupt byte).
struct ChainSalvageReport {
  std::uint64_t frames_offered = 0;
  /// Longest structurally valid prefix (probe_chain) / frames actually
  /// restored into the run (restore_chain_salvage).
  std::uint64_t frames_restored = 0;
  ChainFault fault = ChainFault::kNone;
  std::uint64_t first_bad_index = 0;
  std::uint64_t first_bad_seq = 0;  // declared seq if decodable, else expected
  std::uint64_t byte_offset = 0;
  std::string detail;  // typed one-liner, empty when fault == kNone

  bool complete() const noexcept { return fault == ChainFault::kNone; }
  bool restored_any() const noexcept { return frames_restored > 0; }

  /// "salvage: 2/3 frame(s) valid; dropped at frame 2 (seq 2), byte 117:
  /// prev-crc-mismatch — ..." — the one-line report the tool prints.
  std::string describe() const {
    std::string s = "salvage: " + std::to_string(frames_restored) + "/" +
                    std::to_string(frames_offered) + " frame(s) valid";
    if (fault != ChainFault::kNone) {
      s += "; dropped at frame " + std::to_string(first_bad_index) +
           " (seq " + std::to_string(first_bad_seq) + "), byte " +
           std::to_string(byte_offset) + ": " +
           std::string(to_string(fault));
      if (!detail.empty()) {
        s += " — " + detail;
      }
    }
    return s;
  }
};

/// Pure structural walk of an in-memory chain: compute the longest valid
/// prefix (frame integrity + kind + chain id + seq + prev-CRC linkage)
/// without touching any run. Never throws; every corruption maps to a typed
/// fault with its frame index and byte offset.
inline ChainSalvageReport probe_chain(
    const std::vector<std::vector<std::uint8_t>>& frames) {
  ChainSalvageReport rep;
  rep.frames_offered = frames.size();
  const auto stop = [&rep](std::uint64_t index, std::uint64_t seq,
                           ChainFault fault, std::uint64_t offset,
                           std::string detail) {
    rep.fault = fault;
    rep.first_bad_index = index;
    rep.first_bad_seq = seq;
    rep.byte_offset = offset;
    rep.detail = std::move(detail);
  };
  if (frames.empty()) {
    stop(0, 0, ChainFault::kEmptyChain, 0,
         "checkpoint chain is empty — nothing to restore");
    return rep;
  }
  std::uint32_t prev = 0;
  std::uint64_t base_id = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::uint64_t expect_seq = i;  // base 0, deltas 1, 2, ...
    const FrameProbe probe = probe_frame(frames[i]);
    if (!probe.ok) {
      stop(i, expect_seq, ChainFault::kCorruptFrame, probe.offset,
           probe.reason);
      return rep;
    }
    ChainHeader h;
    try {
      h = read_chain_header_bytes(frames[i]);
    } catch (const CheckFailure& e) {
      stop(i, expect_seq, ChainFault::kCorruptFrame, 0, e.what());
      return rep;
    }
    if (i == 0) {
      if (h.kind != FrameKind::kFull) {
        stop(0, h.seq, ChainFault::kNoBase, 0,
             "chain does not start with a full base frame (found delta " +
                 std::to_string(h.seq) + ")");
        return rep;
      }
      base_id = h.chain_id;
    } else {
      if (h.kind != FrameKind::kDelta) {
        stop(i, h.seq, ChainFault::kWrongKind, 0,
             "a full base frame appeared mid-chain");
        return rep;
      }
      if (h.chain_id != base_id) {
        stop(i, h.seq, ChainFault::kChainIdMismatch, 0,
             "frame belongs to chain " + std::to_string(h.chain_id) +
                 ", base chain is " + std::to_string(base_id));
        return rep;
      }
      if (h.seq != expect_seq) {
        stop(i, h.seq, ChainFault::kSeqGap, 0,
             "expected delta seq " + std::to_string(expect_seq) +
                 " but found " + std::to_string(h.seq));
        return rep;
      }
      if (h.prev_crc != prev) {
        stop(i, h.seq, ChainFault::kPrevCrcMismatch, 0,
             "frame does not link to the preceding frame (prev-CRC "
             "mismatch)");
        return rep;
      }
    }
    prev = crc32c(frames[i].data(), frames[i].size());
    rep.frames_restored = i + 1;
  }
  return rep;
}

/// Salvage-restore: restore the longest valid prefix of `frames` into `run`
/// instead of aborting on the first bad frame (the torn-chain recovery path;
/// contrast restore_chain, which throws). The prefix is computed up front
/// (probe_chain), so a torn tail never touches the run; if a structurally
/// valid frame still fails to load (e.g. a bit flip in an un-CRC'd section
/// tag), the walk backs off one frame at a time and re-restores the shorter
/// prefix from scratch, reporting kApplyFailed. When nothing is restorable
/// (frames_restored == 0) the run is untouched — unless the base itself
/// failed mid-load, in which case the run's state is unspecified and the
/// report says so; callers must treat restored_any() == false as fatal.
template <class Run>
ChainSalvageReport restore_chain_salvage(
    Run& run, const std::vector<std::vector<std::uint8_t>>& frames) {
  ChainSalvageReport rep = probe_chain(frames);
  std::uint64_t want = rep.frames_restored;
  rep.frames_restored = 0;
  while (want > 0) {
    try {
      const std::vector<std::vector<std::uint8_t>> prefix(
          frames.begin(), frames.begin() + static_cast<std::ptrdiff_t>(want));
      restore_chain(run, prefix);
      rep.frames_restored = want;
      return rep;
    } catch (const CheckFailure& e) {
      // A frame the structural probe accepted still refused to load; drop
      // it (and everything after) and replay the shorter prefix so the run
      // never keeps a half-applied frame's state.
      rep.fault = ChainFault::kApplyFailed;
      rep.first_bad_index = want - 1;
      rep.first_bad_seq = want - 1;
      rep.byte_offset = 0;
      rep.detail = e.what();
      --want;
    }
  }
  return rep;
}

/// Salvage the on-disk chain rooted at `base_path`: reads the base plus
/// every consecutive `.delta-N` file beside it (unlike the strict resume
/// scan, corrupt tail files are read and offered to the salvage walk rather
/// than aborting the read loop) and restores the longest valid prefix.
template <class Run>
ChainSalvageReport salvage_chain_from_files(Run& run,
                                            const std::string& base_path) {
  std::vector<std::vector<std::uint8_t>> frames;
  if (file_readable(base_path)) {
    frames.push_back(read_file(base_path));
    for (std::uint64_t seq = 1;; ++seq) {
      const std::string path = delta_path(base_path, seq);
      if (!file_readable(path)) break;
      frames.push_back(read_file(path));
    }
  }
  return restore_chain_salvage(run, frames);
}

/// Resume `run` from the on-disk chain rooted at `base_path`: the base file
/// plus every consecutive `.delta-N` beside it that belongs to the same
/// chain (stale deltas left over from an older chain stop the scan and are
/// ignored). Returns false — leaving the run untouched — when the base file
/// is absent or identifies a different run configuration; still throws on
/// corrupt frames or a broken chain.
template <class Run>
bool restore_chain_from_files(Run& run, const std::string& base_path) {
  if (!file_readable(base_path)) return false;
  std::vector<std::vector<std::uint8_t>> frames;
  frames.push_back(read_file(base_path));
  validate_frame(frames[0]);
  const ChainHeader base = read_chain_header_bytes(frames[0]);
  if (base.kind != FrameKind::kFull) {
    throw ChainError("'" + base_path +
                     "' holds a delta frame, not a chain base — restore "
                     "from the chain's base file");
  }
  if (!belongs_to(run, frames[0])) return false;
  for (std::uint64_t seq = 1;; ++seq) {
    const std::string path = delta_path(base_path, seq);
    if (!file_readable(path)) break;
    std::vector<std::uint8_t> bytes = read_file(path);
    validate_frame(bytes);
    const ChainHeader h = read_chain_header_bytes(bytes);
    if (h.kind != FrameKind::kDelta || h.chain_id != base.chain_id) break;
    frames.push_back(std::move(bytes));
  }
  restore_chain(run, frames);
  return true;
}

}  // namespace sgxpl::snapshot
