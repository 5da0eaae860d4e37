// Whole-run snapshot tools over the codec: per-tenant extraction and the
// live-migration carve of multi-enclave frames, and state diffing — the
// divergence reporter of the kill-restore harness. Capture and restore are
// the runs' own save_bytes()/load_bytes()/restore_if_compatible()
// (core::RunLifecycle); no state lives in this layer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/multi_enclave.h"
#include "core/simulator.h"
#include "snapshot/codec.h"

namespace sgxpl::snapshot {

// --- per-enclave extraction (format v2 multi-enclave frames) ---

/// One tenant lifted out of a multi-enclave snapshot: identity from its
/// ENCM section, clocks and metrics from its APPS section. The shared
/// driver state (EPC occupancy, paging channel) stays behind — it belongs
/// to the co-run, not to any one tenant.
struct ExtractedEnclave {
  std::uint64_t index = 0;
  std::string scheme;      // core::to_string(Scheme) name, e.g. "DFP-stop"
  std::string trace;       // trace name the tenant was running
  bool has_dfp = false;    // tenant carried a DFPE section
  std::uint64_t cursor = 0;
  std::uint64_t now = 0;
  bool done = false;
  core::Metrics metrics;
};

/// Rewrite one tenant's sections from a v2 multi-enclave frame as a
/// standalone v2 full frame (META kind "enclave-extract" + the tenant's
/// ENCM/APPS and DFPE when present), so one tenant can be shipped or
/// inspected without the co-run. Throws CheckFailure when `bytes` is not a multi-enclave full frame or `enclave`
/// is out of range (the refusal the recovery tests pin).
std::vector<std::uint8_t> extract_enclave(const std::vector<std::uint8_t>& bytes,
                                          std::uint64_t enclave);

/// Decode a frame produced by extract_enclave.
ExtractedEnclave read_extracted(const std::vector<std::uint8_t>& bytes);

// --- resumable extraction (the live-migration carve) ---

/// Carve one tenant's *resumable* slice out of a v2 multi-enclave full
/// frame. Unlike extract_enclave (inspection only), the result is a
/// standalone single-tenant frame of kind "multi-enclave" that a freshly
/// constructed one-tenant MultiEnclaveRun over the same trace/scheme/config
/// will load_bytes(): the shared driver state — paging-channel ops in
/// flight, lost-op retry ledger, page table, EPC occupancy and CLOCK hand,
/// presence bitmap, backing-store versions, admission-ladder state — is
/// filtered to the tenant's ELRANGE [geo.lo, geo.lo + geo.pages) and
/// rebased so the tenant's first page becomes page 0.
///
/// A sole tenant occupying the whole combined space (geo.lo == 0,
/// geo.pages == the frame's elrange) carves verbatim: every section except
/// the chain header is copied byte-identically, so a migrated sole tenant
/// resumes bit-exactly where the source stopped. Co-tenant carves are
/// best-effort on shared platform counters (channel serial numbers, global
/// eviction/scan statistics carry over whole) but exact on all per-page
/// state.
///
/// Typed refusals (CheckFailure): delta frames, out-of-range
/// enclave or geometry, a non-CLOCK eviction policy on a co-tenant carve
/// (other policies serialize global page lists this carve cannot rebase),
/// and a DFP tenant placed above offset 0 (its engine state is keyed to
/// combined page numbers).
std::vector<std::uint8_t> extract_resumable(
    const std::vector<std::uint8_t>& bytes, std::uint64_t enclave,
    const TenantGeometry& geo);

/// Convenience: carve `enclave` out of `run`'s current state using the
/// run's own tenant layout (run.tenant_geometry(enclave)).
std::vector<std::uint8_t> extract_resumable(const core::MultiEnclaveRun& run,
                                            std::size_t enclave);

/// Serialize both runs' states and localize the first diverging field —
/// the divergence reporter behind the kill-restore differential harness.
Diff diff_runs(const core::SimulationRun& a, const core::SimulationRun& b);

/// Same, over two final Metrics (covers the nested driver and injection
/// statistics field by field).
Diff diff_metrics(const core::Metrics& a, const core::Metrics& b);

}  // namespace sgxpl::snapshot
