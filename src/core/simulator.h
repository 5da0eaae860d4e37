// The enclave simulator: replays an application trace under a scheme on the
// sgxsim substrate and reports Metrics.
//
// Virtual time is the application's clock in cycles. Each trace access
// advances time by its compute gap (inflated by memory-bandwidth contention
// while page copies are in flight), then goes through:
//   - the SIP path when the scheme instruments the access's site:
//     BIT_MAP_CHECK against the shared presence bitmap, and on a miss a
//     synchronous page_loadin request (no AEX/ERESUME);
//   - the regular access path in the driver: residency hit, or the full
//     fault sequence (AEX -> demand load with CLOCK eviction -> DFP
//     prediction -> ERESUME).
//
// SimulationRun exposes the replay one access at a time, so a run can be
// checkpointed at any access boundary and resumed bit-identically — the
// correctness oracle behind the kill-restore harness (tests/recovery_test,
// bench/recovery_suite). EnclaveSimulator::run is the one-shot wrapper that
// also honors SimConfig::checkpoint.
#pragma once

#include <cstdint>
#include <memory>

#include "core/metrics.h"
#include "core/run_lifecycle.h"
#include "core/scheme.h"
#include "sip/instrumenter.h"
#include "snapshot/fwd.h"
#include "trace/access.h"

namespace sgxpl::core {

/// One in-progress simulation: the full stack (driver, optional DFP engine,
/// optional fault injector, observability attachments) plus the replay
/// cursor. Non-copyable; the trace and plan must outlive the run.
///
/// Checkpoint semantics (RunLifecycle): save() captures the COMPLETE state
/// — every subsystem's counters, RNG streams, queues and cursors — such
/// that load_bytes() into a freshly built run with the same configuration,
/// followed by run_to_end(), produces Metrics bit-identical to the
/// uninterrupted run. The run writes its RUNS section before the driver's
/// and its DFPE engine after it.
class SimulationRun final : public RunLifecycle {
 public:
  /// Native scheme is not steppable (no paging state); the ctor rejects it.
  /// `plan` is required by SIP-using schemes and ignored otherwise. The
  /// ELRANGE defaults to the trace's declared range.
  SimulationRun(const SimConfig& config, const trace::Trace& t,
                const sip::InstrumentationPlan* plan = nullptr);
  ~SimulationRun() override;

  bool done() const noexcept;
  /// Consume the next trace access — the unit of progress checkpoints are
  /// aligned to. Requires !done().
  void step();
  /// Accesses completed so far.
  std::uint64_t cursor() const noexcept { return cursor_; }
  Cycles now() const noexcept { return now_; }

  /// The underlying driver, read-only: harnesses sample its counters and
  /// run its invariant sweep between steps.
  const sgxsim::Driver& driver() const noexcept { return *driver_; }

  /// Drain/validate and assemble the final Metrics. Requires done(); call
  /// at most once.
  Metrics finish();
  /// step() until done(), then finish().
  Metrics run_to_end();

  snapshot::RunMeta meta() const override;

 private:
  void hoist(std::size_t idx);
  void ensure_started();
  void save_head(snapshot::Writer& w) const override;
  void load_head(snapshot::Reader& r) override;
  void save_tail(snapshot::Writer& w) const override;
  void load_tail(snapshot::Reader& r) override;

  SimConfig cfg_;
  const trace::Trace* trace_;
  const sip::InstrumentationPlan* plan_;
  bool sip_on_ = false;
  std::unique_ptr<dfp::DfpEngine> engine_;
  Metrics m_;
  Cycles now_ = 0;
  std::uint64_t cursor_ = 0;
  // Whether the pre-loop work ran (hoisted SIP prefix). Runs lazily at the
  // first step so a restore never re-executes it; serialized so a snapshot
  // taken at cursor 0 still resumes exactly.
  bool started_ = false;
};

class EnclaveSimulator {
 public:
  explicit EnclaveSimulator(const SimConfig& config);

  /// Run `t` to completion. `plan` is required by SIP-using schemes and
  /// ignored otherwise. The ELRANGE defaults to the trace's declared range.
  /// Honors config.checkpoint: resumes from resume_path when the file
  /// exists and its RunMeta matches this configuration (absent or
  /// foreign snapshots are skipped and the run starts fresh — benches that
  /// simulate several schemes overwrite one file per run; corrupt
  /// snapshots throw), and writes a snapshot to path every every_accesses
  /// completed accesses.
  Metrics run(const trace::Trace& t,
              const sip::InstrumentationPlan* plan = nullptr);

 private:
  Metrics run_native(const trace::Trace& t) const;

  SimConfig config_;
};

/// One-call convenience: simulate `t` under `config`.
Metrics simulate(const trace::Trace& t, const SimConfig& config,
                 const sip::InstrumentationPlan* plan = nullptr);

}  // namespace sgxpl::core
