// The run lifecycle both replay engines share: the stack assembled around
// the shared driver, the format-v2 checkpoint frame protocol, and the
// resume-then-checkpoint file loop.
//
// SimulationRun (one enclave) and MultiEnclaveRun (tenants sharing one EPC)
// derive from RunLifecycle and supply only their identity (meta()) and the
// sections they write before and after the driver's. Every frame, full or
// delta, is laid out the same way:
//
//   CHNH  META  <engine head>  <driver sections>  <engine tail>  [INJC]
//
// The hooks are virtual because they run only at checkpoint and restore
// time; step() stays in each engine and never goes through this class.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/metrics.h"
#include "core/scheme.h"
#include "snapshot/fwd.h"

namespace sgxpl::core {

class SimulationRun;
class MultiEnclaveRun;
struct MultiEnclaveResult;

class RunLifecycle {
 public:
  virtual ~RunLifecycle();
  RunLifecycle(const RunLifecycle&) = delete;
  RunLifecycle& operator=(const RunLifecycle&) = delete;

  // --- checkpoint/restore ---
  /// Write a complete full frame (standalone: chain id 0). The two-argument
  /// form stamps the given chain header instead (must be a full frame; the
  /// Snapshotter uses it for chain bases).
  void save(snapshot::Writer& w) const;
  void save(snapshot::Writer& w, const snapshot::ChainHeader& chain) const;
  /// save() into a complete framed snapshot.
  std::vector<std::uint8_t> save_bytes() const;
  /// Read a full frame. Validates META against this run before touching
  /// any state and throws a diagnostic CheckFailure on any mismatch or
  /// corruption. Rejects delta frames (restore those through
  /// snapshot::restore_chain).
  void load_bytes(const std::vector<std::uint8_t>& bytes);
  /// Meta-gated restore: returns false (leaving the run untouched) when
  /// `bytes` describes a different run — other trace, scheme, chaos plan or
  /// enclave geometry; throws CheckFailure when `bytes` is corrupt.
  bool restore_if_compatible(const std::vector<std::uint8_t>& bytes);

  /// Delta checkpointing: save_delta writes a frame holding the chain
  /// header, META, the engine's sections, the always-rewritten DRVR
  /// section, sparse deltas of only the bulk structures whose generation
  /// moved past `last`, and INJC. apply_delta_bytes replays such a frame on
  /// top of this run's current state; callers go through
  /// snapshot::restore_chain, which enforces chain linkage.
  void save_delta(snapshot::Writer& w, const snapshot::ChainHeader& chain,
                  const snapshot::SectionGens& last) const;
  void apply_delta_bytes(const std::vector<std::uint8_t>& bytes);
  snapshot::SectionGens section_gens() const;
  void clear_dirty();

  /// This run's identity as written into snapshots.
  virtual snapshot::RunMeta meta() const = 0;

 protected:
  RunLifecycle() = default;

  /// Chaos attach and driver construction: the fault injector perturbs the
  /// untrusted stack through the driver's ChaosHooks boundary (a plan with
  /// nothing enabled costs nothing). Under chaos the online watchdog
  /// defaults on in `ecfg` (every 64 scans plus every injection boundary)
  /// so a hook that ever corrupted ground truth trips immediately, not at
  /// end-of-run.
  void build_driver(const SimConfig& cfg, sgxsim::EnclaveConfig& ecfg,
                    sgxsim::PreloadPolicy* policy);
  /// Observability attach for the driver and injector: each sink in `cfg`
  /// is independent and null means off; the event log and time series are
  /// cleared so they hold exactly one run's window.
  void attach_sinks(const SimConfig& cfg);
  /// The DFP engine a scheme runs (null when it runs none), with stopping
  /// forced on for DFP-stop and hybrid.
  static std::unique_ptr<dfp::DfpEngine> make_dfp_engine(
      Scheme scheme, dfp::DfpParams params);
  /// Copy `engine`'s end-of-run counters into `m`.
  static void fill_dfp_counters(Metrics& m, const dfp::DfpEngine& engine);

  /// The engine's own sections, written before and after the driver's and
  /// read back in the same order by full and delta frames alike.
  virtual void save_head(snapshot::Writer& w) const = 0;
  virtual void load_head(snapshot::Reader& r) = 0;
  virtual void save_tail(snapshot::Writer& w) const;
  virtual void load_tail(snapshot::Reader& r);

  std::unique_ptr<inject::FaultInjector> injector_;
  std::unique_ptr<sgxsim::Driver> driver_;
  /// finish() ran; a restore rewinds it.
  bool finished_ = false;

 private:
  /// One frame body; `last` null writes the driver's full sections.
  void write_frame(snapshot::Writer& w, const snapshot::ChainHeader& chain,
                   const snapshot::SectionGens* last) const;
  void read_frame(snapshot::Reader& r, bool full);
};

/// Step `run` to the end and finish it, honoring cfg.checkpoint: resume
/// from resume_path when its chain belongs to this run (absent or foreign
/// snapshots are skipped and the run starts fresh; corrupt frames and
/// broken chains throw), and write a chain frame to path (deltas beside it
/// as .delta-N) every every_accesses completed accesses.
Metrics run_with_checkpoints(SimulationRun& run, const SimConfig& cfg);
MultiEnclaveResult run_with_checkpoints(MultiEnclaveRun& run,
                                        const SimConfig& cfg);

}  // namespace sgxpl::core
