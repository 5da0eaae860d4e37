// google-benchmark micro-benchmarks of the building blocks on the hot
// paths: Algorithm 1's predictor update, the presence-bitmap check
// (BIT_MAP_CHECK's cost on our side of the simulation), the driver fault
// path, the watchdog's full and incremental checks, the snapshot CRC, and
// end-to-end simulator throughput.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/simulator.h"
#include "dfp/stream_predictor.h"
#include "sgxsim/bitmap.h"
#include "sgxsim/driver.h"
#include "sip/site_classifier.h"
#include "snapshot/codec.h"
#include "trace/workloads.h"

namespace sgxpl::sgxsim {

/// Reaches the watchdog's private checks and changed-page set.
class DriverTestPeer {
 public:
  explicit DriverTestPeer(Driver& d) : d_(d) {}
  void mark(PageNum p) { d_.changed_.mark(p); }
  void clear() { d_.changed_.clear(); }
  void incremental() const { d_.check_changed(); }

 private:
  Driver& d_;
};

}  // namespace sgxpl::sgxsim

namespace sgxpl {
namespace {

void BM_PredictorSequentialFaults(benchmark::State& state) {
  dfp::StreamPredictor sp(dfp::StreamPredictorParams{
      .stream_list_len = static_cast<std::size_t>(state.range(0))});
  PageNum page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sp.on_fault(ProcessId{0}, page++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictorSequentialFaults)->Arg(8)->Arg(30)->Arg(128);

void BM_PredictorRandomFaults(benchmark::State& state) {
  dfp::StreamPredictor sp(dfp::StreamPredictorParams{
      .stream_list_len = static_cast<std::size_t>(state.range(0))});
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sp.on_fault(ProcessId{0}, rng.bounded(1 << 20)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictorRandomFaults)->Arg(8)->Arg(30)->Arg(128);

void BM_BitmapCheck(benchmark::State& state) {
  sgxsim::PresenceBitmap bm(1 << 18);
  Rng rng(2);
  for (PageNum p = 0; p < (1 << 18); p += 3) {
    bm.set(p);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bm.test(rng.bounded(1 << 18)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitmapCheck);

void BM_SiteClassifier(benchmark::State& state) {
  sip::SiteClassifier classifier;
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        classifier.classify(ProcessId{0}, rng.bounded(1 << 16)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SiteClassifier);

void BM_DriverFaultPath(benchmark::State& state) {
  sgxsim::EnclaveConfig cfg;
  cfg.elrange_pages = 1 << 20;
  cfg.epc_pages = 1 << 12;
  sgxsim::CostModel costs;
  sgxsim::Driver driver(cfg, costs);
  Rng rng(4);
  Cycles now = 0;
  for (auto _ : state) {
    now = driver.access(rng.bounded(1 << 20), now).completion + 1'000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DriverFaultPath);

// One watchdog check at the shape of a fleet-chaos host: ≈12.5k ELRANGE
// pages, a full 983-page EPC, and the ≈16 pages one scan's ≈8 loads and ≈8
// evictions change. Arg 0: the full sweep; arg 1: the incremental check.
// Both pay for marking and clearing the changed set.
void BM_WatchdogTick(benchmark::State& state) {
  constexpr PageNum kElrange = 12'500;
  sgxsim::EnclaveConfig cfg;
  cfg.elrange_pages = kElrange;
  cfg.epc_pages = 983;
  cfg.watchdog_scan_interval = 1;
  sgxsim::Driver driver(cfg, sgxsim::CostModel{});
  Rng rng(5);
  Cycles now = 0;
  for (PageNum i = 0; i < 2 * kElrange; ++i) {
    now = driver.access(i < kElrange ? i : rng.bounded(kElrange), now)
              .completion +
          1'000;
  }
  std::vector<PageNum> resident;
  for (PageNum p = 0; p < kElrange; ++p) {
    if (driver.page_table().present(p)) resident.push_back(p);
  }
  sgxsim::DriverTestPeer peer(driver);
  const bool incremental = state.range(0) == 1;
  std::size_t next = 0;
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) {
      peer.mark(resident[next]);
      next = next + 1 == resident.size() ? 0 : next + 1;
    }
    if (incremental) {
      peer.incremental();
    } else {
      driver.check_invariants();
    }
    peer.clear();
  }
  state.SetLabel(incremental ? "incremental" : "full sweep");
}
BENCHMARK(BM_WatchdogTick)->Arg(0)->Arg(1);

// CRC32C over one buffer. Arg 0 picks the path: 0 = slicing-by-8
// (crc32c_portable), 1 = crc32c()'s dispatch (SSE4.2 where available).
void BM_Crc32c(benchmark::State& state) {
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(state.range(1)));
  Rng rng(6);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  const bool dispatch = state.range(0) == 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dispatch ? snapshot::crc32c(buf.data(), buf.size())
                 : snapshot::crc32c_portable(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(1));
  state.SetLabel(!dispatch                       ? "slicing-by-8"
                 : snapshot::crc32c_uses_sse42() ? "sse4.2"
                                                 : "slicing-by-8 (no sse4.2)");
}
BENCHMARK(BM_Crc32c)->ArgsProduct({{0, 1}, {256, 4096, 65536}});

void BM_SimulatorThroughput(benchmark::State& state) {
  const auto* w = trace::find_workload("deepsjeng");
  const auto t = w->make(trace::WorkloadParams{.scale = 0.05, .seed = 9});
  auto cfg = core::paper_platform(core::Scheme::kHybrid);
  cfg.enclave.epc_pages = 1'200;
  sip::InstrumentationPlan plan;
  for (SiteId s = 100; s < 135; ++s) {
    plan.add_site(s);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::simulate(t, cfg, &plan));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_SimulatorThroughput);

}  // namespace
}  // namespace sgxpl

BENCHMARK_MAIN();
