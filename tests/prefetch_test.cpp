// Tests for the hoisted-SIP prefetch path and the channel priority /
// cancellation machinery behind it.
#include <gtest/gtest.h>

#include "common/check.h"
#include "sgxsim/driver.h"
#include "sgxsim/paging_channel.h"

namespace sgxpl::sgxsim {
namespace {

CostModel test_costs() {
  CostModel c;
  c.scan_period = 1'000'000'000;
  return c;
}

EnclaveConfig small_enclave(PageNum elrange = 64, PageNum epc = 16) {
  EnclaveConfig cfg;
  cfg.elrange_pages = elrange;
  cfg.epc_pages = epc;
  return cfg;
}

TEST(ChannelPriority, InsertsAfterInFlightBeforeQueued) {
  PagingChannel ch;
  ch.schedule(0, 100, 1, OpKind::kDfpPreload);  // in flight at t=50
  ch.schedule(0, 100, 2, OpKind::kDfpPreload);  // queued [100,200)
  const auto& op = ch.schedule_priority(50, 100, 9, OpKind::kDemandLoad);
  EXPECT_EQ(op.start, 100u);  // right after the in-flight op
  EXPECT_EQ(op.end, 200u);
  const auto queued = ch.find(2);
  ASSERT_TRUE(queued.has_value());
  EXPECT_EQ(queued->start, 200u);  // pushed back, not cancelled
}

TEST(ChannelPriority, EmptyChannelStartsImmediately) {
  PagingChannel ch;
  const auto& op = ch.schedule_priority(42, 100, 1, OpKind::kSipLoad);
  EXPECT_EQ(op.start, 42u);
}

TEST(ChannelPriority, ChainsAfterEarlierPriorityOps) {
  PagingChannel ch;
  ch.schedule(0, 100, 1, OpKind::kDfpPreload);            // in flight
  ch.schedule_priority(10, 100, 2, OpKind::kDemandLoad);  // [100,200)
  const auto& op = ch.schedule_priority(10, 100, 3, OpKind::kDemandLoad);
  // Second priority op lands after the first (both already "started"
  // positions relative to t=10? No: op for 2 starts at 100 > 10, so the
  // new op inserts before it).
  EXPECT_EQ(op.start, 100u);
  const auto second = ch.find(2);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->start, 200u);
}

TEST(ChannelCancel, RemovesQueuedOp) {
  PagingChannel ch;
  ch.schedule(0, 100, 1, OpKind::kSipLoad);  // in flight
  ch.schedule(0, 100, 2, OpKind::kSipLoad);  // queued
  EXPECT_TRUE(ch.cancel_not_started(2, 50));
  EXPECT_FALSE(ch.find(2).has_value());
  EXPECT_EQ(ch.ops_aborted(), 1u);
}

TEST(ChannelCancel, RefusesInFlightOp) {
  PagingChannel ch;
  ch.schedule(0, 100, 1, OpKind::kSipLoad);
  EXPECT_FALSE(ch.cancel_not_started(1, 50));
  EXPECT_TRUE(ch.find(1).has_value());
}

TEST(ChannelCancel, MissingPageReturnsFalse) {
  PagingChannel ch;
  EXPECT_FALSE(ch.cancel_not_started(7, 0));
}

TEST(Prefetch, LoadsAsynchronously) {
  Driver d(small_enclave(), test_costs());
  d.sip_prefetch(5, 100);
  EXPECT_EQ(d.stats().sip_prefetches, 1u);
  EXPECT_FALSE(d.page_table().present(5));  // not yet: async
  d.drain();
  EXPECT_TRUE(d.page_table().present(5));
  // The later access is a plain hit that counts the prefetch as used.
  const auto out = d.access(5, 1'000'000);
  EXPECT_FALSE(out.faulted);
  EXPECT_EQ(d.stats().preloads_used, 1u);
  d.check_invariants();
}

TEST(Prefetch, NoOpWhenResidentOrQueued) {
  Driver d(small_enclave(), test_costs());
  const auto out = d.access(3, 0);
  d.sip_prefetch(3, out.completion);  // resident
  EXPECT_EQ(d.stats().sip_prefetches, 0u);
  d.sip_prefetch(9, out.completion);
  d.sip_prefetch(9, out.completion + 1);  // already queued
  EXPECT_EQ(d.stats().sip_prefetches, 1u);
}

TEST(Prefetch, DemandFaultPromotesQueuedPrefetch) {
  Driver d(small_enclave(), test_costs());
  // Fill the channel with an in-flight demand load, then queue a prefetch.
  d.access(0, 0);  // demand [10k, 58k)
  d.sip_prefetch(7, 1'000);
  // Fault on 7 while its prefetch is queued (not started): the driver must
  // promote it rather than schedule a duplicate load.
  const auto out = d.access(7, 2'000);
  EXPECT_TRUE(out.faulted);
  d.drain();
  d.check_invariants();
  EXPECT_TRUE(d.page_table().present(7));
}

TEST(Prefetch, DemandFaultWaitsForInFlightPrefetch) {
  Driver d(small_enclave(), test_costs());
  d.sip_prefetch(7, 0);  // starts immediately, 44k long
  const auto out = d.access(7, 1'000);
  EXPECT_TRUE(out.faulted);
  EXPECT_TRUE(out.hit_inflight);
  // Resumed at prefetch end + ERESUME, cheaper than a fresh load.
  EXPECT_EQ(out.completion, 44'000u + 10'000u);
}

TEST(Prefetch, OnlyTheDrainingOwnerSheds) {
  Driver d(small_enclave(), test_costs());
  d.begin_drain(1);
  d.sip_prefetch(5, 100, 1);
  EXPECT_EQ(d.stats().preloads_shed, 1u);
  EXPECT_FALSE(d.channel().find(5).has_value());
  d.sip_prefetch(6, 100, 0);
  d.sip_prefetch(7, 100);  // the default owner is pid 0
  EXPECT_EQ(d.stats().sip_prefetches, 2u);
  d.end_drain(1);
  d.sip_prefetch(5, 200, 1);
  EXPECT_EQ(d.stats().sip_prefetches, 3u);
  EXPECT_EQ(d.stats().preloads_shed, 1u);
}

TEST(Prefetch, OutOfRangeThrows) {
  Driver d(small_enclave(16), test_costs());
  EXPECT_THROW(d.sip_prefetch(99, 0), CheckFailure);
}

TEST(Prefetch, DoesNotPreemptDemandLoads) {
  Driver d(small_enclave(), test_costs());
  d.access(0, 0);             // demand in flight
  d.sip_prefetch(5, 1'000);   // queues behind
  const auto op5 = d.channel().find(5);
  const auto op0 = d.channel().find(0);
  ASSERT_TRUE(op5.has_value());
  if (op0.has_value()) {
    EXPECT_GE(op5->start, op0->end);
  }
}

}  // namespace
}  // namespace sgxpl::sgxsim
