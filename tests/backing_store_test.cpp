#include "sgxsim/backing_store.h"

#include <gtest/gtest.h>

namespace sgxpl::sgxsim {
namespace {

TEST(BackingStore, NeverEvictedPageLoadsVersionZero) {
  BackingStore bs(64);
  EXPECT_EQ(bs.load(42), 0u);
  EXPECT_EQ(bs.eviction_count(42), 0u);
}

TEST(BackingStore, EvictBumpsAntiReplayVersion) {
  BackingStore bs(64);
  EXPECT_EQ(bs.evict(7), 1u);
  EXPECT_EQ(bs.evict(7), 2u);
  EXPECT_EQ(bs.load(7), 2u);
  EXPECT_EQ(bs.eviction_count(7), 2u);
}

TEST(BackingStore, FreshnessPerPage) {
  BackingStore bs(64);
  bs.evict(1);
  bs.evict(1);
  bs.evict(2);
  // Each page's load sees exactly its own latest EWB version.
  EXPECT_EQ(bs.load(1), 2u);
  EXPECT_EQ(bs.load(2), 1u);
  EXPECT_EQ(bs.load(3), 0u);
}

TEST(BackingStore, GlobalCounters) {
  BackingStore bs(64);
  bs.evict(1);
  bs.evict(2);
  bs.load(1);
  bs.load(1);
  bs.load(9);
  EXPECT_EQ(bs.total_evictions(), 2u);
  EXPECT_EQ(bs.total_loads(), 3u);
}

}  // namespace
}  // namespace sgxpl::sgxsim
