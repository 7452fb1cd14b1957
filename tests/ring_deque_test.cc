// The flat RingDeque: FIFO order across growth and wrap-around, and prompt
// release of owned values on pop.

#include "common/ring_deque.h"

#include <memory>

#include "gtest/gtest.h"

namespace rafiki {
namespace {

TEST(RingDequeTest, FifoAcrossGrowthAndWrap) {
  RingDeque<int> dq;
  EXPECT_TRUE(dq.empty());
  // Interleave pushes and pops so head is nonzero when growth copies the
  // live range; FIFO order and indexing must survive.
  int out = 0, in = 0;
  for (int round = 0; round < 100; ++round) {
    for (int k = 0; k < 7; ++k) dq.push_back(in++);
    EXPECT_EQ(dq.front(), out);
    EXPECT_EQ(dq[dq.size() - 1], in - 1);
    for (int k = 0; k < 5; ++k) {
      EXPECT_EQ(dq.front(), out);
      dq.pop_front();
      ++out;
    }
  }
  while (!dq.empty()) {
    EXPECT_EQ(dq.front(), out++);
    dq.pop_front();
  }
  EXPECT_EQ(out, in);
}

TEST(RingDequeTest, PopReleasesOwnedResources) {
  auto marker = std::make_shared<int>(1);
  RingDeque<std::shared_ptr<int>> dq;
  dq.push_back(std::shared_ptr<int>(marker));
  EXPECT_EQ(marker.use_count(), 2);
  dq.pop_front();  // must reset the slot, not just move the head
  EXPECT_EQ(marker.use_count(), 1);
}

}  // namespace
}  // namespace rafiki
