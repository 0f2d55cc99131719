// Units for the annotated sync primitives (util/sync.h): mutual exclusion
// through the wrappers, the ReleasableMutexLock early-release contract,
// CondVar wait loops, and — in dcheck builds — the runtime lock-rank
// validator: in-order nesting passes, an out-of-order or equal-rank
// acquisition aborts with both ranks printed, and AssertHeld aborts when
// the lock is not held.
#include "util/sync.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace ruidx {
namespace {

TEST(SyncTest, MutexLockGivesMutualExclusion) {
  Mutex mu(LockRank::kLeafLatch, "sync_test.counter");
  int counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  MutexLock lock(&mu);
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(SyncTest, RankAndNameAccessors) {
  Mutex mu(LockRank::kBufferPool, "sync_test.named");
  EXPECT_EQ(mu.rank(), static_cast<int>(LockRank::kBufferPool));
  EXPECT_STREQ(mu.name(), "sync_test.named");
}

TEST(SyncTest, ReleasableMutexLockReleasesEarly) {
  Mutex mu(LockRank::kLeafLatch, "sync_test.releasable");
  {
    ReleasableMutexLock lock(&mu);
    lock.Release();
    // The lock is free again: a fresh scoped acquisition must not
    // self-deadlock, and the destructor above must not double-unlock.
    MutexLock relock(&mu);
  }
  {
    // Destructor path: no Release() call, scope exit unlocks.
    ReleasableMutexLock lock(&mu);
  }
  MutexLock relock(&mu);
}

TEST(SyncTest, CondVarWaitLoopSeesNotification) {
  Mutex mu(LockRank::kLeafLatch, "sync_test.cv");
  CondVar cv;
  bool ready = false;
  int observed = 0;
  std::thread waiter([&] {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(&mu);
    observed = 42;
  });
  {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyAll();
  }
  waiter.join();
  EXPECT_EQ(observed, 42);
}

TEST(SyncTest, NestingInRankOrderIsAccepted) {
  // Strictly decreasing ranks down the chain — the discipline the storage
  // stack follows (pool over wal over pager).
  Mutex outer(LockRank::kBufferPool, "sync_test.outer");
  Mutex middle(LockRank::kWal, "sync_test.middle");
  Mutex inner(LockRank::kPager, "sync_test.inner");
  MutexLock a(&outer);
  MutexLock b(&middle);
  MutexLock c(&inner);
}

TEST(SyncTest, ReleaseOutOfStackOrderIsAccepted) {
  // ReleasableMutexLock inside a wider scope: the middle lock leaves the
  // held stack first. Legal — ordering constrains acquisition only.
  Mutex outer(LockRank::kBufferPool, "sync_test.ooo_outer");
  Mutex middle(LockRank::kWal, "sync_test.ooo_middle");
  Mutex inner(LockRank::kPager, "sync_test.ooo_inner");
  MutexLock a(&outer);
  ReleasableMutexLock b(&middle);
  MutexLock c(&inner);
  b.Release();
  // With middle gone, acquiring below the remaining held ranks still works.
  Mutex lower(LockRank::kLeafLatch, "sync_test.ooo_leaf");
  MutexLock d(&lower);
}

#if RUIDX_DCHECK_IS_ON

TEST(SyncDeathTest, RankInversionAborts) {
  EXPECT_DEATH(
      {
        Mutex inner(LockRank::kPager, "sync_test.death_inner");
        Mutex outer(LockRank::kBufferPool, "sync_test.death_outer");
        MutexLock a(&inner);
        // Acquiring a HIGHER rank while a lower one is held inverts the
        // global order — the validator must abort before blocking.
        MutexLock b(&outer);
      },
      "lock-rank violation.*death_outer.*rank 60");
}

TEST(SyncDeathTest, EqualRankNestingAborts) {
  // Equal ranks are never acquired nested: two leaf latches held together
  // have no defined order, so the validator treats equality as a violation.
  EXPECT_DEATH(
      {
        Mutex first(LockRank::kLeafLatch, "sync_test.eq_first");
        Mutex second(LockRank::kLeafLatch, "sync_test.eq_second");
        MutexLock a(&first);
        MutexLock b(&second);
      },
      "lock-rank violation.*eq_second");
}

TEST(SyncDeathTest, AssertHeldAbortsWhenNotHeld) {
  EXPECT_DEATH(
      {
        Mutex mu(LockRank::kLeafLatch, "sync_test.assert_unheld");
        mu.AssertHeld();
      },
      "AssertHeld");
}

TEST(SyncDeathTest, ViolationReportNamesTheHeldStack) {
  // The abort message lists every held lock outermost-first, so the full
  // inversion is readable from one crash.
  EXPECT_DEATH(
      {
        Mutex outer(LockRank::kBufferPool, "sync_test.stack_outer");
        Mutex inner(LockRank::kPager, "sync_test.stack_inner");
        MutexLock a(&outer);
        MutexLock b(&inner);
        Mutex repeat(LockRank::kWal, "sync_test.stack_violator");
        MutexLock c(&repeat);
      },
      "stack_violator.*\n.*stack_outer.*\n.*stack_inner");
}

#else

TEST(SyncDeathTest, ValidatorDisabledInThisBuild) {
  GTEST_SKIP() << "lock-rank validator is compiled out (NDEBUG without "
                  "RUIDX_FORCE_DCHECKS)";
}

#endif  // RUIDX_DCHECK_IS_ON

}  // namespace
}  // namespace ruidx
