#include "obs/trace_context.h"

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "util/thread_pool.h"

namespace querc::obs {
namespace {

TEST(TraceIdTest, IdsAreNonZeroAndUnique) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    uint64_t id = NewTraceId();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(seen.insert(id).second) << "duplicate trace id";
  }
  EXPECT_NE(NewSpanId(), 0u);
}

TEST(TraceContextTest, ScopedAdoptionNestsAndRestores) {
  EXPECT_FALSE(CurrentContext().valid());
  TraceContext outer{NewTraceId(), NewSpanId()};
  {
    ScopedTraceContext adopt_outer(outer);
    EXPECT_EQ(CurrentContext().trace_id, outer.trace_id);
    TraceContext inner{NewTraceId(), NewSpanId()};
    {
      ScopedTraceContext adopt_inner(inner);
      EXPECT_EQ(CurrentContext().trace_id, inner.trace_id);
    }
    EXPECT_EQ(CurrentContext().trace_id, outer.trace_id);
    {
      // Adopting an invalid context detaches the scope from any trace.
      ScopedTraceContext detach(TraceContext{});
      EXPECT_FALSE(CurrentContext().valid());
    }
    EXPECT_EQ(CurrentContext().trace_id, outer.trace_id);
  }
  EXPECT_FALSE(CurrentContext().valid());
}

TEST(TraceContextTest, InstallContextReturnsDisplaced) {
  TraceContext a{NewTraceId(), NewSpanId()};
  TraceContext b{NewTraceId(), NewSpanId()};
  TraceContext none = InstallContext(a);
  EXPECT_FALSE(none.valid());
  TraceContext displaced = InstallContext(b);
  EXPECT_EQ(displaced.trace_id, a.trace_id);
  InstallContext(TraceContext{});
  EXPECT_FALSE(CurrentContext().valid());
}

TEST(TraceContextTest, ContextIsPerThread) {
  TraceContext ctx{NewTraceId(), NewSpanId()};
  ScopedTraceContext adopt(ctx);
  std::atomic<uint64_t> seen_on_thread{1};
  std::thread other([&] {
    // A raw thread (no propagation wrapper) starts detached.
    seen_on_thread.store(CurrentContext().trace_id);
  });
  other.join();
  EXPECT_EQ(seen_on_thread.load(), 0u);
  EXPECT_EQ(CurrentContext().trace_id, ctx.trace_id);
}

// ---------------------------------------------------------------------------
// Propagation through the shared thread pool
// ---------------------------------------------------------------------------

TEST(ThreadPoolPropagationTest, SubmitCarriesCallerContext) {
  util::ThreadPool pool(2);
  TraceContext ctx{NewTraceId(), NewSpanId()};
  std::atomic<uint64_t> observed{0};
  std::atomic<bool> ran{false};
  {
    ScopedTraceContext adopt(ctx);
    pool.Submit([&] {
      observed.store(CurrentContext().trace_id);
      ran.store(true, std::memory_order_release);
    });
  }
  while (!ran.load(std::memory_order_acquire)) std::this_thread::yield();
  EXPECT_EQ(observed.load(), ctx.trace_id);

  // Without an ambient context the task runs detached — no stale
  // adoption from a previous task on the same worker.
  ran.store(false);
  pool.Submit([&] {
    observed.store(CurrentContext().trace_id);
    ran.store(true, std::memory_order_release);
  });
  while (!ran.load(std::memory_order_acquire)) std::this_thread::yield();
  EXPECT_EQ(observed.load(), 0u);
}

TEST(ThreadPoolPropagationTest, ParallelForCarriesContextToEveryShard) {
  util::ThreadPool pool(3);
  TraceContext ctx{NewTraceId(), NewSpanId()};
  constexpr size_t kShards = 16;
  std::vector<uint64_t> observed(kShards, 0);
  {
    ScopedTraceContext adopt(ctx);
    pool.ParallelFor(kShards,
                     [&](size_t i) { observed[i] = CurrentContext().trace_id; });
  }
  for (size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(observed[i], ctx.trace_id) << "shard " << i;
  }
}

// ---------------------------------------------------------------------------
// obs::Trace join-or-create semantics
// ---------------------------------------------------------------------------

TEST(TraceJoinTest, NestedTraceJoinsAmbientTraceId) {
  ASSERT_FALSE(CurrentContext().valid());
  uint64_t outer_id = 0;
  {
    Trace outer("outer_op");
    EXPECT_TRUE(outer.owns_trace());
    outer_id = outer.context().trace_id;
    EXPECT_NE(outer_id, 0u);
    EXPECT_EQ(CurrentContext().trace_id, outer_id);
    {
      Trace inner("inner_op");
      EXPECT_FALSE(inner.owns_trace());
      EXPECT_EQ(inner.context().trace_id, outer_id);
      EXPECT_NE(inner.context().span_id, outer.context().span_id);
      EXPECT_EQ(CurrentContext().span_id, inner.context().span_id);
    }
    EXPECT_EQ(CurrentContext().span_id, outer.context().span_id);
  }
  EXPECT_FALSE(CurrentContext().valid());
}

}  // namespace
}  // namespace querc::obs
