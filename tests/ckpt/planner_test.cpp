// Interval-planner unit tests: MTBF estimation from observed failures,
// the Young closed form, the cvar-driven mode switch, and the
// should_save() cadence helper. The planner is process-global, so every
// test resets it on entry and exit.

#include "sessmpi/ckpt/planner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "sessmpi/ckpt/ckpt.hpp"
#include "sessmpi/obs/tvar.hpp"

namespace sessmpi::ckpt {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    planner().reset();
    obs::cvar_write("ckpt.interval.mode", "fixed");
    obs::cvar_write("ckpt.interval.fixed_ns", "0");
  }
  void TearDown() override { SetUp(); }
};

TEST_F(PlannerTest, MtbfNeedsTwoFailures) {
  EXPECT_EQ(planner().mtbf_ns(), 0);
  planner().note_failure(1'000);
  EXPECT_EQ(planner().mtbf_ns(), 0);  // one failure is not a rate
  planner().note_failure(11'000);
  EXPECT_EQ(planner().mtbf_ns(), 10'000);
  planner().note_failure(21'000);
  EXPECT_EQ(planner().mtbf_ns(), 10'000);  // (21000 - 1000) / 2
  EXPECT_EQ(planner().failures(), 3u);
}

TEST_F(PlannerTest, SaveCostIsAnEwma) {
  planner().note_save_cost(1000);
  EXPECT_EQ(planner().save_cost_ns(), 1000);
  planner().note_save_cost(2000);
  EXPECT_EQ(planner().save_cost_ns(), (3 * 1000 + 2000) / 4);
  planner().note_save_cost(0);   // ignored
  planner().note_save_cost(-5);  // ignored
  EXPECT_EQ(planner().save_cost_ns(), 1250);
}

TEST_F(PlannerTest, YoungClosedForm) {
  constexpr std::int64_t delta = 2'000'000;     // 2 ms save
  constexpr std::int64_t mtbf = 1'000'000'000;  // 1 s MTBF
  const std::int64_t y = IntervalPlanner::young(delta, mtbf);
  EXPECT_EQ(y, static_cast<std::int64_t>(
                   std::sqrt(2.0 * static_cast<double>(delta) *
                             static_cast<double>(mtbf))));
  EXPECT_EQ(IntervalPlanner::young(0, mtbf), 0);
  EXPECT_EQ(IntervalPlanner::young(delta, 0), 0);
}

TEST_F(PlannerTest, EffectiveIntervalFollowsModeWithFixedFallback) {
  ASSERT_TRUE(obs::cvar_write("ckpt.interval.fixed_ns", "5000000"));
  EXPECT_EQ(planner().effective_interval_ns(), 5'000'000);

  ASSERT_TRUE(obs::cvar_write("ckpt.interval.mode", "planned"));
  // No MTBF yet: planned mode falls back to the fixed interval.
  EXPECT_EQ(planner().effective_interval_ns(), 5'000'000);

  planner().note_save_cost(1'000'000);
  planner().note_failure(0);
  planner().note_failure(100'000'000);
  EXPECT_EQ(planner().effective_interval_ns(),
            IntervalPlanner::young(1'000'000, 100'000'000));

  // The gauges mirror the same numbers through the MPI_T surface.
  EXPECT_EQ(obs::cvar_read("ckpt.interval.mode"), "planned");

  // Bad values are rejected without changing state.
  EXPECT_FALSE(obs::cvar_write("ckpt.interval.mode", "sometimes"));
  EXPECT_FALSE(obs::cvar_write("ckpt.interval.fixed_ns", "-3"));
  EXPECT_FALSE(obs::cvar_write("ckpt.interval.fixed_ns", "soon"));
  EXPECT_EQ(obs::cvar_read("ckpt.interval.mode"), "planned");
  EXPECT_EQ(obs::cvar_read("ckpt.interval.fixed_ns"), "5000000");
}

TEST_F(PlannerTest, YoungIsTheOnlyModel) {
  // The planner is registered (SetUp touched it), and it has no model
  // switch: the planned interval is Young's, whatever is written.
  EXPECT_FALSE(obs::cvar_write("ckpt.planner.model", "young"));
  EXPECT_FALSE(obs::cvar_write("ckpt.planner.model", "daly"));
  EXPECT_EQ(obs::cvar_read("ckpt.planner.model"), std::nullopt);
  planner().note_save_cost(2'000'000);
  planner().note_failure(0);
  planner().note_failure(1'000'000'000);
  EXPECT_EQ(planner().planned_interval_ns(),
            IntervalPlanner::young(2'000'000, 1'000'000'000));
}

TEST_F(PlannerTest, ShouldSaveArmsDeadlinesFromTheEffectiveInterval) {
  Checkpointer ck("planner-cadence");
  // No interval configured: every call says "save now".
  EXPECT_TRUE(ck.should_save(0));
  EXPECT_TRUE(ck.should_save(1));

  ASSERT_TRUE(obs::cvar_write("ckpt.interval.fixed_ns", "1000"));
  EXPECT_TRUE(ck.should_save(10));  // first due call arms deadline 1010
  EXPECT_FALSE(ck.should_save(500));
  EXPECT_FALSE(ck.should_save(1009));
  EXPECT_TRUE(ck.should_save(1010));  // fires and re-arms at 2010
  EXPECT_FALSE(ck.should_save(1011));

  // Dropping the interval back to zero disarms the deadline.
  ASSERT_TRUE(obs::cvar_write("ckpt.interval.fixed_ns", "0"));
  EXPECT_TRUE(ck.should_save(1012));
}

}  // namespace
}  // namespace sessmpi::ckpt
