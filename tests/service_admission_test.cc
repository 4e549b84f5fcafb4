#include "service/admission.h"

#include <gtest/gtest.h>

#include <string>

namespace ppm::service {
namespace {

TEST(ParseTenantQuotasTest, ParsesSingleAndMultipleEntries) {
  auto one = ParseTenantQuotas("alpha=10:20:4");
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_EQ(one->size(), 1u);
  EXPECT_EQ(one->at("alpha").rps, 10.0);
  EXPECT_EQ(one->at("alpha").burst, 20.0);
  EXPECT_EQ(one->at("alpha").max_inflight, 4u);

  auto many = ParseTenantQuotas("alpha=10:20:4,default=2:2:1,beta=0:0:8");
  ASSERT_TRUE(many.ok()) << many.status().ToString();
  EXPECT_EQ(many->size(), 3u);
  EXPECT_EQ(many->at("default").max_inflight, 1u);
  EXPECT_EQ(many->at("beta").rps, 0.0);
  EXPECT_EQ(many->at("beta").max_inflight, 8u);
}

TEST(ParseTenantQuotasTest, EmptySpecYieldsNoQuotas) {
  auto quotas = ParseTenantQuotas("");
  ASSERT_TRUE(quotas.ok()) << quotas.status().ToString();
  EXPECT_TRUE(quotas->empty());
}

TEST(ParseTenantQuotasTest, RateWithoutBurstGetsBucketOfOne) {
  auto quotas = ParseTenantQuotas("a=5:0:0");
  ASSERT_TRUE(quotas.ok()) << quotas.status().ToString();
  EXPECT_EQ(quotas->at("a").burst, 1.0);
}

TEST(ParseTenantQuotasTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"alpha", "alpha=1:2", "alpha=1:2:3:4", "=1:2:3", "alpha=x:2:3",
        "alpha=1:2:3,", "alpha=1:2:3,alpha=4:5:6", "alpha=-1:2:3",
        "alpha=1:2:3.5"}) {
    EXPECT_FALSE(ParseTenantQuotas(bad).ok()) << bad;
  }
}

class AdmissionControllerTest : public ::testing::Test {
 protected:
  AdmissionController Make(AdmissionController::Options options) {
    options.now_ms = [this] { return now_ms_; };
    return AdmissionController(std::move(options));
  }

  AdmissionController Make(uint64_t queue_capacity, uint64_t num_workers = 1) {
    AdmissionController::Options options;
    options.queue_capacity = queue_capacity;
    options.num_workers = num_workers;
    return Make(std::move(options));
  }

  uint64_t now_ms_ = 1000;
};

TEST_F(AdmissionControllerTest, UnlimitedByDefault) {
  auto controller = Make(100, 2);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(controller.Admit("anyone", 0).admitted);
  }
  EXPECT_EQ(controller.queue_depth(), 50u);
}

TEST_F(AdmissionControllerTest, TokenBucketLimitsSustainedRate) {
  AdmissionController::Options options;
  options.queue_capacity = 1000;
  ASSERT_TRUE(true);
  auto quotas = ParseTenantQuotas("greedy=10:3:0");
  ASSERT_TRUE(quotas.ok());
  options.quotas = *quotas;
  auto controller = Make(std::move(options));

  // Burst of 3 admits, then the bucket is dry.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(controller.Admit("greedy", 0).admitted) << i;
  }
  auto rejected = controller.Admit("greedy", 0);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_GT(rejected.retry_after_ms, 0u);
  // At 10 rps one token is 100 ms away; the hint must say so.
  EXPECT_LE(rejected.retry_after_ms, 100u);

  // Advance past the hint: admitted again.
  now_ms_ += rejected.retry_after_ms;
  EXPECT_TRUE(controller.Admit("greedy", 0).admitted);

  // Refill never exceeds burst: after a long idle stretch only 3 admits.
  now_ms_ += 60'000;
  int admitted = 0;
  for (int i = 0; i < 10; ++i) {
    if (controller.Admit("greedy", 0).admitted) ++admitted;
  }
  EXPECT_EQ(admitted, 3);
}

TEST_F(AdmissionControllerTest, InflightCapIsolatesTenants) {
  AdmissionController::Options options;
  options.queue_capacity = 8;
  auto quotas = ParseTenantQuotas("greedy=0:0:2");
  ASSERT_TRUE(quotas.ok());
  options.quotas = *quotas;
  auto controller = Make(std::move(options));

  EXPECT_TRUE(controller.Admit("greedy", 0).admitted);
  EXPECT_TRUE(controller.Admit("greedy", 0).admitted);
  auto rejected = controller.Admit("greedy", 0);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_NE(rejected.reason.find("in-flight"), std::string::npos);

  // The polite tenant is untouched: greedy's cap leaves queue room.
  EXPECT_TRUE(controller.Admit("polite", 0).admitted);

  // Completion releases the slot.
  controller.OnDequeued();
  controller.OnCompleted("greedy");
  EXPECT_TRUE(controller.Admit("greedy", 0).admitted);
}

TEST_F(AdmissionControllerTest, QueueFullRejectsEveryone) {
  auto controller = Make(2);
  EXPECT_TRUE(controller.Admit("a", 0).admitted);
  EXPECT_TRUE(controller.Admit("b", 0).admitted);
  auto rejected = controller.Admit("c", 0);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_NE(rejected.reason.find("queue full"), std::string::npos);
  controller.OnDequeued();
  EXPECT_TRUE(controller.Admit("c", 0).admitted);
}

TEST_F(AdmissionControllerTest, DeadlineInfeasibleRequestsAreShedEarly) {
  auto controller = Make(100, 1);
  // Teach the EMA that requests take ~200 ms.
  controller.OnExecuted(200);
  // Build a backlog of 5 -> estimated wait ~1000 ms.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(controller.Admit("t", 0).admitted);
  }
  // A 100 ms deadline cannot survive a ~1 s queue wait.
  auto shed = controller.Admit("t", 100);
  EXPECT_FALSE(shed.admitted);
  EXPECT_NE(shed.reason.find("deadline"), std::string::npos);
  EXPECT_GE(shed.retry_after_ms, 100u);
  // A generous deadline still gets in; so does no deadline at all.
  EXPECT_TRUE(controller.Admit("t", 10'000).admitted);
  EXPECT_TRUE(controller.Admit("t", 0).admitted);
}

TEST_F(AdmissionControllerTest, EmptyQueueNeverShedsOnDeadline) {
  // The existing 1 ms-deadline server test depends on this: with no
  // backlog the estimated wait is zero and even a tiny deadline admits.
  auto controller = Make(4);
  controller.OnExecuted(10'000);
  EXPECT_TRUE(controller.Admit("t", 1).admitted);
}

TEST_F(AdmissionControllerTest, ReadyStateDegradesWithQueueDepth) {
  AdmissionController::Options options;
  options.queue_capacity = 4;
  options.shed_watermark = 3;
  auto controller = Make(std::move(options));
  EXPECT_EQ(controller.ready_state(), wire::ReadyState::kAccepting);
  for (int i = 0; i < 3; ++i) controller.Admit("t", 0);
  EXPECT_EQ(controller.ready_state(), wire::ReadyState::kShedding);
  controller.OnDequeued();
  EXPECT_EQ(controller.ready_state(), wire::ReadyState::kAccepting);
}

TEST_F(AdmissionControllerTest, CachePressureDegradesReadiness) {
  double pressure = 0.0;
  AdmissionController::Options options;
  options.queue_capacity = 100;
  options.cache_pressure = [&pressure] { return pressure; };
  auto controller = Make(std::move(options));
  EXPECT_EQ(controller.ready_state(), wire::ReadyState::kAccepting);
  pressure = 0.99;
  EXPECT_EQ(controller.ready_state(), wire::ReadyState::kShedding);
}

TEST_F(AdmissionControllerTest, DrainRejectsAndReportsDraining) {
  auto controller = Make(4);
  controller.StartDrain();
  EXPECT_EQ(controller.ready_state(), wire::ReadyState::kDraining);
  auto rejected = controller.Admit("t", 0);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_NE(rejected.reason.find("draining"), std::string::npos);
}

TEST_F(AdmissionControllerTest, AdversarialTenantCardinalityIsBounded) {
  auto controller = Make(100'000);
  // Thousands of distinct tenant names must not grow state without bound;
  // the health snapshot stays small because the tail shares one bucket.
  for (int i = 0; i < 5000; ++i) {
    controller.Admit("tenant-" + std::to_string(i), 0);
    controller.OnDequeued();
    controller.OnCompleted("tenant-" + std::to_string(i));
  }
  const std::string health = controller.HealthJson();
  EXPECT_LT(health.size(), 64u * 1024u);
  EXPECT_NE(health.find("!overflow"), std::string::npos);
}

TEST_F(AdmissionControllerTest, HealthJsonReportsCounters) {
  AdmissionController::Options options;
  options.queue_capacity = 4;
  auto quotas = ParseTenantQuotas("greedy=0:0:1");
  ASSERT_TRUE(quotas.ok());
  options.quotas = *quotas;
  auto controller = Make(std::move(options));
  ASSERT_TRUE(controller.Admit("greedy", 0).admitted);
  EXPECT_FALSE(controller.Admit("greedy", 0).admitted);
  const std::string health = controller.HealthJson();
  EXPECT_NE(health.find("\"ready_state\":\"accepting\""), std::string::npos)
      << health;
  EXPECT_NE(health.find("\"greedy\":{\"inflight\":1,\"admitted\":1,"
                        "\"rejected\":1"),
            std::string::npos)
      << health;
  EXPECT_NE(health.find("\"queue_capacity\":4"), std::string::npos) << health;
}

}  // namespace
}  // namespace ppm::service
