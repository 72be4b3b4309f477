// Argument validation at the two entry points of a live run: the mmrfd-node
// argv and the SupervisorConfig. Both reject a resend interval under 1 ms,
// which would make the detector's quorum wait time out at once and spin
// resend waves in a tight loop. Validation happens before any socket is
// bound or process spawned, so these run as plain unit tests.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>

#include "live/node_runtime.h"
#include "live/supervisor.h"

namespace mmrfd::live {
namespace {

TEST(NodeMain, RejectsZeroResendInterval) {
  // --run-s bounds the run should validation ever let this node start.
  const char* const argv[] = {"mmrfd-node", "--self=0",  "--n=3",
                              "--f=1",      "--run-s=1", "--resend-ms=0"};
  testing::internal::CaptureStderr();
  EXPECT_EQ(node_main(6, argv), 2);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("--resend-ms"),
            std::string::npos);
}

TEST(Supervisor, RejectsSubMillisecondResend) {
  SupervisorConfig cfg;
  cfg.n = 3;
  cfg.f = 1;
  cfg.report_dir = "unused";
  cfg.resend = std::chrono::microseconds(999);
  EXPECT_THROW(Supervisor{cfg}, std::invalid_argument);
  cfg.resend = Duration::zero();
  EXPECT_THROW(Supervisor{cfg}, std::invalid_argument);
  cfg.resend = from_millis(1);  // the smallest interval a node accepts
  EXPECT_NO_THROW(Supervisor{cfg});
}

}  // namespace
}  // namespace mmrfd::live
