/** @file Unit tests for error reporting. */

#include <gtest/gtest.h>

#include "common/logging.hh"

namespace
{

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(ff_panic("boom ", 42), "boom 42");
}

TEST(LoggingDeathTest, PanicIfTriggersOnTrue)
{
    EXPECT_DEATH(ff_panic_if(1 + 1 == 2, "math works"), "math works");
}

TEST(Logging, PanicIfIgnoresFalse)
{
    ff_panic_if(false, "never");
    SUCCEED();
}

TEST(LoggingDeathTest, FatalExitsWithOne)
{
    EXPECT_EXIT(ff_fatal("config ", "bad"),
                ::testing::ExitedWithCode(1), "config bad");
}

TEST(LoggingDeathTest, FatalIfTriggersOnTrue)
{
    EXPECT_EXIT(ff_fatal_if(true, "nope"),
                ::testing::ExitedWithCode(1), "nope");
}

TEST(Logging, WarnAndInformDoNotTerminate)
{
    ff_warn("just a warning ", 1);
    ff_inform("status ", 2);
    SUCCEED();
}

} // namespace
