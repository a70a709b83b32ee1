/**
 * @file
 * Compiled with NDEBUG defined (see tests/CMakeLists.txt) to prove that
 * the simulator's invariant checks do NOT compile away in Release
 * builds the way <cassert> does: sim_assert, panic, and fatal must all
 * still fire. A silent NDEBUG no-op here would let a Release campaign
 * produce wrong numbers instead of a failed cell.
 */

#ifndef NDEBUG
#error "test_assert_release must be compiled with NDEBUG defined"
#endif

#include <gtest/gtest.h>

#include <string>

#include "common/error.hh"
#include "common/logging.hh"

using namespace simalpha;

TEST(AssertRelease, SimAssertStaysEnabledUnderNdebug)
{
    bool threw = false;
    try {
        sim_assert(1 == 2);
    } catch (const InvariantError &e) {
        threw = true;
        EXPECT_EQ(e.kind(), "invariant");
        EXPECT_FALSE(e.retryable());
        std::string what = e.what();
        EXPECT_NE(what.find("1 == 2"), std::string::npos) << what;
    }
    EXPECT_TRUE(threw)
        << "sim_assert compiled away under NDEBUG — invariant checks "
           "must not depend on the build type";
}

TEST(AssertRelease, SimAssertPassesOnTrueCondition)
{
    EXPECT_NO_THROW({ sim_assert(1 == 1); });
}

TEST(AssertRelease, PanicStillThrowsUnderNdebug)
{
    try {
        panic("release-mode panic %s", "payload");
        FAIL() << "panic returned";
    } catch (const InvariantError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("release-mode panic payload"),
                  std::string::npos)
            << what;
        EXPECT_EQ(what.find("test_assert_release"), std::string::npos)
            << "the message carries the source location: " << what;
        EXPECT_NE(e.location().find("test_assert_release"),
                  std::string::npos)
            << "panic lost its source location: " << e.location();
    }
}

TEST(AssertRelease, FatalStillThrowsUnderNdebug)
{
    try {
        fatal("release-mode fatal");
        FAIL() << "fatal returned";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.kind(), "config");
        EXPECT_FALSE(e.retryable());
        EXPECT_STREQ(e.what(), "release-mode fatal");
    }
}
