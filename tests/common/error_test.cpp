#include "common/error.h"

#include <gtest/gtest.h>

namespace lsqca {
namespace {

TEST(Error, RequirePassesOnTrue)
{
    EXPECT_NO_THROW(LSQCA_REQUIRE(true, "ok"));
}

TEST(Error, RequireThrowsConfigError)
{
    EXPECT_THROW(LSQCA_REQUIRE(false, "bad input"), ConfigError);
}

TEST(Error, AssertThrowsInternalError)
{
    EXPECT_THROW(LSQCA_ASSERT(1 == 2, "broken invariant"), InternalError);
}

TEST(Error, ConfigErrorMessageContainsContext)
{
    try {
        LSQCA_REQUIRE(false, "the width is wrong");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        // The message is the user's to read: its text, and no source
        // location of the build.
        const std::string what = e.what();
        EXPECT_NE(what.find("the width is wrong"), std::string::npos);
        EXPECT_EQ(what.find("error_test.cpp"), std::string::npos) << what;
    }
}

TEST(Error, InternalErrorMessageContainsExpression)
{
    try {
        LSQCA_ASSERT(2 + 2 == 5, "math failed");
        FAIL() << "expected InternalError";
    } catch (const InternalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("math failed"), std::string::npos);
        EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
    }
}

TEST(Error, ConfigErrorIsRuntimeError)
{
    EXPECT_THROW(LSQCA_REQUIRE(false, "x"), std::runtime_error);
}

TEST(Error, InternalErrorIsLogicError)
{
    EXPECT_THROW(LSQCA_ASSERT(false, "x"), std::logic_error);
}

} // namespace
} // namespace lsqca
