/**
 * @file
 * Fail-fast environment helper tests: every DEWRITE_* variable goes
 * through envFlag/envUint, so their rejection behavior is the
 * simulator-wide contract.
 */

#include "common/env.hh"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "dedup/dedup_engine.hh"

namespace dewrite {
namespace {

class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

  private:
    const char *name_;
};

constexpr const char *kVar = "DEWRITE_ENV_TEST_VAR";

TEST(EnvRawTest, ForwardsTheEnvironment)
{
    ::unsetenv(kVar);
    EXPECT_EQ(envRaw(kVar), nullptr);
    ScopedEnv env(kVar, "abc");
    EXPECT_STREQ(envRaw(kVar), "abc");
}

TEST(EnvFlagTest, FallbackWhenUnset)
{
    ::unsetenv(kVar);
    EXPECT_FALSE(envFlag(kVar, false));
    EXPECT_TRUE(envFlag(kVar, true));
}

TEST(EnvFlagTest, ParsesZeroAndOne)
{
    {
        ScopedEnv env(kVar, "1");
        EXPECT_TRUE(envFlag(kVar, false));
    }
    {
        ScopedEnv env(kVar, "0");
        EXPECT_FALSE(envFlag(kVar, true));
    }
}

TEST(EnvFlagDeathTest, RejectsAnythingElse)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char *bad : { "yes", "true", "2", "", " 1" }) {
        ScopedEnv env(kVar, bad);
        EXPECT_EXIT(envFlag(kVar, false),
                    ::testing::ExitedWithCode(1), kVar)
            << "value: \"" << bad << '"';
    }
}

TEST(EnvUintTest, FallbackWhenUnset)
{
    ::unsetenv(kVar);
    // The fallback is returned verbatim, even outside [min, max] —
    // callers use that for "unset means a computed default".
    EXPECT_EQ(envUint(kVar, 0, 1, 10), 0u);
    EXPECT_EQ(envUint(kVar, 42, 1, 10), 42u);
}

TEST(EnvUintTest, ParsesInRangeValues)
{
    ScopedEnv env(kVar, "7");
    EXPECT_EQ(envUint(kVar, 0, 1, 10), 7u);
}

TEST(EnvUintTest, AcceptsTheBounds)
{
    {
        ScopedEnv env(kVar, "1");
        EXPECT_EQ(envUint(kVar, 0, 1, 10), 1u);
    }
    {
        ScopedEnv env(kVar, "10");
        EXPECT_EQ(envUint(kVar, 0, 1, 10), 10u);
    }
}

TEST(EnvUintDeathTest, RejectsMalformedAndOutOfRange)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char *bad :
         { "seven", "7x", "", "-3", "0", "11",
           "18446744073709551616" }) {
        ScopedEnv env(kVar, bad);
        EXPECT_EXIT(envUint(kVar, 0, 1, 10),
                    ::testing::ExitedWithCode(1), kVar)
            << "value: \"" << bad << '"';
    }
}

// Bench provenance records every known knob in this order, and the
// lint cross-checks the list against its own copy; both rely on it
// being sorted, duplicate-free and DEWRITE_-prefixed.
TEST(KnownKnobsTest, SortedUniqueAndPrefixed)
{
    const std::vector<const char *> &knobs = knownKnobs();
    ASSERT_FALSE(knobs.empty());
    for (std::size_t i = 0; i < knobs.size(); ++i) {
        EXPECT_EQ(std::string(knobs[i]).rfind("DEWRITE_", 0), 0u)
            << knobs[i];
        if (i > 0) {
            EXPECT_LT(std::string(knobs[i - 1]), std::string(knobs[i]));
        }
    }
}

TEST(EnvChoiceTest, FallbackWhenUnset)
{
    ::unsetenv(kVar);
    static const char *const names[] = { "alpha", "beta", "gamma" };
    EXPECT_EQ(envChoice(kVar, 2, names, 3), 2u);
}

TEST(EnvChoiceTest, MatchesExactNames)
{
    static const char *const names[] = { "alpha", "beta", "gamma" };
    {
        ScopedEnv env(kVar, "alpha");
        EXPECT_EQ(envChoice(kVar, 2, names, 3), 0u);
    }
    {
        ScopedEnv env(kVar, "gamma");
        EXPECT_EQ(envChoice(kVar, 0, names, 3), 2u);
    }
}

TEST(EnvChoiceDeathTest, RejectsUnknownAndListsTheChoices)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    static const char *const names[] = { "alpha", "beta" };
    for (const char *bad : { "Alpha", "alph", "", " alpha", "2" }) {
        ScopedEnv env(kVar, bad);
        EXPECT_EXIT(envChoice(kVar, 0, names, 2),
                    ::testing::ExitedWithCode(1), "alpha, beta")
            << "value: \"" << bad << '"';
    }
}

TEST(DetectKnobTest, PolicyDefaultsToConfirmRead)
{
    ::unsetenv("DEWRITE_DETECT");
    EXPECT_EQ(detectPolicyFromEnv(), DetectPolicy::ConfirmRead);
}

TEST(DetectKnobTest, PolicyParsesEveryName)
{
    {
        ScopedEnv env("DEWRITE_DETECT", "confirm-read");
        EXPECT_EQ(detectPolicyFromEnv(), DetectPolicy::ConfirmRead);
    }
    {
        ScopedEnv env("DEWRITE_DETECT", "weak-only");
        EXPECT_EQ(detectPolicyFromEnv(), DetectPolicy::WeakOnly);
    }
    {
        ScopedEnv env("DEWRITE_DETECT", "weak-strong");
        EXPECT_EQ(detectPolicyFromEnv(), DetectPolicy::WeakStrong);
    }
    {
        ScopedEnv env("DEWRITE_DETECT", "adaptive");
        EXPECT_EQ(detectPolicyFromEnv(), DetectPolicy::Adaptive);
    }
}

TEST(DetectKnobDeathTest, PolicyRejectsUnknownNames)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char *bad : { "WeakStrong", "strong", "2", "" }) {
        ScopedEnv env("DEWRITE_DETECT", bad);
        EXPECT_EXIT(detectPolicyFromEnv(),
                    ::testing::ExitedWithCode(1), "DEWRITE_DETECT")
            << "value: \"" << bad << '"';
    }
}

TEST(DetectKnobTest, EpochDefaultsAndParses)
{
    ::unsetenv("DEWRITE_DETECT_EPOCH");
    EXPECT_EQ(detectEpochFromEnv(), 4096u);
    ScopedEnv env("DEWRITE_DETECT_EPOCH", "128");
    EXPECT_EQ(detectEpochFromEnv(), 128u);
}

TEST(DetectKnobDeathTest, EpochRejectsOutOfRangeValues)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char *bad : { "0", "63", "1048577", "lots" }) {
        ScopedEnv env("DEWRITE_DETECT_EPOCH", bad);
        EXPECT_EXIT(detectEpochFromEnv(),
                    ::testing::ExitedWithCode(1), "DEWRITE_DETECT_EPOCH")
            << "value: \"" << bad << '"';
    }
}

} // namespace
} // namespace dewrite
