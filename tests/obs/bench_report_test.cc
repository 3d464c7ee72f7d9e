/**
 * @file
 * BenchReport tests: uniform header, close semantics, and failure
 * behavior when the output file cannot be created.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/bench_report.hh"

namespace dewrite::obs {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(BenchReportTest, WritesUniformHeaderAndPayload)
{
    {
        BenchReport report("unit_smoke", 1234, 8);
        ASSERT_TRUE(report.opened());
        EXPECT_EQ(report.path(), "BENCH_unit_smoke.json");
        report.json().field("payload", 7);
        EXPECT_TRUE(report.close());
    }
    const std::string text = slurp("BENCH_unit_smoke.json");
    EXPECT_NE(text.find("\"bench\": \"unit_smoke\""),
              std::string::npos);
    EXPECT_NE(text.find("\"schema_version\": 2"), std::string::npos);
    EXPECT_NE(text.find("\"events_per_cell\": 1234"),
              std::string::npos);
    EXPECT_NE(text.find("\"threads\": 8"), std::string::npos);
    // Schema v2: every header carries the provenance block.
    EXPECT_NE(text.find("\"provenance\""), std::string::npos);
    EXPECT_NE(text.find("\"git_sha\""), std::string::npos);
    EXPECT_NE(text.find("\"git_dirty\""), std::string::npos);
    EXPECT_NE(text.find("\"host_cpus\""), std::string::npos);
    EXPECT_NE(text.find("\"knobs\""), std::string::npos);
    EXPECT_NE(text.find("\"DEWRITE_SHARDS\""), std::string::npos);
    EXPECT_NE(text.find("\"payload\": 7"), std::string::npos);
    std::remove("BENCH_unit_smoke.json");
}

TEST(BenchReportTest, DoubleCloseReportsFalseSecondTime)
{
    BenchReport report("unit_double_close", 1, 1);
    ASSERT_TRUE(report.opened());
    EXPECT_TRUE(report.close());
    EXPECT_FALSE(report.close());
    std::remove("BENCH_unit_double_close.json");
}

TEST(BenchReportTest, UnopenableFileStaysUsableButCloseFails)
{
    // A name with a path separator lands in a directory that does not
    // exist, so the fopen fails; the writer must stay valid.
    BenchReport report("no_such_dir/x", 1, 1);
    EXPECT_FALSE(report.opened());
    report.json().field("still", "usable");
    EXPECT_TRUE(report.json().ok());
    EXPECT_FALSE(report.close());
}

} // namespace
} // namespace dewrite::obs
