/// \file test_parse_arg.cpp
/// \brief Strict numeric argument parsing shared by the bench and
/// example command lines (util/parse_arg.hpp).
#include "util/parse_arg.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace {

using stps::util::parse_number;

TEST(ParseArg, AcceptsWholeDecimalNumbers)
{
  EXPECT_EQ(parse_number<uint64_t>("0"), 0u);
  EXPECT_EQ(parse_number<uint64_t>("18446744073709551615"),
            UINT64_MAX);
  EXPECT_EQ(parse_number<uint32_t>("4"), 4u);
  EXPECT_EQ(parse_number<int64_t>("-1"), -1); // signed: -1 = unlimited
  EXPECT_EQ(parse_number<double>("2.5"), 2.5);
  EXPECT_EQ(parse_number<double>("0"), 0.0);
}

TEST(ParseArg, RejectsMalformedNegativeAndTrailingGarbage)
{
  EXPECT_FALSE(parse_number<uint32_t>("x"));
  EXPECT_FALSE(parse_number<uint32_t>(""));
  EXPECT_FALSE(parse_number<uint64_t>("-1")); // no wrap to 2^64 - 1
  EXPECT_FALSE(parse_number<uint64_t>("+1"));
  EXPECT_FALSE(parse_number<uint64_t>(" 1"));
  EXPECT_FALSE(parse_number<uint64_t>("12abc"));
  EXPECT_FALSE(parse_number<uint64_t>("1 "));
  EXPECT_FALSE(parse_number<uint32_t>("4294967296")); // out of range
  EXPECT_FALSE(parse_number<uint64_t>("18446744073709551616"));
  EXPECT_FALSE(parse_number<int64_t>("-"));
  EXPECT_FALSE(parse_number<double>("-3"));
  EXPECT_FALSE(parse_number<double>("nan"));
  EXPECT_FALSE(parse_number<double>("inf"));
  EXPECT_FALSE(parse_number<double>("1.5s"));
}

TEST(ParseArgDeathTest, MalformedValueExitsWithUsage)
{
  uint32_t threads = 1;
  EXPECT_EXIT(stps::util::parse_arg_or_exit(threads, "--threads", "x",
                                            "usage: tool [--threads N]\n"),
              testing::ExitedWithCode(2),
              "invalid value for --threads: 'x'\nusage: tool");
  stps::util::parse_arg_or_exit(threads, "--threads", "3", "");
  EXPECT_EQ(threads, 3u);
}

} // namespace
