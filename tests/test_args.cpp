// Tests for the CLI argument parser.
#include <gtest/gtest.h>

#include "util/args.h"

using bro::Args;

namespace {

Args parse(std::initializer_list<const char*> argv_tail) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), argv_tail.begin(), argv_tail.end());
  return Args(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(Args, PositionalOnly) {
  const auto a = parse({"tune", "cant"});
  EXPECT_EQ(a.positional(), (std::vector<std::string>{"tune", "cant"}));
  EXPECT_FALSE(a.has("anything"));
}

TEST(Args, EqualsSyntax) {
  const auto a = parse({"--scale=0.5", "--device=k20"});
  EXPECT_DOUBLE_EQ(a.get_double("scale", 1.0), 0.5);
  EXPECT_EQ(a.get("device", "x"), "k20");
}

TEST(Args, SpaceSyntax) {
  const auto a = parse({"spmv", "--format", "BRO-ELL", "m.mtx"});
  EXPECT_EQ(a.get("format", ""), "BRO-ELL");
  EXPECT_EQ(a.positional(), (std::vector<std::string>{"spmv", "m.mtx"}));
}

TEST(Args, BareFlag) {
  const auto a = parse({"--verbose", "--level", "3"});
  EXPECT_TRUE(a.has("verbose"));
  EXPECT_EQ(a.get("verbose", "default"), "");
  EXPECT_EQ(a.get_long("level", 0), 3);
}

TEST(Args, FlagFollowedByOptionIsBare) {
  const auto a = parse({"--flag", "--scale=2"});
  EXPECT_TRUE(a.has("flag"));
  EXPECT_EQ(a.get("flag", "x"), "");
  EXPECT_DOUBLE_EQ(a.get_double("scale", 0), 2.0);
}

TEST(Args, NumericParseErrors) {
  const auto a = parse({"--scale", "abc"});
  EXPECT_THROW(a.get_double("scale", 0), std::runtime_error);
  EXPECT_THROW(a.get_long("scale", 0), std::runtime_error);
}

TEST(Args, RejectsTrailingGarbage) {
  // strtol/strtod stop at the first bad character; the parser must treat a
  // partially consumed token ("12abc" -> 12) as an error, not a value.
  const auto a = parse({"--rounds", "12abc", "--eps", "1.5x", "--n", "7 "});
  EXPECT_THROW(a.get_long("rounds", 0), std::runtime_error);
  EXPECT_THROW(a.get_double("rounds", 0), std::runtime_error);
  EXPECT_THROW(a.get_double("eps", 0), std::runtime_error);
  EXPECT_THROW(a.get_long("n", 0), std::runtime_error);
}

TEST(Args, NumericFlagWithoutValueIsAnError) {
  // A numeric flag at the end of the line, or followed by another flag,
  // has no value: an error, not the fallback.
  const auto a = parse({"--max-batch", "--scale=2", "--eps"});
  EXPECT_THROW(a.get_long("max-batch", 8), std::runtime_error);
  EXPECT_THROW(a.get_double("max-batch", 8), std::runtime_error);
  EXPECT_THROW(a.get_double("eps", 0), std::runtime_error);
  EXPECT_DOUBLE_EQ(a.get_double("scale", 0), 2.0);
}

TEST(Args, AcceptsFullyConsumedNumbers) {
  const auto a = parse({"--rounds", "12", "--eps", "1.5e-3", "--neg", "-4"});
  EXPECT_EQ(a.get_long("rounds", 0), 12);
  EXPECT_DOUBLE_EQ(a.get_double("eps", 0), 1.5e-3);
  EXPECT_EQ(a.get_long("neg", 0), -4);
  EXPECT_DOUBLE_EQ(a.get_double("rounds", 0), 12.0);
}

TEST(Args, AllowOnlyValidation) {
  const auto a = parse({"--scale=1", "--oops=2"});
  EXPECT_THROW(a.allow_only({"scale"}), std::runtime_error);
  EXPECT_NO_THROW(a.allow_only({"scale", "oops"}));
}

TEST(Args, FallbacksWhenMissing) {
  const auto a = parse({});
  EXPECT_EQ(a.get("k", "fb"), "fb");
  EXPECT_DOUBLE_EQ(a.get_double("k", 1.5), 1.5);
  EXPECT_EQ(a.get_long("k", 9), 9);
}
