#include "common/flags.h"

#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

namespace approxmem {
namespace {

Flags MustParse(std::vector<const char*> args) {
  args.insert(args.begin(), "binary");
  StatusOr<Flags> flags =
      Flags::Parse(static_cast<int>(args.size()),
                   const_cast<char**>(args.data()));
  EXPECT_TRUE(flags.ok()) << flags.status().ToString();
  return flags.value();
}

TEST(FlagsTest, EqualsSyntax) {
  const Flags flags = MustParse({"--n=1000", "--t=0.055"});
  EXPECT_EQ(flags.GetInt("n", 0), 1000);
  EXPECT_DOUBLE_EQ(flags.GetDouble("t", 0.0), 0.055);
}

TEST(FlagsTest, SpaceSyntax) {
  const Flags flags = MustParse({"--algo", "quicksort"});
  EXPECT_EQ(flags.GetString("algo", ""), "quicksort");
}

TEST(FlagsTest, BareBoolean) {
  const Flags flags = MustParse({"--full", "--n=5"});
  EXPECT_TRUE(flags.GetBool("full", false));
  EXPECT_TRUE(flags.Has("full"));
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagsTest, ExplicitFalse) {
  const Flags flags = MustParse({"--full=false", "--quiet=0"});
  EXPECT_FALSE(flags.GetBool("full", true));
  EXPECT_FALSE(flags.GetBool("quiet", true));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const Flags flags = MustParse({});
  EXPECT_EQ(flags.GetInt("n", 7), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("t", 0.25), 0.25);
  EXPECT_EQ(flags.GetString("s", "d"), "d");
  EXPECT_TRUE(flags.GetBool("b", true));
}

TEST(FlagsTest, RejectsPositionalArguments) {
  std::vector<const char*> args = {"binary", "positional"};
  StatusOr<Flags> flags =
      Flags::Parse(static_cast<int>(args.size()),
                   const_cast<char**>(args.data()));
  EXPECT_FALSE(flags.ok());
  EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument);
}

TEST(FlagsTest, NumbersParseInFull) {
  const Flags flags = MustParse({"--threads=-1", "--budget=4e6", "--t=.5"});
  EXPECT_EQ(flags.GetInt("threads", 0), -1);
  EXPECT_DOUBLE_EQ(flags.GetDouble("budget", 0.0), 4.0e6);
  EXPECT_DOUBLE_EQ(flags.GetDouble("t", 0.0), 0.5);
}

TEST(FlagsDeathTest, IntegerInENotationExits) {
  const Flags flags = MustParse({"--n=2e3"});
  EXPECT_EXIT(flags.GetInt("n", 0), ::testing::ExitedWithCode(2),
              "invalid value for --n: '2e3'");
}

TEST(FlagsDeathTest, NonNumericIntegerExits) {
  const Flags flags = MustParse({"--n=abc", "--seed="});
  EXPECT_EXIT(flags.GetInt("n", 0), ::testing::ExitedWithCode(2),
              "invalid value for --n: 'abc'");
  EXPECT_EXIT(flags.GetInt("seed", 0), ::testing::ExitedWithCode(2),
              "invalid value for --seed");
}

TEST(FlagsDeathTest, OutOfRangeIntegerExits) {
  const Flags flags = MustParse({"--n=99999999999999999999"});
  EXPECT_EXIT(flags.GetInt("n", 0), ::testing::ExitedWithCode(2),
              "invalid value for --n");
}

TEST(FlagsDeathTest, NumberWithTrailingGarbageExits) {
  const Flags flags = MustParse({"--t=0.055x", "--full"});
  EXPECT_EXIT(flags.GetDouble("t", 0.0), ::testing::ExitedWithCode(2),
              "invalid value for --t: '0.055x'");
  // A bare flag holds "true", which is not a number either.
  EXPECT_EXIT(flags.GetDouble("full", 0.0), ::testing::ExitedWithCode(2),
              "invalid value for --full");
}

TEST(FlagsTest, EnvSizeParsesAndDefaults) {
  ::setenv("APPROXMEM_TEST_ENV_N", "12345", 1);
  EXPECT_EQ(Flags::EnvSize("APPROXMEM_TEST_ENV_N", 1), 12345u);
  ::unsetenv("APPROXMEM_TEST_ENV_N");
  EXPECT_EQ(Flags::EnvSize("APPROXMEM_TEST_ENV_N", 17), 17u);
  ::setenv("APPROXMEM_TEST_ENV_N", "garbage", 1);
  EXPECT_EQ(Flags::EnvSize("APPROXMEM_TEST_ENV_N", 17), 17u);
  ::unsetenv("APPROXMEM_TEST_ENV_N");
}

}  // namespace
}  // namespace approxmem
