#include "common/flags.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace mmsyn {
namespace {

/// argv helper (parse takes char**).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    ptrs_.push_back(const_cast<char*>("prog"));
    for (auto& s : storage_) ptrs_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

Flags make_flags() {
  Flags flags;
  flags.define_int("count", 5, "a count");
  flags.define_double("ratio", 0.5, "a ratio");
  flags.define_bool("verbose", false, "verbosity");
  flags.define_string("name", "default", "a name");
  return flags;
}

TEST(Flags, DefaultsApply) {
  Flags flags = make_flags();
  Argv argv({});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(flags.get_int("count"), 5);
  EXPECT_DOUBLE_EQ(flags.get_double("ratio"), 0.5);
  EXPECT_FALSE(flags.get_bool("verbose"));
  EXPECT_EQ(flags.get_string("name"), "default");
}

TEST(Flags, SpaceSeparatedValues) {
  Flags flags = make_flags();
  Argv argv({"--count", "9", "--ratio", "0.25", "--name", "x"});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(flags.get_int("count"), 9);
  EXPECT_DOUBLE_EQ(flags.get_double("ratio"), 0.25);
  EXPECT_EQ(flags.get_string("name"), "x");
}

TEST(Flags, EqualsSyntax) {
  Flags flags = make_flags();
  Argv argv({"--count=7", "--verbose=true"});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(flags.get_int("count"), 7);
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(Flags, BareBooleanIsTrue) {
  Flags flags = make_flags();
  Argv argv({"--verbose"});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(Flags, UnknownFlagFails) {
  Flags flags = make_flags();
  Argv argv({"--bogus", "1"});
  EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
}

TEST(Flags, MissingValueFails) {
  Flags flags = make_flags();
  Argv argv({"--count"});
  EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
}

TEST(Flags, PositionalArgumentFails) {
  Flags flags = make_flags();
  Argv argv({"stray"});
  EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
}

TEST(Flags, HelpReturnsFalse) {
  Flags flags = make_flags();
  Argv argv({"--help"});
  EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
}

TEST(Flags, TypeMismatchThrows) {
  Flags flags = make_flags();
  EXPECT_THROW((void)flags.get_int("ratio"), std::logic_error);
  EXPECT_THROW((void)flags.get_bool("count"), std::logic_error);
  EXPECT_THROW((void)flags.get_int("nonexistent"), std::out_of_range);
}

TEST(Flags, ChoiceDefaultsAndExplicitValues) {
  Flags flags;
  flags.define_choice("dvs", {"none", "pv-dvs"}, "none", "pv-dvs", "backend");
  Argv none({});
  ASSERT_TRUE(flags.parse(none.argc(), none.argv()));
  EXPECT_EQ(flags.get_string("dvs"), "none");

  Argv eq({"--dvs=pv-dvs"});
  ASSERT_TRUE(flags.parse(eq.argc(), eq.argv()));
  EXPECT_EQ(flags.get_string("dvs"), "pv-dvs");
}

TEST(Flags, BareChoiceSelectsImplicitValue) {
  Flags flags;
  flags.define_choice("dvs", {"none", "pv-dvs"}, "none", "pv-dvs", "backend");
  flags.define_bool("audit", false, "audit");
  // `--dvs` as the last argument and followed by another flag both take
  // the implicit value; a trailing registered choice is consumed.
  Argv last({"--dvs"});
  ASSERT_TRUE(flags.parse(last.argc(), last.argv()));
  EXPECT_EQ(flags.get_string("dvs"), "pv-dvs");

  Flags flags2;
  flags2.define_choice("dvs", {"none", "pv-dvs"}, "none", "pv-dvs", "backend");
  flags2.define_bool("audit", false, "audit");
  Argv before({"--dvs", "--audit"});
  ASSERT_TRUE(flags2.parse(before.argc(), before.argv()));
  EXPECT_EQ(flags2.get_string("dvs"), "pv-dvs");
  EXPECT_TRUE(flags2.get_bool("audit"));

  Flags flags3;
  flags3.define_choice("dvs", {"none", "pv-dvs"}, "none", "pv-dvs", "backend");
  Argv spaced({"--dvs", "none"});
  ASSERT_TRUE(flags3.parse(spaced.argc(), spaced.argv()));
  EXPECT_EQ(flags3.get_string("dvs"), "none");
}

TEST(Flags, UnknownChoiceValueFails) {
  Flags flags;
  flags.define_choice("scheduler", {"bottom-level", "topo-order"},
                      "bottom-level", "bottom-level", "backend");
  Argv argv({"--scheduler=simulated-annealing"});
  EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
}

TEST(Flags, ChoiceReadsBackAsStringOnly) {
  Flags flags;
  flags.define_choice("scheduler", {"a", "b"}, "a", "a", "backend");
  EXPECT_EQ(flags.get_string("scheduler"), "a");
  EXPECT_THROW((void)flags.get_int("scheduler"), std::logic_error);
}

struct TokenCase {
  std::string flag;
  std::string token;

  friend void PrintTo(const TokenCase& c, std::ostream* os) {
    *os << "--" << c.flag << " '" << c.token << "'";
  }
};

class FlagsRejectsToken : public ::testing::TestWithParam<TokenCase> {};

TEST_P(FlagsRejectsToken, ParseFailsAndNamesFlagAndToken) {
  const TokenCase& c = GetParam();
  // A bare boolean flag takes no value, so its token only binds with `=`.
  const bool spaced_binds = c.flag != "verbose";
  for (const bool equals : {true, false}) {
    if (!equals && !spaced_binds) continue;
    Flags flags = make_flags();
    Argv argv(equals ? std::vector<std::string>{"--" + c.flag + "=" + c.token}
                     : std::vector<std::string>{"--" + c.flag, c.token});
    ::testing::internal::CaptureStderr();
    const bool ok = flags.parse(argv.argc(), argv.argv());
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(ok) << "--" << c.flag << " '" << c.token << "'";
    EXPECT_NE(err.find("--" + c.flag), std::string::npos) << err;
    EXPECT_NE(err.find("'" + c.token + "'"), std::string::npos) << err;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, FlagsRejectsToken,
    ::testing::Values(TokenCase{"count", "abc"}, TokenCase{"count", "1x"},
                      TokenCase{"count", ""}, TokenCase{"count", "1.5"},
                      TokenCase{"count", " 7"}, TokenCase{"count", "7 "},
                      TokenCase{"count", "0x10"},
                      TokenCase{"count", "9223372036854775808"},
                      TokenCase{"count", "-9223372036854775809"},
                      TokenCase{"ratio", "nan"}, TokenCase{"ratio", "NaN"},
                      TokenCase{"ratio", "inf"}, TokenCase{"ratio", "-inf"},
                      TokenCase{"ratio", "1e999"}, TokenCase{"ratio", "0.5s"},
                      TokenCase{"ratio", "abc"}, TokenCase{"ratio", ""},
                      TokenCase{"verbose", "maybe"},
                      TokenCase{"verbose", "TRUE"},
                      TokenCase{"verbose", ""}));

// Cases print as the command-line token they parse, so their test names are
// stable; gtest's default byte dump would embed the string's heap address.
struct IntCase {
  std::string token;
  std::int64_t value;

  friend void PrintTo(const IntCase& c, std::ostream* os) {
    *os << "--count=" << c.token;
  }
};

class FlagsAcceptsInt : public ::testing::TestWithParam<IntCase> {};

TEST_P(FlagsAcceptsInt, ParsesWholeToken) {
  Flags flags = make_flags();
  Argv argv({"--count=" + GetParam().token});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(flags.get_int("count"), GetParam().value);
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, FlagsAcceptsInt,
    ::testing::Values(IntCase{"0", 0}, IntCase{"-1", -1}, IntCase{"007", 7},
                      IntCase{"9223372036854775807",
                              std::numeric_limits<std::int64_t>::max()},
                      IntCase{"-9223372036854775808",
                              std::numeric_limits<std::int64_t>::min()}));

struct DoubleCase {
  std::string token;
  double value;

  friend void PrintTo(const DoubleCase& c, std::ostream* os) {
    *os << "--ratio " << c.token;
  }
};

class FlagsAcceptsDouble : public ::testing::TestWithParam<DoubleCase> {};

TEST_P(FlagsAcceptsDouble, ParsesWholeToken) {
  Flags flags = make_flags();
  Argv argv({"--ratio", GetParam().token});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(flags.get_double("ratio"), GetParam().value);
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, FlagsAcceptsDouble,
    ::testing::Values(DoubleCase{"0", 0.0}, DoubleCase{"-1", -1.0},
                      DoubleCase{"2.5", 2.5}, DoubleCase{"1e-9", 1e-9},
                      DoubleCase{"1.7976931348623157e308",
                                 std::numeric_limits<double>::max()}));

TEST(Flags, BooleanSpellings) {
  for (const auto& [token, value] :
       std::vector<std::pair<std::string, bool>>{{"true", true},
                                                 {"1", true},
                                                 {"yes", true},
                                                 {"false", false},
                                                 {"0", false},
                                                 {"no", false}}) {
    Flags flags = make_flags();
    flags.define_bool("on", true, "default-on switch");
    Argv argv({"--verbose=" + token, "--on=" + token});
    ASSERT_TRUE(flags.parse(argv.argc(), argv.argv())) << token;
    EXPECT_EQ(flags.get_bool("verbose"), value) << token;
    EXPECT_EQ(flags.get_bool("on"), value) << token;
  }
}

TEST(Flags, RejectedTokenLeavesPreviousValue) {
  Flags flags = make_flags();
  Argv argv({"--count=9", "--count=8x"});
  EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(flags.get_int("count"), 9);
}

// get_int_in returns in-range values and rejects the rest with a typed
// error naming the flag, its value and the range: a 64-bit value is never
// narrowed into a different valid one.
TEST(Flags, GetIntInChecksTheRange) {
  Flags flags = make_flags();
  Argv argv({"--count=4294967297"});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(flags.get_int_in("count", 0, std::int64_t{1} << 40),
            4294967297);
  try {
    (void)flags.get_int_in("count", 1, 1024);
    FAIL() << "out-of-range value accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "count: --count=4294967297 is out of range (expected "
                 "1..1024)");
  }
  EXPECT_EQ(flags.get_int_in("count", 4294967297, 4294967297), 4294967297);
  EXPECT_THROW((void)flags.get_int_in("count", 4294967298, 4294967299),
               std::invalid_argument);
}

}  // namespace
}  // namespace mmsyn
