// Seeded option fuzzer: random job options must end in a typed error or
// an auditor-clean result, never a signal.
//
// Two entry points are driven with a fixed seed:
//   * argv vectors (valid, boundary and garbage tokens) through
//     Flags::parse with define_job_flags, then job_options_from_flags and
//     validate() — exactly what synthesize_file and mmsyn_client do;
//   * random JobOptions through an in-process JobServer on mul1, kept
//     tiny (population <= 8, generations <= 3) so the run takes seconds.
// tools/ci.sh runs this suite in its ASan/UBSan legs as well.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "../support/audit_every_result.hpp"
#include "common/flags.hpp"
#include "core/job_options.hpp"
#include "core/report.hpp"
#include "model/io.hpp"
#include "pipeline/backends.hpp"
#include "power/backends.hpp"
#include "server/job_server.hpp"
#include "tgff/suites.hpp"

namespace mmsyn {
namespace {

constexpr std::uint64_t kSeed = 20261017;

class Fuzz {
public:
  explicit Fuzz(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) { return rng_() % n; }
  bool coin() { return below(2) == 0; }
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return items[below(items.size())];
  }

private:
  std::mt19937_64 rng_;
};

template <typename Info>
std::vector<std::string> names_of(const std::vector<Info>& backends,
                                  std::vector<std::string> extra = {}) {
  for (const auto& b : backends) extra.emplace_back(b.name);
  return extra;
}

const std::vector<std::string> kIntTokens = {
    "0", "1", "3", "8", "64", "-1", "-7", "1024", "1025", "2147483647",
    "2147483648", "-2147483649", "9223372036854775807",
    "9223372036854775808", "-9223372036854775809", "abc", "1x", "", " 3",
    "0x10", "1e3", "+1", "-", "3.5", "nan"};
const std::vector<std::string> kDoubleTokens = {
    "0", "0.5", "2", "-1", "-0", "1e-9", "1e308", "1e999", "nan", "NaN",
    "inf", "-inf", "abc", "", "1s", "0x1p3", ".5", "5."};
const std::vector<std::string> kBoolTokens = {"true", "false", "1", "0",
                                              "yes", "no", "maybe", "TRUE",
                                              ""};
const std::vector<std::string> kGarbageChoices = {"bogus", "", "PV-DVS",
                                                  "none ", "paper2"};

std::vector<std::string> random_argv(Fuzz& fuzz) {
  struct Spec {
    const char* name;
    const std::vector<std::string>* tokens;
  };
  static const std::vector<std::string> dvs = names_of(dvs_backends());
  static const std::vector<std::string> scheduler =
      names_of(scheduler_backends());
  static const std::vector<std::string> power = names_of(power_backends());
  static const std::vector<Spec> specs = {
      {"seed", &kIntTokens},        {"population", &kIntTokens},
      {"generations", &kIntTokens}, {"threads", &kIntTokens},
      {"dvs", &dvs},                {"scheduler", &scheduler},
      {"power", &power},            {"uniform", &kBoolTokens},
      {"time-budget", &kDoubleTokens}, {"gantt", &kBoolTokens},
      {"report-voltages", &kBoolTokens}};

  std::vector<std::string> argv;
  const std::size_t count = fuzz.below(7);
  for (std::size_t i = 0; i < count; ++i) {
    if (fuzz.below(20) == 0) {
      argv.push_back(fuzz.coin() ? "--bogus" : "stray");
      continue;
    }
    const Spec& spec = fuzz.pick(specs);
    const std::string flag = std::string("--") + spec.name;
    const std::string value = fuzz.below(5) == 0 ? fuzz.pick(kGarbageChoices)
                                                 : fuzz.pick(*spec.tokens);
    switch (fuzz.below(3)) {
      case 0:
        argv.push_back(flag + "=" + value);
        break;
      case 1:
        argv.push_back(flag);
        argv.push_back(value);
        break;
      default:
        argv.push_back(flag);  // bare: booleans/choices take no value
        break;
    }
  }
  return argv;
}

TEST(OptionFuzz, ArgvEndsInTypedErrorOrValidOptions) {
  Fuzz fuzz(kSeed);
  int parse_errors = 0, option_errors = 0, valid = 0;
  for (int i = 0; i < 3000; ++i) {
    std::vector<std::string> args = random_argv(fuzz);
    std::vector<char*> argv{const_cast<char*>("fuzz")};
    for (std::string& a : args) argv.push_back(a.data());

    Flags flags;
    define_job_flags(flags);
    ::testing::internal::CaptureStderr();
    const bool parsed = flags.parse(static_cast<int>(argv.size()), argv.data());
    const std::string err = ::testing::internal::GetCapturedStderr();
    if (!parsed) {
      EXPECT_FALSE(err.empty());
      ++parse_errors;
      continue;
    }
    try {
      const JobOptions options = job_options_from_flags(flags);
      validate(options);
      ++valid;
      EXPECT_GE(options.threads, 0);
      EXPECT_LE(options.threads, kMaxJobThreads);
      EXPECT_GE(options.generations, 0);
      EXPECT_TRUE(std::isfinite(options.time_budget));
      EXPECT_GE(options.time_budget, 0.0);
      // The one JobOptions codec round-trips every admitted value.
      const SubmitRequest sent{options, "text"};
      EXPECT_EQ(decode_submit(encode_submit(sent)).options, options);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--"), std::string::npos)
          << e.what();
      ++option_errors;
    }
  }
  // The generator must reach every outcome, or the fuzzer tests nothing.
  EXPECT_GT(parse_errors, 30);
  EXPECT_GT(option_errors, 30);
  EXPECT_GT(valid, 30);
}

/// Each field is drawn from its valid pool 7 times in 8, else from its
/// invalid pool, so about 40% of the jobs pass admission and run.
template <typename T>
T field(Fuzz& fuzz, const std::vector<T>& valid, const std::vector<T>& bad) {
  return fuzz.below(8) == 0 ? fuzz.pick(bad) : fuzz.pick(valid);
}

JobOptions random_job(Fuzz& fuzz) {
  using Names = std::vector<std::string>;
  using Ints = std::vector<std::int32_t>;
  using Doubles = std::vector<double>;
  static const Names dvs = names_of(dvs_backends(), {""});
  static const Names scheduler = names_of(scheduler_backends(), {""});
  static const Names power = names_of(power_backends(), {""});
  static const Names bad_names = {"bogus", "PV-DVS", " paper"};
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  JobOptions o;
  o.seed = fuzz.coin() ? fuzz.below(1000)
                       : std::numeric_limits<std::uint64_t>::max() -
                             fuzz.below(3);
  o.population = field(fuzz, Ints{3, 4, 8}, Ints{kMin, -1, 0, 1, 2});
  o.generations = field(fuzz, Ints{0, 1, 2, 3}, Ints{kMin, -1});
  o.threads = field(fuzz, Ints{0, 1, 2, 4},
                    Ints{kMin, -1, kMaxJobThreads + 1, kMax});
  o.dvs_backend = field(fuzz, dvs, bad_names);
  o.scheduler_backend = field(fuzz, scheduler, bad_names);
  o.power_backend = field(fuzz, power, bad_names);
  o.consider_probabilities = fuzz.coin();
  o.time_budget =
      field(fuzz,
            Doubles{0.0, -0.0, 30.0, 1e308,
                    std::numeric_limits<double>::denorm_min()},
            Doubles{-1.0, std::nan(""), kInf, -kInf,
                    -std::numeric_limits<double>::denorm_min()});
  o.report_gantt = fuzz.coin();
  o.report_voltages = fuzz.coin();
  return o;
}

TEST(OptionFuzz, ServerJobsEndTypedOrAuditorClean) {
  const std::string dir =
      std::string(::testing::TempDir()) + "mmsyn_server_option_fuzz";
  std::remove((dir + "/jobs.wal").c_str());
  std::remove((dir + "/jobs.wal.tmp").c_str());
  ::mkdir(dir.c_str(), 0755);
  ServerOptions server_options;
  server_options.state_dir = dir;
  server_options.workers = 2;
  JobServer server(server_options);
  server.start();

  const std::string text = system_to_string(make_mul(1));
  const System system = system_from_string(text);
  Fuzz fuzz(kSeed);
  std::uint64_t admitted = 0, rejected = 0, audited = 0;
  for (int i = 0; i < 160; ++i) {
    SubmitRequest request;
    request.options = random_job(fuzz);
    request.system_text = text;
    bool valid = true;
    try {
      validate(request.options);
    } catch (const std::invalid_argument&) {
      valid = false;
    }
    const SubmitOutcome submitted = server.submit(request);
    ASSERT_EQ(submitted.accepted, valid) << submitted.reject.message;
    if (!submitted.accepted) {
      EXPECT_EQ(submitted.reject.code, RejectCode::kBadRequest);
      EXPECT_FALSE(submitted.reject.message.empty());
      ++rejected;
      continue;
    }
    ++admitted;
    const WaitOutcome out = server.wait(submitted.ok.job_id);
    ASSERT_TRUE(out.ok);
    ASSERT_NE(out.result.outcome, JobOutcome::kQuarantined)
        << out.result.report;
    if (out.result.outcome != JobOutcome::kOk) {
      // Only a budget can stop an admitted job early here.
      EXPECT_EQ(out.result.outcome, JobOutcome::kBudgetExhausted);
      EXPECT_GT(request.options.time_budget, 0.0);
      continue;
    }
    // Replay the job in-process through the auditor; the server's stored
    // report must be byte-identical to the audited run's.
    const SynthesisResult result =
        audited_synthesize(system, to_synthesis_options(request.options));
    EXPECT_EQ(out.result.report,
              implementation_report(system, result,
                                    to_report_options(request.options)));
    ++audited;
  }
  const StatsReply stats = server.stats();
  EXPECT_EQ(stats.accepted, admitted);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(stats.completed, admitted);
  EXPECT_GT(rejected, 30u);
  EXPECT_GT(audited, 30u);
  server.drain_and_stop();
}

}  // namespace
}  // namespace mmsyn
