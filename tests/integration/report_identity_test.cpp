// Cross-commit report identity.
//
// Pins the FNV-1a digest of the rendered implementation report for a
// small fixed GA on the smart phone and mul8, with and without PV-DVS.
// A change that is meant to alter only speed or memory (a cache tier, a
// data layout, a hot-path rewrite) must leave every digest unchanged; a
// change that deliberately alters results updates the table and says so.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/checksum.hpp"
#include "core/cosynth.hpp"
#include "core/report.hpp"
#include "tgff/smart_phone.hpp"
#include "tgff/suites.hpp"

namespace mmsyn {
namespace {

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string report_digest(const System& system, bool use_dvs) {
  SynthesisOptions options;
  options.use_dvs = use_dvs;
  options.seed = 1;
  options.ga.population_size = 24;
  options.ga.max_generations = 30;
  const SynthesisResult result = synthesize(system, options);
  ReportOptions report;
  report.include_timing = false;
  report.include_voltage_schedules = use_dvs;
  const std::string text = implementation_report(system, result, report);
  return hex(Fnv1a64().add_bytes(text.data(), text.size()).digest());
}

TEST(ReportIdentity, SmartPhoneNoDvs) {
  EXPECT_EQ(report_digest(make_smart_phone(), false),
            "0x0d768a6278d4140d");
}

TEST(ReportIdentity, SmartPhonePvDvs) {
  EXPECT_EQ(report_digest(make_smart_phone(), true),
            "0x17cc7b4c8279fb95");
}

TEST(ReportIdentity, Mul8NoDvs) {
  EXPECT_EQ(report_digest(make_mul(8), false),
            "0x3d860e2fef8c0d56");
}

TEST(ReportIdentity, Mul8PvDvs) {
  EXPECT_EQ(report_digest(make_mul(8), true),
            "0x1918af4e43823bfd");
}

}  // namespace
}  // namespace mmsyn
