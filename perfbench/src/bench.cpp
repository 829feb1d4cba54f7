#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "pipeline/backends.hpp"
#include "power/backends.hpp"

namespace perfbench {

mmsyn::SynthesisOptions synthesis_options(const mmsyn::JobOptions& job) {
  using namespace mmsyn;
  SynthesisOptions options;
  options.use_dvs = resolve_dvs_backend(
      job.dvs_backend.empty() ? dvs_backend_name(false) : job.dvs_backend);
  options.scheduling_policy = resolve_scheduler_backend(
      job.scheduler_backend.empty() ? scheduler_backends().front().name
                                    : job.scheduler_backend);
  options.power = resolve_power_backend(job.power_backend.empty()
                                            ? power_backends().front().name
                                            : job.power_backend);
  options.consider_probabilities = job.consider_probabilities;
  options.seed = job.seed;
  options.ga.population_size = job.population;
  options.ga.max_generations = job.generations;
  options.ga.num_threads = std::max(1, job.threads);
  return options;
}

mmsyn::ReportOptions report_options(const mmsyn::JobOptions& job) {
  mmsyn::ReportOptions options;
  options.include_gantt = job.report_gantt;
  options.include_voltage_schedules = job.report_voltages;
  options.include_timing = false;
  return options;
}

void Tally::fail(const std::string& what) {
  ++failed;
  if (errors.size() < 20) errors.push_back(what);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  // JSON has no infinity: a latency over refused or lost jobs reads as a
  // huge number, never as a flattering zero.
  if (std::isnan(value)) value = 0.0;
  if (std::isinf(value)) value = value > 0 ? 1e12 : -1e12;
  if (entries_.find(name) == entries_.end()) order_.push_back(name);
  entries_[name] = Entry{value, unit};
}

void Metrics::print_table() const {
  for (const std::string& name : order_) {
    const Entry& e = entries_.at(name);
    std::printf("  %-36s %16.6f %s\n", name.c_str(), e.value, e.unit.c_str());
  }
}

std::string Metrics::json(const Tally& tally) const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (tally.correct() ? "true" : "false")
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : order_) {
    const Entry& e = entries_.at(name);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << e.value
        << ", \"unit\": \"" << e.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      pct / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0) return values[lo];
  if (std::isinf(values[hi])) return values[hi];
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double tail_percentile(std::size_t samples) {
  for (double pct : {99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(samples) * (1.0 - pct / 100.0) >= 10.0) return pct;
  }
  return 50.0;
}

std::uint64_t report_digest(const std::vector<std::string>& reports) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& r : reports) {
    for (unsigned char c : r) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t Draw::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int Draw::uniform_int(int lo, int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  return lo + static_cast<int>(next() % span);
}

}  // namespace perfbench
