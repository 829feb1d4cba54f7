// Command-line client of mmsyn_serve.
//
//   mmsyn_client --socket s.sock --input phone.mmsyn --seed 7
//   mmsyn_client --socket s.sock --input phone.mmsyn --async   # print id
//   mmsyn_client --socket s.sock --job 12                      # wait by id
//   mmsyn_client --socket s.sock --stats
//
// On a completed job the implementation report is printed to stdout —
// byte-identical to `synthesize_file --quiet --report-timing=false` with
// the same system and options. Exit codes:
//   0  job completed, implementation feasible
//   2  job completed, infeasible
//   3  budget exhausted / cancelled (partial result still printed)
//   5  job quarantined (error printed to stderr)
//   6  rejected: queue full
//   7  rejected: server draining
//   1  anything else (parse error, connection failure, bad flags)
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/flags.hpp"
#include "core/job_options.hpp"
#include "server/client.hpp"

using namespace mmsyn;

namespace {

int reject_exit(const RejectReply& reject) {
  std::fprintf(stderr, "rejected: %s\n", reject.message.c_str());
  switch (reject.code) {
    case RejectCode::kQueueFull:
      return 6;
    case RejectCode::kDraining:
      return 7;
    default:
      return 1;
  }
}

int result_exit(const JobResultReply& result) {
  switch (result.outcome) {
    case JobOutcome::kOk:
      std::printf("%s", result.report.c_str());
      return result.feasible ? 0 : 2;
    case JobOutcome::kBudgetExhausted:
    case JobOutcome::kCancelled:
      std::printf("%s", result.report.c_str());
      std::fprintf(stderr, "job %llu stopped early (%s)\n",
                   static_cast<unsigned long long>(result.job_id),
                   result.outcome == JobOutcome::kBudgetExhausted
                       ? "time budget"
                       : "cancelled");
      return 3;
    case JobOutcome::kQuarantined:
      std::fprintf(stderr, "job %llu quarantined: %s\n",
                   static_cast<unsigned long long>(result.job_id),
                   result.report.c_str());
      return 5;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  define_job_flags(flags);
  flags.define_string("socket", "", "unix-domain socket of mmsyn_serve");
  flags.define_string("input", "", ".mmsyn system file to submit");
  flags.define_bool("async", false,
                    "submit only: print the job id and exit without "
                    "waiting (fetch later with --job)");
  flags.define_int("job", 0, "wait for this existing job id instead of "
                             "submitting");
  flags.define_bool("stats", false, "print server counters and exit");
  if (!flags.parse(argc, argv)) return 1;

  // The server validates too; checking here first fails a bad flag with
  // exit 1 before any connection is made.
  JobOptions job;
  try {
    job = job_options_from_flags(flags);
    validate(job);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  if (flags.get_string("socket").empty()) {
    std::fprintf(stderr, "--socket is required\n");
    flags.print_usage(argv[0]);
    return 1;
  }
  ServeClient client(flags.get_string("socket"));

  try {
    if (flags.get_bool("stats")) {
      const StatsReply s = client.stats();
      std::printf("accepted              %llu\n"
                  "completed             %llu\n"
                  "quarantined           %llu\n"
                  "cache hits/lookups    %llu/%llu\n"
                  "queue-full rejections %llu\n"
                  "transient retries     %llu\n"
                  "watchdog cancels      %llu\n"
                  "recovered pending     %llu\n"
                  "queued now            %llu\n"
                  "running now           %llu\n",
                  static_cast<unsigned long long>(s.accepted),
                  static_cast<unsigned long long>(s.completed),
                  static_cast<unsigned long long>(s.quarantined),
                  static_cast<unsigned long long>(s.cache_hits),
                  static_cast<unsigned long long>(s.cache_lookups),
                  static_cast<unsigned long long>(s.queue_full_rejections),
                  static_cast<unsigned long long>(s.retries),
                  static_cast<unsigned long long>(s.watchdog_cancels),
                  static_cast<unsigned long long>(s.recovered_pending),
                  static_cast<unsigned long long>(s.queued),
                  static_cast<unsigned long long>(s.running));
      return 0;
    }

    if (flags.get_int("job") > 0) {
      const WaitOutcome out =
          client.wait(static_cast<std::uint64_t>(flags.get_int("job")));
      if (!out.ok) return reject_exit(out.reject);
      return result_exit(out.result);
    }

    if (flags.get_string("input").empty()) {
      std::fprintf(stderr,
                   "--input is required (or use --job N / --stats)\n");
      flags.print_usage(argv[0]);
      return 1;
    }

    SubmitRequest request;
    request.options = job;
    {
      std::ifstream in(flags.get_string("input"), std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "cannot read %s\n",
                     flags.get_string("input").c_str());
        return 1;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      request.system_text = ss.str();
    }

    const SubmitOutcome submitted = client.submit(request);
    if (!submitted.accepted) return reject_exit(submitted.reject);
    if (flags.get_bool("async")) {
      std::printf("%llu%s\n",
                  static_cast<unsigned long long>(submitted.ok.job_id),
                  submitted.ok.cached ? " (cached)" : "");
      return 0;
    }

    const WaitOutcome out = client.wait(submitted.ok.job_id);
    if (!out.ok) return reject_exit(out.reject);
    return result_exit(out.result);
  } catch (const WireError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
