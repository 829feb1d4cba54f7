// Driving an in-process JobServer through ServeClient on a scratch unix
// socket: one caller submits a burst of requests, a pool of waiters
// collects the results, and every submission, ack and result is timed
// from the outside.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "server/job_server.hpp"
#include "trace.hpp"

namespace perfbench {

/// What happened to one submission. Times are seconds after the burst
/// began; `done` stays infinite when no result arrived.
struct JobRecord {
  double sent = 0.0;
  double acked = 0.0;
  double done = 0.0;
  bool accepted = false;
  bool cached = false;
  bool ok = false;  ///< a kOk result with its report arrived
  std::string error;
  std::string report;
};

class ServeSession {
public:
  /// `dir` holds the socket and the server's state directory (relative
  /// paths keep the socket name short whatever the checkout path).
  ServeSession(const std::string& dir, int workers);
  ~ServeSession();
  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  void start();
  /// Drains the server and removes its state directory.
  void stop();

  /// Submits every request back to back and waits for every accepted
  /// job's result. Samples the queue depth after each submit and raises
  /// `queue_depth_max` to the deepest sample.
  [[nodiscard]] std::vector<JobRecord> run(
      const std::vector<Instance>& requests, std::uint64_t& queue_depth_max,
      Trace* trace, int parent);

  [[nodiscard]] mmsyn::StatsReply stats();

private:
  std::string socket_path_;
  std::string state_dir_;
  int workers_;
  std::unique_ptr<mmsyn::JobServer> server_;
};

}  // namespace perfbench
