#include "serve.hpp"

#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <limits>
#include <mutex>
#include <thread>

#include "server/client.hpp"

namespace perfbench {
namespace {

/// Result collectors: each takes the next accepted job and blocks in
/// ServeClient::wait until its result arrives. Blocked waiters use no
/// CPU, so the submitting caller, the waiters and the server's workers
/// together keep the busy threads within the machine's cores.
class Waiters {
public:
  Waiters(std::string socket, std::vector<JobRecord>& records,
          const std::vector<std::uint64_t>& job_ids, Clock::time_point origin,
          Trace* trace, int parent, int count)
      : socket_(std::move(socket)),
        records_(records),
        job_ids_(job_ids),
        origin_(origin),
        trace_(trace),
        parent_(parent) {
    for (int i = 0; i < count; ++i) threads_.emplace_back([this] { loop(); });
  }
  ~Waiters() { join(); }
  Waiters(const Waiters&) = delete;
  Waiters& operator=(const Waiters&) = delete;

  void push(std::size_t record) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.push_back(record);
    }
    cv_.notify_one();
  }

  void join() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_)
      if (t.joinable()) t.join();
  }

private:
  void loop() {
    mmsyn::ServeClient client(socket_);
    for (;;) {
      std::size_t index = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return closed_ || !pending_.empty(); });
        if (pending_.empty()) return;
        index = pending_.front();
        pending_.pop_front();
      }
      JobRecord& record = records_[index];
      const int span =
          trace_ ? trace_->begin("server.wait", index, parent_) : -1;
      try {
        const mmsyn::WaitOutcome out = client.wait(job_ids_[index]);
        record.done = seconds_between(origin_, Clock::now());
        if (!out.ok) {
          record.error = "wait rejected: " + out.reject.message;
        } else if (out.result.outcome != mmsyn::JobOutcome::kOk) {
          record.error = "job outcome " +
                         std::to_string(static_cast<int>(out.result.outcome));
        } else {
          record.ok = true;
          record.report = out.result.report;
        }
      } catch (const std::exception& e) {
        record.error = std::string("wait failed: ") + e.what();
      }
      if (!record.ok) record.done = std::numeric_limits<double>::infinity();
      if (trace_) trace_->end(span);
    }
  }

  std::string socket_;
  std::vector<JobRecord>& records_;
  const std::vector<std::uint64_t>& job_ids_;
  Clock::time_point origin_;
  Trace* trace_;
  int parent_;
  std::mutex mu_;  // guards pending_ and closed_
  std::condition_variable cv_;
  std::deque<std::size_t> pending_;
  bool closed_ = false;
  std::vector<std::thread> threads_;
};

constexpr int kWaiterThreads = 32;

}  // namespace

ServeSession::ServeSession(const std::string& dir, int workers)
    : workers_(workers) {
  static int sessions = 0;
  const std::string tag =
      "serve-" + std::to_string(::getpid()) + "-" + std::to_string(sessions++);
  socket_path_ = dir + "/" + tag + ".sock";
  state_dir_ = dir + "/" + tag;
}

ServeSession::~ServeSession() { stop(); }

void ServeSession::start() {
  std::filesystem::create_directories(state_dir_);
  mmsyn::ServerOptions options;
  options.socket_path = socket_path_;
  options.state_dir = state_dir_;
  options.workers = workers_;
  // Deep enough that a burst of every instance is queued, not refused.
  options.queue_limit = 1024;
  server_ = std::make_unique<mmsyn::JobServer>(options);
  server_->start();
}

void ServeSession::stop() {
  if (!server_) return;
  server_->drain_and_stop();
  server_.reset();
  std::error_code ignored;
  std::filesystem::remove_all(state_dir_, ignored);
  std::filesystem::remove(socket_path_, ignored);
}

mmsyn::StatsReply ServeSession::stats() { return server_->stats(); }

std::vector<JobRecord> ServeSession::run(const std::vector<Instance>& requests,
                                         std::uint64_t& queue_depth_max,
                                         Trace* trace, int parent) {
  std::vector<JobRecord> records(requests.size());
  std::vector<std::uint64_t> job_ids(requests.size(), 0);
  mmsyn::ServeClient client(socket_path_);
  const Clock::time_point origin = Clock::now();
  {
    Waiters waiters(socket_path_, records, job_ids, origin, trace, parent,
                    kWaiterThreads);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const Instance& request = requests[i];
      JobRecord& record = records[i];
      record.done = std::numeric_limits<double>::infinity();
      const int span = trace ? trace->begin("server.submit", i, parent) : -1;
      record.sent = seconds_between(origin, Clock::now());
      try {
        const mmsyn::SubmitOutcome out =
            client.submit(mmsyn::SubmitRequest{request.job, request.text});
        record.acked = seconds_between(origin, Clock::now());
        if (out.accepted) {
          record.accepted = true;
          record.cached = out.ok.cached;
          job_ids[i] = out.ok.job_id;
        } else {
          record.error = "refused: " + out.reject.message;
        }
      } catch (const std::exception& e) {
        record.acked = seconds_between(origin, Clock::now());
        record.error = std::string("submit failed: ") + e.what();
      }
      if (trace) trace->end(span);
      queue_depth_max = std::max(queue_depth_max, stats().queued);
      if (record.accepted) waiters.push(i);
    }
    waiters.join();
  }
  return records;
}

}  // namespace perfbench
