#include "load.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

namespace perfbench {
namespace {

struct Job {
  int64_t seq = 0;
  Clock::time_point due;
};

// Queue and per-request timings of one stream. Slots are written by the
// worker that served the request; the vectors are sized up front.
struct Lane {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Job> queue;  // Guarded by mu.
  bool closed = false;    // Guarded by mu.
  std::vector<Clock::time_point> start, end;
  std::vector<char> ok;
  std::vector<double> late_ms;
  Clock::time_point last_release;
};

}  // namespace

std::vector<StreamResult> RunOpenLoop(const std::vector<Stream>& streams,
                                      double seconds,
                                      const std::function<void()>& poll,
                                      double poll_ms) {
  const size_t n_streams = streams.size();
  std::vector<int64_t> total(n_streams);
  std::vector<Lane> lanes(n_streams);
  for (size_t s = 0; s < n_streams; ++s) {
    total[s] = static_cast<int64_t>(streams[s].rate * seconds);
    lanes[s].start.resize(static_cast<size_t>(total[s]));
    lanes[s].end.resize(static_cast<size_t>(total[s]));
    lanes[s].ok.assign(static_cast<size_t>(total[s]), 0);
    lanes[s].late_ms.resize(static_cast<size_t>(total[s]));
  }

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto due_of = [&](size_t s, int64_t seq) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(seq) /
                                                  streams[s].rate));
  };

  std::vector<std::thread> workers;
  for (size_t s = 0; s < n_streams; ++s) {
    for (int w = 0; w < streams[s].workers; ++w) {
      workers.emplace_back([&, s] {
        Lane& lane = lanes[s];
        for (;;) {
          Job job;
          {
            std::unique_lock<std::mutex> lock(lane.mu);
            lane.cv.wait(lock, [&] { return lane.closed || !lane.queue.empty(); });
            if (lane.queue.empty()) return;
            job = lane.queue.front();
            lane.queue.pop_front();
          }
          const size_t i = static_cast<size_t>(job.seq);
          lane.start[i] = Clock::now();
          lane.ok[i] = streams[s].op(job.seq, job.due) ? 1 : 0;
          lane.end[i] = Clock::now();
        }
      });
    }
  }

  // The generator: release each request at its due time, earliest first.
  std::vector<int64_t> next(n_streams, 0);
  const auto poll_step = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(poll_ms));
  for (;;) {
    size_t pick = n_streams;
    Clock::time_point due = Clock::time_point::max();
    for (size_t s = 0; s < n_streams; ++s) {
      if (next[s] < total[s] && due_of(s, next[s]) < due) {
        due = due_of(s, next[s]);
        pick = s;
      }
    }
    if (pick == n_streams) break;
    Clock::time_point now = Clock::now();
    while (now < due) {
      std::this_thread::sleep_until(poll ? std::min(due, now + poll_step) : due);
      if (poll) poll();
      now = Clock::now();
    }
    Lane& lane = lanes[pick];
    lane.late_ms[static_cast<size_t>(next[pick])] = MsBetween(due, now);
    {
      std::lock_guard<std::mutex> lock(lane.mu);
      lane.queue.push_back(Job{next[pick], due});
    }
    lane.cv.notify_one();
    lane.last_release = now;
    ++next[pick];
  }
  for (Lane& lane : lanes) {
    {
      std::lock_guard<std::mutex> lock(lane.mu);
      lane.closed = true;
    }
    lane.cv.notify_all();
  }
  // Keep polling until the workers drain, so events during the drain
  // (an epoch published while the last requests finish) are still seen.
  if (poll) {
    for (;;) {
      bool drained = true;
      for (Lane& lane : lanes) {
        std::lock_guard<std::mutex> lock(lane.mu);
        drained = drained && lane.queue.empty();
      }
      if (drained) break;
      poll();
      std::this_thread::sleep_for(poll_step);
    }
  }
  for (std::thread& worker : workers) worker.join();
  if (poll) poll();

  std::vector<StreamResult> results(n_streams);
  for (size_t s = 0; s < n_streams; ++s) {
    Lane& lane = lanes[s];
    StreamResult& r = results[s];
    r.attempted = total[s];
    Clock::time_point last_done = t0;
    for (int64_t seq = 0; seq < total[s]; ++seq) {
      const size_t i = static_cast<size_t>(seq);
      const Clock::time_point due = due_of(s, seq);
      r.latency_ms.push_back(MsBetween(due, lane.end[i]));
      r.wait_ms.push_back(MsBetween(due, lane.start[i]));
      r.late_ms.push_back(lane.late_ms[i]);
      if (!lane.ok[i]) ++r.failed;
      last_done = std::max(last_done, lane.end[i]);
    }
    if (total[s] > 0) {
      r.drain_ms = std::max(0.0, MsBetween(lane.last_release, last_done));
      const double span_s = MsBetween(t0, last_done) / 1000.0;
      r.achieved_rate = span_s > 0.0 ? static_cast<double>(total[s] - r.failed) / span_s
                                     : 0.0;
    }
  }
  return results;
}

}  // namespace perfbench
