#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "report.h"

namespace perfbench {

/// One open-loop request stream: requests fall due at a fixed rate
/// (due_i = start + i / rate) whatever the system does, and a fixed pool
/// of workers serves them in due order. A request's latency is timed from
/// its due time, so a stall shows in every request that waited behind it.
struct Stream {
  double rate = 1.0;  // Requests per second.
  int workers = 1;
  /// Serves request `seq` (0, 1, ...), which fell due at `due`; returns
  /// false when the answer was failed, shed, degraded or wrong. Called
  /// from worker threads.
  std::function<bool(int64_t seq, Clock::time_point due)> op;
};

/// What one stream measured.
struct StreamResult {
  std::vector<double> latency_ms;  // Due time to completion, per request.
  std::vector<double> wait_ms;     // Due time to start (queueing), per request.
  std::vector<double> late_ms;     // How late the generator released each one.
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Time from the last release until every request finished. A backlog
  /// that grew during the run shows here as a long drain.
  double drain_ms = 0.0;
  /// Completed requests per second over the stream's span.
  double achieved_rate = 0.0;
};

/// Runs `streams` side by side for `seconds` from one generator thread,
/// each with its own worker pool; returns one result per stream, indexed
/// like `streams`. `poll`, when set, runs on the generator thread at least
/// every `poll_ms` (the ingest workload samples the published epoch there).
std::vector<StreamResult> RunOpenLoop(const std::vector<Stream>& streams,
                                      double seconds,
                                      const std::function<void()>& poll = {},
                                      double poll_ms = 1.0);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
