#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double MsBetween(Clock::time_point from, Clock::time_point to);
[[nodiscard]] double SecondsSince(Clock::time_point from);

/// Median and tail of raw samples. The tail is the highest percentile
/// (capped at 99) with at least ten samples beyond it, taken by nearest
/// rank; `tail_pct` says which percentile that was and `count` how many
/// samples it came from.
struct Tail {
  size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
};
[[nodiscard]] Tail Summarize(std::vector<double> samples);
[[nodiscard]] double Median(std::vector<double> samples);

/// Peak resident set size of this process so far.
[[nodiscard]] double PeakRssMb();

/// The metrics one run reports, the correctness tally, and the run
/// metadata. `Set` takes only metrics named in the benchmark definition
/// (the end-to-end and per-layer tables in report.cc, mirrored by
/// BENCHMARK.json); `Note` records a workload-specific number that is
/// printed in the report but not in the final JSON line.
class Report {
 public:
  void Set(const std::string& name, double value);
  void Note(const std::string& name, double value, const std::string& unit);
  void Meta(const std::string& key, const std::string& value);
  void Meta(const std::string& key, double value);

  /// Counts `attempted` operations of which `failed` were failed, shed,
  /// degraded or wrong.
  void Count(int64_t attempted, int64_t failed);
  /// One checked condition that is not a served operation (a batch link
  /// set, a replay, a restart answer). A false check fails the run.
  void Check(bool ok, const std::string& what);
  /// Flags a condition that makes the timings untrustworthy without
  /// making any answer wrong (the open-loop generator fell behind).
  void Flag(const std::string& what);

  [[nodiscard]] bool correct() const { return failed_ == 0 && checks_failed_ == 0; }

  /// Prints the human-readable report, writes it as JSON to `results_path`
  /// (when non-empty), and prints the final JSON line: end-to-end metrics
  /// when `trace` is false, per-layer metrics when it is true. Returns the
  /// process exit code.
  int Emit(bool trace, const std::string& results_path);

 private:
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> notes_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::string> failures_;
  std::vector<std::string> flags_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t checks_failed_ = 0;
};

/// In-memory span recorder for the traced run. A span is a name, a
/// request id, a start and end, and the span that was open on the same
/// thread when it began (its parent). Recording is off unless enabled;
/// each thread appends to its own buffer, so workers never contend.
class SpanLog {
 public:
  struct Record {
    const char* name = nullptr;
    int64_t id = 0;
    int32_t parent = -1;  // Index in the same thread's buffer, or -1.
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  static SpanLog& Get();

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns its slot (or -1 when
  /// recording is off). Close it with End on the same thread.
  int32_t Begin(const char* name, int64_t id);
  void End(int32_t slot);
  /// Records a finished span with explicit times (for intervals no call
  /// brackets, such as the queue wait before a request starts).
  void Add(const char* name, int64_t id, Clock::time_point start,
           Clock::time_point end);

  /// Self time per span name, in ms: each span's duration minus the time
  /// its direct children cover, summed over every span of that name.
  [[nodiscard]] std::map<std::string, double> SelfMs() const;
  [[nodiscard]] size_t size() const;
  /// Writes every span as Chrome trace-event JSON ("X" events).
  [[nodiscard]] bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Record>& Buffer();

  std::atomic<bool> enabled_{false};
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;  // Guards buffers_ (the list, not the contents).
  std::vector<std::unique_ptr<std::vector<Record>>> buffers_;
};

/// RAII span: Begin on construction, End on destruction.
class Span {
 public:
  Span(const char* name, int64_t id) : slot_(SpanLog::Get().Begin(name, id)) {}
  ~Span() { SpanLog::Get().End(slot_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int32_t slot_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
