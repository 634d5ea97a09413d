#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metrics of the final JSON line. These tables and BENCHMARK.json
// name the same metrics with the same units; selftest.py holds them equal.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"query_p50_ms", "ms"},
    {"batch_s", "s"},
    {"batch_edge_join_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"text.probe_prep_ms", "ms"},
    {"text.oov_tokens_per_query", "count"},
    {"index.candidates_ms", "ms"},
    {"index.docs_per_query", "count"},
    {"index.candidates_per_query", "count"},
    {"index.live_groups", "count"},
    {"index.candidates_per_arrival", "count"},
    {"core.graph_ms", "ms"},
    {"core.sim_evals_per_query", "count"},
    {"core.empty_graph_frac", "ratio"},
    {"core.ladder_ms", "ms"},
    {"core.ub_pruned_per_query", "count"},
    {"core.lb_accepted_per_query", "count"},
    {"core.refined_per_query", "count"},
    {"core.links_per_query", "count"},
    {"core.link_yield", "ratio"},
    {"matching.refine_ms", "ms"},
    {"service.queue_wait_p99_ms", "ms"},
    {"service.front_door_ms", "ms"},
    {"service.shed_queries", "count"},
    {"service.query_degraded", "count"},
    {"service.epochs_published", "count"},
    {"service.replayed_ops_per_refresh", "count"},
    {"service.reader_p99_in_refresh_ms", "ms"},
    {"service.reader_p99_idle_ms", "ms"},
    {"core.refresh_ms", "ms"},
    {"core.refresh.clone_ms", "ms"},
    {"core.refresh.rescore_ms", "ms"},
    {"core.refresh.capture_ms", "ms"},
    {"core.refresh.candidates", "count"},
    {"core.refresh.empty_graph_frac", "ratio"},
    {"core.refresh.refined", "count"},
    {"core.from_snapshot_ms", "ms"},
    {"storage.persist_ms", "ms"},
    {"storage.bytes_per_user_byte", "ratio"},
    {"storage.open_ms", "ms"},
    {"storage.load_ms", "ms"},
    {"storage.pages_read_per_query", "count"},
    {"storage.hit_rate", "ratio"},
    {"storage.evictions_per_query", "count"},
    {"storage.overhead_ms", "ms"},
    {"core.engine.prepare_s", "s"},
    {"core.engine.candidates_s", "s"},
    {"core.engine.score_s", "s"},
    {"core.engine.record_pairs", "count"},
    {"core.engine.group_pairs", "count"},
    {"core.engine.empty_graphs", "count"},
    {"core.edge_join.join_s", "s"},
    {"core.edge_join.verify_cpu_s", "s"},
    {"core.edge_join.record_candidates", "count"},
    {"core.edge_join.edges", "count"},
    {"bench.generator_late_p99_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.spans", "count"},
};

const MetricDef* FindDef(const std::string& name) {
  for (const MetricDef& def : kEndToEnd) {
    if (name == def.name) return &def;
  }
  for (const MetricDef& def : kPerLayer) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

bool IsEndToEnd(const std::string& name) {
  for (const MetricDef& def : kEndToEnd) {
    if (name == def.name) return true;
  }
  return false;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail Summarize(std::vector<double> samples) {
  Tail tail;
  tail.count = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  tail.p50 = n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  // Nearest rank r (1-based) of the tail: p99 when at least ten samples
  // lie beyond it, else the rank with exactly ten beyond. Under 100
  // samples that rank falls below p90 and says little about the tail, so
  // the maximum stands in (tail_pct reads 100).
  size_t rank = n;
  if (n >= 1000) {
    rank = static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n)));
  } else if (n >= 100) {
    rank = n - 10;
  }
  tail.tail = samples[rank - 1];
  tail.tail_pct = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return tail;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void Report::Set(const std::string& name, double value) {
  if (FindDef(name) == nullptr) {
    Check(false, "metric '" + name + "' is not in the benchmark definition");
    return;
  }
  values_[name] = value;
}

void Report::Note(const std::string& name, double value, const std::string& unit) {
  notes_.push_back({name, {value, unit}});
}

void Report::Meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, JsonString(value));
}

void Report::Meta(const std::string& key, double value) {
  meta_.emplace_back(key, JsonNumber(value));
}

void Report::Count(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  ++checks_failed_;
  failures_.push_back(what);
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

void Report::Flag(const std::string& what) {
  flags_.push_back(what);
  std::fprintf(stderr, "perfbench: FLAG: %s\n", what.c_str());
}

int Report::Emit(bool trace, const std::string& results_path) {
  // Every end-to-end metric must have been measured; a per-layer metric a
  // workload never exercises reads 0.
  const auto* begin = trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const auto* end = trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  std::string metrics_json;
  for (const auto* def = begin; def != end; ++def) {
    auto it = values_.find(def->name);
    double value = 0.0;
    if (it != values_.end()) {
      value = it->second;
    } else if (!trace) {
      Check(false, std::string("end-to-end metric not measured: ") + def->name);
    }
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += JsonString(def->name) + ": {\"value\": " + JsonNumber(value) +
                    ", \"unit\": " + JsonString(def->unit) + "}";
  }

  // Human-readable report: metadata, every metric, every note, failures.
  std::printf("# perfbench report\n");
  for (const auto& [key, value] : meta_) std::printf("meta  %-34s %s\n", key.c_str(), value.c_str());
  for (const auto& [name, value] : values_) {
    std::printf("%-5s %-34s %-14.6g %s\n", IsEndToEnd(name) ? "e2e" : "layer",
                name.c_str(), value, FindDef(name)->unit);
  }
  for (const auto& [name, note] : notes_) {
    std::printf("note  %-34s %-14.6g %s\n", name.c_str(), note.first, note.second.c_str());
  }
  for (const std::string& flag : flags_) std::printf("FLAG  %s\n", flag.c_str());
  for (const std::string& failure : failures_) {
    std::printf("FAIL  %s\n", failure.c_str());
  }
  const int64_t attempted = std::max<int64_t>(1, attempted_);
  const int64_t failed = failed_ + checks_failed_;
  std::printf("note  %-34s %-14.6g %s\n", "failed_frac",
              static_cast<double>(failed) / static_cast<double>(attempted), "ratio");

  const bool ok = correct();
  if (!results_path.empty()) {
    std::ofstream out(results_path);
    out << "{\"correct\": " << (ok ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ",\n \"meta\": {";
    for (size_t i = 0; i < meta_.size(); ++i) {
      out << (i ? ", " : "") << JsonString(meta_[i].first) << ": " << meta_[i].second;
    }
    out << "},\n \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : values_) {
      out << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
          << JsonNumber(value) << ", \"unit\": " << JsonString(FindDef(name)->unit) << "}";
      first = false;
    }
    out << "},\n \"notes\": {";
    for (size_t i = 0; i < notes_.size(); ++i) {
      out << (i ? ", " : "") << JsonString(notes_[i].first) << ": {\"value\": "
          << JsonNumber(notes_[i].second.first)
          << ", \"unit\": " << JsonString(notes_[i].second.second) << "}";
    }
    out << "},\n \"flags\": [";
    for (size_t i = 0; i < flags_.size(); ++i) out << (i ? ", " : "") << JsonString(flags_[i]);
    out << "],\n \"failures\": [";
    for (size_t i = 0; i < failures_.size(); ++i) {
      out << (i ? ", " : "") << JsonString(failures_[i]);
    }
    out << "]}\n";
    if (!out) std::fprintf(stderr, "perfbench: could not write %s\n", results_path.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              ok ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics_json.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

SpanLog& SpanLog::Get() {
  static SpanLog* log = new SpanLog();
  return *log;
}

std::vector<SpanLog::Record>& SpanLog::Buffer() {
  thread_local std::vector<Record>* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<Record>>());
    buffer = buffers_.back().get();
    buffer->reserve(1 << 12);
  }
  return *buffer;
}

namespace {
thread_local std::vector<int32_t> open_spans;

int64_t NanosSince(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count();
}
}  // namespace

int32_t SpanLog::Begin(const char* name, int64_t id) {
  if (!enabled_) return -1;
  std::vector<Record>& buffer = Buffer();
  Record record;
  record.name = name;
  record.id = id;
  record.parent = open_spans.empty() ? -1 : open_spans.back();
  record.start_ns = NanosSince(origin_, Clock::now());
  buffer.push_back(record);
  const int32_t slot = static_cast<int32_t>(buffer.size() - 1);
  open_spans.push_back(slot);
  return slot;
}

void SpanLog::End(int32_t slot) {
  if (slot < 0) return;
  Buffer()[static_cast<size_t>(slot)].end_ns = NanosSince(origin_, Clock::now());
  if (!open_spans.empty() && open_spans.back() == slot) open_spans.pop_back();
}

void SpanLog::Add(const char* name, int64_t id, Clock::time_point start,
                  Clock::time_point end) {
  if (!enabled_) return;
  Record record;
  record.name = name;
  record.id = id;
  record.parent = open_spans.empty() ? -1 : open_spans.back();
  record.start_ns = NanosSince(origin_, start);
  record.end_ns = NanosSince(origin_, end);
  Buffer().push_back(record);
}

std::map<std::string, double> SpanLog::SelfMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> self_ms;
  for (const auto& buffer : buffers_) {
    std::vector<int64_t> child_ns(buffer->size(), 0);
    for (const Record& r : *buffer) {
      if (r.parent >= 0) child_ns[static_cast<size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
    for (size_t i = 0; i < buffer->size(); ++i) {
      const Record& r = (*buffer)[i];
      self_ms[r.name] += static_cast<double>(r.end_ns - r.start_ns - child_ns[i]) / 1e6;
    }
  }
  return self_ms;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->size();
  return n;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (size_t t = 0; t < buffers_.size(); ++t) {
    for (const Record& r : *buffers_[t]) {
      char line[320];
      std::snprintf(line, sizeof(line),
                    "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %zu, "
                    "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, "
                    "\"parent\": %d}}",
                    first ? "" : ",\n", r.name, t + 1,
                    static_cast<double>(r.start_ns) / 1e3,
                    static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                    static_cast<long long>(r.id), r.parent);
      out << line;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
