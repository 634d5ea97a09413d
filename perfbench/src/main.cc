// perfbench: the repository benchmark. Runs one workload (serve, ingest or
// paged) generated from --seed for about --seconds of measured load,
// checks every answer, and prints a report whose last line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the per-layer ones
// from a run that records spans around every layer call it makes.
//
//   perfbench --workload serve --seed 1 --seconds 10 --trace 0
//
// Extra flags for the self-test: --size tiny, --plant-wrong-answer.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "common/simd_dispatch.h"
#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload serve|ingest|paged --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] [--plant-wrong-answer]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--plant-wrong-answer") {
      options.plant_wrong_answer = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || options.seconds <= 0.0 || options.seconds > 60.0) {
        return Usage("--seconds takes a number in (0, 60]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") return Usage("--size takes full or tiny");
      options.tiny = value == "tiny";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  void (*run)(const perfbench::Options&, perfbench::Report&) = nullptr;
  if (options.workload == "serve") run = perfbench::RunServe;
  if (options.workload == "ingest") run = perfbench::RunIngest;
  if (options.workload == "paged") run = perfbench::RunPaged;
  if (run == nullptr) return Usage("--workload must be serve, ingest or paged");

  options.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const char* work_root = std::getenv("PERFBENCH_WORK_DIR");
  const std::filesystem::path root =
      work_root != nullptr ? work_root : ".bench_build/perfbench/work";
  const std::filesystem::path work =
      root / (options.workload + "-" + std::to_string(getpid()));
  const std::filesystem::path results = root.parent_path() / "results";
  std::error_code ec;
  std::filesystem::create_directories(work, ec);
  std::filesystem::create_directories(results, ec);
  options.work_dir = work.string();
  const std::string stem = options.workload + "-seed" + std::to_string(options.seed) +
                           (options.trace ? "-trace1" : "-trace0");

  perfbench::Report report;
  report.Meta("workload", options.workload);
  report.Meta("seed", static_cast<double>(options.seed));
  report.Meta("seconds", options.seconds);
  report.Meta("trace", options.trace ? "1" : "0");
  report.Meta("size", options.tiny ? "tiny" : "full");
  report.Meta("nproc", static_cast<double>(options.nproc));
  report.Meta("build_type", PERFBENCH_BUILD_TYPE);
  report.Meta("simd_tier", grouplink::SimdLevelName(grouplink::ActiveSimdLevel()));
  run(options, report);
  if (options.trace) {
    const std::string trace_path = (results / (stem + ".trace.json")).string();
    report.Check(perfbench::SpanLog::Get().WriteChromeTrace(trace_path),
                 "could not write the span trace");
    report.Meta("trace_file", trace_path);
  }
  std::filesystem::remove_all(work, ec);
  return report.Emit(options.trace, (results / (stem + ".json")).string());
}
