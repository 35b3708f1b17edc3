// flashbench: runs one benchmark workload against the flashgen libraries and
// prints one result document (a JSON object on a line starting with
// "RESULT ") for run.py, which derives the reported metrics from it.
//
//   flashbench --workload <name> --seed <n> --seconds <s> [--trace <path>]
//
// With --trace the workload also runs a traced pass and writes the chrome
// JSON trace to <path>; the per-layer numbers come from that pass.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench_util.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "tensor/gemm_backend.h"

namespace {

std::string isa() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f")) return "x86-64 avx512f";
  if (__builtin_cpu_supports("avx2")) return "x86-64 avx2";
  return "x86-64";
#else
  return "other";
#endif
}

int usage() {
  std::fprintf(stderr,
               "usage: flashbench --workload table1_cvaegan|serve_generate|serve_thresholds|"
               "characterize --seed N --seconds S [--trace PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flashbench;
  std::string workload;
  WorkloadArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace_path = value;
    } else {
      return usage();
    }
  }
  if (workload.empty() || args.seconds <= 0.0) return usage();
  flashgen::set_log_level(flashgen::LogLevel::Warn);

  WorkloadResult result;
  try {
    if (workload == "table1_cvaegan") {
      result = run_table1(args);
    } else if (workload == "serve_generate") {
      result = run_serve_generate(args);
    } else if (workload == "serve_thresholds") {
      result = run_serve_thresholds(args);
    } else if (workload == "characterize") {
      result = run_characterize(args);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flashbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }

  std::string problems = "[";
  for (std::size_t i = 0; i < result.problems.size(); ++i)
    problems += (i ? ", " : "") + Json::quote(result.problems[i]);
  problems += "]";
  Json out;
  out.str("workload", workload)
      .integer("seed", static_cast<long long>(args.seed))
      .boolean("correct", result.correct)
      .raw("problems", problems)
      .integer("attempted", result.attempted)
      .integer("failed", result.failed)
      .num("peak_rss_mb", result.peak_rss_mb > 0.0 ? result.peak_rss_mb : peak_rss_mb())
      .integer("host_cpus", static_cast<long long>(std::thread::hardware_concurrency()))
      .str("isa", isa())
      .str("gemm_backend", flashgen::tensor::gemm_backend_name())
      .integer("flashgen_threads", flashgen::common::num_threads())
      .raw("workload_result", result.json.render());
  std::printf("RESULT %s\n", out.render().c_str());
  std::fflush(stdout);
  return 0;
}
