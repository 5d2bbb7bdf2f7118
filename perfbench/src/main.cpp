// perfbench — runs one benchmark workload in this process and prints one JSON
// object (metrics, counts, checks, host facts) as the last stdout line.
//
//   perfbench --workload <serve_posit|serve_float_tiny|train_posit|train_dp>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 is the end-to-end run: no shims, no extra clocks on the hot
// path. --trace 1 wraps the public layer boundaries (exec::Backend,
// nn::PrecisionPolicy, the engine's submit, the trainer's pieces) with the
// shims in shims.hpp and adds the per-layer metrics. perfbench/run.py builds
// this binary, runs it once per workload and trace mode, and shapes the
// output into the benchmark result line.
//
// Exit codes: 0 all checks passed; 1 a correctness check failed (the JSON is
// still printed); 2 bad arguments or an exception.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>
#include <string>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "posit/simd.hpp"
#include "report.hpp"
#include "tensor/gemm_kernel.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double better_half_mean(std::vector<double> v, bool lower_is_better) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (!lower_is_better) std::reverse(v.begin(), v.end());
  const std::size_t n = (v.size() + 1) / 2;
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += v[i];
  return sum / static_cast<double>(n);
}

double peak_rss_mb() {
  // VmHWM restarts at exec; getrusage's ru_maxrss does not, so a child
  // started from a larger process (run.py) would report its parent's peak.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  // splitmix64 finalizer over (seed, purpose).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + purpose * 0xD1B54A32D192ED03ULL + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

std::string escape(const std::string& s) {
  std::string out;
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
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string env_or_unset(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? "unset" : v;
}

}  // namespace

std::string Report::json() const {
  std::ostringstream o;
  o << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted_
    << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    o << (i ? ", " : "") << '"' << escape(metrics_[i].name) << "\": {\"value\": "
      << number(metrics_[i].value) << ", \"unit\": \"" << escape(metrics_[i].unit) << "\"}";
  }
  o << "}, \"checks_failed\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    o << (i ? ", " : "") << '"' << escape(failures_[i]) << '"';
  }
  o << "], \"host\": {";
  for (std::size_t i = 0; i < facts_.size(); ++i) {
    o << (i ? ", " : "") << '"' << escape(facts_[i].first) << "\": \"" << escape(facts_[i].second)
      << '"';
  }
  o << "}}";
  return o.str();
}

void record_host_facts(Report& r) {
  r.fact("nproc", std::to_string(std::thread::hardware_concurrency()));
  for (const char* v : {"OMP_NUM_THREADS", "OMP_WAIT_POLICY", "PDNN_NO_AVX2", "PDNN_PLAN_PASSES"}) {
    r.fact(v, env_or_unset(v));
  }
#ifdef _OPENMP
  r.fact("omp_max_threads", std::to_string(omp_get_max_threads()));
#else
  r.fact("omp_max_threads", "no OpenMP");
#endif
  r.fact("posit_simd_avx2", pdnn::posit::simd::enabled() ? "on" : "off");
  r.fact("gemm_avx2", pdnn::tensor::gemm_kernel_vectorized() ? "on" : "off");
#ifdef __VERSION__
  r.fact("compiler", __VERSION__);
#endif
  r.fact("build_type", PERFBENCH_BUILD_TYPE);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(val, "0") != 0;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (argc % 2 != 1 || !(args.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }

  Report report;
  record_host_facts(report);
  try {
    if (args.workload == "serve_posit") {
      run_serve_posit(args, report);
    } else if (args.workload == "serve_float_tiny") {
      run_serve_float_tiny(args, report);
    } else if (args.workload == "train_posit") {
      run_train_posit(args, report);
    } else if (args.workload == "train_dp") {
      run_train_dp(args, report);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 2;
  }
  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
