#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "core/cpu_features.hpp"
#include "core/gemm.hpp"
#include "core/threadpool.hpp"

namespace perfbench {
namespace {

const Clock::time_point g_process_start = Clock::now();

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
      if (!(a.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
    } else if (key == "--trace") {
      if (val != "0" && val != "1")
        throw std::runtime_error("--trace is 0 or 1");
      a.trace = val == "1";
    } else {
      throw std::runtime_error("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::runtime_error("--workload is required");
  return a;
}

Clock::time_point process_start() { return g_process_start; }

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double time_us(const std::function<void()>& fn, int reps, int inner) {
  fn();
  std::vector<double> per_call;
  per_call.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < inner; ++i) fn();
    per_call.push_back(us_between(t0, Clock::now()) / inner);
  }
  return median(std::move(per_call));
}

Tracer& Tracer::global() {
  static Tracer t;
  return t;
}

void Tracer::record(const char* layer, double us) {
  spans_[layer].push_back(us);
}

void Tracer::print_summary() const {
  for (const auto& [layer, us] : spans_)
    std::cout << "# span " << layer << ": n=" << us.size()
              << " p50_us=" << quantile(us, 0.5)
              << " p99_us=" << quantile(us, 0.99) << "\n";
}

std::vector<double> poisson_schedule(double rate_per_s, double duration_s,
                                     mdl::Rng& rng) {
  std::vector<double> due;
  double t = rng.exponential(rate_per_s);
  while (t < duration_s) {
    due.push_back(t);
    t += rng.exponential(rate_per_s);
  }
  return due;
}

void wait_until(Clock::time_point t) {
  constexpr auto kSpin = std::chrono::microseconds(150);
  if (Clock::now() + kSpin < t) std::this_thread::sleep_until(t - kSpin);
  while (Clock::now() < t) {
  }
}

void Report::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) {
    ++checks_passed;
    return;
  }
  std::cout << "# check FAIL: " << what << "\n";
  ++checks_failed;
  correct = false;
}

void print_result(const Report& report) {
  std::cout << "# checks passed: " << report.checks_passed
            << ", failed: " << report.checks_failed << "\n";
  std::string line = "{\"correct\": ";
  line += report.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    // 17 significant digits: every value is printed exactly as measured.
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) line += ", ";
    line += '"';
    line += json_escape(m.name);
    line += "\": {\"value\": ";
    line += num;
    line += ", \"unit\": \"";
    line += json_escape(m.unit);
    line += "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

void print_provenance() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string l; std::getline(cpuinfo, l);) {
    if (l.rfind("model name", 0) == 0) {
      cpu = l.substr(l.find(':') + 2);
      break;
    }
  }
  const mdl::cpu::Features& f = mdl::cpu::features();
  std::cout << "# cpu: " << cpu << "\n"
            << "# cores: " << std::thread::hardware_concurrency() << "\n"
            << "# avx2: " << (f.avx2 ? 1 : 0) << "  fma: " << (f.fma ? 1 : 0)
            << "\n"
            << "# gemm kernel: " << mdl::gemm::kernel_name() << "\n"
            << "# MDL_THREADS: " << mdl::shared_pool_threads() << "\n";
}

}  // namespace perfbench
