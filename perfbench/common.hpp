// Shared plumbing of the perfbench program: command line, clocks, order
// statistics, the in-memory span recorder used by the traced run, the
// open-loop arrival schedule, and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/random.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1`; throws
/// std::runtime_error on anything else.
Args parse_args(int argc, char** argv);

/// Steady-clock instant captured during static initialisation, i.e. before
/// main() runs: the start of the cold set-up that `setup_s` measures.
Clock::time_point process_start();

double seconds_since(Clock::time_point t0);
double us_between(Clock::time_point a, Clock::time_point b);

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Median over `reps` repetitions of the per-call time (us) of `fn`, each
/// repetition calling it `inner` times. One untimed warm-up call first.
double time_us(const std::function<void()>& fn, int reps, int inner);

/// Span recorder of the traced run. Spans are recorded on the calling
/// thread from the benchmark's own code around calls into the library,
/// kept in memory, and summarised on stdout at the end; nothing is written
/// to disk. When disabled, a Span costs one branch. Single-threaded: only
/// the benchmark's main thread records.
class Tracer {
 public:
  static Tracer& global();
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void record(const char* layer, double us);
  /// One `# span` line per layer on stdout: count and p50/p99 duration.
  void print_summary() const;

 private:
  bool enabled_ = false;
  // Keyed by the name literal's address: a record is a few pointer
  // compares and a push_back, no string built.
  std::map<const char*, std::vector<double>> spans_;
};

/// RAII span: records the scope's duration under `layer` when tracing.
class Span {
 public:
  explicit Span(const char* layer)
      : layer_(Tracer::global().enabled() ? layer : nullptr),
        t0_(layer_ != nullptr ? Clock::now() : Clock::time_point{}) {}
  ~Span() {
    if (layer_ != nullptr)
      Tracer::global().record(layer_, us_between(t0_, Clock::now()));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* layer_;
  Clock::time_point t0_;
};

/// Open-loop Poisson arrival offsets (seconds from the phase start) at
/// `rate_per_s`, covering `duration_s`. Drawn up front from `rng`, so the
/// schedule is a function of the seed alone.
std::vector<double> poisson_schedule(double rate_per_s, double duration_s,
                                     mdl::Rng& rng);

/// Sleeps until `t`, spinning through the last stretch so arrivals are not
/// late by the kernel's timer slack.
void wait_until(Clock::time_point t);

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one run: the checks, the operation counts and the metrics.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::int64_t checks_passed = 0, checks_failed = 0;

  void add(std::string name, double value, std::string unit);
  /// Records a named correctness check; a failed one clears `correct`.
  void check(bool ok, const std::string& what);
};

/// Prints the report's JSON object as one line on stdout.
void print_result(const Report& report);

/// CPU model, core count, ISA flags, GEMM kernel and thread count, as
/// `# key: value` lines on stdout.
void print_provenance();

}  // namespace perfbench
