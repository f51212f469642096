// The three workloads. Each one builds its inputs from --seed once (the
// timed set-up), then repeats a pass: train its model from the same seed,
// serve held-out inputs through mdl::serve (an open-loop Poisson phase,
// then saturation bursts), and run federated rounds. Every output is
// checked against the double-precision reference or against a property the
// method must have. README.md lists the inputs.
//
// Shared hosts change speed by up to 1.8x over seconds, so a run's mean or
// median lands wherever its slow stretches fell. Every timing is therefore
// taken over many samples spread across the passes and reported as their
// fastest decile: p90 of a rate, p10 of a round time, and p10 over the
// passes of each pass's latency percentile.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <future>
#include <iostream>
#include <map>
#include <stdexcept>

#include <unistd.h>

#include "apps/multiview_model.hpp"
#include "compress/wire.hpp"
#include "data/keystroke.hpp"
#include "data/synthetic.hpp"
#include "federated/fedavg.hpp"
#include "federated/population.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "perfbench.hpp"
#include "privacy/dp_fedavg.hpp"
#include "reference.hpp"
#include "serve/server.hpp"
#include "split/split_inference.hpp"

namespace perfbench {
namespace {

using namespace mdl;

// Seconds per pass; a run makes round(--seconds / kPassSeconds) passes.
constexpr double kPassSeconds = 3.0;
// Share of a pass spent in the open-loop phase and in saturation bursts.
constexpr double kOpenLoopShare = 0.6;
constexpr double kSaturationShare = 0.15;
// Open-loop arrival rates. Keystroke sessions arrive at an interactive rate
// where most batches hold one or two sessions (the batch-1 path); split
// requests arrive fast enough that the server fills its 8-request batches
// while staying well under its saturation throughput; the federated
// model's deployment sits in between.
constexpr double kKeystrokeRate = 500.0;
constexpr double kSplitRate = 4000.0;
constexpr double kDeployRate = 1000.0;
// Served results kept per pass for the reference and invariance checks.
constexpr std::size_t kSampled = 32;

constexpr std::int64_t kRepDim = 512;
constexpr std::int64_t kSplitClasses = 8;

// Federated set-up shared by every workload: 100k virtual clients, a
// 100-client cohort, 32 examples per client, 5 local epochs.
constexpr std::uint64_t kPopulation = 100000;
constexpr std::int64_t kCohort = 100;
constexpr std::int64_t kShardExamples = 32;
constexpr std::int64_t kLocalEpochs = 5;
// Federated rounds per pass where another path is the subject.
constexpr std::int64_t kSideRounds = 4;

}  // namespace

std::shared_ptr<federated::VirtualPopulation> make_population(
    std::uint64_t seed) {
  federated::VirtualPopulationConfig vc;
  vc.population_seed = seed;
  vc.num_clients = kPopulation;
  vc.num_features = 24;
  vc.num_classes = 10;
  vc.class_sep = 2.8;
  vc.min_examples = kShardExamples;
  vc.max_examples = kShardExamples;
  vc.label_skew_alpha = 0.3;
  return std::make_shared<federated::VirtualPopulation>(vc);
}

federated::ModelFactory fed_factory() {
  return federated::mlp_factory(24, 32, 10);
}

std::unique_ptr<nn::Sequential> split_local(Rng& rng) {
  auto local = std::make_unique<nn::Sequential>();
  local->emplace<nn::Linear>(kRepDim, kRepDim, rng);
  local->emplace<nn::Tanh>();
  return local;
}

std::unique_ptr<nn::Sequential> split_cloud(Rng& rng) {
  auto cloud = std::make_unique<nn::Sequential>();
  cloud->emplace<nn::Linear>(kRepDim, kRepDim, rng);
  cloud->emplace<nn::ReLU>();
  cloud->emplace<nn::Linear>(kRepDim, kRepDim, rng);
  cloud->emplace<nn::ReLU>();
  cloud->emplace<nn::Linear>(kRepDim, kSplitClasses, rng);
  return cloud;
}

namespace {

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Removes its directory on every exit path.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(std::filesystem::path p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

/// What a run accumulates over its passes.
struct Totals {
  /// Process start to a ready service: inputs generated and the served
  /// model built and trained (federated_rounds: the first FedAvg and
  /// DP-FedAvg trainings done).
  double setup_s = 0.0;
  std::int64_t passes = 1;
  double pass_s = kPassSeconds;
  // Open loop: each pass's latency percentiles, and pooled per-request
  // figures for the traced run.
  std::vector<double> pass_p50_ms, pass_p99_ms;
  std::vector<double> lateness_us, queue_wait_us, exec_us;
  double requests = 0.0, batches = 0.0;
  // Saturation bursts: one throughput sample per burst.
  std::vector<double> burst_rps;
  std::vector<double> traced_burst_s, untraced_burst_s;
  // Training: one examples-per-second sample per epoch.
  std::vector<double> train_rate;
  // Federated rounds: one wall-time sample per round.
  std::vector<double> fed_round_s, dp_round_s;
  double fed_rounds = 0.0, wire_bytes = 0.0;
  double accuracy = 0.0;  ///< the workload's accuracy (same every pass)
};

Totals start_totals(const Args& args) {
  Totals t;
  t.passes = std::max<std::int64_t>(1, std::llround(args.seconds /
                                                    kPassSeconds));
  t.pass_s = args.seconds / static_cast<double>(t.passes);
  return t;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.size())) == 0;
}

// ---------------------------------------------------------------- serving

/// What a serving phase sends: the k-th open-loop request of the run is
/// built at its send time (the split path runs the phone half there); the
/// saturation burst is staged up front.
struct Traffic {
  std::function<serve::InferenceRequest(std::size_t)> open_loop;
  std::vector<serve::InferenceRequest> burst;
  double rate_per_s = 0.0;
  std::size_t next_k = 0;  ///< number of the next open-loop request
};

/// Results one serving pass keeps for its checks.
struct ServeSample {
  std::vector<serve::InferenceResult> burst;  ///< first burst, staged order
  std::vector<serve::InferenceResult> open_loop;
  std::vector<std::size_t> open_loop_k;
};

/// One saturation burst: stage every request behind a paused queue, then
/// release them at once. Returns the burst's wall time in seconds.
double burst(serve::InferenceServer& server,
             const std::vector<serve::InferenceRequest>& staged,
             std::vector<serve::InferenceResult>* keep, Report& report) {
  server.pause();
  std::vector<std::future<serve::InferenceResult>> futures;
  futures.reserve(staged.size());
  for (const serve::InferenceRequest& r : staged) {
    Span s("serve.submit");
    futures.push_back(server.submit(r));
  }
  const auto t0 = Clock::now();
  server.resume();
  for (auto& f : futures) {
    serve::InferenceResult r = f.get();
    ++report.attempted;
    if (r.status != serve::RequestStatus::kOk) ++report.failed;
    if (keep != nullptr) keep->push_back(std::move(r));
  }
  return seconds_since(t0);
}

ServeSample serve_pass(serve::InferenceServer& server, Traffic& t,
                       const Args& args, Rng& arrivals, Totals& tot,
                       Report& report) {
  ServeSample sample;
  const std::vector<double> schedule =
      poisson_schedule(t.rate_per_s, kOpenLoopShare * tot.pass_s, arrivals);
  const std::size_t n = schedule.size();
  const std::size_t stride = std::max<std::size_t>(1, n / kSampled);
  const std::size_t k0 = t.next_k;
  t.next_k += n;

  std::vector<std::future<serve::InferenceResult>> futures;
  std::vector<double> submit_lag_us, pass_latency_ms;
  futures.reserve(n);
  submit_lag_us.reserve(n);
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t k = 0; k < n; ++k) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(schedule[k]));
    wait_until(due);
    tot.lateness_us.push_back(us_between(due, Clock::now()));
    serve::InferenceRequest req;
    {
      Span s("gen.make_request");
      req = t.open_loop(k0 + k);
    }
    submit_lag_us.push_back(us_between(due, Clock::now()));
    Span s("serve.submit");
    futures.push_back(server.submit(std::move(req)));
  }
  for (std::size_t k = 0; k < n; ++k) {
    serve::InferenceResult r = futures[k].get();
    ++report.attempted;
    if (r.status != serve::RequestStatus::kOk) {
      ++report.failed;
      continue;
    }
    pass_latency_ms.push_back((submit_lag_us[k] + r.latency_us) / 1000.0);
    tot.queue_wait_us.push_back(r.queue_wait_us);
    tot.exec_us.push_back(r.exec_us);
    tot.requests += 1.0;
    tot.batches += 1.0 / static_cast<double>(r.batch_size);
    if (k % stride == 0 && sample.open_loop.size() < kSampled) {
      sample.open_loop.push_back(std::move(r));
      sample.open_loop_k.push_back(k0 + k);
    }
  }

  tot.pass_p50_ms.push_back(quantile(pass_latency_ms, 0.5));
  tot.pass_p99_ms.push_back(quantile(pass_latency_ms, 0.99));

  const auto sat0 = Clock::now();
  do {
    const double wall = burst(server, t.burst,
                              sample.burst.empty() ? &sample.burst : nullptr,
                              report);
    tot.burst_rps.push_back(static_cast<double>(t.burst.size()) / wall);
  } while (seconds_since(sat0) < kSaturationShare * tot.pass_s);

  if (args.trace) {
    // Tracing overhead: alternate untraced and traced bursts (a span around
    // every submit, the densest span traffic of the run).
    for (int rep = 0; rep < 3; ++rep) {
      Tracer::global().set_enabled(false);
      tot.untraced_burst_s.push_back(burst(server, t.burst, nullptr, report));
      Tracer::global().set_enabled(true);
      tot.traced_burst_s.push_back(burst(server, t.burst, nullptr, report));
    }
  }
  return sample;
}

/// Served logits must equal InferenceServer::score() bit for bit: batching
/// may not change any request's result.
void check_batch_invariance(const serve::InferenceServer& server,
                            const Traffic& t, const ServeSample& s,
                            Report& report) {
  bool ok = !s.open_loop.empty();
  for (std::size_t i = 0; i < s.open_loop.size() && ok; ++i)
    ok = same_bits(server.score(t.open_loop(s.open_loop_k[i])),
                   s.open_loop[i].logits);
  report.check(ok, "served logits are bit-identical to score()");
}

/// Passes after the first must serve bit-identical logits: they serve the
/// same model, or (federated_rounds) one retrained from the same seed.
void check_repeatable(const ServeSample& first, const ServeSample& now,
                      Report& report) {
  bool ok = first.burst.size() == now.burst.size();
  for (std::size_t i = 0; i < now.burst.size() && ok; ++i)
    ok = same_bits(first.burst[i].logits, now.burst[i].logits);
  report.check(ok, "every pass serves bit-identical logits");
}

double served_accuracy(const ServeSample& s,
                       const std::vector<std::int64_t>& labels) {
  std::int64_t hit = 0;
  for (std::size_t i = 0; i < s.burst.size(); ++i)
    hit += s.burst[i].argmax == labels[i] ? 1 : 0;
  return static_cast<double>(hit) / static_cast<double>(s.burst.size());
}

/// Split-path reference check: a served logit row against the reference
/// cloud half applied to the request's perturbed representation.
bool split_matches_reference(const split::SplitInference& model,
                             const split::PerturbConfig& perturb,
                             const ref::Mlp& cloud,
                             const serve::InferenceRequest& req,
                             const serve::InferenceResult& res,
                             std::string* why) {
  Rng noise(req.noise_seed);
  const Tensor pert = model.perturb(req.representation, perturb, noise);
  return ref::within(res.logits.data(), cloud.forward(pert.data()), why);
}

std::string detail(const std::string& why) {
  return why.empty() ? std::string() : ": " + why;
}

// -------------------------------------------------------------- federated

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// Wall times (s) of the trainer's own per-round spans (`fedavg.round`,
/// `dp_fedavg.round`) that the always-on flight recorder took since
/// `since_ns`. Falls back to the run's mean round time when the recorder
/// does not hold every round's span (instrumentation compiled out, or a
/// ring shrunk by MDL_TRACE_RING_EVENTS).
std::vector<double> round_times_s(const char* span, std::uint64_t since_ns,
                                  double run_s, std::int64_t rounds) {
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> open;
  std::vector<double> out;
  for (const obs::TraceEvent& e :
       obs::FlightRecorder::global().drain_snapshot()) {
    if (e.ts_ns < since_ns || e.name == nullptr ||
        std::strcmp(e.name, span) != 0)
      continue;
    const auto key = std::make_pair(e.tid, e.track);
    if (e.type == obs::EventType::kBegin) {
      open[key] = e.ts_ns;
    } else if (e.type == obs::EventType::kEnd && open.count(key) != 0) {
      out.push_back(static_cast<double>(e.ts_ns - open[key]) / 1e9);
      open.erase(key);
    }
  }
  if (static_cast<std::int64_t>(out.size()) != rounds) {
    std::cout << "# " << span << ": " << out.size() << " of " << rounds
              << " round spans recorded; using the mean round time\n";
    return std::vector<double>(static_cast<std::size_t>(rounds),
                               run_s / static_cast<double>(rounds));
  }
  return out;
}

/// The population every workload's federated rounds run over.
struct Federation {
  std::shared_ptr<federated::VirtualPopulation> population;
  data::TabularDataset test;

  explicit Federation(std::uint64_t seed)
      : population(make_population(sub_seed(seed, 10))),
        test(population->test_set(2000)) {}
};

/// FedAvg then DP-FedAvg for `rounds` rounds each, both with the quantized
/// wire codec attached and compressed checkpoints written every round.
/// Returns the final FedAvg model.
std::unique_ptr<nn::Sequential> federated_pass(
    const Federation& fed, std::int64_t rounds, std::uint64_t seed,
    const std::filesystem::path& scratch, Totals& tot, Report& report) {
  const compress::QuantizedWireCodec codec;
  const std::filesystem::path fed_dir = scratch / "fedavg";
  const std::filesystem::path dp_dir = scratch / "dp_fedavg";
  std::filesystem::remove_all(fed_dir);
  std::filesystem::remove_all(dp_dir);

  federated::FedAvgConfig cfg;
  cfg.rounds = rounds;
  cfg.clients_per_round = kCohort;
  cfg.local_epochs = kLocalEpochs;
  cfg.batch_size = 16;
  cfg.seed = sub_seed(seed, 11);
  cfg.checkpoint.dir = fed_dir.string();
  cfg.checkpoint.compress = true;
  federated::FedAvgTrainer fedavg(fed_factory(), fed.population, cfg);
  fedavg.attach_wire_codec(&codec);
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  std::uint64_t since = recorder.now_ns();
  auto t0 = Clock::now();
  const std::vector<federated::RoundStats> hist = fedavg.run(fed.test);
  for (const double s :
       round_times_s("fedavg.round", since, seconds_since(t0), rounds))
    tot.fed_round_s.push_back(s);
  tot.fed_rounds += static_cast<double>(rounds);
  report.attempted += rounds;
  for (const federated::RoundStats& rs : hist)
    if (rs.aborted || rs.rolled_back) ++report.failed;
  const federated::CommLedger& led = fedavg.ledger();
  tot.wire_bytes += static_cast<double>(led.total());
  tot.accuracy = hist.empty() ? 0.0 : hist.back().test_accuracy;

  const auto msize = static_cast<std::uint64_t>(fedavg.model_size());
  report.check(static_cast<std::int64_t>(hist.size()) == rounds,
               "FedAvg ran every round");
  report.check(led.bytes_up_raw + led.bytes_down_raw ==
                   static_cast<std::uint64_t>(rounds * kCohort) * msize * 8,
               "FedAvg raw ledger == rounds x cohort x model_size x 8");
  report.check(led.bytes_up <= led.bytes_up_raw &&
                   led.bytes_down <= led.bytes_down_raw,
               "FedAvg on-wire bytes <= raw bytes");

  // Resume from the newest checkpoint into a fresh trainer: it must hold
  // the final global model bit for bit and train no further round.
  {
    federated::FedAvgConfig again = cfg;
    again.checkpoint.resume = true;
    federated::FedAvgTrainer resumed(fed_factory(), fed.population, again);
    resumed.attach_wire_codec(&codec);
    const bool none_left = resumed.run(fed.test).empty();
    const std::vector<float> want =
        nn::flatten_values(fedavg.global_model().parameters());
    const std::vector<float> got =
        nn::flatten_values(resumed.global_model().parameters());
    report.check(none_left && want.size() == got.size() &&
                     std::memcmp(want.data(), got.data(),
                                 want.size() * sizeof(float)) == 0,
                 "resume from the newest checkpoint restores the final model");
  }
  Rng copy_rng(1);
  std::unique_ptr<nn::Sequential> model = fed_factory()(copy_rng);
  nn::unflatten_into_values(
      nn::flatten_values(fedavg.global_model().parameters()),
      model->parameters());

  privacy::DpFedAvgConfig dcfg;
  dcfg.rounds = rounds;
  dcfg.client_sample_prob =
      static_cast<double>(kCohort) / static_cast<double>(kPopulation);
  dcfg.local_epochs = kLocalEpochs;
  dcfg.batch_size = 16;
  dcfg.seed = sub_seed(seed, 12);
  dcfg.checkpoint.dir = dp_dir.string();
  dcfg.checkpoint.compress = true;
  privacy::DpFedAvgTrainer dp(fed_factory(), fed.population, dcfg);
  dp.attach_wire_codec(&codec);
  const std::uint64_t raw0 =
      counter("sim.bytes_up_raw") + counter("sim.bytes_down_raw");
  const std::uint64_t wire0 = counter("sim.bytes_up_compressed") +
                              counter("sim.bytes_down_compressed");
  since = recorder.now_ns();
  t0 = Clock::now();
  const std::vector<privacy::DpRoundStats> dhist = dp.run(fed.test);
  const std::vector<double> dp_times =
      round_times_s("dp_fedavg.round", since, seconds_since(t0), rounds);
  report.attempted += rounds;
  std::uint64_t selected = 0;
  for (std::size_t i = 0; i < dhist.size(); ++i) {
    const privacy::DpRoundStats& rs = dhist[i];
    if (rs.aborted || rs.rolled_back) ++report.failed;
    selected += static_cast<std::uint64_t>(rs.clients_selected);
    // Poisson sampling draws a cohort of 100 +- 10; scaling each round to
    // the expected cohort keeps that draw out of the timing.
    if (i < dp_times.size() && rs.clients_selected > 0)
      tot.dp_round_s.push_back(dp_times[i] * static_cast<double>(kCohort) /
                               static_cast<double>(rs.clients_selected));
  }
  const std::uint64_t dp_raw =
      counter("sim.bytes_up_raw") + counter("sim.bytes_down_raw") - raw0;
  const std::uint64_t dp_wire = counter("sim.bytes_up_compressed") +
                                counter("sim.bytes_down_compressed") - wire0;
  const auto dp_size =
      static_cast<std::uint64_t>(dp.global_model().param_count());
  report.check(static_cast<std::int64_t>(dhist.size()) == rounds,
               "DP-FedAvg ran every round");
  report.check(dp_raw == selected * dp_size * 8,
               "DP-FedAvg raw ledger == sum(clients_selected) x model_size "
               "x 8");
  report.check(dp_wire <= dp_raw, "DP-FedAvg on-wire bytes <= raw bytes");
  return model;
}

// ---------------------------------------------------------------- metrics

void add_metrics(const Args& args, const Totals& t, Report& report) {
  if (args.trace) {
    report.add("serve.queue_wait_p50_us", quantile(t.queue_wait_us, 0.5),
               "us");
    report.add("serve.queue_wait_p99_us", quantile(t.queue_wait_us, 0.99),
               "us");
    report.add("serve.batch_occupancy_mean", t.requests / t.batches,
               "requests");
    report.add("serve.batch_exec_p50_us", quantile(t.exec_us, 0.5), "us");
    report.add("serve.batches", std::round(t.batches), "count");
    report.add("gen.lateness_p99_us", quantile(t.lateness_us, 0.99), "us");
    report.add("obs.trace_overhead_pct",
               (median(t.traced_burst_s) / median(t.untraced_burst_s) - 1.0) *
                   100.0,
               "%");
    return;
  }
  std::cout << "# passes: " << t.passes << "; open loop: " << t.requests
            << " requests in " << std::round(t.batches)
            << " batches; saturation: " << t.burst_rps.size()
            << " bursts; training: " << t.train_rate.size()
            << " samples; federated: " << t.fed_round_s.size() << " + "
            << t.dp_round_s.size() << " rounds\n";
  report.add("setup_s", t.setup_s, "s");
  report.add("peak_rss_mib",
             static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0),
             "MiB");
  report.add("latency_p50_ms", quantile(t.pass_p50_ms, 0.1), "ms");
  report.add("latency_p99_ms", quantile(t.pass_p99_ms, 0.1), "ms");
  report.add("throughput_rps", quantile(t.burst_rps, 0.9), "1/s");
  report.add("train_examples_per_s", quantile(t.train_rate, 0.9), "1/s");
  report.add("accuracy", t.accuracy, "fraction");
  report.add("round_s", quantile(t.fed_round_s, 0.1), "s");
  report.add("dp_round_s", quantile(t.dp_round_s, 0.1), "s");
  report.add("wire_bytes_per_round", t.wire_bytes / t.fed_rounds, "bytes");
}

// -------------------------------------------------------------- workloads

void keystroke_sessions(const Args& args, const std::filesystem::path& scratch,
                        Report& report) {
  Rng data_rng(sub_seed(args.seed, 1));
  const data::KeystrokeSimulator sim{data::KeystrokeConfig{}};
  data::MultiViewSplit parts =
      data::train_test_split(sim.mood_dataset(20, 64, data_rng), 0.4,
                             data_rng);
  data::MultiViewScaler scaler;
  scaler.fit(parts.train);
  scaler.apply(parts.train);
  scaler.apply(parts.test);
  const data::MultiViewDataset& test = parts.test;
  std::vector<std::int64_t> labels;
  for (const data::MultiViewExample& ex : test.examples)
    labels.push_back(ex.label);
  const Federation fed(args.seed);
  Totals tot = start_totals(args);

  const auto session = [&](std::size_t i) {
    serve::InferenceRequest req;
    req.kind = serve::RequestKind::kMultiView;
    req.views = test.examples[i].views;
    return req;
  };
  Rng order_rng(sub_seed(args.seed, 4));
  const std::vector<std::size_t> order =
      order_rng.permutation(static_cast<std::size_t>(test.size()));
  Traffic traffic;
  traffic.rate_per_s = kKeystrokeRate;
  traffic.open_loop = [&](std::size_t k) {
    return session(order[k % order.size()]);
  };
  for (std::size_t i = 0; i < order.size(); ++i)
    traffic.burst.push_back(session(i));
  Rng arrivals(sub_seed(args.seed, 5));
  ServeSample first;

  // Two identical models: the served one trains 6 epochs up front; the
  // other trains one more epoch every pass, so training is sampled across
  // the whole run. Every epoch is one timed sample.
  constexpr std::int64_t kEpochs = 6;
  const auto build = [&] {
    Rng model_rng(sub_seed(args.seed, 2));
    return apps::MultiViewModel(
        apps::deepmood_config(parts.train.view_dims, parts.train.seq_lens,
                              fusion::FusionKind::kMultiviewMachine),
        model_rng);
  };
  apps::MultiViewModel model = build(), trained_more = build();
  apps::MultiViewTrainConfig tc;
  tc.epochs = 1;
  tc.seed = sub_seed(args.seed, 3);
  apps::MultiViewTrainer trainer(model, tc), trainer_more(trained_more, tc);
  const auto epoch = [&](apps::MultiViewTrainer& t) {
    const auto t0 = Clock::now();
    t.train(parts.train);
    tot.train_rate.push_back(static_cast<double>(parts.train.size()) /
                             seconds_since(t0));
    ++report.attempted;
  };
  for (std::int64_t e = 0; e < kEpochs; ++e) epoch(trainer);
  model.set_training(false);
  tot.setup_s = seconds_since(process_start());

  for (std::int64_t pass = 0; pass < tot.passes; ++pass) {
    epoch(trainer_more);
    ServeSample s;
    {
      serve::InferenceServer server(&model, nullptr, serve::ServeConfig{});
      s = serve_pass(server, traffic, args, arrivals, tot, report);
      check_batch_invariance(server, traffic, s, report);
    }
    if (pass == 0) {
      const ref::MultiView reference = ref::MultiView::from(model);
      const auto views_of = [&](std::size_t i) {
        std::vector<const float*> v;
        for (const Tensor& t : test.examples[i].views) v.push_back(t.data());
        return v;
      };
      bool ok = s.burst.size() == order.size();
      std::string why;
      for (std::size_t i = 0; i < s.burst.size() && ok; ++i)
        ok = ref::within(s.burst[i].logits.data(),
                         reference.forward(views_of(i)), &why);
      for (std::size_t i = 0; i < s.open_loop.size() && ok; ++i)
        ok = ref::within(
            s.open_loop[i].logits.data(),
            reference.forward(views_of(order[s.open_loop_k[i] % order.size()])),
            &why);
      report.check(ok, "served DeepMood logits match the reference" +
                           detail(why));
      first = std::move(s);
    } else {
      check_repeatable(first, s, report);
    }
    federated_pass(fed, kSideRounds, args.seed, scratch, tot, report);
  }
  tot.accuracy = served_accuracy(first, labels);
  report.check(tot.accuracy >= 0.65,
               "served held-out accuracy >= 0.65 (chance 0.5)");
  add_metrics(args, tot, report);
}

/// Checks the server's perturbation against its configuration: with the
/// noise off, the zeroed share of coordinates matches the nullification
/// rate; with nullification off, the noise's mean |d| and mean d^2 match a
/// Laplace(b) draw (b and 2 b^2). Each within five standard errors.
void check_perturbation(const split::SplitInference& model,
                        const split::PerturbConfig& cfg,
                        const std::vector<serve::InferenceRequest>& reqs,
                        Report& report) {
  split::PerturbConfig null_only = cfg;
  null_only.laplace_scale = 0.0;
  split::PerturbConfig noise_only = cfg;
  noise_only.nullification_rate = 0.0;
  Rng rng(99);
  double zeros = 0.0, n = 0.0, abs_sum = 0.0, sq_sum = 0.0;
  for (const serve::InferenceRequest& req : reqs) {
    Tensor clipped = req.representation;
    clipped.clamp_(-static_cast<float>(cfg.clip_bound),
                   static_cast<float>(cfg.clip_bound));
    const Tensor a = model.perturb(req.representation, null_only, rng);
    const Tensor b = model.perturb(req.representation, noise_only, rng);
    for (std::int64_t i = 0; i < clipped.size(); ++i) {
      if (a[i] == 0.0F && clipped[i] != 0.0F) zeros += 1.0;
      const double d = static_cast<double>(b[i]) - clipped[i];
      abs_sum += std::fabs(d);
      sq_sum += d * d;
      n += 1.0;
    }
  }
  const double r = cfg.nullification_rate, b = cfg.laplace_scale;
  const double frac = zeros / n;
  report.check(std::fabs(frac - r) <= 5.0 * std::sqrt(r * (1.0 - r) / n),
               "nullified share " + std::to_string(frac) + " matches rate " +
                   std::to_string(r));
  const double mabs = abs_sum / n, msq = sq_sum / n;
  report.check(std::fabs(mabs - b) <= 5.0 * b / std::sqrt(n) &&
                   std::fabs(msq - 2.0 * b * b) <=
                       5.0 * std::sqrt(20.0) * b * b / std::sqrt(n),
               "Laplace noise mean |d| " + std::to_string(mabs) +
                   " matches scale " + std::to_string(b));
}

void split_requests(const Args& args, const std::filesystem::path& scratch,
                    Report& report) {
  Rng data_rng(sub_seed(args.seed, 1));
  data::SyntheticConfig sc;
  sc.num_samples = 2560;
  sc.num_features = kRepDim;
  sc.num_classes = kSplitClasses;
  sc.class_sep = 6.0;
  const data::TabularSplit parts = data::train_test_split(
      data::make_classification(sc, data_rng), 0.2, data_rng);
  const data::TabularDataset& test = parts.test;
  const Federation fed(args.seed);
  Totals tot = start_totals(args);

  const serve::ServeConfig cfg;
  const std::uint64_t noise_base = sub_seed(args.seed, 6);
  Rng order_rng(sub_seed(args.seed, 4));
  const std::vector<std::size_t> order =
      order_rng.permutation(static_cast<std::size_t>(test.size()));
  Rng arrivals(sub_seed(args.seed, 5));
  ServeSample first;

  // Noisy training of the cloud half (§III-A). As in keystroke_sessions,
  // the served model trains 3 epochs up front and an identical one keeps
  // training during the passes, here on 512-example slices of the training
  // set so that each pass yields several samples. Every call is one timed
  // sample.
  constexpr std::int64_t kEpochs = 3;
  constexpr std::int64_t kSlice = 512;
  std::vector<data::TabularDataset> slices;
  for (std::int64_t b = 0; b + kSlice <= parts.train.size(); b += kSlice) {
    std::vector<std::size_t> rows(static_cast<std::size_t>(kSlice));
    for (std::int64_t r = 0; r < kSlice; ++r)
      rows[static_cast<std::size_t>(r)] = static_cast<std::size_t>(b + r);
    slices.push_back(parts.train.subset(rows));
  }
  const auto build = [&] {
    Rng model_rng(sub_seed(args.seed, 2));
    auto local = split_local(model_rng);
    auto cloud = split_cloud(model_rng);
    return split::SplitInference(std::move(local), std::move(cloud));
  };
  split::SplitInference model = build(), trained_more = build();
  Rng train_rng(sub_seed(args.seed, 3)), more_rng(sub_seed(args.seed, 3));
  const auto epoch = [&](split::SplitInference& m,
                         const data::TabularDataset& data, Rng& rng) {
    const auto t0 = Clock::now();
    m.train_cloud(data, cfg.perturb, /*noisy=*/true, 1, 32, 0.05, rng);
    tot.train_rate.push_back(static_cast<double>(data.size()) /
                             seconds_since(t0));
    ++report.attempted;
  };
  for (std::int64_t e = 0; e < kEpochs; ++e)
    epoch(model, parts.train, train_rng);
  tot.setup_s = seconds_since(process_start());

  // The phone half runs at send time on the generator thread (batch 1).
  const auto request = [&](std::size_t item, std::uint64_t noise_seed) {
    serve::InferenceRequest req;
    req.kind = serve::RequestKind::kSplit;
    const auto row = static_cast<std::int64_t>(item);
    req.representation =
        model.local_infer(test.features.slice_rows(row, row + 1));
    req.noise_seed = noise_seed;
    return req;
  };
  Traffic traffic;
  traffic.rate_per_s = kSplitRate;
  traffic.open_loop = [&](std::size_t k) {
    return request(order[k % order.size()], noise_base + k);
  };
  for (std::size_t i = 0; i < order.size(); ++i)
    traffic.burst.push_back(request(i, noise_base ^ (i << 32)));

  for (std::int64_t pass = 0; pass < tot.passes; ++pass) {
    for (std::size_t i = 0; i < 3; ++i)
      epoch(trained_more, slices[(3 * static_cast<std::size_t>(pass) + i) %
                                 slices.size()],
            more_rng);
    ServeSample s;
    {
      serve::InferenceServer server(nullptr, &model, cfg);
      s = serve_pass(server, traffic, args, arrivals, tot, report);
      check_batch_invariance(server, traffic, s, report);
    }
    if (pass == 0) {
      const ref::Mlp ref_local = ref::Mlp::from(model.local());
      const ref::Mlp ref_cloud = ref::Mlp::from(model.cloud());
      bool ok = s.burst.size() == order.size();
      std::string why;
      for (std::size_t i = 0; i < kSampled && ok; ++i)
        ok = split_matches_reference(model, cfg.perturb, ref_cloud,
                                     traffic.burst[i], s.burst[i], &why);
      for (std::size_t i = 0; i < s.open_loop.size() && ok; ++i)
        ok = split_matches_reference(model, cfg.perturb, ref_cloud,
                                     traffic.open_loop(s.open_loop_k[i]),
                                     s.open_loop[i], &why);
      for (std::size_t i = 0; i < kSampled && ok; ++i)
        ok = ref::within(traffic.burst[i].representation.data(),
                         ref_local.forward(test.features.data() +
                                           static_cast<std::int64_t>(i) *
                                               kRepDim),
                         &why);
      report.check(ok, "served split logits and phone-half outputs match "
                       "the reference" + detail(why));
      check_perturbation(
          model, cfg.perturb,
          std::vector<serve::InferenceRequest>(
              traffic.burst.begin(),
              traffic.burst.begin() + static_cast<std::ptrdiff_t>(kSampled)),
          report);
      first = std::move(s);
    } else {
      check_repeatable(first, s, report);
    }
    federated_pass(fed, kSideRounds, args.seed, scratch, tot, report);
  }
  tot.accuracy = served_accuracy(first, test.labels);
  report.check(tot.accuracy >= 0.5,
               "served accuracy under perturbation >= 0.5 (chance 0.125)");
  add_metrics(args, tot, report);
}

void federated_rounds(const Args& args, const std::filesystem::path& scratch,
                      Report& report) {
  const Federation fed(args.seed);
  {
    // Derive a sample of client shards up front: the per-client data every
    // round regenerates, and a check that shards have the configured size.
    data::TabularDataset shard;
    std::int64_t examples = 0;
    for (std::size_t c = 0; c < 4000; ++c)
      examples += fed.population->shard(c * 24, shard).size();
    report.check(examples == 4000 * kShardExamples,
                 "virtual clients hold the configured shard size");
  }
  Totals tot = start_totals(args);

  const serve::ServeConfig cfg;
  const data::TabularDataset& test = fed.test;
  const std::uint64_t noise_base = sub_seed(args.seed, 6);
  Rng order_rng(sub_seed(args.seed, 4));
  const std::vector<std::size_t> order =
      order_rng.permutation(static_cast<std::size_t>(test.size()));
  Rng arrivals(sub_seed(args.seed, 5));
  std::size_t next_k = 0;
  ServeSample first;
  // Rounds per pass of FedAvg and of DP-FedAvg, each a full training run.
  constexpr std::int64_t kRounds = 20;

  for (std::int64_t pass = 0; pass < tot.passes; ++pass) {
    const double acc_before = tot.accuracy;
    std::unique_ptr<nn::Sequential> trained =
        federated_pass(fed, kRounds, args.seed, scratch, tot, report);
    if (pass == 0) tot.setup_s = seconds_since(process_start());
    if (pass > 0)
      report.check(tot.accuracy == acc_before,
                   "every pass reaches the same FedAvg accuracy");

    // Deploy the FedAvg model as split inference: the hidden layer on the
    // phone, the output layer behind the server.
    split::SplitInference model =
        split::SplitInference::from_whole(std::move(trained), 2);
    const auto request = [&](std::size_t item, std::uint64_t noise_seed) {
      serve::InferenceRequest req;
      req.kind = serve::RequestKind::kSplit;
      const auto row = static_cast<std::int64_t>(item);
      req.representation =
          model.local_infer(test.features.slice_rows(row, row + 1));
      req.noise_seed = noise_seed;
      return req;
    };
    Traffic traffic;
    traffic.rate_per_s = kDeployRate;
    traffic.next_k = next_k;
    traffic.open_loop = [&](std::size_t k) {
      return request(order[k % order.size()], noise_base + k);
    };
    for (std::size_t i = 0; i < order.size(); ++i)
      traffic.burst.push_back(request(i, noise_base ^ (i << 32)));
    ServeSample s;
    {
      serve::InferenceServer server(nullptr, &model, cfg);
      s = serve_pass(server, traffic, args, arrivals, tot, report);
      check_batch_invariance(server, traffic, s, report);
    }
    next_k = traffic.next_k;
    if (pass == 0) {
      const ref::Mlp ref_cloud = ref::Mlp::from(model.cloud());
      bool ok = true;
      std::string why;
      for (std::size_t i = 0; i < s.open_loop.size() && ok; ++i)
        ok = split_matches_reference(model, cfg.perturb, ref_cloud,
                                     traffic.open_loop(s.open_loop_k[i]),
                                     s.open_loop[i], &why);
      report.check(ok, "served federated-model logits match the reference" +
                           detail(why));
      first = std::move(s);
    } else {
      check_repeatable(first, s, report);
    }
  }
  report.check(tot.accuracy >= 0.5,
               "FedAvg final test accuracy >= 0.5 (chance 0.1)");
  // Local-SGD examples per second of round wall time.
  for (const double s : tot.fed_round_s)
    tot.train_rate.push_back(
        static_cast<double>(kCohort * kShardExamples * kLocalEpochs) / s);
  add_metrics(args, tot, report);
}

}  // namespace

void run_workload(const Args& args, Report& report) {
  const ScratchDir scratch(std::filesystem::current_path() / ".bench_build" /
                           ("scratch-" + std::to_string(::getpid())));
  if (args.workload == "keystroke_sessions")
    keystroke_sessions(args, scratch.path, report);
  else if (args.workload == "split_requests")
    split_requests(args, scratch.path, report);
  else if (args.workload == "federated_rounds")
    federated_rounds(args, scratch.path, report);
  else
    throw std::runtime_error("unknown workload " + args.workload);
  if (args.trace)
    run_layer_probe(args, (scratch.path / "probe").string(), report);
}

}  // namespace perfbench
