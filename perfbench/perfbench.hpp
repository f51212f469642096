// The three workloads and the per-layer probe of the perfbench program.
#pragma once

#include <memory>

#include "common.hpp"
#include "federated/common.hpp"
#include "federated/population.hpp"
#include "nn/module.hpp"

namespace perfbench {

/// The 512-wide split model of split_requests: the phone half is
/// Linear(512,512) + Tanh, the cloud half two Linear(512,512) + ReLU and a
/// Linear(512,8) head.
std::unique_ptr<mdl::nn::Sequential> split_local(mdl::Rng& rng);
std::unique_ptr<mdl::nn::Sequential> split_cloud(mdl::Rng& rng);

/// The federated set-up every workload shares: 100k virtual clients of 32
/// examples (24 features, 10 classes, Dirichlet(0.3) labels) and the
/// 24-32-10 MLP they train.
std::shared_ptr<mdl::federated::VirtualPopulation> make_population(
    std::uint64_t seed);
mdl::federated::ModelFactory fed_factory();

/// Runs `args.workload` ("keystroke_sessions", "split_requests" or
/// "federated_rounds") and fills `report` with its end-to-end metrics, or
/// with the serve/gen/obs per-layer metrics when `args.trace` is set.
/// Throws std::runtime_error for an unknown workload.
void run_workload(const Args& args, Report& report);

/// The traced run's module probe: times calls into the public functions of
/// apps, nn, fusion, core, split, mobile, federated, compress and ckpt on
/// fixed shapes, and adds one per-layer metric per measurement.
/// `scratch_dir` receives the probe's checkpoint files; the caller removes it.
void run_layer_probe(const Args& args, const std::string& scratch_dir,
                     Report& report);

}  // namespace perfbench
