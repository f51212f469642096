// Module probe of the traced run: times calls into each module's public
// functions on fixed shapes (the shapes the workloads use), so every traced
// run reports the same per-layer metrics whatever its workload.
#include <cmath>
#include <filesystem>
#include <iostream>

#include "apps/multiview_model.hpp"
#include "ckpt/checkpoint.hpp"
#include "compress/codec.hpp"
#include "compress/wire.hpp"
#include "core/tensor.hpp"
#include "data/keystroke.hpp"
#include "federated/common.hpp"
#include "federated/fedavg.hpp"
#include "federated/population.hpp"
#include "fusion/fusion.hpp"
#include "mobile/cost_model.hpp"
#include "nn/gru.hpp"
#include "nn/linear.hpp"
#include "perfbench.hpp"
#include "split/split_inference.hpp"

namespace perfbench {
namespace {

using namespace mdl;

constexpr std::int64_t kHidden = 16;
constexpr int kReps = 7;

double gflops(double flops, double us) { return flops / (us * 1e3); }

/// [T, B, dim] slices of `n` sessions for view `p`, as make_batch lays them.
std::vector<Tensor> session_batch(const data::MultiViewDataset& ds,
                                  std::int64_t n) {
  std::vector<Tensor> views;
  for (std::size_t p = 0; p < ds.view_dims.size(); ++p) {
    const std::int64_t t_len = ds.seq_lens[p], dim = ds.view_dims[p];
    Tensor v({t_len, n, dim});
    for (std::int64_t b = 0; b < n; ++b) {
      const Tensor& src = ds.examples[static_cast<std::size_t>(b)].views[p];
      for (std::int64_t t = 0; t < t_len; ++t)
        for (std::int64_t f = 0; f < dim; ++f)
          v[(t * n + b) * dim + f] = src[t * dim + f];
    }
    views.push_back(std::move(v));
  }
  return views;
}

}  // namespace

void run_layer_probe(const Args& args, const std::string& scratch_dir,
                     Report& report) {
  Rng rng(args.seed ^ 0x5EEDULL);

  // core: GEMM rates at the 256^3 peak shape and the 512-wide layer shapes.
  const Tensor a256 = Tensor::randn({256, 256}, rng);
  const Tensor b256 = Tensor::randn({256, 256}, rng);
  const double peak = gflops(2.0 * 256 * 256 * 256,
                             time_us([&] { (void)matmul(a256, b256); }, kReps,
                                     5));
  const Tensor w512 = Tensor::randn({512, 512}, rng);
  const Tensor x1 = Tensor::randn({1, 512}, rng);
  const Tensor x8 = Tensor::randn({8, 512}, rng);
  const double g512_b1 = gflops(
      2.0 * 512 * 512,
      time_us([&] { (void)matmul_nt(x1, w512); }, kReps, 200));
  const double g512_b8 = gflops(
      8 * 2.0 * 512 * 512,
      time_us([&] { (void)matmul_nt(x8, w512); }, kReps, 50));
  report.add("core.gemm_peak_gflops", peak, "GFLOP/s");
  report.add("core.gemm_512_b1_gflops", g512_b1, "GFLOP/s");
  report.add("core.gemm_512_b8_gflops", g512_b8, "GFLOP/s");
  report.add("core.gemm_512_b1_frac_peak", g512_b1 / peak, "fraction");
  report.add("core.gemm_512_b8_frac_peak", g512_b8 / peak, "fraction");

  // nn: Linear(512 -> 512) and the three DeepMood GRU encoders at batch 1.
  nn::Linear lin(512, 512, rng);
  const double lin_b1 = time_us([&] { (void)lin.infer(x1); }, kReps, 200);
  const double lin_b8 = time_us([&] { (void)lin.infer(x8); }, kReps, 50);
  report.add("nn.linear512_infer_b1_us", lin_b1, "us");
  report.add("nn.linear512_infer_b8_us", lin_b8, "us");
  report.add("nn.linear512_b8_frac_peak",
             gflops(8.0 * static_cast<double>(lin.flops_per_example()),
                    lin_b8) / peak,
             "fraction");

  const data::KeystrokeSimulator sim{data::KeystrokeConfig{}};
  const std::vector<std::int64_t> dims = sim.view_dims(),
                                  lens = sim.seq_lens();
  const char* gru_names[] = {"nn.gru_infer_b1_us.alnum",
                             "nn.gru_infer_b1_us.special",
                             "nn.gru_infer_b1_us.accel"};
  double gru_flops = 0.0, gru_us = 0.0;
  for (std::size_t p = 0; p < dims.size(); ++p) {
    nn::GRU gru(dims[p], kHidden, rng);
    gru.set_nominal_seq_len(lens[p]);
    const Tensor seq = Tensor::randn({lens[p], 1, dims[p]}, rng);
    const double us = time_us([&] { (void)gru.infer(seq); }, kReps, 50);
    report.add(gru_names[p], us, "us");
    gru_flops += static_cast<double>(gru.flops_per_example());
    gru_us += us;
  }
  report.add("nn.gru_infer_gflops", gflops(gru_flops, gru_us), "GFLOP/s");
  report.add("nn.gru_frac_peak", gflops(gru_flops, gru_us) / peak,
             "fraction");

  // fusion: the Multi-view Machine head over three 16-wide hidden states.
  {
    fusion::MultiviewMachineLayer mvm({kHidden, kHidden, kHidden}, 8, 2, rng);
    const std::vector<Tensor> h = {Tensor::randn({1, kHidden}, rng),
                                   Tensor::randn({1, kHidden}, rng),
                                   Tensor::randn({1, kHidden}, rng)};
    report.add("fusion.mvm_infer_b1_us",
               time_us([&] { (void)mvm.infer(h); }, kReps, 200), "us");
  }

  // apps: the whole DeepMood model, inference at batch 1 and 8, and one
  // training epoch over 256 sessions.
  {
    Rng data_rng(args.seed);
    const data::MultiViewDataset ds = sim.mood_dataset(8, 32, data_rng);
    apps::MultiViewModel model(
        apps::deepmood_config(dims, lens,
                              fusion::FusionKind::kMultiviewMachine),
        rng);
    const std::vector<Tensor> b1 = session_batch(ds, 1);
    const std::vector<Tensor> b8 = session_batch(ds, 8);
    report.add("apps.infer_b1_us",
               time_us([&] { (void)model.infer(b1); }, kReps, 30), "us");
    report.add("apps.infer_per_session_b8_us",
               time_us([&] { (void)model.infer(b8); }, kReps, 10) / 8.0,
               "us");
    apps::MultiViewTrainConfig tc;
    tc.epochs = 1;
    apps::MultiViewTrainer trainer(model, tc);
    report.add("apps.train_epoch_s",
               time_us([&] { trainer.train(ds); }, 3, 1) / 1e6, "s");
  }

  // split + mobile: the 512-wide split model's halves and perturbation, and
  // the cost model's predictions for them over the measured times.
  {
    auto local = split_local(rng);
    auto cloud = split_cloud(rng);
    const auto local_flops = local->flops_per_example();
    const auto cloud_flops = cloud->flops_per_example();
    const split::SplitInference model(std::move(local), std::move(cloud));
    const split::PerturbConfig perturb;
    Rng noise(7);
    const Tensor rep = model.local_infer(x1);
    const double local_us =
        time_us([&] { (void)model.local_infer(x1); }, kReps, 200);
    const double cloud_us =
        time_us([&] { (void)model.cloud_infer(rep); }, kReps, 100);
    report.add("split.local_infer_us", local_us, "us");
    report.add("split.perturb_us",
               time_us([&] { (void)model.perturb(rep, perturb, noise); },
                       kReps, 200),
               "us");
    report.add("split.cloud_infer_b1_us", cloud_us, "us");
    const Tensor rep8 = model.local_infer(x8);
    report.add("split.cloud_infer_b8_us",
               time_us([&] { (void)model.cloud_infer(rep8); }, kReps, 30),
               "us");
    const mobile::InferencePlanner phone(mobile::DeviceProfile::mobile_soc(),
                                         mobile::DeviceProfile::cloud_server(),
                                         mobile::NetworkModel::wifi());
    const mobile::InferencePlanner server(
        mobile::DeviceProfile::cloud_server(),
        mobile::DeviceProfile::cloud_server(), mobile::NetworkModel::wifi());
    // Cost-model error as |log2(predicted / measured)|: 0 when calibrated,
    // 1 when off by a factor of two either way.
    const double local_ratio =
        phone.on_device(local_flops).latency_s * 1e6 / local_us;
    const double cloud_ratio =
        server.on_device(cloud_flops).latency_s * 1e6 / cloud_us;
    std::cout << "# cost model predicted/measured: local " << local_ratio
              << ", cloud " << cloud_ratio << "\n";
    report.add("mobile.local_pred_log2_error",
               std::fabs(std::log2(local_ratio)), "log2");
    report.add("mobile.cloud_pred_log2_error",
               std::fabs(std::log2(cloud_ratio)), "log2");
  }

  // federated: shard derivation, one client's local SGD, test evaluation,
  // and bare rounds (no codec, no checkpoint) over 100k virtual clients.
  const auto pop = make_population(args.seed);
  const data::TabularDataset test = pop->test_set(2000);
  const federated::ModelFactory factory = fed_factory();
  std::unique_ptr<nn::Sequential> model = factory(rng);
  {
    data::TabularDataset scratch;
    std::size_t client = 0;
    report.add("federated.shard_derive_us",
               time_us(
                   [&] {
                     (void)pop->shard((client++ * 7919) % pop->size(),
                                      scratch);
                   },
                   kReps, 50),
               "us");
    const data::TabularDataset& shard = pop->shard(12345, scratch);
    const std::vector<float> init = nn::flatten_values(model->parameters());
    Rng sgd_rng(3);
    report.add("federated.local_sgd_ms_per_client",
               time_us(
                   [&] {
                     nn::unflatten_into_values(init, model->parameters());
                     (void)federated::local_sgd(*model, shard, 5, 16, 0.1,
                                                sgd_rng);
                   },
                   kReps, 3) /
                   1e3,
               "ms");
    report.add("federated.eval_ms",
               time_us(
                   [&] { (void)federated::evaluate_accuracy(*model, test); },
                   kReps, 3) /
                   1e3,
               "ms");
    federated::FedAvgConfig cfg;
    cfg.rounds = 4;
    cfg.clients_per_round = 100;
    const auto t0 = Clock::now();
    federated::FedAvgTrainer bare(factory, pop, cfg);
    (void)bare.run(test);
    report.add("federated.round_s_bare", seconds_since(t0) / 4.0, "s");
  }

  // compress: the quantized wire codec on the federated model's weights,
  // and the block codec's raw throughput on the 512-wide weight matrix.
  {
    const std::vector<float> flat = nn::flatten_values(model->parameters());
    const compress::QuantizedWireCodec codec;
    report.add("compress.encode_dense_us",
               time_us([&] { (void)codec.encode_dense(flat); }, kReps, 50),
               "us");
    report.add("compress.wire_ratio",
               static_cast<double>(codec.dense_wire_bytes(flat)) /
                   (4.0 * static_cast<double>(flat.size())),
               "ratio");
    const std::span<const std::uint8_t> raw(
        reinterpret_cast<const std::uint8_t*>(w512.data()),
        static_cast<std::size_t>(w512.size()) * sizeof(float));
    const compress::BlockCodec block;
    const double us = time_us([&] { (void)block.encode(raw); }, 5, 1);
    report.add("compress.blockcodec_encode_mb_s",
               static_cast<double>(raw.size()) / us, "MB/s");
  }

  // ckpt: one compressed checkpoint of the federated model, written
  // atomically (temp + fsync + rename) as every round does.
  {
    ckpt::CheckpointConfig cc;
    cc.dir = scratch_dir;
    cc.compress = true;
    ckpt::CheckpointManager manager(cc);
    std::int64_t round = 0;
    const ckpt::PayloadWriter payload = [&](BinaryWriter& w) {
      model->save_state(w);
    };
    report.add("ckpt.save_ms",
               time_us([&] { manager.save(++round, payload); }, kReps, 1) /
                   1e3,
               "ms");
    report.add("ckpt.file_bytes",
               static_cast<double>(std::filesystem::file_size(
                   manager.path_for_round(round))),
               "bytes");
  }
}

}  // namespace perfbench
