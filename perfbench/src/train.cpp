// train.cpp — the two training workloads.
//
//   train_posit: the paper's method through nn::Trainer — SynthCifar (10
//     classes, 16x16), ResNet-8 (base 8), QuantPolicy(QuantConfig::cifar8()),
//     one FP32 warm-up epoch, then posit epochs.
//   train_dp: train::Trainer in FP32 — ResNet-8 (base 8), batch 64,
//     micro_batch 16, 4 workers — on seeded batches, stepped alongside a
//     1-worker Trainer over an identical network whose parameters must end
//     bitwise equal.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>

#include "data/synthetic.hpp"
#include "exec/float_backend.hpp"
#include "nn/optimizer.hpp"
#include "nn/resnet.hpp"
#include "nn/trainer.hpp"
#include "plan_macs.hpp"
#include "quant/policy.hpp"
#include "report.hpp"
#include "shims.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "train/trainer.hpp"

namespace perfbench {
namespace {

using pdnn::tensor::Shape;
using pdnn::tensor::Tensor;


pdnn::data::SynthCifarConfig cifar_data(std::uint64_t seed) {
  pdnn::data::SynthCifarConfig dc;
  dc.classes = 10;
  dc.train_per_class = 90;
  dc.test_per_class = 50;
  dc.height = dc.width = 16;
  dc.noise = 0.75f;
  dc.seed = derive_seed(seed, 1);
  return dc;
}

std::unique_ptr<pdnn::nn::Sequential> resnet8(std::uint64_t seed) {
  pdnn::nn::ResNetConfig rc;
  rc.blocks_per_stage = 1;
  rc.base_channels = 8;
  rc.classes = 10;
  rc.bn_momentum = 0.3f;
  pdnn::tensor::Rng rng(derive_seed(seed, 2));
  return pdnn::nn::cifar_resnet(rc, rng);
}

/// Better-half mean (lower is better) over consecutive chunks of `kChunk`
/// samples of each chunk's q-percentile (a short tail chunk is folded into
/// the one before it).
double chunked_percentile(const std::vector<double>& v, double q) {
  constexpr std::size_t kChunk = 15;
  std::vector<double> per_chunk;
  for (std::size_t lo = 0; lo < v.size(); lo += kChunk) {
    const std::size_t hi = v.size() - lo < 2 * kChunk ? v.size() : lo + kChunk;
    per_chunk.push_back(percentile(std::vector<double>(v.begin() + static_cast<long>(lo),
                                                       v.begin() + static_cast<long>(hi)),
                                   q));
    if (hi == v.size()) break;
  }
  return better_half_mean(per_chunk, true);
}

const pdnn::nn::SgdConfig kSgd{.lr = 0.1f, .momentum = 0.9f, .weight_decay = 1e-4f};

}  // namespace

void run_train_posit(const RunArgs& args, Report& r) {
  const std::size_t posit_epochs =
      std::max<std::size_t>(2, static_cast<std::size_t>(std::lround(args.seconds / 2.0)));
  const std::size_t epochs = 1 + posit_epochs;

  // --- set-up, repeated; the last one trains -----------------------------------
  std::vector<double> setup_s, gen_s;
  pdnn::data::TrainTest data;
  std::unique_ptr<pdnn::nn::Sequential> net;
  std::unique_ptr<pdnn::quant::QuantPolicy> policy;
  std::unique_ptr<TimedPolicy> shim;
  while (more_setups(setup_s)) {
    const auto t0 = Clock::now();
    data = pdnn::data::make_synth_cifar(cifar_data(args.seed));
    gen_s.push_back(seconds_between(t0, Clock::now()));
    net = resnet8(args.seed);
    policy = std::make_unique<pdnn::quant::QuantPolicy>(pdnn::quant::QuantConfig::cifar8());
    shim = args.trace ? std::make_unique<TimedPolicy>(*policy) : nullptr;
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  r.metric("setup_s", median(setup_s), "s");

  pdnn::nn::TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 50;
  tc.sgd = kSgd;
  tc.schedule = {.base_lr = 0.1f, .drop_epochs = {epochs * 3 / 5, epochs * 4 / 5}, .factor = 10.0f};
  tc.warmup_epochs = 1;
  tc.shuffle_seed = derive_seed(args.seed, 3);
  std::size_t transforms_at_warmup_end = 0;
  tc.on_warmup_end = [&](pdnn::nn::Sequential& n) {
    transforms_at_warmup_end = policy->transforms_performed();
    policy->calibrate(n);
    policy->activate();
  };
  std::vector<double> epoch_s;
  auto last = Clock::now();
  tc.on_epoch_end = [&](std::size_t, pdnn::nn::Sequential&) {
    const auto now = Clock::now();
    epoch_s.push_back(seconds_between(last, now));
    last = now;
  };
  pdnn::nn::PrecisionPolicy* installed =
      shim ? static_cast<pdnn::nn::PrecisionPolicy*>(shim.get()) : policy.get();
  pdnn::nn::Trainer trainer(*net, installed, tc);
  last = Clock::now();
  const auto history = trainer.fit(data.train.images, data.train.labels, data.test.images,
                                   data.test.labels);

  // Hook totals of the training run alone (the evaluations below fire hooks too).
  std::array<TimedPolicy::Tally, kHookNames.size()> fit_hooks{};
  for (std::size_t h = 0; shim && h < kHookNames.size(); ++h) fit_hooks[h] = shim->tally(static_cast<Hook>(h));
  const std::size_t fit_elements = policy->transforms_performed();

  const std::size_t n = data.train.size();
  const std::size_t batches = (n + tc.batch_size - 1) / tc.batch_size;
  const std::vector<double> posit_s(epoch_s.begin() + 1, epoch_s.end());
  const double posit_epoch = median(posit_s);

  // Light load: nn::Trainer::evaluate over the whole test set (forward
  // only, P(W)/P(A) hooks active), timed per call and reported per batch.
  std::vector<double> eval_ms;
  const std::size_t test_batches = (data.test.size() + tc.batch_size - 1) / tc.batch_size;
  const auto evals = static_cast<std::size_t>(std::lround(args.seconds));
  for (std::size_t i = 0; i < evals; ++i) {
    const auto t0 = Clock::now();
    trainer.evaluate(data.test.images, data.test.labels, tc.batch_size);
    eval_ms.push_back(seconds_between(t0, Clock::now()) * 1e3 / static_cast<double>(test_batches));
  }
  const double batches_d = static_cast<double>(batches);
  r.metric("lat_p50_ms.light", median(eval_ms), "ms");
  r.metric("lat_p90_ms.light", percentile(eval_ms, 0.9), "ms");
  r.metric("lat_p50_ms.heavy", posit_epoch / batches_d * 1e3, "ms");
  r.metric("lat_p90_ms.heavy", percentile(posit_s, 0.9) / batches_d * 1e3, "ms");
  r.metric("samples_per_s", static_cast<double>(n) / posit_epoch, "1/s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");

  std::fprintf(stderr, "perfbench: epoch seconds:");
  for (const double e : epoch_s) std::fprintf(stderr, " %.3f", e);
  std::fprintf(stderr, "\n");

  r.count(epochs * batches, 0);
  bool finite = true;
  for (const auto& e : history) finite = finite && std::isfinite(e.train_loss);
  r.check(finite, "training loss is not finite");
  r.check(history.back().quantized, "last epoch did not run under the posit policy");
  r.check(fit_elements > transforms_at_warmup_end,
          "QuantPolicy performed no transforms after warm-up");

  if (!args.trace) return;
  r.metric("data.gen_s", median(gen_s), "s");
  r.metric("nn.test_acc", history.back().test_acc, "ratio");
  r.metric("nn.final_loss", history.back().train_loss, "nats");
  const double per_epoch = static_cast<double>(posit_epochs);
  double hook_s = 0.0;
  for (std::size_t h = 0; h < kHookNames.size(); ++h) {
    r.metric(std::string("quant.hook_ms.") + kHookNames[h], fit_hooks[h].seconds / per_epoch * 1e3,
             "ms");
    hook_s += fit_hooks[h].seconds;
  }
  const double elements = static_cast<double>(fit_elements);
  const double posit_total = std::accumulate(posit_s.begin(), posit_s.end(), 0.0);
  r.metric("quant.elements", elements, "count");
  r.metric("quant.ns_per_element", elements > 0 ? hook_s / elements * 1e9 : 0.0, "ns");
  r.metric("quant.hook_share", hook_s / posit_total, "ratio");
  r.metric("nn.epoch_s.warmup", epoch_s[0], "s");
  r.metric("nn.epoch_s.posit", posit_epoch, "s");
  r.metric("nn.compute_s", posit_epoch - hook_s / per_epoch, "s");
}

void run_train_dp(const RunArgs& args, Report& r) {
  constexpr std::size_t kBatch = 64, kMicro = 16, kWorkers = 4;
  const std::size_t steps =
      std::max<std::size_t>(8, static_cast<std::size_t>(std::lround(args.seconds * 10.0)));

  pdnn::train::TrainerConfig cfg;
  cfg.batch_size = kBatch;
  cfg.micro_batch = kMicro;
  cfg.sgd = kSgd;
  cfg.sgd.lr = 0.05f;

  // --- set-up, repeated: data, the 4-worker net+trainer and its 1-worker twin.
  std::vector<double> setup_s, gen_s;
  pdnn::data::TrainTest data;
  std::unique_ptr<pdnn::nn::Sequential> net, twin;
  std::unique_ptr<pdnn::train::Trainer> dp, solo;
  while (more_setups(setup_s)) {
    dp.reset();
    solo.reset();
    const auto t0 = Clock::now();
    data = pdnn::data::make_synth_cifar(cifar_data(args.seed));
    gen_s.push_back(seconds_between(t0, Clock::now()));
    net = resnet8(args.seed);
    twin = resnet8(args.seed);
    cfg.workers = kWorkers;
    dp = std::make_unique<pdnn::train::Trainer>(*net, cfg);
    cfg.workers = 1;
    solo = std::make_unique<pdnn::train::Trainer>(*twin, cfg);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  r.metric("setup_s", median(setup_s), "s");

  // Seeded batches: a fresh Fisher-Yates order per pass over the data. Each
  // is made just before its step, so peak_rss_mb is the program's memory and
  // not the run's inputs; the first few are kept for the probe below.
  constexpr std::size_t kProbeSteps = 24;
  const Tensor& x = data.train.images;
  const std::size_t n = data.train.size();
  const std::size_t row = x.numel() / n;
  pdnn::tensor::Rng rng(derive_seed(args.seed, 4));
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::size_t cursor = n;
  Tensor bx(Shape{kBatch, x.shape()[1], x.shape()[2], x.shape()[3]});
  std::vector<int> by(kBatch);
  const auto next_batch = [&] {
    if (cursor + kBatch > n) {
      for (std::size_t i = n - 1; i > 0; --i) std::swap(order[i], order[rng.uniform_int(i + 1)]);
      cursor = 0;
    }
    for (std::size_t i = 0; i < kBatch; ++i) {
      std::memcpy(bx.data() + i * row, x.data() + order[cursor + i] * row, row * sizeof(float));
      by[i] = data.train.labels[order[cursor + i]];
    }
    cursor += kBatch;
  };
  std::vector<Tensor> bxs;
  std::vector<std::vector<int>> bys;

  // --- timed steps: each batch through the 4-worker trainer, then its twin --
  std::vector<double> dp_ms, solo_ms, loss;
  bool same_loss = true;
  for (std::size_t s = 0; s < steps; ++s) {
    next_batch();
    if (s < kProbeSteps) {
      bxs.push_back(bx);
      bys.push_back(by);
    }
    const auto t0 = Clock::now();
    const auto st = dp->step(bx, by);
    const auto t1 = Clock::now();
    const auto st1 = solo->step(bx, by);
    const auto t2 = Clock::now();
    dp_ms.push_back(seconds_between(t0, t1) * 1e3);
    solo_ms.push_back(seconds_between(t1, t2) * 1e3);
    loss.push_back(st.loss_sum / static_cast<double>(st.count));
    same_loss = same_loss && st.loss_sum == st1.loss_sum;
  }
  // Step percentiles are better-half means over chunks of consecutive steps,
  // so host stalls spoil chunks, not the run.
  r.metric("lat_p50_ms.light", chunked_percentile(solo_ms, 0.5), "ms");
  r.metric("lat_p90_ms.light", chunked_percentile(solo_ms, 0.9), "ms");
  r.metric("lat_p50_ms.heavy", chunked_percentile(dp_ms, 0.5), "ms");
  r.metric("lat_p90_ms.heavy", chunked_percentile(dp_ms, 0.9), "ms");
  const double samples_per_s = static_cast<double>(kBatch) / (chunked_percentile(dp_ms, 0.5) / 1e3);
  r.metric("samples_per_s", samples_per_s, "1/s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");

  std::fprintf(stderr,
               "perfbench: step ms quartiles, 4 workers %.1f/%.1f/%.1f, 1 worker %.1f/%.1f/%.1f\n",
               percentile(dp_ms, 0.25), median(dp_ms), percentile(dp_ms, 0.75),
               percentile(solo_ms, 0.25), median(solo_ms), percentile(solo_ms, 0.75));

  r.count(2 * steps, 0);
  const auto pa = net->params();
  const auto pb = twin->params();
  std::size_t differing = 0;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (std::memcmp(pa[i]->value.data(), pb[i]->value.data(),
                    pa[i]->value.numel() * sizeof(float)) != 0) {
      ++differing;
    }
  }
  r.check(differing == 0, std::to_string(differing) +
                              " parameter tensors differ between 4-worker and 1-worker training");
  r.check(same_loss, "per-step loss differs between 4-worker and 1-worker training");
  const std::size_t tail = std::max<std::size_t>(1, steps / 4);
  const double final_loss =
      std::accumulate(loss.end() - static_cast<long>(tail), loss.end(), 0.0) /
      static_cast<double>(tail);
  r.check(std::isfinite(final_loss), "training loss is not finite");

  if (!args.trace) return;
  r.metric("data.gen_s", median(gen_s), "s");
  r.metric("train.final_loss", final_loss, "nats");
  r.metric("train.step_ms_p50", median(dp_ms), "ms");
  r.metric("train.step_ms_p99", percentile(dp_ms, 0.99), "ms");
  const double w1 = static_cast<double>(kBatch) / (chunked_percentile(solo_ms, 0.5) / 1e3);
  r.metric("train.samples_per_s.w1", w1, "1/s");
  r.metric("train.scaling", samples_per_s / w1, "ratio");
  r.metric("exec.arena_bytes", static_cast<double>(dp->arena_bytes()), "B");

  // One micro-batch through the public pieces a worker and the optimizer use,
  // on a third copy of the network.
  auto probe_net = resnet8(args.seed);
  auto be = pdnn::exec::FloatBackend::compile_training(*probe_net);
  pdnn::nn::SgdMomentum opt(probe_net->params(), cfg.sgd);
  const auto params = probe_net->params();
  std::vector<double> fwd_ms, bwd_ms, opt_ms;
  Tensor shard, dlogits;
  for (std::size_t s = 0; s < bxs.size(); ++s) {
    pdnn::tensor::extract_span(bxs[s], 0, kMicro, shard);
    const std::vector<int> sy(bys[s].begin(), bys[s].begin() + kMicro);
    be.zero_grad();
    const auto t0 = Clock::now();
    const Tensor& logits = be.train_forward(shard);
    const auto t1 = Clock::now();
    pdnn::tensor::cross_entropy(logits, sy, &dlogits);
    dlogits *= static_cast<float>(kMicro) / static_cast<float>(kBatch);
    const auto t2 = Clock::now();
    be.run_backward(dlogits);
    const auto t3 = Clock::now();
    for (std::size_t i = 0; i < params.size(); ++i) {
      std::memcpy(params[i]->grad.data(), be.param_grads()[i].data(),
                  params[i]->grad.numel() * sizeof(float));
    }
    const auto t4 = Clock::now();
    opt.step();
    const auto t5 = Clock::now();
    fwd_ms.push_back(seconds_between(t0, t1) * 1e3);
    bwd_ms.push_back(seconds_between(t2, t3) * 1e3);
    opt_ms.push_back(seconds_between(t4, t5) * 1e3);
  }
  const double fwd = median(fwd_ms), bwd = median(bwd_ms), optm = median(opt_ms);
  const double shards_per_worker = std::ceil(static_cast<double>(kBatch / kMicro) / kWorkers);
  r.metric("train.shard_fwd_ms", fwd, "ms");
  r.metric("train.shard_bwd_ms", bwd, "ms");
  r.metric("train.opt_ms", optm, "ms");
  r.metric("train.overhead_ms", median(dp_ms) - shards_per_worker * (fwd + bwd) - optm, "ms");
  // Computed MACs: forward per sample from the plan; backward = dX + dW.
  const double macs =
      plan_macs_per_sample(be.plan(), Shape{x.shape()[1], x.shape()[2], x.shape()[3]}) *
      static_cast<double>(kMicro);
  r.metric("tensor.fwd_gmacs_per_s", macs / (fwd / 1e3) / 1e9, "GMAC/s");
  r.metric("tensor.bwd_gmacs_per_s", 2.0 * macs / (bwd / 1e3) / 1e9, "GMAC/s");
}

}  // namespace perfbench
