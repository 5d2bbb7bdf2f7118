// shim_test — the benchmark's timing shims change no bits.
//
//   * Serving: answers from serve::Engine over TimedBackend-wrapped backends
//     (posit and float) equal, bitwise, the answers of the same engine over
//     the unwrapped backends; the wrapper forwards plan() and arena_bytes()
//     and its clones stay timed.
//   * Training: nn::Trainer under TimedPolicy(QuantPolicy) ends with
//     parameters bitwise equal to nn::Trainer under a bare QuantPolicy, with
//     warm-up calibrating and activating the inner policy in both.
//
// Exit code 0 when every check passes, 1 otherwise.
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "exec/float_backend.hpp"
#include "nn/resnet.hpp"
#include "nn/trainer.hpp"
#include "quant/policy.hpp"
#include "quant/posit_session.hpp"
#include "serve/engine.hpp"
#include "shims.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace {

using pdnn::tensor::Shape;
using pdnn::tensor::Tensor;
using perfbench::RunLog;
using perfbench::TimedBackend;
using perfbench::TimedPolicy;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

std::vector<Tensor> serve_all(const pdnn::serve::Engine::BackendFactory& factory,
                              const std::vector<Tensor>& samples) {
  pdnn::serve::EngineConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 8;
  pdnn::serve::Engine engine(factory, cfg);
  std::vector<std::future<Tensor>> futs;
  for (const auto& s : samples) futs.push_back(engine.submit(s));
  std::vector<Tensor> out;
  for (auto& f : futs) out.push_back(f.get());
  return out;
}

void check_backend(const std::string& name, const pdnn::serve::Engine::BackendFactory& make,
                   const std::vector<Tensor>& samples) {
  const auto log = std::make_shared<RunLog>();
  const auto timed = [&] {
    return std::unique_ptr<pdnn::exec::Backend>(new TimedBackend(make(), log));
  };
  const auto plain = serve_all(make, samples);
  const auto shimmed = serve_all(timed, samples);
  bool same = plain.size() == shimmed.size();
  for (std::size_t i = 0; same && i < plain.size(); ++i) same = bit_equal(plain[i], shimmed[i]);
  expect(same, name + ": engine answers through TimedBackend differ from the plain backend");
  std::size_t rows = 0;
  for (const auto& run : log->runs()) rows += run.rows;
  expect(rows == samples.size(), name + ": TimedBackend did not see every served row");

  // Direct calls: run, clone, plan and arena_bytes forward to the inner backend.
  auto inner = make();
  TimedBackend wrapped(make(), log);
  Tensor batch;
  std::vector<const Tensor*> rows_in;
  for (const auto& s : samples) rows_in.push_back(&s);
  pdnn::tensor::stack_samples(rows_in.data(), rows_in.size(), batch);
  const Tensor want = inner->run(batch);
  expect(bit_equal(wrapped.run(batch), want), name + ": TimedBackend::run changed the output");
  expect(wrapped.arena_bytes() == inner->arena_bytes(), name + ": arena_bytes not forwarded");
  expect(wrapped.plan().steps.size() == inner->plan().steps.size(), name + ": plan not forwarded");
  log->clear();
  auto copy = wrapped.clone();
  expect(bit_equal(copy->run(batch), want), name + ": a TimedBackend clone changed the output");
  expect(log->runs().size() == 1, name + ": a TimedBackend clone is not timed");
}

std::vector<Tensor> trained_params(bool shimmed, std::size_t* hook_calls) {
  pdnn::data::SynthCifarConfig dc;
  dc.classes = 10;
  dc.train_per_class = 6;
  dc.test_per_class = 2;
  dc.height = dc.width = 8;
  const auto data = pdnn::data::make_synth_cifar(dc);
  pdnn::nn::ResNetConfig rc;
  rc.base_channels = 4;
  pdnn::tensor::Rng rng(11);
  auto net = pdnn::nn::cifar_resnet(rc, rng);

  pdnn::quant::QuantPolicy policy(pdnn::quant::QuantConfig::cifar8());
  TimedPolicy shim(policy);
  pdnn::nn::TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 20;
  tc.warmup_epochs = 1;
  tc.on_warmup_end = [&policy](pdnn::nn::Sequential& n) {
    policy.calibrate(n);
    policy.activate();
  };
  pdnn::nn::Trainer trainer(*net, shimmed ? static_cast<pdnn::nn::PrecisionPolicy*>(&shim)
                                          : static_cast<pdnn::nn::PrecisionPolicy*>(&policy),
                            tc);
  trainer.fit(data.train.images, data.train.labels, data.test.images, data.test.labels);
  *hook_calls = 0;
  for (std::size_t h = 0; h < perfbench::kHookNames.size(); ++h) {
    *hook_calls += shim.tally(static_cast<perfbench::Hook>(h)).calls;
  }
  std::vector<Tensor> out;
  for (const auto* p : net->params()) out.push_back(p->value);
  return out;
}

}  // namespace

int main() {
  pdnn::data::SynthCifarConfig dc;
  dc.classes = 10;
  dc.train_per_class = 3;
  dc.test_per_class = 1;
  dc.height = dc.width = 8;
  const auto data = pdnn::data::make_synth_cifar(dc);
  std::vector<Tensor> images;
  for (std::size_t i = 0; i < data.train.size(); ++i) {
    images.emplace_back();
    pdnn::tensor::extract_sample(data.train.images, i, images.back());
  }
  pdnn::nn::ResNetConfig rc;
  rc.base_channels = 4;
  pdnn::tensor::Rng rng(5);
  auto resnet = pdnn::nn::cifar_resnet(rc, rng);
  check_backend("posit", [&] {
    return pdnn::quant::PositSession::compile_backend(*resnet, pdnn::quant::SessionConfig{});
  }, images);

  auto mlp = pdnn::nn::mlp(16, 32, 4, 2, rng);
  std::vector<Tensor> vectors;
  for (int i = 0; i < 40; ++i) vectors.push_back(Tensor::randn(Shape{16}, rng));
  check_backend("float", [&]() -> std::unique_ptr<pdnn::exec::Backend> {
    return std::make_unique<pdnn::exec::FloatBackend>(pdnn::exec::FloatBackend::compile(*mlp));
  }, vectors);

  std::size_t plain_calls = 0, shim_calls = 0;
  const auto plain = trained_params(false, &plain_calls);
  const auto shimmed = trained_params(true, &shim_calls);
  bool same = plain.size() == shimmed.size();
  for (std::size_t i = 0; same && i < plain.size(); ++i) same = bit_equal(plain[i], shimmed[i]);
  expect(same, "parameters trained under TimedPolicy differ from a bare QuantPolicy");
  expect(plain_calls == 0 && shim_calls > 0, "TimedPolicy did not see the posit-phase hooks");

  if (failures == 0) std::printf("perfbench shim test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
