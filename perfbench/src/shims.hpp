// shims.hpp — bit-transparent timing wrappers around the library's public
// layer interfaces. They forward every call unchanged to the wrapped object
// and only read a clock around it, so a traced run computes the same bits as
// an untraced one (perfbench/tests/shim_test.cpp checks this).
//
//   * TimedBackend  — an exec::Backend delegating run/clone/plan/arena_bytes
//     to the backend it owns, recording (batch rows, seconds) per run() into
//     a RunLog shared by all its clones. serve::Engine gets it through its
//     BackendFactory, so every worker's backend is timed.
//   * TimedPolicy   — an nn::PrecisionPolicy delegating active() and the five
//     Fig. 3 hooks to a quant::QuantPolicy, summing seconds and calls per
//     hook. Warm-up still calibrates and activates the inner QuantPolicy.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "exec/backend.hpp"
#include "quant/policy.hpp"
#include "report.hpp"

namespace perfbench {

/// Per-run() records of every TimedBackend sharing it, plus a registry of the
/// live wrappers so their arena bytes can be read after the engine joins.
class RunLog {
 public:
  struct Run {
    std::size_t rows;
    double seconds;
  };

  void add(std::size_t rows, double seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    runs_.push_back({rows, seconds});
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return runs_.size();
  }
  std::vector<Run> runs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return runs_;
  }
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    runs_.clear();
  }
  void enroll(const pdnn::exec::Backend* b) {
    std::lock_guard<std::mutex> lock(mu_);
    live_.push_back(b);
  }
  void withdraw(const pdnn::exec::Backend* b) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& p : live_) {
      if (p == b) p = nullptr;
    }
  }
  /// Sum of arena_bytes() over live wrappers. Call only while no wrapper is
  /// running (e.g. after Engine::shutdown joined the workers).
  std::size_t arena_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t total = 0;
    for (const auto* b : live_) {
      if (b != nullptr) total += b->arena_bytes();
    }
    return total;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Run> runs_;
  std::vector<const pdnn::exec::Backend*> live_;
};

class TimedBackend final : public pdnn::exec::Backend {
 public:
  TimedBackend(std::unique_ptr<pdnn::exec::Backend> inner, std::shared_ptr<RunLog> log)
      : inner_(std::move(inner)), log_(std::move(log)) {
    log_->enroll(this);
  }
  ~TimedBackend() override { log_->withdraw(this); }
  TimedBackend(const TimedBackend&) = delete;
  TimedBackend& operator=(const TimedBackend&) = delete;

  std::unique_ptr<pdnn::exec::Backend> clone() const override {
    return std::make_unique<TimedBackend>(inner_->clone(), log_);
  }
  const pdnn::exec::ExecPlan& plan() const override { return inner_->plan(); }
  std::size_t arena_bytes() const override { return inner_->arena_bytes(); }

 protected:
  const pdnn::tensor::Tensor& run_impl(const pdnn::tensor::Tensor& x) override {
    const auto t0 = Clock::now();
    const pdnn::tensor::Tensor& y = inner_->run(x);
    log_->add(x.shape()[0], seconds_between(t0, Clock::now()));
    return y;
  }

 private:
  std::unique_ptr<pdnn::exec::Backend> inner_;
  std::shared_ptr<RunLog> log_;
};

/// The five Fig. 3 hook sites, in the order the policy interface lists them.
enum class Hook { kWeight, kActivation, kError, kGradient, kUpdate };
inline constexpr std::array<const char*, 5> kHookNames = {"weight", "activation", "error",
                                                          "gradient", "update"};

class TimedPolicy final : public pdnn::nn::PrecisionPolicy {
 public:
  struct Tally {
    double seconds = 0.0;
    std::size_t calls = 0;
  };

  /// Called only from the training thread (nn::Trainer runs the hooks
  /// serially), so the tallies need no lock.
  explicit TimedPolicy(pdnn::quant::QuantPolicy& inner) : inner_(inner) {}

  bool active() const override { return inner_.active(); }

  pdnn::tensor::Tensor quantize_weight(const pdnn::tensor::Tensor& w, const std::string& layer,
                                       pdnn::nn::LayerClass cls) override {
    const auto t0 = Clock::now();
    pdnn::tensor::Tensor out = inner_.quantize_weight(w, layer, cls);
    note(Hook::kWeight, t0);
    return out;
  }
  void quantize_activation(pdnn::tensor::Tensor& a, const std::string& layer,
                           pdnn::nn::LayerClass cls) override {
    const auto t0 = Clock::now();
    inner_.quantize_activation(a, layer, cls);
    note(Hook::kActivation, t0);
  }
  void quantize_error(pdnn::tensor::Tensor& e, const std::string& layer,
                      pdnn::nn::LayerClass cls) override {
    const auto t0 = Clock::now();
    inner_.quantize_error(e, layer, cls);
    note(Hook::kError, t0);
  }
  void quantize_gradient(pdnn::tensor::Tensor& g, const std::string& layer,
                         pdnn::nn::LayerClass cls) override {
    const auto t0 = Clock::now();
    inner_.quantize_gradient(g, layer, cls);
    note(Hook::kGradient, t0);
  }
  void quantize_updated_weight(pdnn::tensor::Tensor& w, const std::string& layer,
                               pdnn::nn::LayerClass cls) override {
    const auto t0 = Clock::now();
    inner_.quantize_updated_weight(w, layer, cls);
    note(Hook::kUpdate, t0);
  }

  const Tally& tally(Hook h) const { return tally_[static_cast<std::size_t>(h)]; }

 private:
  void note(Hook h, Clock::time_point t0) {
    Tally& t = tally_[static_cast<std::size_t>(h)];
    t.seconds += seconds_between(t0, Clock::now());
    ++t.calls;
  }

  pdnn::quant::QuantPolicy& inner_;
  std::array<Tally, 5> tally_{};
};

}  // namespace perfbench
