// serve.cpp — the two serving workloads: open-loop seeded Poisson traffic from
// one generator thread into serve::Engine (2 workers, max_batch 8, otherwise
// the default EngineConfig), over the posit(16,1) quire PositSession on a
// ResNet-8 (serve_posit) or the FP32 FloatBackend on a tiny MLP
// (serve_float_tiny).
//
// Each run: set up several times (data, model, engine, warm-up) and keep the
// last engine; compute every pool sample's solo answer on a fresh backend
// from the same factory; send rounds of a light phase, a heavy phase and
// bursts, each a fixed request count (traced runs then climb a rate ladder
// for qps_at_slo); then check every answer bitwise against its solo answer.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "data/synthetic.hpp"
#include "exec/float_backend.hpp"
#include "nn/resnet.hpp"
#include "plan_macs.hpp"
#include "quant/posit_session.hpp"
#include "report.hpp"
#include "serve/engine.hpp"
#include "shims.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace perfbench {
namespace {

using pdnn::serve::Engine;
using pdnn::serve::EngineConfig;
using pdnn::serve::EngineStats;
using pdnn::tensor::Shape;
using pdnn::tensor::Tensor;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kMaxBatch = 8;

/// The fixed traffic plan of one serving workload.
struct Traffic {
  double light_rate;            ///< req/s
  std::size_t light_count;      ///< requests per light phase
  double heavy_rate;            ///< req/s
  std::size_t heavy_count;      ///< requests per heavy phase
  std::size_t burst_count;      ///< requests per burst (all due at once)
  std::size_t bursts;           ///< bursts per round
  double round_seconds;         ///< about one round (light, heavy, bursts)
  std::vector<double> ladder;   ///< ascending req/s, for qps_at_slo (traced runs)
  double slo_p90_ms;            ///< per-rung p90 limit
};

/// What a serving workload builds during set-up.
struct Model {
  std::unique_ptr<pdnn::nn::Sequential> net;
  std::vector<Tensor> pool;  ///< distinct request samples
  Engine::BackendFactory make_backend;
  double data_gen_s = 0.0;
};

Tensor solo_answer(pdnn::exec::Backend& backend, const Tensor& sample) {
  const Tensor* one = &sample;
  Tensor batch;
  pdnn::tensor::stack_samples(&one, 1, batch);
  Tensor row;
  pdnn::tensor::extract_sample(backend.run(batch), 0, row);
  return row;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

struct Phase {
  double offered = 0.0;   ///< req/s
  std::size_t sent = 0;
  std::size_t failed = 0;
  std::size_t mismatched = 0;
  double achieved = 0.0;  ///< completed / (last completion - first due)
  std::vector<double> lat_ms;     ///< completion (as observed) minus due time
  std::vector<double> late_ms;    ///< generator: submit start minus due time
  std::vector<double> submit_us;  ///< time inside Engine::submit (traced runs)
  double p(double q) const { return percentile(lat_ms, q); }
};

/// One open-loop phase: `count` requests at `rate` req/s. Arrivals are a
/// Poisson process conditioned on `count` events in count/rate seconds
/// (sorted uniforms), so the offered rate is exact at every seed; rate 0 is a
/// burst, every request due at once. The calling thread is the one generator:
/// it sleeps until each due time and submits. A collector thread waits on the
/// futures in submission order; a request's latency runs from its due time to
/// when the collector sees it complete.
Phase run_phase(Engine& engine, const std::vector<Tensor>& pool, const std::vector<Tensor>& want,
                double rate, std::size_t count, std::uint64_t seed, bool trace) {
  pdnn::tensor::Rng rng(seed);
  const double span = rate > 0.0 ? static_cast<double>(count) / rate : 0.0;
  std::vector<double> at(count);
  for (auto& t : at) t = rng.uniform() * span;
  std::sort(at.begin(), at.end());
  std::vector<std::size_t> pick(count);
  for (auto& p : pick) p = static_cast<std::size_t>(rng.uniform_int(pool.size()));

  Phase ph;
  ph.offered = rate;
  ph.sent = count;
  ph.lat_ms.reserve(count);
  ph.late_ms.reserve(count);
  if (trace) ph.submit_us.reserve(count);

  struct Pending {
    std::size_t i;
    std::future<Tensor> fut;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> inbox;
  bool done_sending = false;

  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(at[i]));
  };
  Clock::time_point last_done = start;

  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !inbox.empty() || done_sending; });
        if (inbox.empty()) return;
        p = std::move(inbox.front());
        inbox.pop_front();
      }
      if (!p.fut.valid()) {  // submit itself threw
        ++ph.failed;
        continue;
      }
      p.fut.wait();
      const auto t = Clock::now();
      try {
        const Tensor out = p.fut.get();
        if (!bit_equal(out, want[pick[p.i]])) ++ph.mismatched;
        ph.lat_ms.push_back(seconds_between(due(p.i), t) * 1e3);
      } catch (const std::exception&) {
        ++ph.failed;
      }
      last_done = t;
    }
  });

  for (std::size_t i = 0; i < count; ++i) {
    const auto d = due(i);
    std::this_thread::sleep_until(d);
    const auto t0 = Clock::now();
    ph.late_ms.push_back(seconds_between(d, t0) * 1e3);
    Pending p{i, {}};
    try {
      p.fut = engine.submit(pool[pick[i]]);
    } catch (const std::exception&) {
      // counted by the collector (invalid future)
    }
    if (trace) ph.submit_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    {
      std::lock_guard<std::mutex> lock(mu);
      inbox.push_back(std::move(p));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done_sending = true;
  }
  cv.notify_one();
  collector.join();

  const double busy = seconds_between(due(0), last_done);
  ph.achieved = busy > 0.0 ? static_cast<double>(ph.lat_ms.size()) / busy : 0.0;
  return ph;
}

bool meets_slo(const Phase& ph, const Traffic& tr) {
  return ph.failed == 0 && ph.p(0.90) <= tr.slo_p90_ms && ph.achieved >= 0.98 * ph.offered;
}

/// qps_at_slo: the rate at which p90 reaches the limit, log-interpolated
/// between the last rung that met the SLO and the first that did not (the
/// last passing rate itself when that rung failed on throughput, not p90).
double rate_at_slo(const Phase& pass, const Phase& fail, const Traffic& tr) {
  const double y1 = pass.p(0.90), y2 = fail.p(0.90);
  if (!(y2 > tr.slo_p90_ms) || !(y1 > 0.0)) return pass.offered;
  const double f = std::log(tr.slo_p90_ms / y1) / std::log(y2 / y1);
  return pass.offered * std::pow(fail.offered / pass.offered, f);
}

std::vector<double> ladder(double first, double ratio, int rungs) {
  std::vector<double> v;
  for (int i = 0; i < rungs; ++i) v.push_back(std::round(first * std::pow(ratio, i)));
  return v;
}

/// A ladder rung lasts about half a second at its offered rate.
std::size_t rung_count(double rate) { return std::max<std::size_t>(200, std::lround(rate * 0.5)); }

/// The better-half mean over the phases of each phase's f(phase).
template <class F>
double over_rounds(const std::vector<Phase>& phases, bool lower_is_better, F f) {
  std::vector<double> v;
  for (const auto& ph : phases) v.push_back(f(ph));
  return better_half_mean(v, lower_is_better);
}

std::vector<double> pooled_latency(const std::vector<Phase>& phases) {
  std::vector<double> v;
  for (const auto& ph : phases) v.insert(v.end(), ph.lat_ms.begin(), ph.lat_ms.end());
  return v;
}

void run_serving(const RunArgs& args, Report& r, const Traffic& tr,
                 const std::function<Model()>& build, bool posit) {
  EngineConfig cfg;
  cfg.workers = kWorkers;
  cfg.max_batch = kMaxBatch;
  const auto log = std::make_shared<RunLog>();

  // --- set-up, repeated; the last engine serves the load -------------------
  std::vector<double> setup_s, gen_s;
  Model model;
  std::unique_ptr<Engine> engine;
  while (more_setups(setup_s)) {
    engine.reset();
    const auto t0 = Clock::now();
    model = build();
    Engine::BackendFactory factory = model.make_backend;
    if (args.trace) {
      factory = [inner = model.make_backend, log] {
        return std::unique_ptr<pdnn::exec::Backend>(new TimedBackend(inner(), log));
      };
    }
    engine = std::make_unique<Engine>(factory, cfg);
    // Warm-up: two full batches per worker, so every arena reaches max_batch.
    std::vector<std::future<Tensor>> warm;
    for (std::size_t i = 0; i < 2 * kWorkers * kMaxBatch; ++i) {
      warm.push_back(engine->submit(model.pool[i % model.pool.size()]));
    }
    for (auto& f : warm) f.get();
    setup_s.push_back(seconds_between(t0, Clock::now()));
    gen_s.push_back(model.data_gen_s);
  }
  r.metric("setup_s", median(setup_s), "s");

  // --- solo reference answers, from a fresh backend of the same factory ----
  std::vector<Tensor> want;
  {
    const auto ref = model.make_backend();
    for (const auto& s : model.pool) want.push_back(solo_answer(*ref, s));
  }
  log->clear();
  const EngineStats before = engine->stats();

  // --- load: rounds of a light phase, a heavy phase and bursts -----------------
  // Each end-to-end figure is the better-half mean over the rounds of that
  // round's value, so host stalls spoil rounds, not the run, and slow drift
  // hits every phase alike.
  std::uint64_t phase_id = 100;
  const auto phase = [&](double rate, std::size_t count) {
    return run_phase(*engine, model.pool, want, rate, count, derive_seed(args.seed, phase_id++),
                     args.trace);
  };
  const auto rounds = static_cast<std::size_t>(
      std::max(3.0, std::round(args.seconds / tr.round_seconds)));
  std::vector<Phase> light, heavy, burst;
  std::vector<RunLog::Run> heavy_runs;
  for (std::size_t k = 0; k < rounds; ++k) {
    light.push_back(phase(tr.light_rate, tr.light_count));
    const std::size_t h0 = log->size();
    heavy.push_back(phase(tr.heavy_rate, tr.heavy_count));
    const auto runs = log->runs();
    heavy_runs.insert(heavy_runs.end(), runs.begin() + static_cast<long>(h0), runs.end());
    for (std::size_t b = 0; b < tr.bursts; ++b) burst.push_back(phase(0.0, tr.burst_count));
  }
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");

  // qps_at_slo (traced runs only): an ascending ladder that climbs until two
  // rungs in a row miss the SLO, so one rung hit by a host stall does not end
  // it. An overloaded rung grows the queue, so it runs after peak_rss_mb.
  std::vector<Phase> rungs;
  double qps_at_slo = 0.0;
  if (args.trace) {
    std::size_t misses = 0;
    for (const double rate : tr.ladder) {
      if (misses == 2) break;
      rungs.push_back(phase(rate, rung_count(rate)));
      misses = meets_slo(rungs.back(), tr) ? 0 : misses + 1;
    }
    // From the highest rung that met the SLO and the rung above it.
    for (std::size_t i = rungs.size(); i-- > 0;) {
      if (!meets_slo(rungs[i], tr)) continue;
      qps_at_slo = i + 1 < rungs.size() ? rate_at_slo(rungs[i], rungs[i + 1], tr)
                                        : rungs[i].achieved;  // every rung passed: lower bound
      break;
    }
  }
  const auto all_runs = log->runs();
  const EngineStats after = engine->stats();
  engine->shutdown();

  const auto p50 = [](const Phase& ph) { return ph.p(0.50); };
  const auto p90 = [](const Phase& ph) { return ph.p(0.90); };
  const auto achieved = [](const Phase& ph) { return ph.achieved; };
  r.metric("lat_p50_ms.light", over_rounds(light, true, p50), "ms");
  r.metric("lat_p90_ms.light", over_rounds(light, true, p90), "ms");
  r.metric("lat_p50_ms.heavy", over_rounds(heavy, true, p50), "ms");
  r.metric("lat_p90_ms.heavy", over_rounds(heavy, true, p90), "ms");
  // Burst throughput moves with where the scheduler puts the two workers
  // (separate cores or sibling hyperthreads), so a round has several bursts.
  r.metric("samples_per_s", over_rounds(burst, false, achieved), "1/s");

  // --- correctness and counts -------------------------------------------------
  std::vector<const Phase*> phases;
  for (const auto* group : {&light, &heavy, &burst, &rungs}) {
    for (const auto& ph : *group) phases.push_back(&ph);
  }
  std::size_t sent = 0, failed = 0, mismatched = 0;
  for (const auto* ph : phases) {
    sent += ph->sent;
    failed += ph->failed;
    mismatched += ph->mismatched;
  }
  r.count(sent, failed);
  r.check(mismatched == 0, std::to_string(mismatched) +
                               " served answers differ bitwise from the solo run() answer");
  r.check(failed == 0, std::to_string(failed) + " requests failed");
  std::fprintf(stderr, "perfbench: %zu rounds, light/heavy p50 p90 ms, burst req/s:", rounds);
  for (std::size_t k = 0; k < rounds; ++k) {
    std::fprintf(stderr, " [%.2f %.2f / %.2f %.2f / %.0f]", light[k].p(0.5), light[k].p(0.9),
                 heavy[k].p(0.5), heavy[k].p(0.9), burst[k * tr.bursts].achieved);
  }
  std::fprintf(stderr, "\n");
  if (!rungs.empty()) {
    std::fprintf(stderr, "perfbench: ladder req/s: sent, failed, achieved req/s, p90 ms:");
    for (const auto& ph : rungs) {
      std::fprintf(stderr, " [%.0f: %zu, %zu, %.1f, %.2f]", ph.offered, ph.sent, ph.failed,
                   ph.achieved, ph.p(0.90));
    }
    std::fprintf(stderr, "\n");
  }

  if (!args.trace) return;

  // --- per-layer (traced run) -------------------------------------------------
  r.metric("data.gen_s", median(gen_s), "s");
  r.metric("serve.qps_at_slo", qps_at_slo, "1/s");
  std::vector<double> submit_us, late_ms;
  for (const auto* ph : phases) {
    submit_us.insert(submit_us.end(), ph->submit_us.begin(), ph->submit_us.end());
    if (ph->offered > 0.0) late_ms.insert(late_ms.end(), ph->late_ms.begin(), ph->late_ms.end());
  }
  r.metric("serve.submit_us_p50", median(submit_us), "us");
  r.metric("serve.gen_late_ms_p99", percentile(late_ms, 0.99), "ms");
  const std::vector<double> heavy_lat = pooled_latency(heavy);
  r.metric("serve.lat_p99_ms.light", percentile(pooled_latency(light), 0.99), "ms");
  r.metric("serve.lat_p99_ms.heavy", percentile(heavy_lat, 0.99), "ms");

  // Heavy phases: per-request backend time = sum(rows * run time) / requests.
  double heavy_backend_s = 0.0;
  for (const auto& run : heavy_runs) heavy_backend_s += static_cast<double>(run.rows) * run.seconds;
  const double per_req_backend_us = heavy_backend_s / static_cast<double>(heavy_lat.size()) * 1e6;
  const double mean_lat_us = std::accumulate(heavy_lat.begin(), heavy_lat.end(), 0.0) /
                             static_cast<double>(heavy_lat.size()) * 1e3;
  r.metric("serve.outside_backend_us_mean", mean_lat_us - per_req_backend_us, "us");
  r.metric("serve.backend_share", per_req_backend_us / mean_lat_us, "ratio");

  const std::uint64_t batches = after.batches - before.batches;
  const std::uint64_t served = after.completed - before.completed;
  r.metric("serve.batches", static_cast<double>(batches), "count");
  r.metric("serve.batch_mean", batches ? static_cast<double>(served) / static_cast<double>(batches) : 0.0,
           "count");
  r.metric("serve.sent", static_cast<double>(sent), "count");
  r.metric("serve.failed", static_cast<double>(failed), "count");
  r.metric("serve.rejected", static_cast<double>(after.rejected - before.rejected), "count");
  r.metric("serve.deadline_expired",
           static_cast<double>(after.deadline_expired - before.deadline_expired), "count");
  r.metric("serve.retries", static_cast<double>(after.retries - before.retries), "count");

  std::vector<double> run_us;
  double run_s = 0.0, rows = 0.0;
  for (const auto& run : all_runs) {
    run_us.push_back(run.seconds * 1e6);
    run_s += run.seconds;
    rows += static_cast<double>(run.rows);
  }
  const auto probe = model.make_backend();
  const double macs = plan_macs_per_sample(probe->plan(), model.pool[0].shape());
  r.metric("exec.run_us_p50", median(run_us), "us");
  r.metric("exec.run_us_per_sample", rows > 0 ? run_s / rows * 1e6 : 0.0, "us");
  r.metric("exec.macs_per_sample", macs, "count");
  r.metric("exec.gmacs_per_s", run_s > 0 ? macs * rows / run_s / 1e9 : 0.0, "GMAC/s");
  r.metric("exec.arena_bytes", static_cast<double>(log->arena_bytes()), "B");

  if (!posit) return;
  // quant/posit: a PositSession compiled like the workers' backends and run
  // over the pool at every batch size the engine dispatches.
  auto session = pdnn::quant::PositSession::compile(*model.net, pdnn::quant::SessionConfig{});
  const std::uint64_t compiled_encodes = session.encode_count();
  Tensor batch;
  std::vector<const Tensor*> rowsv;
  for (std::size_t b = 1; b <= kMaxBatch; ++b) {
    rowsv.clear();
    for (std::size_t i = 0; i < b; ++i) rowsv.push_back(&model.pool[i % model.pool.size()]);
    pdnn::tensor::stack_samples(rowsv.data(), b, batch);
    session.run(batch);
  }
  std::size_t params = 0;
  for (const auto* p : model.net->params()) params += p->value.numel();
  r.metric("quant.panel_bytes", static_cast<double>(session.panel_bytes()), "B");
  r.metric("quant.panel_scratch_bytes", static_cast<double>(session.panel_scratch_bytes()), "B");
  r.metric("quant.encode_count", static_cast<double>(session.encode_count()), "count");
  r.check(session.encode_count() == compiled_encodes,
          "PositSession re-encoded panels after compile with no weight change");
  r.metric("posit.bits_per_weight",
           8.0 * static_cast<double>(session.panel_bytes()) / static_cast<double>(params), "bit");
  r.metric("posit.quire_macs_per_request", macs, "count");
}

}  // namespace

void run_serve_posit(const RunArgs& args, Report& r) {
  const Traffic tr{
      /*light_rate=*/100.0,
      /*light_count=*/50,
      /*heavy_rate=*/300.0,
      /*heavy_count=*/150,
      /*burst_count=*/300,
      /*bursts=*/3,
      /*round_seconds=*/1.65,
      /*ladder=*/ladder(400.0, 1.15, 14),
      /*slo_p90_ms=*/25.0};
  run_serving(
      args, r, tr,
      [&] {
        Model m;
        const auto t0 = Clock::now();
        pdnn::data::SynthCifarConfig dc;
        dc.classes = 10;
        dc.train_per_class = 7;
        dc.test_per_class = 1;
        dc.height = dc.width = 8;
        dc.seed = derive_seed(args.seed, 1);
        const auto d = pdnn::data::make_synth_cifar(dc);
        for (std::size_t i = 0; i < d.train.size(); ++i) {
          m.pool.emplace_back();
          pdnn::tensor::extract_sample(d.train.images, i, m.pool.back());
        }
        m.data_gen_s = seconds_between(t0, Clock::now());
        pdnn::nn::ResNetConfig rc;
        rc.blocks_per_stage = 1;
        rc.base_channels = 4;
        rc.classes = 10;
        pdnn::tensor::Rng rng(derive_seed(args.seed, 2));
        m.net = pdnn::nn::cifar_resnet(rc, rng);
        m.make_backend = [net = m.net.get()] {
          return pdnn::quant::PositSession::compile_backend(*net, pdnn::quant::SessionConfig{});
        };
        return m;
      },
      /*posit=*/true);
}

void run_serve_float_tiny(const RunArgs& args, Report& r) {
  const Traffic tr{
      /*light_rate=*/5000.0,
      /*light_count=*/2500,
      /*heavy_rate=*/30000.0,
      /*heavy_count=*/15000,
      /*burst_count=*/40000,
      /*bursts=*/1,
      /*round_seconds=*/1.25,
      /*ladder=*/ladder(20000.0, 1.25, 14),
      /*slo_p90_ms=*/2.0};
  run_serving(
      args, r, tr,
      [&] {
        Model m;
        const auto t0 = Clock::now();
        pdnn::tensor::Rng data_rng(derive_seed(args.seed, 1));
        for (int i = 0; i < 256; ++i) m.pool.push_back(Tensor::randn(Shape{16}, data_rng));
        m.data_gen_s = seconds_between(t0, Clock::now());
        pdnn::tensor::Rng rng(derive_seed(args.seed, 2));
        m.net = pdnn::nn::mlp(16, 32, 4, 2, rng);
        m.make_backend = [net = m.net.get()]() -> std::unique_ptr<pdnn::exec::Backend> {
          return std::make_unique<pdnn::exec::FloatBackend>(pdnn::exec::FloatBackend::compile(*net));
        };
        return m;
      },
      /*posit=*/false);
}

}  // namespace perfbench
