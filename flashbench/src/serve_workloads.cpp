// serve_generate and serve_thresholds: an in-process serve::Server over TCP
// with a seed-initialized model on two replicas, driven by the benchmark's
// own open-loop driver (driver.h).
//
// serve_generate serves a cVAE-GAN (rows of 1x16x16): generate traffic at a
// `light` and a `heavy` rate below saturation, then a fixed rate ladder for
// the highest sustainable open-loop rate. Closed-loop `saturate` phases,
// spread over the run, give the server's own throughput. Forward-only
// inference plus the front end, batcher and dispatcher; no autograd and no
// flash.
//
// serve_thresholds serves the (PE, retention)-conditioned Temporal model:
// the same light and heavy generate traffic runs alongside one closed-loop
// threshold client that queries a grid of distinct cache buckets (cold) and
// then repeats them (warm). Each cold query samples 64 rows through the same
// replicas that serve the generates. Closed-loop `saturate` phases of
// generates alone run before, between and after the two rates.
//
// Both check the answers: every kVerifyStride-th generate against an
// in-process InferenceEngine at the same (seed, stream), every threshold
// report against an in-process ThresholdOptimizer over a ModelSampler.
#include <algorithm>
#include <memory>
#include <set>
#include <thread>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "core/experiment.h"
#include "driver.h"
#include "serve/server.h"
#include "thresholds/model_sampler.h"
#include "timing.h"

namespace flashbench {
namespace {

using namespace flashgen;

constexpr int kSide = 16;
constexpr int kReplicas = 2;
constexpr int kSetups = 7;
constexpr double kDrainS = 5.0;
// Generate rates (requests/s). At `light` the median is service time; at
// `heavy` (about two thirds of saturation on four CPUs) queues form.
constexpr double kLightRps = 150.0;
constexpr double kHeavyRps = 600.0;
// The ladder for the highest rate whose p99 meets kLimitMs with no growing
// backlog. It climbs until a rung fails.
constexpr double kLadder[] = {600, 700, 800, 900, 1000, 1100};
constexpr double kLimitMs = 40.0;
// The closed-loop saturation phases: rounds of a fixed number of generate
// requests with kWindow of them in flight on every connection (enough for
// full batches on both replicas). Their completion rate, the median over
// rounds, is the server's throughput, set by the program and not by the
// driver's schedule. kSaturateGroups groups of kSaturateRounds rounds are
// spread over the run, so the median samples the host over all of it. The
// request count is fixed by --seconds: kSaturateShare of the run at
// kSaturateNominalRps.
constexpr int kSaturateGroups = 3;
constexpr int kSaturateRounds = 3;
constexpr double kSaturateShare = 0.3;
constexpr int kWindow = 16;
constexpr double kSaturateNominalRps = 1200.0;
constexpr double kSaturateTimeoutS = 30.0;
constexpr int kEngineBatch = 8;  // the server's default max_batch_size
// Unmeasured traffic before the first measured phase: bursts of 2k requests
// (k = 1..kEngineBatch) sent at once, so each replica runs every batch size,
// then kWarmupS at the heavy rate. One-time per-shape work (workspace pools)
// is then neither timed as load nor a run-to-run difference in memory.
constexpr double kWarmupS = 1.0;
constexpr double kBurstRps = 1e5;
constexpr std::size_t kTimedColdQueries = 4;
// Every kVerifyStride-th request is re-generated in-process and compared.
constexpr std::uint64_t kVerifyStride = 8;

struct Fleet {
  serve::ModelRegistry registry;
  std::unique_ptr<serve::Server> server;
};

int host_cpus() { return std::max(1, static_cast<int>(std::thread::hardware_concurrency())); }

// Set-up: build the replicas (seed-initialized weights), register and warm
// them, and start the server on an OS-assigned loopback port.
std::unique_ptr<Fleet> start_fleet(core::ModelKind kind, const models::NetworkConfig& network,
                                   std::uint64_t model_seed, const std::string& name) {
  auto fleet = std::make_unique<Fleet>();
  fleet->registry.add(name, core::make_model(kind, network, model_seed),
                      tensor::Shape({1, kSide, kSide}));
  for (int r = 1; r < kReplicas; ++r)
    fleet->registry.add_replica(name, core::make_model(kind, network, model_seed));
  serve::ServerOptions options;
  options.endpoint = "tcp:127.0.0.1:0";
  fleet->server = std::make_unique<serve::Server>(fleet->registry, options);
  fleet->server->start();
  return fleet;
}

std::unique_ptr<Fleet> timed_setups(core::ModelKind kind, const models::NetworkConfig& network,
                                    std::uint64_t model_seed, const std::string& name,
                                    std::vector<double>& setup_s) {
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < kSetups; ++i) {
    if (fleet) fleet->server->stop();
    fleet.reset();
    const auto t = Clock::now();
    fleet = start_fleet(kind, network, model_seed, name);
    setup_s.push_back(seconds_since(t));
  }
  return fleet;
}

std::string server_stats(const std::string& endpoint) {
  serve::Client client(endpoint);
  return client.stats();
}

struct PhaseLog {
  std::string name;
  PhaseResult result;
  std::string stats_after;
};

std::string phases_json(const std::vector<PhaseLog>& phases) {
  std::string out = "[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    out += (i ? ", " : "") + Json()
                                 .str("name", phases[i].name)
                                 .raw("client", phases[i].result.to_json())
                                 .raw("server", phases[i].stats_after)
                                 .render();
  }
  return out + "]";
}

void tally(WorkloadResult& result, const PhaseResult& phase) {
  result.attempted += phase.sent;
  result.failed += phase.failed();
  result.check(phase.ok + phase.failed() == phase.sent,
               "a generate request was neither answered nor counted as failed");
}

// Checks every kVerifyStride-th answered generate request against an in-process engine over
// a separately built replica of the same weights, and times the engine at
// batch 1 and batch 8. Returns the engine timing JSON.
std::string verify_generates(WorkloadResult& result, core::ModelKind kind,
                             const models::NetworkConfig& network, std::uint64_t model_seed,
                             std::uint64_t content_seed,
                             const std::vector<std::uint64_t>& hashes) {
  auto model = core::make_model(kind, network, model_seed);
  serve::InferenceEngine engine(*model);
  std::vector<std::uint64_t> answered;
  for (std::uint64_t k = 0; k < hashes.size(); k += kVerifyStride)
    if (hashes[k] != 0) answered.push_back(k);

  long long mismatches = 0;
  std::vector<double> batch1_ms;
  std::vector<double> batch8_ms_per_row;
  std::size_t pos = 0;
  // A few single-row calls first (the batch-1 timing), then batches of 8.
  for (; pos < answered.size() && pos < 32; ++pos) {
    const std::uint64_t k = answered[pos];
    tensor::Tensor pl = tensor::Tensor::from_data(tensor::Shape({1, 1, kSide, kSide}),
                                  request_program_levels(content_seed, k, kSide));
    std::vector<Rng> rngs{Rng::from_stream(content_seed, k)};
    std::vector<float> out(kSide * kSide);
    const auto t = Clock::now();
    engine.generate_into(pl, rngs, out);
    batch1_ms.push_back(ms_between(t, Clock::now()));
    if (voltages_hash(out) != hashes[k]) ++mismatches;
  }
  while (pos < answered.size()) {
    const std::size_t n = std::min<std::size_t>(kEngineBatch, answered.size() - pos);
    std::vector<float> pl_data;
    std::vector<Rng> rngs;
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = request_program_levels(content_seed, answered[pos + i], kSide);
      pl_data.insert(pl_data.end(), row.begin(), row.end());
      rngs.push_back(Rng::from_stream(content_seed, answered[pos + i]));
    }
    tensor::Tensor pl = tensor::Tensor::from_data(
        tensor::Shape({static_cast<tensor::Index>(n), 1, kSide, kSide}), std::move(pl_data));
    std::vector<float> out(n * kSide * kSide);
    const auto t = Clock::now();
    engine.generate_into(pl, rngs, out);
    if (n == kEngineBatch) batch8_ms_per_row.push_back(ms_between(t, Clock::now()) / n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<float> row(out.begin() + static_cast<long>(i * kSide * kSide),
                                   out.begin() + static_cast<long>((i + 1) * kSide * kSide));
      if (voltages_hash(row) != hashes[answered[pos + i]]) ++mismatches;
    }
    pos += n;
  }
  result.check(mismatches == 0, std::to_string(mismatches) +
                                    " generate responses differ from the in-process engine");
  result.check(!answered.empty(), "no generate request was answered");
  return Json()
      .integer("verified", static_cast<long long>(answered.size()))
      .integer("mismatches", mismatches)
      .num("batch1_ms", quantile(batch1_ms, 0.5))
      .num("batch8_ms_per_row", quantile(batch8_ms_per_row, 0.5))
      .render();
}

// Runs one group of saturation rounds, appending each round's completion rate.
template <typename RunClosed>
void saturate(const RunClosed& run_closed, double seconds, std::vector<double>& rps) {
  const auto per_round = static_cast<std::uint64_t>(std::llround(
      kSaturateNominalRps * kSaturateShare * seconds / (kSaturateGroups * kSaturateRounds)));
  for (int i = 0; i < kSaturateRounds; ++i) rps.push_back(run_closed(per_round).achieved_rps());
}

template <typename Run>
void warm_up(const Run& run) {
  for (int k = 1; k <= kEngineBatch; ++k) run("warmup", kBurstRps, 2 * k / kBurstRps);
  run("warmup", kHeavyRps, kWarmupS);
}

// The serve workloads keep busy threads within the host's CPUs: two
// single-threaded replicas, the server's event loop and this driver thread.
void pin_threads() { common::set_num_threads(1); }

}  // namespace

WorkloadResult run_serve_generate(const WorkloadArgs& args) {
  pin_threads();
  WorkloadResult result;
  const models::NetworkConfig network = core::small_experiment_config().network;
  const core::ModelKind kind = core::ModelKind::CvaeGan;
  const std::string name = "cVAE-GAN";
  const std::uint64_t model_seed = args.seed;
  const std::uint64_t content_seed = Rng(args.seed).split(7).next_u64();

  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet = timed_setups(kind, network, model_seed, name, setup_s);
  const std::string endpoint = fleet->server->endpoint();
  const int connections = std::min(4, host_cpus());
  OpenLoopDriver driver(endpoint, connections, name, kSide, content_seed);

  std::vector<PhaseLog> phases;
  const auto log_phase = [&](const std::string& phase, PhaseResult phase_result) {
    PhaseLog log{phase, std::move(phase_result), server_stats(endpoint)};
    tally(result, log.result);
    phases.push_back(std::move(log));
    return phases.back().result;
  };
  const auto run = [&](const std::string& phase, double rps, double seconds) {
    return log_phase(phase, driver.run_phase(rps, seconds, kDrainS));
  };
  const auto run_closed = [&](std::uint64_t total) {
    return log_phase("saturate", driver.run_closed(total, kWindow, kSaturateTimeoutS));
  };
  const double s = args.seconds;
  std::vector<double> saturated_rps;
  warm_up(run);
  saturate(run_closed, s, saturated_rps);
  run("light", kLightRps, 0.3 * s);
  run("heavy", kHeavyRps, 0.15 * s);
  // The ladder queues deeper than the fixed-rate phases; memory is measured
  // before it.
  result.peak_rss_mb = peak_rss_mb();
  if (!args.trace_path.empty()) {
    // Traced run: the heavy phase again with the tracer on.
    trace::start(args.trace_path);
    run("heavy_traced", kHeavyRps, 0.15 * s);
    trace::stop();
  }
  saturate(run_closed, s, saturated_rps);
  // gen_max_rps: the achieved rate of the highest rung that met the limit.
  double max_rps = 0.0;
  const double rung_s = 0.3 * s / std::size(kLadder);
  for (double rps : kLadder) {
    const PhaseResult& rung = run("ladder", rps, rung_s);
    const bool meets = quantile(rung.latency_ms, 0.99) <= kLimitMs && rung.failed() == 0 &&
                       rung.last_quarter_p50_ms <= 2.0 * rung.first_quarter_p50_ms + 1.0;
    if (!meets) break;
    max_rps = rung.achieved_rps();
  }
  saturate(run_closed, s, saturated_rps);
  fleet->server->drain_and_stop();

  const std::string engine = verify_generates(result, kind, network, model_seed, content_seed,
                                              driver.response_hashes());
  result.json.nums("setup_s", setup_s)
      .integer("replicas", kReplicas)
      .integer("connections", connections)
      .num("gen_max_rps", max_rps)
      .num("gen_saturated_rps", quantile(saturated_rps, 0.5))
      .raw("phases", phases_json(phases))
      .raw("engine", engine);
  return result;
}

WorkloadResult run_serve_thresholds(const WorkloadArgs& args) {
  pin_threads();
  WorkloadResult result;
  const models::NetworkConfig network = core::small_temporal_experiment_config().network;
  const core::ModelKind kind = core::ModelKind::Temporal;
  const std::string name = "Temporal";
  const std::uint64_t model_seed = args.seed;
  const std::uint64_t content_seed = Rng(args.seed).split(7).next_u64();

  // The threshold plan: rounds of four distinct (PE, retention) buckets
  // queried cold, then the same four again (warm). Buckets come from a
  // seeded shuffle of the server's default quantization lattice.
  const serve::ServerOptions defaults;
  const double pe_q = defaults.threshold.optimizer.pe_quantum;
  const double ret_q = defaults.threshold.optimizer.retention_quantum;
  std::vector<std::pair<int, int>> buckets;
  for (int i = 5; i <= 95; ++i)
    for (int j = 0; j <= 40; ++j) buckets.emplace_back(i, j);
  Rng shuffle(args.seed ^ 0x7E5u);
  for (std::size_t i = buckets.size() - 1; i > 0; --i)
    std::swap(buckets[i], buckets[shuffle.uniform_int(i + 1)]);
  std::vector<ThresholdCall> plan;
  constexpr std::size_t kRound = 4;
  for (std::size_t b = 0; b + kRound <= buckets.size(); b += kRound) {
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = b; i < b + kRound; ++i) {
        ThresholdCall call;
        call.pe_cycles = buckets[i].first * pe_q;
        call.retention_hours = buckets[i].second * ret_q;
        plan.push_back(call);
      }
    }
  }

  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet = timed_setups(kind, network, model_seed, name, setup_s);
  const std::string endpoint = fleet->server->endpoint();
  const int connections = std::max(1, std::min(4, host_cpus()) - 1);
  OpenLoopDriver driver(endpoint, connections, name, kSide, content_seed, name);

  std::vector<PhaseLog> phases;
  std::size_t next_call = 0;
  const auto log_phase = [&](const std::string& phase, PhaseResult phase_result) {
    PhaseLog log{phase, std::move(phase_result), server_stats(endpoint)};
    tally(result, log.result);
    phases.push_back(std::move(log));
    return phases.back().result;
  };
  const auto run = [&](const std::string& phase, double rps, double seconds) {
    log_phase(phase, driver.run_phase(rps, seconds, kDrainS, &plan, &next_call));
  };
  const auto run_closed = [&](std::uint64_t total) {
    return log_phase("saturate", driver.run_closed(total, kWindow, kSaturateTimeoutS));
  };
  const double s = args.seconds;
  std::vector<double> saturated_rps;
  warm_up(run);
  saturate(run_closed, s, saturated_rps);
  // Threshold queries are measured from here to the traced phase; the
  // warm-up's and the traced phase's are not.
  const std::size_t measured_from = next_call;
  run("light", kLightRps, 0.4 * s);
  saturate(run_closed, s, saturated_rps);
  run("heavy", kHeavyRps, 0.25 * s);
  // Memory over the serving phases, before the benchmark's own checks below.
  result.peak_rss_mb = peak_rss_mb();
  const std::size_t measured_to = next_call;
  if (!args.trace_path.empty()) {
    trace::start(args.trace_path);
    run("heavy_traced", kHeavyRps, 0.25 * s);
    trace::stop();
  }
  saturate(run_closed, s, saturated_rps);
  fleet->server->drain_and_stop();
  const std::string engine = verify_generates(result, kind, network, model_seed, content_seed,
                                              driver.response_hashes());

  // Reference: the same optimizer configuration in-process, over a separately
  // built replica, sampling through a timing decorator.
  auto model = core::make_model(kind, network, model_seed);
  thresholds::ModelSampler sampler(*model);
  TimedSampler timed(sampler);
  thresholds::OptimizerConfig config = defaults.threshold.optimizer;
  config.side = kSide;
  thresholds::ThresholdOptimizer reference(timed, config);
  std::vector<double> cold_ms, warm_ms, sample_ms, fit_ms, rows;
  long long mismatches = 0;
  long long cache_flag_errors = 0;
  long long answered = 0;
  long long from_cache = 0;
  std::set<std::pair<long long, long long>> seen;
  for (std::size_t i = 0; i < next_call; ++i) {
    const ThresholdCall& call = plan[i];
    ++result.attempted;
    if (!call.answered || call.latency_ms >= kFailedMs) {
      ++result.failed;
      continue;
    }
    ++answered;
    const bool repeat = !seen
                             .insert({std::llround(call.pe_cycles / pe_q),
                                      std::llround(call.retention_hours / ret_q)})
                             .second;
    if (call.response.from_cache) ++from_cache;
    if (call.response.from_cache != repeat) ++cache_flag_errors;
    if (i >= measured_from && i < measured_to)
      (repeat ? warm_ms : cold_ms).push_back(call.latency_ms);

    // The first cold queries run at the replicas' thread count and give the
    // sampling / fitting split; the rest are checked on every host CPU.
    if (sample_ms.size() == kTimedColdQueries) common::set_num_threads(std::min(4, host_cpus()));
    timed.reset();
    const auto t = Clock::now();
    const thresholds::ThresholdReport report =
        reference.optimize({call.pe_cycles, call.retention_hours});
    if (!repeat && sample_ms.size() < kTimedColdQueries) {
      sample_ms.push_back(timed.sample_ms());
      fit_ms.push_back(ms_between(t, Clock::now()) - timed.sample_ms());
      rows.push_back(static_cast<double>(timed.rows()));
    }
    const serve::ThresholdResponse expected = serve::to_response(report);
    const serve::ThresholdResponse& got = call.response;
    bool same = got.thresholds == expected.thresholds && got.page_ber == expected.page_ber &&
                got.level_error_rate == expected.level_error_rate &&
                got.mutual_information_bits == expected.mutual_information_bits &&
                got.sample_cells == expected.sample_cells;
    for (std::size_t k = 0; k + 1 < got.thresholds.size(); ++k)
      same = same && got.thresholds[k] < got.thresholds[k + 1];
    if (!same) ++mismatches;
  }
  result.check(mismatches == 0, std::to_string(mismatches) +
                                    " threshold reports differ from the in-process optimizer");
  result.check(cache_flag_errors == 0,
               std::to_string(cache_flag_errors) + " threshold reports with a wrong from_cache");
  result.check(!cold_ms.empty() && !warm_ms.empty(),
               "no cold or no warm threshold query ran in the measured phases");

  result.json.nums("setup_s", setup_s)
      .integer("replicas", kReplicas)
      .integer("connections", connections)
      .num("gen_saturated_rps", quantile(saturated_rps, 0.5))
      .raw("phases", phases_json(phases))
      .raw("engine", engine)
      .raw("thr_cold_ms", summary(cold_ms))
      .raw("thr_warm_ms", summary(warm_ms))
      .num("thr_sample_ms_per_query", mean(sample_ms))
      .num("thr_fit_ms_per_query", mean(fit_ms))
      .num("thr_rows_per_cold_query", mean(rows))
      .integer("thr_answered", answered)
      .integer("thr_from_cache", from_cache);
  return result;
}

}  // namespace flashbench
