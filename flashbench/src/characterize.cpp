// characterize: destructive characterization, the measured side of every
// paper table. flash::FlashChannel::run_experiment on 128x128 TLC blocks
// across a (PE, retention) grid, then eval::ConditionalHistograms::add_grids,
// eval::thresholds_from_histograms and eval::analyze_ici per condition. flash
// and eval do all the work; tensor does none.
//
// One pass reads one block per grid condition from counter-derived streams
// (seed, pass * conditions + condition), so a pass is a pure function of the
// seed. Passes repeat until the run's time is spent; pass 0 is replayed at
// the end and must reproduce its histogram and ICI-count checksum.
#include <array>
#include <optional>

#include "bench_util.h"
#include "common/trace.h"
#include "eval/histogram.h"
#include "eval/ici_analysis.h"
#include "eval/thresholds.h"
#include "flash/channel.h"

namespace flashbench {
namespace {

using namespace flashgen;

struct Condition {
  double pe;
  double retention;
};
constexpr std::array<Condition, 6> kGrid{{{1000, 0}, {4000, 0}, {8000, 0},
                                          {1000, 500}, {4000, 500}, {8000, 500}}};
constexpr int kSetups = 7;

struct PassTiming {
  std::vector<double> block_ms;  // run_experiment, one per block
  double histogram_ms = 0.0;
  double thresholds_ms = 0.0;
  double ici_ms = 0.0;
};

// Runs one pass; returns its checksum and whether every derived threshold
// vector is strictly increasing.
std::uint64_t run_pass(const flash::FlashChannel& channel, std::uint64_t seed, std::uint64_t pass,
                       PassTiming& timing, bool& monotone) {
  trace::Span pass_span("bench.characterize.pass", "bench");
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t c = 0; c < kGrid.size(); ++c) {
    Rng rng = Rng::from_stream(seed, pass * kGrid.size() + c);
    auto t = Clock::now();
    std::optional<flash::BlockObservation> obs;
    {
      trace::Span span("bench.flash.run_experiment", "bench");
      obs.emplace(channel.run_experiment(kGrid[c].pe, rng, kGrid[c].retention));
    }
    timing.block_ms.push_back(ms_between(t, Clock::now()));

    t = Clock::now();
    eval::ConditionalHistograms hists;
    {
      trace::Span span("bench.eval.add_grids", "bench");
      hists.add_grids(obs->program_levels, obs->voltages);
    }
    timing.histogram_ms += ms_between(t, Clock::now());

    t = Clock::now();
    flash::Thresholds thresholds{};
    {
      trace::Span span("bench.eval.thresholds", "bench");
      thresholds = eval::thresholds_from_histograms(hists);
    }
    timing.thresholds_ms += ms_between(t, Clock::now());

    t = Clock::now();
    std::optional<eval::IciAnalysis> ici;
    {
      trace::Span span("bench.eval.analyze_ici", "bench");
      ici.emplace(eval::analyze_ici(std::span(&obs->program_levels, 1),
                                    std::span(&obs->voltages, 1), thresholds[0]));
    }
    timing.ici_ms += ms_between(t, Clock::now());

    for (std::size_t k = 0; k + 1 < thresholds.size(); ++k)
      monotone = monotone && thresholds[k] < thresholds[k + 1];
    for (int level = 0; level < flash::kTlcLevels; ++level) {
      const eval::Histogram& hist = hists.level(level);
      for (int b = 0; b < hist.bins(); ++b) {
        const long count = hist.count(b);
        h = fnv1a(&count, sizeof(count), h);
      }
    }
    for (const eval::IciPatternStats* stats : {&ici->wordline, &ici->bitline}) {
      h = fnv1a(stats->occurrences.data(), sizeof(stats->occurrences), h);
      h = fnv1a(stats->errors.data(), sizeof(stats->errors), h);
    }
  }
  return h;
}

}  // namespace

WorkloadResult run_characterize(const WorkloadArgs& args) {
  WorkloadResult result;
  // Set-up: build the channel model and read one warm-up block per grid
  // condition (first touch of the simulator's buffers and thread pool).
  std::vector<double> setup_s;
  std::optional<flash::FlashChannel> channel;
  for (int i = 0; i < kSetups; ++i) {
    const auto t = Clock::now();
    channel.emplace(flash::FlashChannelConfig{});
    for (std::size_t c = 0; c < kGrid.size(); ++c) {
      Rng rng = Rng::from_stream(args.seed ^ 0x5E7u, c);
      (void)channel->run_experiment(kGrid[c].pe, rng, kGrid[c].retention);
    }
    setup_s.push_back(seconds_since(t));
  }

  const long long cells_per_pass = static_cast<long long>(kGrid.size()) *
                                   channel->config().rows * channel->config().cols;
  PassTiming timing;
  bool monotone = true;
  std::uint64_t first = 0;
  long long passes = 0;
  const auto start = Clock::now();
  const double budget = args.trace_path.empty() ? args.seconds : args.seconds / 2.0;
  while (passes < 2 || seconds_since(start) < budget) {
    const std::uint64_t h = run_pass(*channel, args.seed, static_cast<std::uint64_t>(passes),
                                     timing, monotone);
    if (passes == 0) first = h;
    ++passes;
  }
  const double untraced_s = seconds_since(start);

  double traced_s = 0.0;
  long long traced_passes = 0;
  if (!args.trace_path.empty()) {
    PassTiming traced_timing;
    trace::start(args.trace_path);
    const auto t = Clock::now();
    while (traced_passes < passes) {
      (void)run_pass(*channel, args.seed, static_cast<std::uint64_t>(traced_passes), traced_timing,
                     monotone);
      ++traced_passes;
    }
    traced_s = seconds_since(t);
    trace::stop();
  }

  PassTiming replay;
  const std::uint64_t again = run_pass(*channel, args.seed, 0, replay, monotone);
  result.check(again == first, "pass 0 replay changed the histogram / ICI checksum");
  result.check(monotone, "derived read thresholds are not strictly increasing");

  result.attempted = passes * static_cast<long long>(kGrid.size());
  result.json.nums("setup_s", setup_s)
      .integer("passes", passes)
      .integer("conditions", static_cast<long long>(kGrid.size()))
      .integer("cells", passes * cells_per_pass)
      .num("elapsed_s", untraced_s)
      .nums("block_ms", timing.block_ms)
      .num("histogram_ms", timing.histogram_ms)
      .num("thresholds_ms", timing.thresholds_ms)
      .num("ici_ms", timing.ici_ms)
      .integer("traced_passes", traced_passes)
      .num("traced_s", traced_s)
      .str("fingerprint", hex64(first));
  return result;
}

}  // namespace flashbench
