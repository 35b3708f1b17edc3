// table1_cvaegan: one Table I row at the small_experiment_config() geometry.
// core::Experiment set-up (channel characterization into train/eval splits),
// cVAE-GAN training through fit_stream over an EagerSource for a fixed
// number of epochs with the checkpoint cache off, then Experiment::evaluate
// (160 eval arrays x 10 latent draws). tensor/nn/models do nearly all the
// work; serve and thresholds do none.
//
// The row repeats until the run's time is spent, at least kMinRows times (the
// first row also pays one-time process start-up, so set-up is reported as
// the median row's): every repetition must reproduce the first one's loss
// history and per-level TV bit for bit.
#include <optional>

#include "bench_util.h"
#include "common/trace.h"
#include "core/experiment.h"
#include "timing.h"

namespace flashbench {
namespace {

using namespace flashgen;

constexpr core::ModelKind kKind = core::ModelKind::CvaeGan;
constexpr int kEpochs = 1;
constexpr int kLossEvery = 16;  // steps per recorded loss-history entry
constexpr std::size_t kMinRows = 3;
// Set-ups timed before the rows, so that setup_s is a median over enough
// samples (with the rows' own) to be steady.
constexpr int kSetups = 5;

struct Row {
  double setup_s = 0.0;
  double fit_s = 0.0;
  double eval_s = 0.0;
  int steps = 0;
  int batch = 0;
  long long eval_rows = 0;
  std::vector<double> step_ms;
  std::vector<double> wait_ms;
  double tv_overall = 0.0;
  std::vector<double> tv_per_level;
  std::uint64_t fingerprint = 0;
};

core::ExperimentConfig row_config(std::uint64_t seed) {
  core::ExperimentConfig config = core::small_experiment_config();
  config.seed = seed;
  config.epochs = kEpochs;
  config.cache_dir.clear();  // train every row; never read or write a checkpoint
  return config;
}

Row run_row(const core::ExperimentConfig& config) {
  Row row;
  auto t = Clock::now();
  std::optional<core::Experiment> experiment;
  {
    trace::Span span("bench.setup", "bench");
    experiment.emplace(config);
  }
  row.setup_s = seconds_since(t);

  // Same model seed and training RNG as Experiment::train_or_load.
  auto model = core::make_model(kKind, config.network, config.seed ^ 0xF1A5Bu);
  Rng rng(config.seed + static_cast<std::uint64_t>(kKind) * 7919 + 13);
  models::TrainConfig train = experiment->train_config(kKind);
  train.log_every = kLossEvery;
  pipeline::EagerSource eager(experiment->train_data(), train.batch_size);
  TimedSource source(eager);
  t = Clock::now();
  models::TrainStats stats;
  {
    trace::Span span("bench.fit", "bench");
    stats = model->fit_stream(source, train, rng);
  }
  source.finish();
  row.fit_s = seconds_since(t);
  row.steps = stats.steps;
  row.batch = train.batch_size;
  row.step_ms = source.step_ms();
  row.wait_ms = source.wait_ms();

  t = Clock::now();
  std::optional<core::ModelEvaluation> evaluation;
  {
    trace::Span span("bench.evaluate", "bench");
    evaluation.emplace(experiment->evaluate(*model));
  }
  row.eval_s = seconds_since(t);
  row.eval_rows = static_cast<long long>(config.eval_arrays) * config.z_samples;
  row.tv_overall = evaluation->tv_overall;
  row.tv_per_level.assign(evaluation->tv_per_level.begin(), evaluation->tv_per_level.end());

  std::uint64_t h = fnv1a_vec(stats.g_loss_history);
  h = fnv1a_vec(stats.d_loss_history, h);
  h = fnv1a_vec(row.tv_per_level, h);
  row.fingerprint = fnv1a(&row.tv_overall, sizeof(row.tv_overall), h);
  return row;
}

std::string row_json(const Row& row) {
  return Json()
      .num("setup_s", row.setup_s)
      .num("fit_s", row.fit_s)
      .num("eval_s", row.eval_s)
      .integer("steps", row.steps)
      .integer("batch", row.batch)
      .integer("eval_rows", row.eval_rows)
      .nums("step_ms", row.step_ms)
      .nums("wait_ms", row.wait_ms)
      .num("tv_overall", row.tv_overall)
      .nums("tv_per_level", row.tv_per_level)
      .str("fingerprint", hex64(row.fingerprint))
      .render();
}

}  // namespace

WorkloadResult run_table1(const WorkloadArgs& args) {
  WorkloadResult result;
  const core::ExperimentConfig config = row_config(args.seed);
  std::vector<Row> rows;
  const auto start = Clock::now();
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const auto t = Clock::now();
    const core::Experiment experiment(config);
    setup_s.push_back(seconds_since(t));
  }
  if (args.trace_path.empty()) {
    do {
      rows.push_back(run_row(config));
    } while (rows.size() < kMinRows ||
             seconds_since(start) + rows.back().setup_s + rows.back().fit_s +
                     rows.back().eval_s <= args.seconds);
  } else {
    // Two untraced rows (the first pays process start-up; the second is the
    // overhead baseline and gives the decorator timings), then the same row
    // traced.
    rows.push_back(run_row(config));
    rows.push_back(run_row(config));
    trace::start(args.trace_path);
    rows.push_back(run_row(config));
    trace::stop();
  }

  std::string rows_text = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows_text += (i ? ", " : "") + row_json(rows[i]);
    result.check(rows[i].fingerprint == rows[0].fingerprint,
                 "row " + std::to_string(i) + " loss history / per-level TV differ from row 0");
    result.check(rows[i].steps > 0, "training ran no steps");
    result.check(rows[i].tv_overall > 0.0 && rows[i].tv_overall < 1.0,
                 "TV distance outside (0, 1)");
  }
  rows_text += "]";
  result.attempted = static_cast<long long>(rows.size());
  result.json.nums("setup_s", setup_s)
      .raw("rows", rows_text)
      .str("fingerprint", hex64(rows[0].fingerprint))
      .integer("epochs", kEpochs);
  return result;
}

}  // namespace flashbench
