// Outside-in timing decorators over flashgen's public interfaces. Each wraps
// a layer's boundary object, forwards every call unchanged, and records how
// long the wrapped layer took, so per-layer numbers come from the benchmark
// without touching the library.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "pipeline/sample_source.h"
#include "thresholds/optimizer.h"

namespace flashbench {

/// pipeline::SampleSource decorator. The training loop consumes batches only
/// through next_batch_cond(), so the gap between successive calls is one
/// training step and the time inside the call is the step's pipeline wait.
class TimedSource final : public flashgen::pipeline::SampleSource {
 public:
  explicit TimedSource(SampleSource& inner) : inner_(inner) {}

  flashgen::tensor::Index global_batch() const override { return inner_.global_batch(); }
  flashgen::tensor::Index batch_rows() const override { return inner_.batch_rows(); }
  std::int64_t batches_per_epoch() const override { return inner_.batches_per_epoch(); }
  int array_size() const override { return inner_.array_size(); }
  void begin_epoch(std::int64_t epoch, flashgen::Rng& rng) override {
    inner_.begin_epoch(epoch, rng);
  }
  void skip_batches(std::int64_t n) override { inner_.skip_batches(n); }
  std::pair<flashgen::tensor::Tensor, flashgen::tensor::Tensor> next_batch() override {
    return inner_.next_batch();
  }
  Batch next_batch_cond() override {
    const auto t0 = Clock::now();
    if (started_) step_ms_.push_back(ms_between(last_call_, t0));
    started_ = true;
    last_call_ = t0;
    Batch batch = inner_.next_batch_cond();
    wait_ms_.push_back(ms_between(t0, Clock::now()));
    return batch;
  }
  std::uint64_t cursor() const override { return inner_.cursor(); }

  /// Closes the last step at the moment training returned.
  void finish() {
    if (started_) step_ms_.push_back(ms_between(last_call_, Clock::now()));
    started_ = false;
  }

  const std::vector<double>& step_ms() const { return step_ms_; }
  const std::vector<double>& wait_ms() const { return wait_ms_; }

 private:
  SampleSource& inner_;
  bool started_ = false;
  Clock::time_point last_call_{};
  std::vector<double> step_ms_;
  std::vector<double> wait_ms_;
};

/// thresholds::ChannelSampler decorator: time spent sampling rows. Under a
/// ThresholdOptimizer, a cold query's time minus its sampling time is the
/// histogram fit and threshold refinement.
class TimedSampler final : public flashgen::thresholds::ChannelSampler {
 public:
  explicit TimedSampler(ChannelSampler& inner) : inner_(inner) {}

  std::vector<std::vector<float>> sample(std::span<const flashgen::thresholds::RowRequest> rows,
                                         std::uint64_t seed,
                                         const flashgen::data::Condition& condition) override {
    const auto t0 = Clock::now();
    auto out = inner_.sample(rows, seed, condition);
    sample_ms_ += ms_between(t0, Clock::now());
    rows_ += static_cast<long long>(rows.size());
    return out;
  }

  /// Sampling time and rows since the last reset.
  double sample_ms() const { return sample_ms_; }
  long long rows() const { return rows_; }
  void reset() {
    sample_ms_ = 0.0;
    rows_ = 0;
  }

 private:
  ChannelSampler& inner_;
  double sample_ms_ = 0.0;
  long long rows_ = 0;
};

}  // namespace flashbench
