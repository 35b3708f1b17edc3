// The benchmark's own open-loop load driver for flashgen-serve, built only on
// the public wire protocol (serve/protocol.h) and common/framing, so a change
// to the library's load generator cannot change how latency is measured here.
//
// One thread multiplexes every connection with poll(). Generate requests are
// injected on a fixed schedule (request k is due at k / rps), spread
// round-robin over the generate connections and pipelined; each request's
// latency runs from its scheduled send time, so a stall delays every request
// behind it, and the driver records how late it ran against its schedule. An
// optional extra connection is a closed-loop threshold client: it sends the
// next query of its plan as soon as the previous answer arrives.
//
// A closed-loop phase (run_closed) measures the server's own throughput
// instead: a fixed number of generate requests with a fixed window of them
// outstanding on every generate connection, a new one sent on a connection
// as soon as an answer comes back on it.
//
// Request k carries a PL array drawn from Rng::from_stream(content_seed, k)
// and latent stream k, so a response is a pure function of (model weights,
// content_seed, k) and can be checked against an in-process engine.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "bench_util.h"
#include "serve/protocol.h"

namespace flashbench {

/// PL row of generate request `index` (normalized, side * side floats).
std::vector<float> request_program_levels(std::uint64_t content_seed, std::uint64_t index,
                                          std::uint32_t side);

/// Order-independent digest of one response's voltages.
std::uint64_t voltages_hash(const std::vector<float>& voltages);

struct ThresholdCall {
  double pe_cycles = 0.0;
  double retention_hours = 0.0;
  // Filled by the driver:
  bool answered = false;
  double latency_ms = 0.0;
  flashgen::serve::ThresholdResponse response;
};

struct PhaseResult {
  double rps = 0.0;
  double seconds = 0.0;
  long long sent = 0;
  long long ok = 0;
  long long shed = 0;          // kOverloaded
  long long rate_limited = 0;  // kRateLimited
  long long errors = 0;        // kError, or undecodable
  long long lost = 0;          // unanswered when the drain timeout expired
  // (Generate requests only; threshold calls carry their own outcome.)
  /// One entry per sent request; a failed or lost request reads as
  /// kFailedMs so it misses every latency limit.
  std::vector<double> latency_ms;
  std::vector<double> late_ms;  // send time minus scheduled time
  double elapsed_s = 0.0;       // first due time to last answer
  /// Median latency of the first and last quarter of the phase's requests,
  /// to tell a growing backlog from a steady tail.
  double first_quarter_p50_ms = 0.0;
  double last_quarter_p50_ms = 0.0;

  long long failed() const { return shed + rate_limited + errors + lost; }
  /// Answers per second, first due time to last answer.
  double achieved_rps() const {
    return elapsed_s > 0.0 ? static_cast<double>(ok) / elapsed_s : 0.0;
  }
  std::string to_json() const;
};

inline constexpr double kFailedMs = 1e6;

class OpenLoopDriver {
 public:
  /// Opens `connections` generate connections (plus one threshold connection
  /// when `threshold_model` is non-empty) to `endpoint`.
  OpenLoopDriver(const std::string& endpoint, int connections, std::string model,
                 std::uint32_t side, std::uint64_t content_seed, std::string threshold_model = {});
  ~OpenLoopDriver();
  OpenLoopDriver(const OpenLoopDriver&) = delete;
  OpenLoopDriver& operator=(const OpenLoopDriver&) = delete;

  /// Injects round(rps * seconds) generate requests on schedule, then waits
  /// up to `drain_s` for the stragglers. While generate traffic runs, the
  /// threshold connection (if any) works through `plan` from `*next_call`.
  PhaseResult run_phase(double rps, double seconds, double drain_s,
                        std::vector<ThresholdCall>* plan = nullptr,
                        std::size_t* next_call = nullptr);

  /// Sends `total` generate requests closed-loop, keeping `window` of them
  /// in flight on every generate connection, and waits up to `timeout_s` in
  /// all. Latency runs from each request's send time; achieved_rps() is the
  /// server's completion rate. The threshold connection stays idle.
  PhaseResult run_closed(std::uint64_t total, int window, double timeout_s);

  /// Hash of the voltages answered for request index k, 0 when it failed.
  const std::vector<std::uint64_t>& response_hashes() const { return hashes_; }

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> outbuf;
    std::size_t out_off = 0;
    flashgen::framing::FrameDecoder decoder;
    std::deque<std::uint64_t> pending;  // request indices (or call slots) in order
  };

  void flush(Conn& conn);
  /// Starts a phase of `total` requests; returns the first request index.
  std::uint64_t begin_phase(PhaseResult& r, std::uint64_t total);
  /// Queues generate request `index` on `conn` and tries to send it.
  void send_generate(Conn& conn, std::uint64_t index);
  /// Waits up to `wait` for the first `count` connections and hands every
  /// complete answer frame to on_frame(connection, payload, arrival time).
  template <typename OnFrame>
  void poll_answers(std::size_t count, Clock::duration wait, const OnFrame& on_frame);
  /// Accounts one answer to generate request `slot`, timed from `from`.
  /// Returns false for a request given up as lost in an earlier phase.
  bool take_generate_answer(PhaseResult& r, std::uint64_t first, std::uint64_t slot,
                            const std::vector<std::uint8_t>& payload, Clock::time_point from,
                            Clock::time_point now);
  /// Counts unanswered requests as lost and fills the phase summary.
  void end_phase(PhaseResult& r, std::uint64_t first, std::uint64_t total,
                 Clock::time_point t0, Clock::time_point last_answer);

  std::vector<Conn> conns_;  // generate connections, then the threshold one
  bool has_threshold_ = false;
  std::size_t gen_conns_ = 0;
  std::vector<std::uint8_t> payload_;
  std::string model_;
  std::string threshold_model_;
  std::uint32_t side_;
  std::uint64_t content_seed_;
  std::uint64_t next_index_ = 0;
  std::vector<std::uint64_t> hashes_;
  /// Per request index: 0 in flight, 1 answered, 2 given up as lost (a late
  /// answer is then consumed without being counted again).
  std::vector<std::uint8_t> state_;
};

}  // namespace flashbench
