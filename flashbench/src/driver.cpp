#include "driver.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <ctime>

#include "common/error.h"
#include "common/rng.h"
#include "data/normalization.h"
#include "serve/endpoint.h"

namespace flashbench {

using namespace flashgen;

std::vector<float> request_program_levels(std::uint64_t content_seed, std::uint64_t index,
                                          std::uint32_t side) {
  static const data::VoltageNormalizer normalizer;
  Rng rng = Rng::from_stream(content_seed, index);
  std::vector<float> pl(static_cast<std::size_t>(side) * side);
  for (float& v : pl) v = normalizer.normalize_level(static_cast<int>(rng.uniform_int(8)));
  return pl;
}

std::uint64_t voltages_hash(const std::vector<float>& voltages) {
  // Never 0, so 0 can mean "no answer".
  return fnv1a_vec(voltages) | 1u;
}

std::string PhaseResult::to_json() const {
  return Json()
      .num("rps", rps)
      .num("seconds", seconds)
      .integer("sent", sent)
      .integer("ok", ok)
      .integer("shed", shed)
      .integer("rate_limited", rate_limited)
      .integer("errors", errors)
      .integer("lost", lost)
      .raw("latency_ms", summary(latency_ms))
      .raw("late_ms", summary(late_ms))
      .num("elapsed_s", elapsed_s)
      .num("achieved_rps", achieved_rps())
      .num("first_quarter_p50_ms", first_quarter_p50_ms)
      .num("last_quarter_p50_ms", last_quarter_p50_ms)
      .render();
}

OpenLoopDriver::OpenLoopDriver(const std::string& endpoint, int connections, std::string model,
                               std::uint32_t side, std::uint64_t content_seed,
                               std::string threshold_model)
    : has_threshold_(!threshold_model.empty()),
      model_(std::move(model)),
      threshold_model_(std::move(threshold_model)),
      side_(side),
      content_seed_(content_seed) {
  FG_CHECK(connections > 0, "driver needs at least one generate connection");
  const serve::Endpoint ep = serve::parse_endpoint(endpoint);
  gen_conns_ = static_cast<std::size_t>(connections);
  conns_.resize(static_cast<std::size_t>(connections + (has_threshold_ ? 1 : 0)));
  for (Conn& conn : conns_) {
    conn.fd = serve::connect_endpoint(ep);
    framing::set_nonblocking(conn.fd);
  }
}

OpenLoopDriver::~OpenLoopDriver() {
  for (Conn& conn : conns_)
    if (conn.fd >= 0) ::close(conn.fd);
}

void OpenLoopDriver::flush(Conn& conn) {
  if (conn.out_off < conn.outbuf.size()) {
    conn.out_off += framing::write_some(conn.fd, conn.outbuf.data() + conn.out_off,
                                        conn.outbuf.size() - conn.out_off);
  }
  if (conn.out_off == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_off = 0;
  }
}

std::uint64_t OpenLoopDriver::begin_phase(PhaseResult& r, std::uint64_t total) {
  const std::uint64_t first = next_index_;
  hashes_.resize(first + total, 0);
  state_.resize(first + total, 0);
  r.latency_ms.assign(total, kFailedMs);
  r.late_ms.reserve(total);
  return first;
}

void OpenLoopDriver::send_generate(Conn& conn, std::uint64_t index) {
  serve::GenerateRequest request;
  request.model = model_;
  request.seed = content_seed_;
  request.side = side_;
  request.stream = index;
  request.program_levels = request_program_levels(content_seed_, index, side_);
  const std::vector<std::uint8_t> frame =
      framing::encode_frame(serve::encode_generate_request(request));
  conn.outbuf.insert(conn.outbuf.end(), frame.begin(), frame.end());
  conn.pending.push_back(index);
  flush(conn);
}

template <typename OnFrame>
void OpenLoopDriver::poll_answers(std::size_t count, Clock::duration wait,
                                  const OnFrame& on_frame) {
  if (wait < Clock::duration::zero()) wait = Clock::duration::zero();
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
  timespec ts{static_cast<time_t>(ns / 1'000'000'000), static_cast<long>(ns % 1'000'000'000)};
  std::vector<pollfd> fds(count);
  for (std::size_t c = 0; c < count; ++c) {
    fds[c].fd = conns_[c].fd;
    fds[c].events = static_cast<short>(POLLIN | (conns_[c].outbuf.empty() ? 0 : POLLOUT));
    fds[c].revents = 0;
  }
  const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready < 0) {
    FG_CHECK(errno == EINTR, "driver: poll failed, errno " << errno);
    return;
  }
  const auto now = Clock::now();
  for (std::size_t c = 0; c < count; ++c) {
    if (fds[c].revents & POLLOUT) flush(conns_[c]);
    if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) {
      const framing::ReadStatus status = framing::read_some(conns_[c].fd, conns_[c].decoder);
      FG_CHECK(status != framing::ReadStatus::kEof, "driver: server closed a connection");
      while (conns_[c].decoder.next(payload_)) {
        FG_CHECK(!conns_[c].pending.empty(), "driver: answer with no request in flight");
        on_frame(c, now);
      }
    }
  }
}

bool OpenLoopDriver::take_generate_answer(PhaseResult& r, std::uint64_t first, std::uint64_t slot,
                                          const std::vector<std::uint8_t>& payload,
                                          Clock::time_point from, Clock::time_point now) {
  if (state_[slot] != 0) return false;  // given up as lost in an earlier phase
  state_[slot] = 1;
  switch (serve::peek_type(payload)) {
    case serve::MessageType::kGenerateOk: {
      const serve::GenerateResponse response = serve::decode_generate_response(payload);
      hashes_[slot] = voltages_hash(response.voltages);
      r.latency_ms[slot - first] = ms_between(from, now);
      ++r.ok;
      break;
    }
    case serve::MessageType::kOverloaded: ++r.shed; break;
    case serve::MessageType::kRateLimited: ++r.rate_limited; break;
    default: ++r.errors; break;
  }
  return true;
}

void OpenLoopDriver::end_phase(PhaseResult& r, std::uint64_t first, std::uint64_t total,
                               Clock::time_point t0, Clock::time_point last_answer) {
  // Whatever is still unanswered counts as lost (and so as failed).
  for (std::uint64_t k = 0; k < total; ++k) {
    if (state_[first + k] == 0) {
      state_[first + k] = 2;
      ++r.lost;
    }
  }
  next_index_ = first + total;
  r.sent = static_cast<long long>(total);
  r.elapsed_s = std::chrono::duration<double>(last_answer - t0).count();
  const std::size_t quarter = r.latency_ms.size() / 4;
  if (quarter > 0) {
    r.first_quarter_p50_ms = quantile(
        std::vector<double>(r.latency_ms.begin(), r.latency_ms.begin() + quarter), 0.5);
    r.last_quarter_p50_ms =
        quantile(std::vector<double>(r.latency_ms.end() - quarter, r.latency_ms.end()), 0.5);
  }
}

PhaseResult OpenLoopDriver::run_phase(double rps, double seconds, double drain_s,
                                      std::vector<ThresholdCall>* plan, std::size_t* next_call) {
  PhaseResult r;
  r.rps = rps;
  r.seconds = seconds;
  const auto total = static_cast<std::uint64_t>(std::llround(rps * seconds));
  const std::uint64_t first = begin_phase(r, total);

  serve::ThresholdQuery query;
  query.model = threshold_model_;
  const bool thresholds = has_threshold_ && plan != nullptr && next_call != nullptr;
  Clock::time_point call_sent{};

  const auto t0 = Clock::now();
  const auto due = [&](std::uint64_t k) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(k) / rps));
  };
  const auto schedule_end = due(total);
  const auto deadline =
      schedule_end + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(drain_s));
  std::uint64_t sent = 0;
  std::uint64_t outstanding = 0;
  bool call_in_flight = false;
  auto last_answer = t0;

  const auto on_frame = [&](std::size_t c, const Clock::time_point now) {
    Conn& conn = conns_[c];
    const std::uint64_t slot = conn.pending.front();
    conn.pending.pop_front();
    if (c == gen_conns_) {  // threshold connection
      ThresholdCall& call = (*plan)[slot];
      if (call.answered) return;  // abandoned by an earlier phase's drain
      call_in_flight = false;
      call.answered = true;
      call.latency_ms = ms_between(call_sent, now);
      if (serve::peek_type(payload_) == serve::MessageType::kThresholdOk) {
        call.response = serve::decode_threshold_response(payload_);
      } else {
        call.latency_ms = kFailedMs;  // the caller counts failed calls
      }
      return;
    }
    if (!take_generate_answer(r, first, slot, payload_, due(slot - first), now)) return;
    --outstanding;
    last_answer = now;
  };

  for (;;) {
    auto now = Clock::now();
    // Inject every request whose scheduled time has come, on schedule no
    // matter how the server is doing: the open-loop contract.
    while (sent < total && due(sent) <= now) {
      const std::uint64_t index = first + sent;
      send_generate(conns_[index % gen_conns_], index);
      r.late_ms.push_back(ms_between(due(sent), Clock::now()));
      ++sent;
      ++outstanding;
    }
    // Closed-loop threshold client: next query as soon as the last returned,
    // for as long as generate traffic is being injected.
    if (thresholds && !call_in_flight && sent < total && *next_call < plan->size()) {
      const ThresholdCall& call = (*plan)[*next_call];
      query.pe_cycles = call.pe_cycles;
      query.retention_hours = call.retention_hours;
      Conn& conn = conns_[gen_conns_];
      const std::vector<std::uint8_t> frame =
          framing::encode_frame(serve::encode_threshold_query(query));
      conn.outbuf.insert(conn.outbuf.end(), frame.begin(), frame.end());
      conn.pending.push_back(*next_call);
      ++*next_call;
      call_in_flight = true;
      call_sent = Clock::now();
      flush(conn);
    }
    now = Clock::now();
    if (sent == total && outstanding == 0 && !call_in_flight) break;
    if (sent == total && now >= deadline) break;
    poll_answers(conns_.size(), sent < total ? due(sent) - now : deadline - now, on_frame);
  }

  if (call_in_flight) {  // given up: the caller counts it as failed
    ThresholdCall& call = (*plan)[*next_call - 1];
    call.answered = true;
    call.latency_ms = kFailedMs;
  }
  end_phase(r, first, total, t0, last_answer);
  return r;
}

PhaseResult OpenLoopDriver::run_closed(std::uint64_t total, int window, double timeout_s) {
  PhaseResult r;
  const std::uint64_t first = begin_phase(r, total);
  std::vector<Clock::time_point> sent_at(total);
  std::uint64_t sent = 0;
  std::uint64_t outstanding = 0;
  const auto send_next = [&](std::size_t c) {
    sent_at[sent] = Clock::now();
    send_generate(conns_[c], first + sent);
    r.late_ms.push_back(0.0);
    ++sent;
    ++outstanding;
  };

  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(timeout_s));
  auto last_answer = t0;
  for (int w = 0; w < window; ++w)
    for (std::size_t c = 0; c < gen_conns_ && sent < total; ++c) send_next(c);

  const auto on_frame = [&](std::size_t c, const Clock::time_point now) {
    const std::uint64_t slot = conns_[c].pending.front();
    conns_[c].pending.pop_front();
    if (slot < first) return;  // given up as lost in an earlier phase
    if (!take_generate_answer(r, first, slot, payload_, sent_at[slot - first], now)) return;
    --outstanding;
    last_answer = now;
    if (sent < total) send_next(c);
  };
  for (;;) {
    const auto now = Clock::now();
    if (outstanding == 0 || now >= deadline) break;
    poll_answers(gen_conns_, deadline - now, on_frame);
  }
  end_phase(r, first, total, t0, last_answer);
  r.seconds = r.elapsed_s;
  return r;
}

}  // namespace flashbench
