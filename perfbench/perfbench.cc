// End-to-end benchmark harness for strato's two user-facing paths:
//
//   * the socket path — application blocks in, verified blocks delivered,
//     over real loopback TCP through core::AsyncTransport;
//   * the fleet — flows in, completions out, through vsim::FleetEngine.
//
// One process runs one workload (see NOTES.md for why each exists):
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Inputs are generated from --seed before any timer starts: a pool of
// distinct blocks (64 MiB by default, larger than any per-core cache)
// that the timed path cycles through. Each socket round moves the whole
// pool once over a freshly set-up connection; the sink only copies each
// delivered block into a pre-faulted arena, and the XXH64 check against
// the pre-computed digests runs after the round's timer stops. Rounds
// repeat until --seconds of timed wall clock has accumulated, and every
// timing is the median over rounds.
//
// --trace 1 alternates untraced and traced rounds. Traced rounds time the
// calls into each layer's public functions from outside (no program
// change), then each codec layer is timed alone on the same inputs.
//
// The last stdout line is one JSON object: correct/attempted/failed,
// `metrics` (name -> {value, unit}) and `diagnostics` (host-speed loop,
// round counts) that run.py re-emits. Exit status is 1 when any
// operation failed.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/checksum.h"
#include "common/stats.h"
#include "compress/decode_pipeline.h"
#include "compress/framing.h"
#include "compress/pipeline.h"
#include "compress/registry.h"
#include "core/tcp.h"
#include "core/transport.h"
#include "corpus/generator.h"
#include "metrics/registry.h"
#include "vsim/bgtraffic.h"
#include "vsim/fleet.h"
#include "vsim/topology.h"

namespace {

using strato::common::Bytes;
using strato::common::ByteSpan;
using strato::common::Sample;
using strato::compress::CodecRegistry;
using strato::compress::FrameHeader;
using strato::core::AsyncReceiver;
using strato::core::AsyncSender;
using strato::core::AsyncTransport;
using strato::core::TcpConnection;
using strato::core::TcpListener;

constexpr double kMiB = 1024.0 * 1024.0;
/// fnv1a(FleetMetrics::to_json()) of the 1,002,189-flow shape at seed
/// 424242 — the digest BENCH_fleet.json commits.
constexpr const char* kFleetDigest = "e187714a909383e5";
constexpr std::uint64_t kFleetSeed = 424242;
/// Minimum wall time each codec layer is timed alone in a traced run.
constexpr double kLayerSeconds = 0.5;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The number in one "Key:   123" field of /proc/self/status.
double proc_status_field(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0 && line.size() > klen &&
        line[klen] == ':') {
      return std::strtod(line.c_str() + klen + 1, nullptr);
    }
  }
  throw std::runtime_error(std::string("no ") + key + " in /proc/self/status");
}

/// One "Key:   123 kB" field of /proc/self/status, in bytes.
double proc_status_bytes(const char* key) {
  return proc_status_field(key) * 1024.0;
}

/// Wait until only the main thread is listed. A joined thread can stay
/// listed for a moment; run.py samples the thread count at any instant,
/// so the next phase must not start its threads beside the last one's.
void settle_threads() {
  const double deadline = wall_now() + 2.0;
  while (proc_status_field("Threads") > 1) {
    if (wall_now() > deadline) {
      throw std::runtime_error("threads still running after a round");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

/// Reset VmHWM to the current RSS, so the next peak reading excludes the
/// harness's own input buffers. Returns the new baseline in bytes.
double reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) throw std::runtime_error("cannot reset VmHWM via clear_refs");
  return proc_status_bytes("VmRSS");
}

volatile std::uint64_t g_loop_sink = 0;

/// Host-speed diagnostic: a fixed, harness-local integer loop (no program
/// code), in milliseconds. Recorded beside the metrics, never gated.
double host_loop_ms() {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const double t0 = wall_now();
  for (int i = 0; i < (1 << 25); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double ms = (wall_now() - t0) * 1e3;
  g_loop_sink = x;  // keeps the loop from being optimised away
  return ms;
}

/// Second host diagnostic: nanoseconds per dependent load of a pointer
/// chase over 64 MiB — the shared last-level cache and memory that an
/// integer loop does not see. Harness-local, never gated.
double host_chase_ns() {
  constexpr std::size_t kSlots = (64u << 20) / sizeof(std::uint32_t);
  constexpr std::size_t kSteps = 1u << 21;
  std::vector<std::uint32_t> next(kSlots);
  // Sattolo's shuffle: one cycle through every slot.
  for (std::size_t i = 0; i < kSlots; ++i) {
    next[i] = static_cast<std::uint32_t>(i);
  }
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  std::uint32_t at = 0;
  const double t0 = wall_now();
  for (std::size_t i = 0; i < kSteps; ++i) at = next[at];
  const double ns = (wall_now() - t0) * 1e9 / kSteps;
  g_loop_sink = at;
  return ns;
}

/// Host diagnostic: the (steal, total) jiffies of /proc/stat's "cpu"
/// line. Steal is time the hypervisor ran something else on this VM's
/// CPUs — the usual cause of a slow host period.
std::pair<double, double> host_steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double v = 0, steal = 0, total = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

double median(const Sample& s) { return s.quantile(0.5); }

// ---------------------------------------------------------------------------
// Report

/// Every metric the harness reports, with its unit: the end-to-end
/// metrics first, then the per-layer ones. run.py checks each run's names
/// and units against BENCHMARK.json.
struct MetricSpec {
  const char* name;
  const char* unit;
};
constexpr MetricSpec kMetrics[] = {
    {"goodput_mib_s", "MiB/s"},
    {"cpu_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"setup_s", "s"},
    {"wire_ratio", "ratio"},
    // per layer
    {"compress.codec_encode_mib_s", "MiB/s"},
    {"compress.encode_alone_mib_s", "MiB/s"},
    {"compress.codec_decode_mib_s", "MiB/s"},
    {"compress.decode_alone_mib_s", "MiB/s"},
    {"compress.e2e_over_alone", "ratio"},
    {"compress.frame_overhead_bytes", "bytes"},
    {"core.send_s", "s"},
    {"core.send_calls", "count"},
    {"core.poll_s", "s"},
    {"core.poll_events", "count"},
    {"core.finish_s", "s"},
    {"core.drain_s", "s"},
    {"core.sendmsg_calls", "count"},
    {"core.tx_backpressure", "count"},
    {"core.rx_backpressure", "count"},
    {"core.deliver_gap_p50_us", "us"},
    {"core.deliver_gap_p99_us", "us"},
    {"core.block_latency_p50_ms", "ms"},
    {"core.block_latency_p99_ms", "ms"},
    {"core.block_latency_samples", "count"},
    {"vsim.epochs", "count"},
    {"vsim.flows_completed", "count"},
    {"vsim.epoch_us", "us"},
    {"vsim.sim_s_per_wall_s", "s/s"},
    {"vsim.kflows_per_s", "kflows/s"},
    {"vsim.level_share.NO", "ratio"},
    {"vsim.level_share.LIGHT", "ratio"},
    {"vsim.level_share.MEDIUM", "ratio"},
    {"vsim.level_share.HEAVY", "ratio"},
    {"trace.overhead_pct", "%"},
};
constexpr std::size_t kEndToEndCount = 5;

class Report {
 public:
  /// Per-layer mode: every per-layer metric starts at 0, the reading of a
  /// layer that does no work in the workload.
  void zero_per_layer() {
    for (std::size_t i = kEndToEndCount; i < std::size(kMetrics); ++i) {
      set(kMetrics[i].name, 0.0);
    }
  }
  void set(const std::string& name, double value) {
    const auto spec = std::find_if(
        std::begin(kMetrics), std::end(kMetrics),
        [&](const MetricSpec& m) { return name == m.name; });
    if (spec == std::end(kMetrics)) {
      throw std::logic_error("unlisted metric " + name);
    }
    if (!std::isfinite(value)) value = 0.0;
    for (auto& [n, v] : metrics_) {
      if (n == spec) {
        v = value;
        return;
      }
    }
    metrics_.emplace_back(spec, value);
  }
  void diag(std::string name, double value) {
    diagnostics_.emplace_back(std::move(name), number(value));
  }
  void diag(std::string name, const std::string& text) {
    diagnostics_.emplace_back(std::move(name), "\"" + text + "\"");
  }
  void attempt(std::uint64_t n) { attempted_ += n; }
  void fail(std::uint64_t n) { failed_ += n; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  [[nodiscard]] std::string json() const {
    std::string out = "{\"correct\": ";
    out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      out += std::string(i ? ", \"" : "\"") + metrics_[i].first->name +
             "\": {\"value\": " + number(metrics_[i].second) +
             ", \"unit\": \"" + metrics_[i].first->unit + "\"}";
    }
    out += "}, \"diagnostics\": {";
    for (std::size_t i = 0; i < diagnostics_.size(); ++i) {
      out += (i ? ", \"" : "\"") + diagnostics_[i].first +
             "\": " + diagnostics_[i].second;
    }
    out += "}}";
    return out;
  }

 private:
  static std::string number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  std::vector<std::pair<const MetricSpec*, double>> metrics_;
  std::vector<std::pair<std::string, std::string>> diagnostics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The end-to-end metrics, as every workload reports them.
void report_end_to_end(Report& rep, double goodput_mib_s, double cpu_s,
                       double peak_rss_bytes, double setup_s,
                       double wire_ratio) {
  rep.set("goodput_mib_s", goodput_mib_s);
  rep.set("cpu_s", cpu_s);
  rep.set("peak_rss_mib", peak_rss_bytes / kMiB);
  rep.set("setup_s", setup_s);
  rep.set("wire_ratio", wire_ratio);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t pool_mib = 64;
  std::uint64_t fleet_flows = 1'000'000;
  std::string expect_digest = kFleetDigest;
  bool corrupt_digest = false;  // self-test: one wrong block digest
  bool setup_only = false;      // time the set-ups, report setup_s only
};

/// Set-ups timed per process for setup_s. One takes well under a
/// millisecond, so the median of many is what holds still.
constexpr int kSetups = 41;

/// The --setup-only result: the median of this process's set-ups.
int report_setup_only(Report& rep, const Sample& setup) {
  rep.attempt(kSetups);
  rep.set("setup_s", median(setup));
  return 0;
}

// ---------------------------------------------------------------------------
// Socket workloads

struct SocketShape {
  const char* name;
  strato::corpus::Compressibility corpus;
  int level;                   // index into CodecRegistry::standard()
  std::size_t block;           // raw block size
  std::size_t encode_workers;  // AsyncSender workers
  std::size_t decode_workers;  // AsyncReceiver workers (<= 1 inline)
};

constexpr SocketShape kSocketMedium = {
    "socket-medium", strato::corpus::Compressibility::kModerate, 2,
    128 * 1024, 3, 1};

/// Pre-generated inputs: `nblocks` distinct blocks and their digests, plus
/// (traced runs) the pool encoded as one contiguous frame stream.
struct Inputs {
  std::size_t block = 0;
  std::size_t nblocks = 0;
  Bytes pool;
  std::vector<std::uint64_t> digest;
  Bytes wire;
  std::vector<std::size_t> frame_end;  // wire offset past frame i

  [[nodiscard]] ByteSpan raw(std::size_t i) const {
    return {pool.data() + i * block, block};
  }
  [[nodiscard]] ByteSpan frame(std::size_t i) const {
    const std::size_t lo = i == 0 ? 0 : frame_end[i - 1];
    return {wire.data() + lo, frame_end[i] - lo};
  }
};

Inputs make_inputs(const SocketShape& shape, const Options& opt) {
  Inputs in;
  in.block = shape.block;
  in.nblocks = opt.pool_mib * 1024 * 1024 / shape.block;
  in.pool.resize(in.nblocks * in.block);
  strato::corpus::make_generator(shape.corpus, opt.seed)
      ->generate({in.pool.data(), in.pool.size()});
  in.digest.reserve(in.nblocks);
  for (std::size_t i = 0; i < in.nblocks; ++i) {
    in.digest.push_back(strato::common::xxh64(in.raw(i)));
  }
  if (opt.corrupt_digest) in.digest[in.nblocks / 2] ^= 1;
  return in;
}

/// The pool encoded as AsyncSender encodes it — compress::
/// ParallelBlockPipeline at `workers` — for at least `min_s` (whole
/// passes). The first pass's frames land in in.wire/in.frame_end.
/// Returns raw MiB/s.
double encode_alone(Inputs& in, const CodecRegistry& registry, int level,
                    std::size_t workers, double min_s) {
  in.wire.clear();
  in.wire.reserve(in.pool.size() + in.nblocks * 64);
  in.frame_end.clear();
  bool capture = true;
  strato::compress::ParallelBlockPipeline pipe(
      registry, strato::compress::PipelineConfig{workers, 0},
      [&](ByteSpan frame, std::size_t, int) {
        if (!capture) return;
        in.wire.insert(in.wire.end(), frame.begin(), frame.end());
        in.frame_end.push_back(in.wire.size());
      });
  const double t0 = wall_now();
  std::size_t passes = 0;
  do {
    for (std::size_t i = 0; i < in.nblocks; ++i) pipe.submit(level, in.raw(i));
    pipe.flush();
    capture = false;
    ++passes;
  } while (wall_now() - t0 < min_s);
  return static_cast<double>(passes * in.pool.size()) / kMiB /
         (wall_now() - t0);
}

/// Single-thread encode_block_into, cycling the pool for `min_s`.
double codec_encode(const Inputs& in, const CodecRegistry& registry, int level,
                    double min_s) {
  const auto& lvl = registry.level(static_cast<std::size_t>(level));
  Bytes frame;
  std::size_t blocks = 0;
  const double t0 = wall_now();
  double t = t0;
  while (t - t0 < min_s) {
    strato::compress::encode_block_into(*lvl.codec,
                                        static_cast<std::uint8_t>(level),
                                        in.raw(blocks % in.nblocks), frame);
    ++blocks;
    t = wall_now();
  }
  return static_cast<double>(blocks * in.block) / kMiB / (t - t0);
}

/// Single-thread decode_frame_into over the pre-encoded frames.
double codec_decode(const Inputs& in, const CodecRegistry& registry,
                    double min_s) {
  Bytes raw;
  std::size_t blocks = 0;
  const double t0 = wall_now();
  double t = t0;
  while (t - t0 < min_s) {
    const auto view =
        strato::compress::try_parse_frame(in.frame(blocks % in.nblocks));
    strato::compress::decode_frame_into(*view, registry, raw);
    ++blocks;
    t = wall_now();
  }
  return static_cast<double>(blocks * in.block) / kMiB / (t - t0);
}

/// compress::ParallelBlockDecodePipeline fed the pre-encoded wire in
/// socket-sized chunks, for at least `min_s` (whole passes).
double decode_alone(const Inputs& in, const CodecRegistry& registry,
                    std::size_t workers, double min_s) {
  constexpr std::size_t kChunk = 128 * 1024;
  strato::compress::ParallelBlockDecodePipeline pipe(
      registry, strato::compress::DecodePipelineConfig{workers, 0, 0});
  std::size_t delivered = 0;
  std::size_t passes = 0;
  const double t0 = wall_now();
  do {
    for (std::size_t off = 0; off < in.wire.size(); off += kChunk) {
      pipe.feed({in.wire.data() + off, std::min(kChunk, in.wire.size() - off)});
      while (pipe.next_block().has_value()) ++delivered;
    }
    ++passes;
    while (delivered < passes * in.nblocks) {
      if (pipe.next_block().has_value()) ++delivered;
    }
  } while (wall_now() - t0 < min_s);
  return static_cast<double>(passes * in.pool.size()) / kMiB /
         (wall_now() - t0);
}

/// Delivery record of one round: the sink copies each block into its
/// arena slot and (traced) stamps the delivery time — nothing else.
struct Arena {
  Bytes bytes;
  std::vector<std::uint32_t> got;    // deliveries per block this round
  std::size_t next = 0;              // deliveries so far this round
  std::vector<double> t_send;        // traced: before send()/write()
  std::vector<double> t_deliver;     // traced: at the sink
  std::uint64_t stray = 0;           // deliveries past the round / bad size

  explicit Arena(const Inputs& in)
      : bytes(in.pool.size(), 0),  // pre-faulted before the RSS baseline
        got(in.nblocks, 0),
        t_send(in.nblocks, 0.0),
        t_deliver(in.nblocks, 0.0) {}

  void reset() {
    std::fill(got.begin(), got.end(), 0);
    next = 0;
    stray = 0;
  }

  void deliver(ByteSpan block, std::size_t block_size, bool traced) {
    const std::size_t idx = next++;
    if (idx >= got.size() || block.size() != block_size) {
      ++stray;
      return;
    }
    std::memcpy(bytes.data() + idx * block_size, block.data(), block.size());
    ++got[idx];
    if (traced) t_deliver[idx] = wall_now();
  }
};

/// Per-layer accumulators over the traced rounds, timed around calls into
/// the layers' public functions.
struct SocketTrace {
  std::size_t rounds = 0;
  double send_s = 0, poll_s = 0, finish_s = 0, drain_s = 0;
  std::uint64_t send_calls = 0, poll_events = 0, sendmsg_calls = 0;
  std::uint64_t tx_backpressure = 0, rx_backpressure = 0;
  Sample latency_ms;
  Sample gap_us;
};

struct RoundResult {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t failed = 0;
};

/// One round over a freshly set-up connection. With `setup_only`, the
/// round is torn down right after its set-up, which is all it times.
RoundResult socket_round(const SocketShape& shape, const Inputs& in,
                         const CodecRegistry& registry, Arena& arena,
                         SocketTrace* trace, bool setup_only = false) {
  RoundResult r;
  const bool traced = trace != nullptr;
  arena.reset();

  // ---- set-up: connection, transport, endpoints, pools.
  const double s0 = wall_now();
  strato::metrics::MetricRegistry reg;
  TcpListener listener;
  AsyncTransport transport(registry, traced ? &reg : nullptr);
  TcpConnection client = TcpConnection::connect("127.0.0.1", listener.port());
  AsyncReceiver::Config rx;
  rx.decode_workers = shape.decode_workers;
  transport.add_receiver(
      listener.accept(), rx,
      [&arena, &in, traced](ByteSpan block, const FrameHeader&) {
        arena.deliver(block, in.block, traced);
      });
  AsyncSender::Config tx;
  tx.workers = shape.encode_workers;
  transport.add_sender(std::move(client), tx);
  r.setup_s = wall_now() - s0;
  if (setup_only) return r;

  // ---- timed region.
  const double c0 = cpu_now();
  const double w0 = wall_now();
  try {
    AsyncSender& sender = transport.sender(0);
    for (std::size_t i = 0; i < in.nblocks; ++i) {
      if (traced) {
        const double t0 = wall_now();
        arena.t_send[i] = t0;
        sender.send(shape.level, in.raw(i));
        const double t1 = wall_now();
        const std::size_t ev = transport.poll(0);
        trace->send_s += t1 - t0;
        trace->poll_s += wall_now() - t1;
        trace->poll_events += ev;
        ++trace->send_calls;
      } else {
        sender.send(shape.level, in.raw(i));
        transport.poll(0);
      }
    }
    const double f0 = wall_now();
    sender.finish();
    const double f1 = wall_now();
    transport.run_receivers();
    if (traced) {
      trace->finish_s += f1 - f0;
      trace->drain_s += wall_now() - f1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: round failed: %s\n", e.what());
    ++r.failed;
  }
  r.wall_s = wall_now() - w0;
  r.cpu_s = cpu_now() - c0;

  // ---- after the timer: verify every block, collect counts.
  for (std::size_t i = 0; i < in.nblocks; ++i) {
    if (arena.got[i] != 1 ||
        strato::common::xxh64({arena.bytes.data() + i * in.block, in.block}) !=
            in.digest[i]) {
      ++r.failed;
    }
  }
  r.failed += arena.stray;
  for (std::size_t c = 0; c < transport.receiver_count(); ++c) {
    const AsyncReceiver& rx = transport.receiver(c);
    if (!rx.clean_eof()) ++r.failed;
    r.raw_bytes += rx.raw_bytes();
    r.wire_bytes += rx.wire_bytes();
  }
  if (traced) {
    ++trace->rounds;
    for (std::size_t c = 0; c < transport.receiver_count(); ++c) {
      trace->rx_backpressure += transport.receiver(c).backpressure_events();
    }
    for (std::size_t c = 0; c < transport.sender_count(); ++c) {
      trace->tx_backpressure += transport.sender(c).backpressure_events();
    }
    trace->sendmsg_calls += reg.counter("tx.sendmsg_calls").value();
    std::vector<double> order;
    order.reserve(in.nblocks);
    for (std::size_t i = 0; i < in.nblocks; ++i) {
      if (arena.got[i] == 0) continue;
      trace->latency_ms.add((arena.t_deliver[i] - arena.t_send[i]) * 1e3);
      order.push_back(arena.t_deliver[i]);
    }
    std::sort(order.begin(), order.end());
    for (std::size_t i = 1; i < order.size(); ++i) {
      trace->gap_us.add((order[i] - order[i - 1]) * 1e6);
    }
  }
  return r;
}

int run_socket(const SocketShape& shape, const Options& opt, Report& rep) {
  const CodecRegistry& registry = CodecRegistry::standard();
  Inputs in = make_inputs(shape, opt);
  Arena arena(in);
  const double rss_base = reset_peak_rss();

  // setup_s: the set-up of a round, timed alone (set up and torn down
  // with no data moved) many times.
  Sample setup, goodput, cpu, goodput_traced;
  for (int i = 0; i < kSetups; ++i) {
    setup.add(socket_round(shape, in, registry, arena, nullptr, true).setup_s);
    settle_threads();
  }
  if (opt.setup_only) return report_setup_only(rep, setup);
  std::uint64_t raw = 0, wire = 0;
  SocketTrace trace;
  double timed = 0;
  std::size_t rounds = 0;
  // A trace needs at least one untraced and one traced round.
  const std::size_t min_rounds = opt.trace ? 2 : 1;
  while (timed < opt.seconds || rounds < min_rounds) {
    const bool traced = opt.trace && rounds % 2 == 1;
    const RoundResult r =
        socket_round(shape, in, registry, arena, traced ? &trace : nullptr);
    settle_threads();
    rep.attempt(in.nblocks);
    rep.fail(r.failed);
    if (r.failed != 0) break;
    timed += r.wall_s;
    ++rounds;
    const double mib_s = static_cast<double>(r.raw_bytes) / kMiB / r.wall_s;
    if (traced) {
      goodput_traced.add(mib_s);
      continue;
    }
    goodput.add(mib_s);
    cpu.add(r.cpu_s);
    raw += r.raw_bytes;
    wire += r.wire_bytes;
  }
  const double peak = proc_status_bytes("VmHWM") - rss_base;
  rep.diag("rounds", static_cast<double>(rounds));
  rep.diag("pool_blocks", static_cast<double>(in.nblocks));
  rep.diag("goodput_round_q1", goodput.quantile(0.25));
  rep.diag("goodput_round_q3", goodput.quantile(0.75));
  if (rep.failed() != 0) return 1;

  if (!opt.trace) {
    report_end_to_end(rep, median(goodput), median(cpu), peak, median(setup),
                      static_cast<double>(wire) / static_cast<double>(raw));
    return 0;
  }

  // ---- per-layer: each codec layer alone on the same inputs, no socket.
  const double enc_alone = encode_alone(in, registry, shape.level,
                                        shape.encode_workers, kLayerSeconds);
  settle_threads();
  const double enc_codec =
      codec_encode(in, registry, shape.level, kLayerSeconds);
  const double dec_codec = codec_decode(in, registry, kLayerSeconds);
  const double dec_alone =
      decode_alone(in, registry, shape.decode_workers, kLayerSeconds);
  double overhead = 0;
  for (std::size_t i = 0; i < in.nblocks; ++i) {
    const ByteSpan f = in.frame(i);
    overhead += static_cast<double>(
        f.size() - strato::compress::parse_header(f).comp_size);
  }
  const double alone = std::min(enc_alone, dec_alone);
  const double e2e = median(goodput);
  const double per_round =
      static_cast<double>(std::max<std::size_t>(trace.rounds, 1));

  rep.zero_per_layer();
  rep.set("compress.codec_encode_mib_s", enc_codec);
  rep.set("compress.encode_alone_mib_s", enc_alone);
  rep.set("compress.codec_decode_mib_s", dec_codec);
  rep.set("compress.decode_alone_mib_s", dec_alone);
  rep.set("compress.e2e_over_alone", e2e / alone);
  rep.set("compress.frame_overhead_bytes",
          overhead / static_cast<double>(in.nblocks));
  rep.set("core.send_s", trace.send_s / per_round);
  rep.set("core.send_calls",
          static_cast<double>(trace.send_calls) / per_round);
  rep.set("core.poll_s", trace.poll_s / per_round);
  rep.set("core.poll_events",
          static_cast<double>(trace.poll_events) / per_round);
  rep.set("core.finish_s", trace.finish_s / per_round);
  rep.set("core.drain_s", trace.drain_s / per_round);
  rep.set("core.sendmsg_calls",
          static_cast<double>(trace.sendmsg_calls) / per_round);
  rep.set("core.tx_backpressure",
          static_cast<double>(trace.tx_backpressure) / per_round);
  rep.set("core.rx_backpressure",
          static_cast<double>(trace.rx_backpressure) / per_round);
  rep.set("core.deliver_gap_p50_us", trace.gap_us.quantile(0.5));
  rep.set("core.deliver_gap_p99_us", trace.gap_us.quantile(0.99));
  rep.set("core.block_latency_p50_ms", trace.latency_ms.quantile(0.5));
  rep.set("core.block_latency_p99_ms", trace.latency_ms.quantile(0.99));
  rep.set("core.block_latency_samples",
          static_cast<double>(trace.latency_ms.count()));
  const double traced_mib_s = median(goodput_traced);
  rep.set("trace.overhead_pct", (e2e - traced_mib_s) / e2e * 100.0);
  return 0;
}

// ---------------------------------------------------------------------------
// fleet-1m

strato::vsim::TenantSpec transfer_tenant(const char* name, double weight,
                                         strato::vsim::TenantPolicy policy,
                                         std::array<double, 3> mix,
                                         double arrival_per_s,
                                         std::uint64_t flow_limit) {
  strato::vsim::TenantSpec t;
  t.name = name;
  t.weight = weight;
  t.share = strato::vsim::ShareMode::kPerTenant;
  t.policy = policy;
  t.arrival_per_s = arrival_per_s;
  t.flow_limit = flow_limit;
  t.max_in_flight = 500;
  t.mean_flow_bytes = 16ull << 20;
  t.min_flow_bytes = 1ull << 20;
  t.class_mix = mix;
  t.wan_fraction = 0.5;
  return t;
}

/// bench_fleet_scale's million-flow shape (1,002,189 flows at 1,000,000
/// transfer flows), rebuilt here so the benchmark depends only on the
/// library's public headers.
strato::vsim::FleetConfig fleet_config(std::uint64_t transfer_flows) {
  using strato::vsim::TenantPolicy;
  strato::vsim::FleetConfig cfg;
  cfg.topology = strato::vsim::Topology::rack_spine_wan(
      strato::vsim::Topology::FleetShape{});
  cfg.seed = kFleetSeed;
  cfg.horizon = strato::common::SimTime::seconds(600);
  cfg.drain_factor = 20.0;
  cfg.expected_flows = transfer_flows + transfer_flows / 16 + 1024;
  const std::uint64_t per_tenant = transfer_flows / 4;
  const double arrival =
      static_cast<double>(per_tenant) / (cfg.horizon.to_seconds() * 0.94);
  cfg.tenants.push_back(transfer_tenant("analytics", 2.0,
                                        TenantPolicy::dynamic(),
                                        {1.0, 0.0, 0.0}, arrival, per_tenant));
  cfg.tenants.push_back(transfer_tenant("web-logs", 1.0,
                                        TenantPolicy::dynamic(),
                                        {0.2, 0.6, 0.2}, arrival, per_tenant));
  cfg.tenants.push_back(transfer_tenant("backup", 1.0, TenantPolicy::fixed(1),
                                        {0.5, 0.5, 0.0}, arrival, per_tenant));
  cfg.tenants.push_back(transfer_tenant("media", 1.0, TenantPolicy::fixed(0),
                                        {0.0, 0.0, 1.0}, arrival, per_tenant));
  strato::vsim::BgTrafficConfig bg;
  bg.arrival_per_s = 4.0;
  bg.mean_holding_s = 30.0;
  bg.initial_flows = 64;
  bg.max_flows = 512;
  strato::vsim::TenantSpec bgt = strato::vsim::background_tenant(bg);
  bgt.flow_limit = transfer_flows / 50;
  cfg.tenants.push_back(bgt);
  return cfg;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

int run_fleet(const Options& opt, Report& rep) {
  const std::uint64_t expect =
      std::strtoull(opt.expect_digest.c_str(), nullptr, 16);

  // Set-up: FleetConfig + FleetEngine construction.
  Sample setup;
  const auto set_up = [&] {
    const double s0 = wall_now();
    auto engine = std::make_unique<strato::vsim::FleetEngine>(
        fleet_config(opt.fleet_flows));
    setup.add(wall_now() - s0);
    return engine;
  };
  for (int i = 0; i < kSetups; ++i) set_up();
  if (opt.setup_only) return report_setup_only(rep, setup);
  const double rss_base = reset_peak_rss();

  // Every run must reproduce the digest, so the first run's metrics stand
  // for all of them; later runs contribute their timings only.
  std::optional<strato::vsim::FleetMetrics> metrics;
  std::vector<double> walls;
  Sample cpu;
  double timed = 0;
  double peak = 0;
  // Whole simulations, as many as bring the timed total nearest to
  // --seconds, so a run overshoots by at most half a simulation (~3.5 s).
  while (walls.empty() || timed + walls.back() / 2 < opt.seconds) {
    const auto engine = set_up();
    const double c0 = cpu_now();
    const double w0 = wall_now();
    strato::vsim::FleetMetrics m = engine->run();
    const double wall = wall_now() - w0;
    cpu.add(cpu_now() - c0);
    // One run's high-water mark, before verification allocates: later
    // runs would add the results this harness keeps from the first.
    if (walls.empty()) peak = proc_status_bytes("VmHWM") - rss_base;
    std::fprintf(stderr, "perfbench: fleet run %zu: %.3f s wall\n",
                 walls.size(), wall);
    walls.push_back(wall);
    timed += wall;

    // After the timer: every flow must complete and the metrics must
    // reproduce the committed digest.
    rep.attempt(m.flows_total);
    std::uint64_t failed = m.flows_total - m.flows_completed;
    const std::uint64_t digest = fnv1a(m.to_json());
    if (digest != expect) {
      std::fprintf(stderr, "perfbench: fleet digest %016" PRIx64
                   " != expected %016" PRIx64 "\n", digest, expect);
      failed = m.flows_total;
    }
    rep.fail(failed);
    if (!metrics.has_value()) {
      char hex[17];
      std::snprintf(hex, sizeof hex, "%016" PRIx64, digest);
      rep.diag("fleet_digest", hex);
      metrics = std::move(m);
    }
    if (failed != 0) return 1;
  }
  rep.diag("rounds", static_cast<double>(walls.size()));

  double raw = 0, wire = 0;
  std::vector<double> level_raw(strato::vsim::CodecModel::kNumLevels, 0.0);
  for (const auto& t : metrics->tenants) {
    raw += t.raw_bytes;
    wire += t.wire_bytes;
    for (std::size_t l = 0; l < level_raw.size(); ++l) {
      level_raw[l] += t.raw_bytes_per_level[l];
    }
  }
  if (!opt.trace) {
    Sample goodput;
    for (const double w : walls) goodput.add(raw / kMiB / w);
    report_end_to_end(rep, median(goodput), median(cpu), peak, median(setup),
                      wire / raw);
    return 0;
  }

  // Everything per-layer here is read from FleetMetrics or timed around
  // the one public call, so tracing adds no work: trace.overhead_pct
  // stays 0, like every layer that does no work in the workload.
  rep.zero_per_layer();
  Sample wall;
  for (const double w : walls) wall.add(w);
  const double run_s = median(wall);
  const auto& m = *metrics;
  rep.set("vsim.epochs", static_cast<double>(m.epochs));
  rep.set("vsim.flows_completed", static_cast<double>(m.flows_completed));
  rep.set("vsim.epoch_us",
          run_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(
                             m.epochs, 1)));
  rep.set("vsim.sim_s_per_wall_s", m.sim_completed_s / run_s);
  rep.set("vsim.kflows_per_s",
          static_cast<double>(m.flows_completed) / 1e3 / run_s);
  const CodecRegistry& reg = CodecRegistry::standard();
  for (std::size_t l = 0; l < level_raw.size(); ++l) {
    rep.set("vsim.level_share." + reg.level(l).label, level_raw[l] / raw);
  }
  return 0;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload socket-medium|fleet-1m"
               " --seed N --seconds S --trace 0|1\n"
               "       [--pool-mib N] [--fleet-flows N] [--expect-digest HEX]"
               " [--corrupt-digest] [--setup-only]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--corrupt-digest") {
      o.corrupt_digest = true;
      continue;
    }
    if (a == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--pool-mib") {
      o.pool_mib = std::strtoull(v, nullptr, 10);
    } else if (a == "--fleet-flows") {
      o.fleet_flows = std::strtoull(v, nullptr, 10);
    } else if (a == "--expect-digest") {
      o.expect_digest = v;
    } else {
      usage();
    }
  }
  if (o.workload.empty() || o.pool_mib == 0) usage();
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Report rep;
  if (!opt.setup_only) {
    rep.diag("host_loop_ms_before", host_loop_ms());
    rep.diag("host_chase_ns_before", host_chase_ns());
  }
  const auto [steal0, total0] = host_steal_jiffies();
  int rc = 2;
  try {
    if (opt.workload == "fleet-1m") {
      rc = run_fleet(opt, rep);
    } else if (opt.workload == kSocketMedium.name) {
      rc = run_socket(kSocketMedium, opt, rep);
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const auto [steal1, total1] = host_steal_jiffies();
  rep.diag("host_steal_pct", total1 > total0 ? (steal1 - steal0) * 100.0 /
                                                   (total1 - total0)
                                             : 0.0);
  if (!opt.setup_only) {
    rep.diag("host_loop_ms_after", host_loop_ms());
    rep.diag("host_chase_ns_after", host_chase_ns());
  }
  std::printf("%s\n", rep.json().c_str());
  return rc == 0 && rep.failed() == 0 ? 0 : 1;
}
