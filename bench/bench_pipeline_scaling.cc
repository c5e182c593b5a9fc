// Parallel-pipeline scaling: compression throughput vs worker count for the
// paper's three corpus compressibilities, plus a serial-vs-parallel wire
// identity check. Emits one JSON object on stdout and mirrors it to the
// file named by argv[1] (the committed BENCH_pipeline.json trajectory —
// see scripts/check_bench.sh).
//
// Acceptance target: >= 2.5x at 4 workers vs 1 on the low-entropy (HIGH
// compressibility) corpus — only demonstrable on a machine with >= 4
// hardware threads; `hardware_concurrency` is reported so harnesses can
// gate on it. `corpus_seed`, `blocks` and `ratio` are deterministic and
// must reproduce exactly between runs; the timing fields (the median of
// kTimedRuns runs after a warm-up) carry a tolerance band.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/bytes.h"
#include "compress/framing.h"
#include "compress/pipeline.h"
#include "compress/registry.h"
#include "corpus/generator.h"

namespace {

using strato::bench::appendf;
using strato::common::Bytes;
using strato::compress::CodecRegistry;
using strato::compress::ParallelBlockPipeline;
using strato::compress::PipelineConfig;

constexpr std::size_t kBlockSize = 128 * 1024;
constexpr int kLevel = 2;  // MEDIUM: enough codec work for scaling to show
constexpr std::uint64_t kCorpusSeed = 1234;
constexpr int kTimedRuns = 5;  // per row, after one warm-up; odd for a median

std::vector<Bytes> make_corpus(strato::corpus::Compressibility c,
                               std::size_t total_bytes) {
  auto gen = strato::corpus::make_generator(c, kCorpusSeed);
  std::vector<Bytes> blocks;
  for (std::size_t done = 0; done < total_bytes; done += kBlockSize) {
    blocks.push_back(strato::corpus::take(*gen, kBlockSize));
  }
  return blocks;
}

struct RunResult {
  double secs = -1.0;
  std::size_t wire_bytes = 0;
};

RunResult run_once(const CodecRegistry& registry,
                   const std::vector<Bytes>& blocks, std::size_t workers) {
  RunResult r;
  ParallelBlockPipeline pipeline(
      registry, PipelineConfig{workers, /*depth=*/0},
      [&](strato::common::ByteSpan frame, std::size_t, int) {
        r.wire_bytes += frame.size();
      });
  const auto start = std::chrono::steady_clock::now();
  for (const auto& b : blocks) pipeline.submit(kLevel, b);
  pipeline.flush();
  const auto end = std::chrono::steady_clock::now();
  if (r.wire_bytes == 0) return r;  // keep the sink observable
  r.secs = std::chrono::duration<double>(end - start).count();
  return r;
}

/// Parallel frames must be byte-identical to the serial encoder's at every
/// codec level; any mismatch is a correctness bug, not a perf detail.
bool identity_check(const CodecRegistry& registry) {
  auto gen = strato::corpus::make_generator(
      strato::corpus::Compressibility::kModerate, 99);
  std::vector<Bytes> blocks;
  for (int i = 0; i < 6; ++i) {
    blocks.push_back(strato::corpus::take(*gen, 32 * 1024));
  }
  for (int level = 1; level < static_cast<int>(registry.level_count());
       ++level) {
    std::vector<Bytes> serial;
    for (const auto& b : blocks) {
      serial.push_back(strato::compress::encode_block(
          *registry.level(static_cast<std::size_t>(level)).codec,
          static_cast<std::uint8_t>(level), b));
    }
    std::vector<Bytes> parallel;
    ParallelBlockPipeline pipeline(
        registry, PipelineConfig{4, 0},
        [&](strato::common::ByteSpan frame, std::size_t, int) {
          parallel.emplace_back(frame.begin(), frame.end());
        });
    for (const auto& b : blocks) pipeline.submit(level, b);
    pipeline.flush();
    if (parallel != serial) {
      std::fprintf(stderr, "identity FAILED at level %d\n", level);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const CodecRegistry& registry = CodecRegistry::standard();
  if (!identity_check(registry)) return 1;

  const std::size_t total = 16ull * 1024 * 1024;
  const strato::corpus::Compressibility corpora[] = {
      strato::corpus::Compressibility::kHigh,
      strato::corpus::Compressibility::kModerate,
      strato::corpus::Compressibility::kLow};
  const std::size_t worker_counts[] = {1, 2, 4, 8};

  std::string json;
  appendf(json, "{\n  \"bench\": \"pipeline_scaling\",\n");
  appendf(json, "  \"block_size\": %zu,\n  \"level\": %d,\n", kBlockSize,
          kLevel);
  appendf(json, "  \"corpus_seed\": %llu,\n",
          static_cast<unsigned long long>(kCorpusSeed));
  appendf(json, "  \"total_mib\": %.0f,\n",
          static_cast<double>(total) / (1024.0 * 1024.0));
  appendf(json, "  \"hardware_concurrency\": %u,\n",
          std::thread::hardware_concurrency());
  appendf(json, "  \"identity_check\": \"pass\",\n");
  appendf(json, "  \"results\": [\n");

  bool first = true;
  for (const auto c : corpora) {
    const auto blocks = make_corpus(c, total);
    const double raw = static_cast<double>(blocks.size() * kBlockSize);
    const double mib = raw / (1024.0 * 1024.0);
    double base = -1.0;
    for (const std::size_t workers : worker_counts) {
      run_once(registry, blocks, workers);  // warm-up (pools, page faults)
      // One timed run swings with the host (the first of a sequence read
      // less than half the later ones); each row is the median of several.
      std::vector<double> secs;
      RunResult r;
      for (int i = 0; i < kTimedRuns; ++i) {
        r = run_once(registry, blocks, workers);
        secs.push_back(r.secs);
      }
      std::sort(secs.begin(), secs.end());
      r.secs = secs[secs.size() / 2];
      if (workers == 1) base = r.secs;
      if (!first) appendf(json, ",\n");
      first = false;
      appendf(json,
              "    {\"corpus\": \"%s\", \"workers\": %zu, \"blocks\": %zu, "
              "\"ratio\": %.4f, \"seconds\": %.4f, \"mib_per_s\": %.1f, "
              "\"speedup_vs_1\": %.2f}",
              strato::corpus::to_string(c), workers, blocks.size(),
              static_cast<double>(r.wire_bytes) / raw, r.secs, mib / r.secs,
              base / r.secs);
    }
  }
  appendf(json, "\n  ]\n}\n");
  return strato::bench::write_output(json, argc, argv);
}
