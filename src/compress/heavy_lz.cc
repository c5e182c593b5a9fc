#include "compress/heavy_lz.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <vector>

#include "common/simd.h"
#include "compress/lz_common.h"
#include "compress/range_coder.h"

namespace strato::compress {
namespace {

namespace simd = common::simd;

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxLen = 259;        // kMinMatch + 255 (8-bit tree)
constexpr std::size_t kMaxDist = (1u << 24) - 1;
constexpr int kHashBits = 17;
constexpr int kChainDepth = 96;
// Stop the chain walk once a match this long is found: the serial
// prev-pointer chase is the dominant encode cost, and a 128-byte match is
// almost never displaced by a longer one further down the chain.
constexpr std::size_t kNiceLen = 96;

constexpr std::uint8_t kMarkerCoded = 0;
constexpr std::uint8_t kMarkerStored = 1;

inline std::uint32_t hash32(std::uint32_t v) {
  return detail::lz_hash32(v, kHashBits);
}

/// The per-block adaptive model set. Reset per block (self-contained).
struct Models {
  BitModel is_match[2];     // context: previous symbol was a match
  BitTree<8> literal[8];    // context: previous byte >> 5
  BitTree<8> length;        // match length - kMinMatch
  BitTree<5> dist_nbits;    // bit-width of distance, minus one
};

void encode_distance(RangeEncoder& enc, Models& m, std::uint32_t dist) {
  const int nbits = std::bit_width(dist);  // dist >= 1 -> nbits >= 1
  m.dist_nbits.encode(enc, static_cast<std::uint32_t>(nbits - 1));
  if (nbits > 1) {
    // Low bits after the implicit leading one.
    enc.encode_direct(dist & ((1u << (nbits - 1)) - 1u), nbits - 1);
  }
}

std::uint32_t decode_distance(RangeDecoder& dec, Models& m) {
  const int nbits = static_cast<int>(m.dist_nbits.decode(dec)) + 1;
  std::uint32_t dist = 1u << (nbits - 1);
  if (nbits > 1) dist |= dec.decode_direct(nbits - 1);
  return dist;
}

struct Match {
  std::size_t len = 0;
  std::size_t dist = 0;
};

/// Deep hash-chain match finder over the whole block. Chain arrays come
/// from the per-thread MatchScratch (no allocation per block); the prefix
/// scan is the dispatched simd match_length kernel instead of
/// byte-at-a-time, which is where the deep-chain HEAVY search spends most
/// of its time.
class ChainFinder {
 public:
  ChainFinder(common::ByteSpan src, detail::MatchScratch& scratch,
              const simd::Kernels& kernels)
      : src_(src.data()), n_(src.size()), scratch_(scratch),
        kernels_(kernels) {
    scratch_.prepare(kHashBits, src.size());
  }

  Match find(std::size_t i) const {
    Match best;
    if (i + kMinMatch > n_) return best;
    const std::uint8_t* limit = src_ + n_;
    // i + kMinMatch <= n_ makes the 4-byte loads below safe (c < i).
    const std::uint32_t cur = common::load_u32(src_ + i);
    std::uint32_t cand = scratch_.head[hash32(cur)];
    int depth = kChainDepth;
    while (cand != detail::kLzNoPos && depth-- > 0) {
      const std::size_t c = cand;
      if (i - c > kMaxDist) break;
      // Cheap rejects before the full prefix scan: a candidate must
      // match at offset best.len to beat the best (exact — a mismatch
      // there caps its prefix at best.len) and must match the first four
      // bytes to reach kMinMatch at all. The best.len probe stays
      // in-bounds because the loop exits once best spans to the block
      // end.
      if (src_[c + best.len] == src_[i + best.len] &&
          common::load_u32(src_ + c) == cur) {
        const std::size_t len =
            kernels_.match_length(src_ + i, src_ + c, limit);
        if (len > best.len) {
          best.len = len;
          best.dist = i - c;
          if (len >= kNiceLen) break;  // long enough, stop searching
          if (i + len >= n_) break;    // spans to block end; unbeatable
        }
      }
      cand = scratch_.prev[c];
    }
    best.len = std::min(best.len, kMaxLen);
    return best;
  }

  void insert(std::size_t i) {
    if (i + kMinMatch > n_) return;
    const std::uint32_t h = hash32(load_tail(i));
    scratch_.prev[i] = scratch_.head[h];
    scratch_.head[h] = static_cast<std::uint32_t>(i);
  }

  /// insert() for every position in [begin, end), bulk-hashing the run in
  /// one kernel pass. Positions within kMinMatch - 1 of the block end are
  /// skipped exactly as insert() skips them.
  void insert_range(std::size_t begin, std::size_t end) {
    const std::size_t cap = n_ >= kMinMatch ? n_ - (kMinMatch - 1) : 0;
    end = std::min(end, cap);
    if (end <= begin) return;
    const std::size_t count = end - begin;
    if (count < 16) {
      // Bulk staging doesn't pay for itself on short runs.
      for (std::size_t j = begin; j < end; ++j) insert(j);
      return;
    }
    auto& tmp = scratch_.hash_tmp;
    if (tmp.size() < count) tmp.resize(count);
    kernels_.hash4_bulk(src_ + begin, count, kHashBits, tmp.data());
    for (std::size_t j = 0; j < count; ++j) {
      // Staged hashes expose the head-table indices ahead of time;
      // prefetch hides the random-index line fetch.
      if (j + 8 < count) __builtin_prefetch(&scratch_.head[tmp[j + 8]]);
      const std::uint32_t h = tmp[j];
      scratch_.prev[begin + j] = scratch_.head[h];
      scratch_.head[h] = static_cast<std::uint32_t>(begin + j);
    }
  }

 private:
  /// 4-byte load that is safe near the end of the block.
  std::uint32_t load_tail(std::size_t i) const {
    if (i + 4 <= n_) return common::load_u32(src_ + i);
    std::uint32_t v = 0;
    std::memcpy(&v, src_ + i, n_ - i);
    return v;
  }

  const std::uint8_t* src_;
  std::size_t n_;
  detail::MatchScratch& scratch_;
  const simd::Kernels& kernels_;
};

/// The HEAVY symbol loop: take the finder's match at i (len < kMinMatch
/// means literal) and register every consumed position in the chains.
void encode_symbols(common::ByteSpan src, RangeEncoder& enc, Models& models,
                    ChainFinder& finder) {
  std::size_t i = 0;
  std::uint32_t prev_byte = 0;
  std::uint32_t last_was_match = 0;
  while (i < src.size()) {
    const Match m = finder.find(i);
    if (m.len >= kMinMatch) {
      enc.encode_bit(models.is_match[last_was_match], 1);
      models.length.encode(enc, static_cast<std::uint32_t>(m.len - kMinMatch));
      encode_distance(enc, models, static_cast<std::uint32_t>(m.dist));
      finder.insert_range(i, i + m.len);
      i += m.len;
      prev_byte = src[i - 1];
      last_was_match = 1;
    } else {
      enc.encode_bit(models.is_match[last_was_match], 0);
      models.literal[prev_byte >> 5].encode(enc, src[i]);
      finder.insert(i);
      prev_byte = src[i];
      ++i;
      last_was_match = 0;
    }
  }
}

}  // namespace

std::size_t HeavyLz::compress(common::ByteSpan src,
                              common::MutableByteSpan dst) const {
  if (dst.size() < max_compressed_size(src.size())) {
    throw CodecError("heavylz: destination too small");
  }
  if (src.empty()) {
    dst[0] = kMarkerStored;
    return 1;
  }

  RangeEncoder enc;
  auto models = std::make_unique<Models>();
  ChainFinder finder(src, detail::match_scratch(), simd::kernels());
  encode_symbols(src, enc, *models, finder);
  enc.finish();

  const common::Bytes& coded = enc.bytes();
  if (coded.size() + 1 >= src.size()) {
    // Entropy coding lost; store raw (keeps the worst-case bound tight).
    dst[0] = kMarkerStored;
    if (!src.empty()) std::memcpy(dst.data() + 1, src.data(), src.size());
    return src.size() + 1;
  }
  dst[0] = kMarkerCoded;
  std::memcpy(dst.data() + 1, coded.data(), coded.size());
  return coded.size() + 1;
}

std::size_t HeavyLz::decompress(common::ByteSpan src,
                                common::MutableByteSpan dst) const {
  if (src.empty()) throw CodecError("heavylz: empty input");
  const std::uint8_t marker = src[0];
  common::ByteSpan body = src.subspan(1);
  if (marker == kMarkerStored) {
    if (body.size() != dst.size()) {
      throw CodecError("heavylz: stored size mismatch");
    }
    if (!body.empty()) std::memcpy(dst.data(), body.data(), body.size());
    return dst.size();
  }
  if (marker != kMarkerCoded) throw CodecError("heavylz: bad marker");
  if (dst.empty()) return 0;

  RangeDecoder dec(body);
  auto models = std::make_unique<Models>();
  const simd::Kernels& kernels = simd::kernels();
  std::uint8_t* out = dst.data();
  std::uint8_t* const out_end = out + dst.size();
  std::uint32_t prev_byte = 0;
  std::uint32_t last_was_match = 0;

  while (out < out_end) {
    if (dec.decode_bit(models->is_match[last_was_match])) {
      const std::size_t len = models->length.decode(dec) + kMinMatch;
      const std::size_t dist = decode_distance(dec, *models);
      if (dist > static_cast<std::size_t>(out - dst.data())) {
        throw CodecError("heavylz: distance before block start");
      }
      if (len > static_cast<std::size_t>(out_end - out)) {
        throw CodecError("heavylz: match overrun");
      }
      // Overlap-correct for any dist >= 1; exact copy within kWildCopyPad
      // of the block end (decode buffers are exact-size).
      kernels.copy_match(out, dist, len, out_end);
      out += len;
      prev_byte = out[-1];
      last_was_match = 1;
    } else {
      *out = static_cast<std::uint8_t>(
          models->literal[prev_byte >> 5].decode(dec));
      prev_byte = *out;
      ++out;
      last_was_match = 0;
    }
  }
  return dst.size();
}

}  // namespace strato::compress
