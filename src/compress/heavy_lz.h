// HEAVY codec: LZ77 + adaptive range coding (LZMA analogue).
//
// Level 3 of the ladder. Deep hash-chain match finding over the whole
// block plus range-coded literals/lengths/distances give a distinctly
// better ratio than the byte-aligned LIGHT/MEDIUM formats at roughly an
// order of magnitude lower speed — the same trade QuickLZ vs LZMA offers
// in the paper.
//
// Stream layout per block: 1 marker byte (0 = range-coded, 1 = stored raw,
// used when entropy coding cannot beat the input) followed by either the
// range-coder stream or the raw bytes. All probability models reset per
// block, keeping blocks self-contained.
#pragma once

#include "compress/codec.h"

namespace strato::compress {

/// Level 3, HEAVY: see file comment.
class HeavyLz final : public Codec {
 public:
  [[nodiscard]] std::uint8_t id() const override { return kCodecHeavyLz; }
  [[nodiscard]] std::string name() const override { return "heavylz"; }
  [[nodiscard]] std::size_t max_compressed_size(std::size_t n) const override {
    return n + 16;
  }
  std::size_t compress(common::ByteSpan src,
                       common::MutableByteSpan dst) const override;
  std::size_t decompress(common::ByteSpan src,
                         common::MutableByteSpan dst) const override;
  using Codec::compress;
  using Codec::decompress;
};

}  // namespace strato::compress
