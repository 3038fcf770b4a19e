#include "algorithms/lz4/lz4.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "adapter/abstractions.hpp"
#include "core/bitstream.hpp"
#include "core/error.hpp"

namespace hpdr::lz4 {
namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kHashBits = 15;
constexpr std::size_t kMaxOffset = 65535;
/// Hash-chain probe budget per position. With the 5-byte discovery hash the
/// first candidate is almost always the best one, so two probes recover
/// nearly all of the depth-∞ ratio on scientific data; a deeper budget
/// bought <0.1% ratio for ~35% more encode time in the kernels-bench sweep.
constexpr int kMaxProbes = 2;
/// A match this long ends the chain walk early: the marginal ratio from a
/// still-longer candidate is negligible next to the cost of finding it.
constexpr std::size_t kGoodEnough = 8;
/// Chain-walk probes that fail to improve on the current best before the
/// walk gives up. On dense low-entropy data (quantization symbol streams)
/// nearly every candidate matches the 4-byte prefix but extends no further,
/// so without this cutoff the full probe budget burns on every position.
constexpr int kMaxNoImprove = 1;
/// Positions a match skips are indexed at this stride (not densely): the
/// chain stays useful for later back-references at a fraction of the
/// insertion cost, which would otherwise dominate on long-match data.
constexpr std::size_t kInsertStride = 8;
/// Miss-streak acceleration (LZ4's skip trigger): after 2^kSkipStrength
/// consecutive misses the scan step grows by one, so incompressible input
/// degrades to a strided skim instead of a per-byte crawl.
constexpr std::uint32_t kSkipStrength = 6;

inline std::uint32_t read32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline std::uint32_t hash4(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

inline std::uint64_t read64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// Discovery hash over 5 bytes (low 40 bits of a 64-bit load). Matches are
/// still verified and emitted at the 4-byte format minimum, but indexing on
/// 5 bytes distributes dense 4-byte-periodic data (quantization symbol
/// streams where most u32 words are one of a handful of values) across
/// buckets by the following byte, so the first chain candidate is usually
/// the right one. On the kernels-bench symbol corpus this nearly halves the
/// encoded size versus 4-byte indexing at the same probe budget. The same
/// trick (and multiplier) appears in upstream LZ4's 64-bit mode.
inline std::uint32_t hash5(std::uint64_t v) {
  return static_cast<std::uint32_t>(((v << 24) * 889523592379ULL) >>
                                    (64 - kHashBits));
}

/// Length of the common prefix of [p, limit) and the match candidate at m
/// (m < p). The first word is compared a byte at a time — short extensions
/// (the dense-match case on quantization streams) exit after a compare or
/// two without paying wide loads — then the tail runs a word at a time with
/// countr_zero on the XOR locating the first differing byte (little-endian
/// byte order, as everywhere in this codebase).
inline std::size_t match_length(const std::uint8_t* p, const std::uint8_t* m,
                                const std::uint8_t* limit) {
  const std::uint8_t* start = p;
  const std::uint8_t* cap8 = limit - start >= 8 ? start + 8 : limit;
  while (p < cap8 && *p == *m) {
    ++p;
    ++m;
  }
  if (p < cap8) return static_cast<std::size_t>(p - start);
  while (p + 8 <= limit) {
    std::uint64_t a, b;
    std::memcpy(&a, p, 8);
    std::memcpy(&b, m, 8);
    const std::uint64_t x = a ^ b;
    if (x != 0)
      return static_cast<std::size_t>(p - start) +
             (static_cast<std::size_t>(std::countr_zero(x)) >> 3);
    p += 8;
    m += 8;
  }
  while (p < limit && *p == *m) {
    ++p;
    ++m;
  }
  return static_cast<std::size_t>(p - start);
}

std::size_t get_length(std::span<const std::uint8_t> src, std::size_t& pos,
                       std::size_t base) {
  std::size_t len = base;
  if (base == 15) {
    std::uint8_t b;
    do {
      HPDR_REQUIRE(pos < src.size(), "LZ4 block truncated in length");
      b = src[pos++];
      len += b;
    } while (b == 255);
  }
  return len;
}

}  // namespace

std::vector<std::uint8_t> compress_block(std::span<const std::uint8_t> src) {
  const std::size_t n = src.size();
  // LZ4 worst case (all literals): n + ceil(n/255) + a small constant. The
  // output is written through a raw cursor into this pre-sized buffer and
  // trimmed once at the end — no reallocation or insert() on the hot path.
  std::vector<std::uint8_t> out(n + n / 255 + 32);
  std::uint8_t* op = out.data();
  const std::uint8_t* in = src.data();

  auto put_len = [&op](std::size_t len) {
    while (len >= 255) {
      *op++ = 255;
      len -= 255;
    }
    *op++ = static_cast<std::uint8_t>(len);
  };

  std::size_t anchor = 0;  // first unemitted literal
  std::size_t pos = 0;
  // The final kMinMatch+1 bytes are always literals (mirrors the format's
  // end-of-block conditions and keeps the matcher in bounds).
  const std::size_t match_limit = n > kMinMatch + 1 ? n - kMinMatch - 1 : 0;
  if (match_limit > 0) {
    // Hash-chain match finder: head[] maps a 5-byte discovery hash to the
    // most recent position; chain[] is a ring of 16-bit back-deltas indexed
    // by the low 16 position bits, linking each indexed position to the
    // previous one with the same hash. The two tables total 256 KiB
    // regardless of block size — L2-resident, and (unlike a per-position
    // prev array) free of an O(n) clear per block. Ring slots for skipped
    // positions can be stale; that is safe because every candidate is
    // validated with read32 before use and deltas only ever walk backwards,
    // so a stale link at worst wastes a probe or ends the walk early.
    std::vector<std::int32_t> head(std::size_t{1} << kHashBits, -1);
    std::vector<std::uint16_t> chain(std::size_t{1} << 16, 0);
    std::uint32_t miss = 1u << kSkipStrength;
    // The 5-byte hash needs an 8-byte load; inside the last 8 bytes of the
    // block (where matching barely matters) it degrades to the 4-byte hash.
    auto hash_at = [&](std::size_t p, std::uint32_t s32) {
      return p + 8 <= n ? hash5(read64(in + p)) : hash4(s32);
    };
    auto insert = [&](std::size_t p, std::uint32_t h) {
      const std::int32_t c = head[h];
      chain[p & 0xFFFF] =
          (c >= 0 && p - static_cast<std::size_t>(c) <= kMaxOffset)
              ? static_cast<std::uint16_t>(p - static_cast<std::size_t>(c))
              : 0;
      head[h] = static_cast<std::int32_t>(p);
      return c;
    };

    while (pos < match_limit) {
      const std::uint32_t seq = read32(in + pos);
      std::int32_t cand = insert(pos, hash_at(pos, seq));

      // Walk the chain for the longest match within the offset window.
      std::size_t best_len = 0;
      std::size_t best_start = 0;
      int probes = kMaxProbes;
      int no_improve = kMaxNoImprove;
      while (cand >= 0 &&
             pos - static_cast<std::size_t>(cand) <= kMaxOffset &&
             probes-- > 0) {
        const std::uint8_t* c = in + cand;
        // Cheap rejects: the candidate must match the 4-byte sequence and
        // beat the current best at its current length before paying for a
        // full extension.
        if (read32(c) == seq &&
            (best_len == 0 ||
             (pos + best_len < n && c[best_len] == in[pos + best_len]))) {
          const std::size_t m =
              kMinMatch + match_length(in + pos + kMinMatch, c + kMinMatch,
                                       in + n);
          if (m > best_len) {
            best_len = m;
            best_start = static_cast<std::size_t>(cand);
            if (m >= kGoodEnough || pos + m >= n) break;
          } else if (--no_improve <= 0) {
            break;
          }
        } else if (best_len != 0 && --no_improve <= 0) {
          break;
        }
        const std::uint16_t d = chain[static_cast<std::size_t>(cand) & 0xFFFF];
        if (d == 0) break;
        cand -= d;
      }

      if (best_len >= kMinMatch) {
        // Extend backwards over pending literals — the chain found the
        // match at this alignment, but it may start earlier.
        while (pos > anchor && best_start > 0 &&
               in[pos - 1] == in[best_start - 1]) {
          --pos;
          --best_start;
          ++best_len;
        }
        const std::size_t lit = pos - anchor;
        const std::size_t match_extra = best_len - kMinMatch;
        // Token: high nibble literal length, low nibble match length-4.
        *op++ = static_cast<std::uint8_t>(
            std::min<std::size_t>(lit, 15) << 4 |
            std::min<std::size_t>(match_extra, 15));
        if (lit >= 15) put_len(lit - 15);
        // Wild literal copy: 8-byte steps overshooting up to 7 bytes into
        // the pre-sized buffer's slack; the guard keeps the source reads
        // inside the input span near the block end.
        if (pos + 8 <= n) {
          std::size_t i = 0;
          while (i < lit) {
            std::memcpy(op + i, in + anchor + i, 8);
            i += 8;
          }
          op += lit;
        } else {
          std::memcpy(op, in + anchor, lit);
          op += lit;
        }
        const std::uint16_t offset =
            static_cast<std::uint16_t>(pos - best_start);
        *op++ = static_cast<std::uint8_t>(offset);
        *op++ = static_cast<std::uint8_t>(offset >> 8);
        if (match_extra >= 15) put_len(match_extra - 15);
        // Index the positions the match skips (strided) so later scans can
        // chain back into them.
        const std::size_t stop = std::min(pos + best_len, match_limit);
        for (std::size_t p = pos + 1; p < stop; p += kInsertStride)
          insert(p, hash_at(p, read32(in + p)));
        pos += best_len;
        anchor = pos;
        miss = 1u << kSkipStrength;
      } else {
        // Accelerating skip on miss streaks.
        pos += miss++ >> kSkipStrength;
      }
    }
  }
  // Trailing literals (token with zero match nibble, no offset).
  const std::size_t lit = n - anchor;
  *op++ = static_cast<std::uint8_t>(std::min<std::size_t>(lit, 15) << 4);
  if (lit >= 15) put_len(lit - 15);
  std::memcpy(op, in + anchor, lit);
  op += lit;
  HPDR_ASSERT(static_cast<std::size_t>(op - out.data()) <= out.size());
  out.resize(static_cast<std::size_t>(op - out.data()));
  return out;
}

void decompress_block(std::span<const std::uint8_t> src,
                      std::span<std::uint8_t> dst) {
  std::size_t ip = 0, op = 0;
  const std::size_t isize = src.size(), osize = dst.size();
  const std::uint8_t* s = src.data();
  std::uint8_t* d = dst.data();
  while (ip < isize) {
    const std::uint8_t token = s[ip++];
    // Short-sequence shortcut (the dominant shape on dense match-rich data):
    // literals < 15 and match < 19 decode with two unconditional wild
    // copies and zero length-byte parsing. The entry guard bounds every
    // overshoot: the 16-byte literal copy covers lit <= 14, and the
    // 8+8+2-byte match copy covers mlen <= 18. A trailing-literal sequence
    // can never enter (it ends exactly at isize, but the guard demands 18
    // spare input bytes while lit <= 14).
    std::size_t lit = token >> 4;
    if (lit != 15 && ip + 18 <= isize && op + lit + 18 <= osize) {
      std::memcpy(d + op, s + ip, 16);
      ip += lit;
      op += lit;
      const std::size_t offset = s[ip] | (std::size_t{s[ip + 1]} << 8);
      if ((token & 0x0F) != 15 && offset >= 8) {
        HPDR_REQUIRE(offset <= op, "LZ4 invalid match offset");
        ip += 2;
        const std::size_t mstart = op - offset;
        std::memcpy(d + op, d + mstart, 8);
        std::memcpy(d + op + 8, d + mstart + 8, 8);
        std::memcpy(d + op + 16, d + mstart + 16, 2);
        op += (token & 0x0F) + kMinMatch;
        continue;
      }
      // Long match or near-overlap offset: literals are already copied;
      // fall through to the general match decoder below.
    } else {
      // Literals, general path.
      lit = get_length(src, ip, lit);
      HPDR_REQUIRE(ip + lit <= isize && op + lit <= osize,
                   "LZ4 literal run out of bounds");
      if (ip + lit + 8 <= isize && op + lit + 8 <= osize) {
        // Wild literal copy: fixed 8-byte steps overshoot by up to 7 bytes
        // (guarded above), turning the dominant short-literal case into one
        // or two unconditional word copies instead of a variable memcpy.
        std::size_t i = 0;
        while (i < lit) {
          std::memcpy(d + op + i, s + ip + i, 8);
          i += 8;
        }
      } else {
        std::memcpy(d + op, s + ip, lit);
      }
      ip += lit;
      op += lit;
      if (ip >= isize) break;  // trailing-literal sequence
    }
    // Match.
    HPDR_REQUIRE(ip + 2 <= isize, "LZ4 block truncated at offset");
    const std::size_t offset = s[ip] | (std::size_t{s[ip + 1]} << 8);
    ip += 2;
    HPDR_REQUIRE(offset > 0 && offset <= op, "LZ4 invalid match offset");
    const std::size_t mlen = kMinMatch + get_length(src, ip, token & 0x0F);
    HPDR_REQUIRE(op + mlen <= osize, "LZ4 match overruns output");
    const std::size_t mstart = op - offset;
    if (offset >= 8 && op + mlen + 8 <= osize) {
      // Wild copy: 8-byte steps that may write up to 7 bytes past the match
      // end — guarded above so the overshoot stays inside this block's
      // span. Non-overlapping because offset >= 8.
      std::size_t i = 0;
      do {
        std::memcpy(d + op + i, d + mstart + i, 8);
        i += 8;
      } while (i < mlen);
      op += mlen;
    } else if (offset >= 4 && op + mlen + 8 <= osize) {
      // Medium-offset wild copy: 4-byte steps stay non-overlapping for
      // offsets of 4..7 and overshoot at most 3 bytes (inside the guard).
      std::size_t i = 0;
      do {
        std::memcpy(d + op + i, d + mstart + i, 4);
        i += 4;
      } while (i < mlen);
      op += mlen;
    } else {
      // Self-overlapping (RLE-style) match or guarded tail: doubling
      // pattern copy. Bytes [mstart, op + have) are known, so each step can
      // copy min(offset + have, remaining) bytes without overlap; the chunk
      // grows geometrically, making long runs O(log mlen) memcpys with no
      // overshoot.
      std::size_t have = 0;
      while (have < mlen) {
        const std::size_t chunk = std::min(offset + have, mlen - have);
        std::memcpy(d + op + have, d + mstart, chunk);
        have += chunk;
      }
      op += mlen;
    }
  }
  HPDR_REQUIRE(op == dst.size(), "LZ4 block decoded to wrong size");
}

std::vector<std::uint8_t> compress(const Device& dev,
                                   std::span<const std::uint8_t> data) {
  const std::size_t nblocks =
      data.empty() ? 0 : (data.size() + kBlockSize - 1) / kBlockSize;
  std::vector<std::vector<std::uint8_t>> blocks(nblocks);
  // Locality abstraction: one block per group, compressed independently.
  locality(dev, Shape{data.size()}, Shape{kBlockSize}, [&](const Block& b) {
    auto src = data.subspan(b.origin[0], b.extent[0]);
    auto compressed = compress_block(src);
    if (compressed.size() >= src.size()) {
      // Store raw: flag byte 0, then the original bytes.
      blocks[b.index].assign(1, 0);
      blocks[b.index].insert(blocks[b.index].end(), src.begin(), src.end());
    } else {
      blocks[b.index].assign(1, 1);
      blocks[b.index].insert(blocks[b.index].end(), compressed.begin(),
                             compressed.end());
    }
  });
  // One allocation for the whole frame (a varint takes at most 10 bytes),
  // so the payload is copied once, not once per doubling of the buffer.
  std::size_t frame = 10 * (nblocks + 2);
  for (const auto& blk : blocks) frame += blk.size();
  ByteWriter out;
  out.reserve(frame);
  out.put_varint(data.size());
  out.put_varint(nblocks);
  for (const auto& blk : blocks) out.put_varint(blk.size());
  for (const auto& blk : blocks)
    out.put_bytes(blk);
  return out.take();
}

std::vector<std::uint8_t> decompress(const Device& dev,
                                     std::span<const std::uint8_t> frame) {
  ByteReader in(frame);
  const std::size_t raw_size = in.get_varint();
  const std::size_t nblocks = in.get_varint();
  HPDR_REQUIRE(nblocks == (raw_size + kBlockSize - 1) / kBlockSize,
               "LZ4 frame block count mismatch");
  // An LZ4 sequence encodes at most ~255× expansion per byte; anything
  // beyond that is a hostile header.
  HPDR_REQUIRE(raw_size <= frame.size() * 256 + kBlockSize,
               "implausible LZ4 raw size");
  std::vector<std::size_t> sizes(nblocks), offsets(nblocks + 1, 0);
  for (std::size_t i = 0; i < nblocks; ++i) {
    sizes[i] = in.get_varint();
    offsets[i + 1] = offsets[i] + sizes[i];
  }
  auto payload = in.get_bytes(offsets[nblocks]);
  std::vector<std::uint8_t> out(raw_size);
  global_stage(dev, nblocks, [&](std::size_t i) {
    const std::size_t dst_begin = i * kBlockSize;
    const std::size_t dst_len = std::min(kBlockSize, raw_size - dst_begin);
    auto blk = payload.subspan(offsets[i], sizes[i]);
    HPDR_REQUIRE(!blk.empty(), "empty LZ4 block");
    const std::uint8_t flag = blk[0];
    auto body = blk.subspan(1);
    std::span<std::uint8_t> dst(out.data() + dst_begin, dst_len);
    if (flag == 0) {
      HPDR_REQUIRE(body.size() == dst_len, "raw LZ4 block size mismatch");
      std::memcpy(dst.data(), body.data(), dst_len);
    } else {
      decompress_block(body, dst);
    }
  });
  return out;
}

}  // namespace hpdr::lz4
