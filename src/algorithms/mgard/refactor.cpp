#include "algorithms/mgard/refactor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "algorithms/huffman/huffman.hpp"
#include "algorithms/mgard/mgard.hpp"
#include "algorithms/mgard/quantize.hpp"
#include "algorithms/mgard/transform.hpp"
#include "core/bitstream.hpp"
#include "core/error.hpp"
#include "core/stats.hpp"
#include "machine/context_memory.hpp"

namespace hpdr::mgard {
namespace {

constexpr std::uint8_t kMagic = 0x52;  // 'R'
constexpr std::uint8_t kVersion = 1;

std::shared_ptr<Hierarchy> cached_hierarchy(const Device& dev,
                                            const Shape& shape) {
  ContextKey key{"mgard-hierarchy", shape.hash(), 0, 0.0, dev.name()};
  return ContextCache::instance().get_or_create<Hierarchy>(
      key, [&] { return std::make_shared<Hierarchy>(shape); });
}

/// Encode one level's coefficients: outlier list + Huffman blob.
template <class T>
std::vector<std::uint8_t> encode_level(const Device& dev,
                                       const Hierarchy& h, const T* work,
                                       const Subset& s, double bin) {
  const auto& order = h.level_order();
  std::vector<std::uint32_t> symbols(s.size());
  std::vector<std::pair<std::uint64_t, std::int64_t>> outliers;
  for (std::size_t pos = s.begin; pos < s.end; ++pos) {
    const Quantized v = quantize(static_cast<double>(work[order[pos]]), bin);
    symbols[pos - s.begin] = symbol_of(v);
    if (v.outlier) outliers.emplace_back(pos - s.begin, v.q);
  }
  ByteWriter out;
  out.put_varint(outliers.size());
  for (auto [pos, q] : outliers) {
    out.put_varint(pos);
    const std::uint64_t zz = (static_cast<std::uint64_t>(q) << 1) ^
                             static_cast<std::uint64_t>(q >> 63);
    out.put_varint(zz);
  }
  const auto blob = huffman::encode_u32(dev, symbols, kQuantAlphabet);
  out.put_varint(blob.size());
  out.put_bytes(blob);
  return out.take();
}

/// Decode one level's coefficients into the working buffer.
template <class T>
void decode_level(const Device& dev, const Hierarchy& h, T* work,
                  const Subset& s, double bin,
                  std::span<const std::uint8_t> bytes) {
  const auto& order = h.level_order();
  ByteReader in(bytes);
  const std::size_t n_outliers = in.get_varint();
  std::vector<std::pair<std::uint64_t, std::int64_t>> outliers(n_outliers);
  for (auto& [pos, q] : outliers) {
    pos = in.get_varint();
    const std::uint64_t zz = in.get_varint();
    q = static_cast<std::int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
  }
  const std::size_t blob_size = in.get_varint();
  const auto symbols = huffman::decode_u32(dev, in.get_bytes(blob_size));
  HPDR_REQUIRE(symbols.size() == s.size(),
               "level component symbol count mismatch");
  for (std::size_t i = 0; i < symbols.size(); ++i)
    work[order[s.begin + i]] =
        static_cast<T>(static_cast<double>(bin_of(symbols[i])) * bin);
  for (auto [pos, q] : outliers) {
    HPDR_REQUIRE(pos < s.size(), "outlier beyond level extent");
    work[order[s.begin + pos]] =
        static_cast<T>(static_cast<double>(q) * bin);
  }
}

template <class T>
RefactoredData refactor_impl(const Device& dev, NDView<const T> data,
                             double rel_eb) {
  HPDR_REQUIRE(data.size() > 0, "empty input");
  HPDR_REQUIRE(rel_eb > 0, "error bound must be positive");
  const Shape shape = data.shape();
  for (std::size_t d = 0; d < shape.rank(); ++d)
    HPDR_REQUIRE(shape[d] >= 3, "refactoring needs every dimension >= 3");

  const auto range = value_range(data.span());
  double abs_eb = rel_eb * static_cast<double>(range.extent());
  if (abs_eb <= 0)
    abs_eb = rel_eb * std::max(1.0, std::abs(double(range.lo)));

  auto h = cached_hierarchy(dev, shape);
  std::vector<T> work(data.data(), data.data() + data.size());
  decompose(dev, *h, work.data());

  RefactoredData rd;
  rd.shape = shape;
  rd.dtype = sizeof(T) == 4 ? 0 : 1;
  rd.abs_eb = abs_eb;
  const std::size_t L = h->num_levels();
  for (const Subset& s : h->level_subsets()) {
    LevelComponent comp;
    comp.level = static_cast<std::uint32_t>(s.id);
    comp.bytes = encode_level(dev, *h, work.data(), s,
                              level_bin(abs_eb, s.id, L, shape.rank()));
    rd.components.push_back(std::move(comp));
  }
  return rd;
}

template <class T>
NDArray<T> reconstruct_impl(const Device& dev, const RefactoredData& rd,
                            std::size_t num_components) {
  HPDR_REQUIRE(rd.dtype == (sizeof(T) == 4 ? 0 : 1),
               "refactored dtype mismatch");
  auto h = cached_hierarchy(dev, rd.shape);
  const std::size_t L = h->num_levels();
  HPDR_REQUIRE(rd.components.size() == L + 1,
               "component count does not match hierarchy");
  const std::size_t k =
      num_components == 0
          ? rd.components.size()
          : std::min(num_components, rd.components.size());

  std::vector<T> work(rd.shape.size(), T{0});
  const auto& subsets = h->level_subsets();
  for (std::size_t c = 0; c < k; ++c) {
    const Subset& s = subsets[rd.components[c].level];
    decode_level(dev, *h, work.data(), s,
                 level_bin(rd.abs_eb, s.id, L, rd.shape.rank()),
                 rd.components[c].bytes);
  }
  recompose(dev, *h, work.data());
  NDArray<T> out(rd.shape);
  std::memcpy(out.data(), work.data(), out.size_bytes());
  return out;
}

}  // namespace

std::size_t RefactoredData::total_bytes() const {
  return prefix_bytes(components.size());
}

std::size_t RefactoredData::prefix_bytes(std::size_t k) const {
  std::size_t total = 0;
  for (std::size_t c = 0; c < std::min(k, components.size()); ++c)
    total += components[c].bytes.size();
  return total;
}

std::vector<std::uint8_t> RefactoredData::serialize() const {
  ByteWriter out;
  out.put_u8(kMagic);
  out.put_u8(kVersion);
  out.put_u8(dtype);
  out.put_u8(static_cast<std::uint8_t>(shape.rank()));
  for (std::size_t d = 0; d < shape.rank(); ++d) out.put_varint(shape[d]);
  out.put_f64(abs_eb);
  out.put_varint(components.size());
  for (const auto& c : components) {
    out.put_varint(c.level);
    out.put_varint(c.bytes.size());
    out.put_bytes(c.bytes);
  }
  return out.take();
}

RefactoredData RefactoredData::deserialize(
    std::span<const std::uint8_t> stream) {
  ByteReader in(stream);
  HPDR_REQUIRE(in.get_u8() == kMagic, "not a refactored stream");
  HPDR_REQUIRE(in.get_u8() == kVersion, "refactored stream version");
  RefactoredData rd;
  rd.dtype = in.get_u8();
  const std::size_t rank = in.get_u8();
  HPDR_REQUIRE(rank >= 1 && rank <= kMaxRank, "corrupt refactored rank");
  rd.shape = Shape::of_rank(rank);
  for (std::size_t d = 0; d < rank; ++d) rd.shape[d] = in.get_varint();
  rd.abs_eb = in.get_f64();
  const std::size_t ncomp = in.get_varint();
  HPDR_REQUIRE(ncomp <= 64, "implausible component count");
  rd.components.resize(ncomp);
  for (auto& c : rd.components) {
    c.level = static_cast<std::uint32_t>(in.get_varint());
    const std::size_t n = in.get_varint();
    auto bytes = in.get_bytes(n);
    c.bytes.assign(bytes.begin(), bytes.end());
  }
  return rd;
}

RefactoredData refactor(const Device& dev, NDView<const float> data,
                        double rel_eb) {
  return refactor_impl(dev, data, rel_eb);
}
RefactoredData refactor(const Device& dev, NDView<const double> data,
                        double rel_eb) {
  return refactor_impl(dev, data, rel_eb);
}
NDArray<float> reconstruct_f32(const Device& dev, const RefactoredData& rd,
                               std::size_t num_components) {
  return reconstruct_impl<float>(dev, rd, num_components);
}
NDArray<double> reconstruct_f64(const Device& dev, const RefactoredData& rd,
                                std::size_t num_components) {
  return reconstruct_impl<double>(dev, rd, num_components);
}

}  // namespace hpdr::mgard
