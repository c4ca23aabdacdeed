#include "sessmpi/datatype.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace sessmpi {
namespace {

TEST(Datatype, PrimitiveSizes) {
  EXPECT_EQ(Datatype::byte().size(), 1u);
  EXPECT_EQ(Datatype::char8().size(), 1u);
  EXPECT_EQ(Datatype::int32().size(), 4u);
  EXPECT_EQ(Datatype::int64().size(), 8u);
  EXPECT_EQ(Datatype::uint64().size(), 8u);
  EXPECT_EQ(Datatype::float32().size(), 4u);
  EXPECT_EQ(Datatype::float64().size(), 8u);
  EXPECT_TRUE(Datatype::int32().is_primitive());
  EXPECT_EQ(Datatype::int32().extent(), Datatype::int32().size());
}

TEST(Datatype, PredefinedAreSingletons) {
  EXPECT_TRUE(Datatype::int32().same_as(Datatype::int32()));
  EXPECT_FALSE(Datatype::int32().same_as(Datatype::int64()));
  EXPECT_TRUE(datatype_of<double>().same_as(Datatype::float64()));
  EXPECT_TRUE(datatype_of<std::int32_t>().same_as(Datatype::int32()));
}

TEST(Datatype, ContiguousSizeAndExtent) {
  Datatype c = Datatype::contiguous(5, Datatype::int32());
  EXPECT_EQ(c.size(), 20u);
  EXPECT_EQ(c.extent(), 20u);
  EXPECT_FALSE(c.is_primitive());
  EXPECT_EQ(c.kind(), Datatype::Kind::derived_k);
}

TEST(Datatype, ContiguousPackUnpackRoundTrip) {
  Datatype c = Datatype::contiguous(4, Datatype::int32());
  std::vector<std::int32_t> src{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<std::byte> wire(c.size() * 2);
  c.pack(src.data(), 2, wire.data());
  std::vector<std::int32_t> dst(8, 0);
  c.unpack(wire.data(), 2, dst.data());
  EXPECT_EQ(src, dst);
}

TEST(Datatype, VectorSizeAndExtent) {
  // 3 blocks of 2 int32s, stride 4 elements: packed 24B, memory span
  // ((3-1)*4+2)*4 = 40B.
  Datatype v = Datatype::vector(3, 2, 4, Datatype::int32());
  EXPECT_EQ(v.size(), 24u);
  EXPECT_EQ(v.extent(), 40u);
}

TEST(Datatype, VectorPacksStridedColumns) {
  // A 4x4 row-major matrix; vector(4,1,4) picks one column.
  Datatype col = Datatype::vector(4, 1, 4, Datatype::int32());
  std::int32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = i;
  }
  std::vector<std::byte> wire(col.size());
  col.pack(m, 1, wire.data());
  std::int32_t unpacked[4];
  Datatype::contiguous(4, Datatype::int32()).unpack(wire.data(), 1, unpacked);
  EXPECT_EQ(unpacked[0], 0);
  EXPECT_EQ(unpacked[1], 4);
  EXPECT_EQ(unpacked[2], 8);
  EXPECT_EQ(unpacked[3], 12);
}

TEST(Datatype, VectorUnpackScattersBack) {
  Datatype col = Datatype::vector(4, 1, 4, Datatype::int32());
  std::int32_t m[16] = {0};
  std::int32_t colvals[4] = {100, 101, 102, 103};
  std::vector<std::byte> wire(col.size());
  Datatype::contiguous(4, Datatype::int32()).pack(colvals, 1, wire.data());
  col.unpack(wire.data(), 1, m);
  EXPECT_EQ(m[0], 100);
  EXPECT_EQ(m[4], 101);
  EXPECT_EQ(m[8], 102);
  EXPECT_EQ(m[12], 103);
  EXPECT_EQ(m[1], 0);  // gaps untouched
}

TEST(Datatype, NestedDerivedTypes) {
  Datatype inner = Datatype::contiguous(2, Datatype::int32());
  Datatype outer = Datatype::vector(2, 1, 2, inner);
  EXPECT_EQ(outer.size(), 16u);
  std::int32_t data[8];
  for (int i = 0; i < 8; ++i) {
    data[i] = i;
  }
  std::vector<std::byte> wire(outer.size());
  outer.pack(data, 1, wire.data());
  std::int32_t out[4];
  Datatype::contiguous(4, Datatype::int32()).unpack(wire.data(), 1, out);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 1);
  EXPECT_EQ(out[2], 4);
  EXPECT_EQ(out[3], 5);
}

TEST(Datatype, InvalidConstructionThrows) {
  EXPECT_THROW(Datatype::contiguous(-1, Datatype::int32()), Error);
  EXPECT_THROW(Datatype::vector(-1, 1, 1, Datatype::int32()), Error);
  EXPECT_THROW(Datatype::vector(2, 3, 2, Datatype::int32()), Error);
}

TEST(Datatype, ZeroCountTypesAreEmpty) {
  Datatype z = Datatype::contiguous(0, Datatype::float64());
  EXPECT_EQ(z.size(), 0u);
  Datatype zv = Datatype::vector(0, 1, 1, Datatype::int32());
  EXPECT_EQ(zv.size(), 0u);
  EXPECT_EQ(zv.extent(), 0u);
}

TEST(Datatype, NamesAreDescriptive) {
  EXPECT_EQ(Datatype::int32().name(), "int32");
  Datatype c = Datatype::contiguous(3, Datatype::int64());
  EXPECT_EQ(c.name(), "contiguous(3,int64)");
}

// --- property test: run-based copy vs. the per-element reference -----------

/// Independent model of a datatype's layout, built beside the Datatype it
/// describes, in the library's original representation: contiguous(n, b)
/// is n blocks of one element.
struct Shape {
  std::shared_ptr<const Shape> base;  // null for primitives
  int count = 1;
  int blocklength = 1;
  int stride = 1;
  std::size_t size = 0;
  std::size_t extent = 0;
};

/// The reference oracle: one element per memcpy, recursing through every
/// level of nesting.
void pack_element(const Shape& t, const std::byte* mem, std::byte* wire) {
  if (!t.base) {
    std::memcpy(wire, mem, t.size);
    return;
  }
  const Shape& b = *t.base;
  std::size_t wire_off = 0;
  for (int blk = 0; blk < t.count; ++blk) {
    const std::size_t mem_off = static_cast<std::size_t>(blk) *
                                static_cast<std::size_t>(t.stride) * b.extent;
    for (int e = 0; e < t.blocklength; ++e) {
      pack_element(b, mem + mem_off + static_cast<std::size_t>(e) * b.extent,
                   wire + wire_off);
      wire_off += b.size;
    }
  }
}

void unpack_element(const Shape& t, const std::byte* wire, std::byte* mem) {
  if (!t.base) {
    std::memcpy(mem, wire, t.size);
    return;
  }
  const Shape& b = *t.base;
  std::size_t wire_off = 0;
  for (int blk = 0; blk < t.count; ++blk) {
    const std::size_t mem_off = static_cast<std::size_t>(blk) *
                                static_cast<std::size_t>(t.stride) * b.extent;
    for (int e = 0; e < t.blocklength; ++e) {
      unpack_element(b, wire + wire_off,
                     mem + mem_off + static_cast<std::size_t>(e) * b.extent);
      wire_off += b.size;
    }
  }
}

/// A Datatype and its reference model.
struct Typed {
  Datatype dt;
  std::shared_ptr<const Shape> shape;
};

Typed primitive(const Datatype& dt) {
  auto s = std::make_shared<Shape>();
  s->size = dt.size();
  s->extent = dt.extent();
  return {dt, s};
}

Typed contiguous(int n, const Typed& b) {
  auto s = std::make_shared<Shape>();
  s->base = b.shape;
  s->count = n;
  s->size = static_cast<std::size_t>(n) * b.shape->size;
  s->extent = static_cast<std::size_t>(n) * b.shape->extent;
  return {Datatype::contiguous(n, b.dt), s};
}

Typed vec(int count, int blocklength, int stride, const Typed& b) {
  auto s = std::make_shared<Shape>();
  s->base = b.shape;
  s->count = count;
  s->blocklength = blocklength;
  s->stride = stride;
  s->size = static_cast<std::size_t>(count * blocklength) * b.shape->size;
  s->extent = count == 0 ? 0
                         : static_cast<std::size_t>((count - 1) * stride +
                                                    blocklength) *
                               b.shape->extent;
  return {Datatype::vector(count, blocklength, stride, b.dt), s};
}

const Datatype& random_primitive(std::mt19937& rng) {
  static const Datatype* const prims[] = {
      &Datatype::byte(),    &Datatype::char8(),   &Datatype::int32(),
      &Datatype::int64(),   &Datatype::uint64(),  &Datatype::float32(),
      &Datatype::float64()};
  return *prims[std::uniform_int_distribution<std::size_t>(
      0, std::size(prims) - 1)(rng)];
}

/// A random type nested up to `depth` derived levels deep; vectors are
/// dense (stride == blocklength) or gapped about half the time each.
Typed random_type(std::mt19937& rng, int depth) {
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  if (depth == 0 || pick(0, 3) == 0) {
    return primitive(random_primitive(rng));
  }
  const Typed base = random_type(rng, depth - 1);
  if (pick(0, 2) == 0) {
    return contiguous(pick(0, 3), base);
  }
  const int bl = pick(0, 3);
  return vec(pick(0, 3), bl, bl + (pick(0, 1) == 0 ? 0 : pick(1, 2)), base);
}

constexpr std::byte kSentinel{0xA5};
constexpr std::size_t kGuard = 16;  // sentinel bytes past every buffer

/// Pack and unpack `count` elements of `t` with the library and with the
/// oracle and require identical bytes. Unpack starts from sentinel-filled
/// memory and wire bytes that never equal the sentinel, so the sentinels
/// left afterwards are exactly the type's gaps.
void check_against_oracle(const Typed& t, int count, std::mt19937& rng,
                          const std::string& what) {
  SCOPED_TRACE(what + " x" + std::to_string(count));
  const auto n = static_cast<std::size_t>(count);
  const std::size_t mem_bytes = n * t.shape->extent;
  const std::size_t wire_bytes = n * t.shape->size;
  ASSERT_EQ(t.dt.size(), t.shape->size);
  ASSERT_EQ(t.dt.extent(), t.shape->extent);
  auto random_byte = [&](int hi) {
    return static_cast<std::byte>(
        std::uniform_int_distribution<int>(0, hi)(rng));
  };

  std::vector<std::byte> mem(mem_bytes + kGuard);
  for (auto& b : mem) {
    b = random_byte(0xff);
  }
  std::vector<std::byte> got(wire_bytes + kGuard, kSentinel);
  std::vector<std::byte> want(wire_bytes + kGuard, kSentinel);
  t.dt.pack(mem.data(), count, got.data());
  for (std::size_t i = 0; i < n; ++i) {
    pack_element(*t.shape, mem.data() + i * t.shape->extent,
                 want.data() + i * t.shape->size);
  }
  EXPECT_EQ(got, want) << "pack differs from the per-element oracle";

  std::vector<std::byte> wire(wire_bytes);
  for (auto& b : wire) {
    b = random_byte(0xA4);
  }
  std::vector<std::byte> out(mem_bytes + kGuard, kSentinel);
  std::vector<std::byte> ref(mem_bytes + kGuard, kSentinel);
  t.dt.unpack(wire.data(), count, out.data());
  for (std::size_t i = 0; i < n; ++i) {
    unpack_element(*t.shape, wire.data() + i * t.shape->size,
                   ref.data() + i * t.shape->extent);
  }
  EXPECT_EQ(out, ref) << "unpack differs from the per-element oracle";
  const auto untouched = static_cast<std::size_t>(
      std::count(out.begin(), out.end(), kSentinel));
  EXPECT_EQ(untouched, mem_bytes - wire_bytes + kGuard)
      << "unpack wrote into a gap or past the buffer";
}

TEST(DatatypeProperty, NamedShapesMatchPerElementOracle) {
  std::mt19937 rng(20191);
  const Typed i32 = primitive(Datatype::int32());
  const Typed f64 = primitive(Datatype::float64());
  const std::vector<std::pair<std::string, Typed>> shapes = {
      {"byte", primitive(Datatype::byte())},
      {"int32", i32},
      {"float64", f64},
      {"contiguous(3,contiguous(2,int32))", contiguous(3, contiguous(2, i32))},
      {"dense vector(4,3,3,float64)", vec(4, 3, 3, f64)},
      {"gapped vector(3,2,5,int32)", vec(3, 2, 5, i32)},
      {"vector(1,2,7,int32)", vec(1, 2, 7, i32)},
      {"vector(2,0,3,int32)", vec(2, 0, 3, i32)},
      {"contiguous(0,int32)", contiguous(0, i32)},
      {"vector(2,2,3,contiguous(2,vector(3,1,2,int32)))",
       vec(2, 2, 3, contiguous(2, vec(3, 1, 2, i32)))},
      {"contiguous(2,vector(2,1,3,vector(2,2,2,float64)))",
       contiguous(2, vec(2, 1, 3, vec(2, 2, 2, f64)))},
  };
  for (const auto& [name, t] : shapes) {
    for (int count = 0; count <= 5; ++count) {
      check_against_oracle(t, count, rng, name);
    }
  }
}

TEST(DatatypeProperty, RandomShapesMatchPerElementOracle) {
  std::mt19937 rng(14);
  for (int trial = 0; trial < 400; ++trial) {
    const Typed t = random_type(rng, 3);
    for (int count = 0; count <= 5; ++count) {
      check_against_oracle(t, count, rng, t.dt.name());
    }
  }
}

TEST(DatatypeProperty, NonPositiveCountCopiesNothing) {
  std::int32_t src[2] = {1, 2};
  std::int32_t dst[2] = {7, 7};
  std::byte wire[8] = {};
  Datatype::int32().pack(src, -1, wire);
  Datatype::int32().unpack(wire, -1, dst);
  Datatype::int32().unpack(wire, 0, dst);
  EXPECT_EQ(wire[0], std::byte{0});
  EXPECT_EQ(dst[0], 7);
  EXPECT_EQ(dst[1], 7);
}

}  // namespace
}  // namespace sessmpi
