#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "rtl/logic.hpp"
#include "util/rng.hpp"

namespace la1::rtl {
namespace {

TEST(Logic, AndTruthTable) {
  EXPECT_EQ(logic_and(Logic::k0, Logic::k0), Logic::k0);
  EXPECT_EQ(logic_and(Logic::k0, Logic::k1), Logic::k0);
  EXPECT_EQ(logic_and(Logic::k1, Logic::k1), Logic::k1);
  EXPECT_EQ(logic_and(Logic::k0, Logic::kX), Logic::k0);  // controlling value
  EXPECT_EQ(logic_and(Logic::k1, Logic::kX), Logic::kX);
  EXPECT_EQ(logic_and(Logic::kZ, Logic::k1), Logic::kX);
}

TEST(Logic, OrTruthTable) {
  EXPECT_EQ(logic_or(Logic::k1, Logic::kX), Logic::k1);  // controlling value
  EXPECT_EQ(logic_or(Logic::k0, Logic::kX), Logic::kX);
  EXPECT_EQ(logic_or(Logic::k0, Logic::k0), Logic::k0);
}

TEST(Logic, XorAndNotPropagateX) {
  EXPECT_EQ(logic_xor(Logic::k1, Logic::k0), Logic::k1);
  EXPECT_EQ(logic_xor(Logic::k1, Logic::k1), Logic::k0);
  EXPECT_EQ(logic_xor(Logic::k1, Logic::kX), Logic::kX);
  EXPECT_EQ(logic_not(Logic::kZ), Logic::kX);
  EXPECT_EQ(logic_not(Logic::k0), Logic::k1);
}

TEST(Logic, Resolution) {
  EXPECT_EQ(resolve(Logic::kZ, Logic::k1), Logic::k1);
  EXPECT_EQ(resolve(Logic::k0, Logic::kZ), Logic::k0);
  EXPECT_EQ(resolve(Logic::k0, Logic::k1), Logic::kX);
  EXPECT_EQ(resolve(Logic::k1, Logic::k1), Logic::k1);
  EXPECT_EQ(resolve(Logic::kZ, Logic::kZ), Logic::kZ);
}

TEST(LVec, RoundTripUint) {
  for (std::uint64_t v : {0ull, 1ull, 0xa5ull, 0xffffull, 0x12345ull}) {
    const LVec vec = LVec::from_uint(v, 20);
    ASSERT_TRUE(vec.to_uint().has_value());
    EXPECT_EQ(*vec.to_uint(), v & 0xfffff);
  }
}

TEST(LVec, XBlocksToUint) {
  LVec v = LVec::from_uint(3, 4);
  v.set_bit(2, Logic::kX);
  EXPECT_FALSE(v.to_uint().has_value());
  EXPECT_TRUE(v.has_x());
  EXPECT_FALSE(v.all_01());
}

TEST(LVec, ToStringMsbFirst) {
  EXPECT_EQ(LVec::from_uint(0b0110, 4).to_string(), "0110");
  LVec v(3, Logic::kZ);
  EXPECT_EQ(v.to_string(), "ZZZ");
  EXPECT_TRUE(v.all_z());
}

TEST(LVec, ConcatAndSlice) {
  const LVec hi = LVec::from_uint(0b101, 3);
  const LVec lo = LVec::from_uint(0b01, 2);
  const LVec joined = vec_concat(hi, lo);
  EXPECT_EQ(joined.width(), 5);
  EXPECT_EQ(*joined.to_uint(), 0b10101u);
  EXPECT_EQ(*vec_slice(joined, 2, 3).to_uint(), 0b101u);
  EXPECT_EQ(*vec_slice(joined, 0, 2).to_uint(), 0b01u);
}

TEST(LVec, MuxWithXSelect) {
  const LVec a = LVec::from_uint(0b11, 2);
  const LVec b = LVec::from_uint(0b01, 2);
  EXPECT_EQ(*vec_mux(Logic::k1, a, b).to_uint(), 0b11u);
  EXPECT_EQ(*vec_mux(Logic::k0, a, b).to_uint(), 0b01u);
  const LVec m = vec_mux(Logic::kX, a, b);
  EXPECT_EQ(m.bit(0), Logic::k1);  // branches agree
  EXPECT_EQ(m.bit(1), Logic::kX);  // branches differ
}

TEST(LVec, EqSemantics) {
  const LVec a = LVec::from_uint(5, 4);
  const LVec b = LVec::from_uint(5, 4);
  EXPECT_EQ(vec_eq(a, b), Logic::k1);
  LVec c = a;
  c.set_bit(0, Logic::kX);
  EXPECT_EQ(vec_eq(a, c), Logic::kX);
  // Definite mismatch dominates an X elsewhere.
  LVec d = LVec::from_uint(13, 4);  // differs in defined bit 3
  d.set_bit(0, Logic::kX);
  EXPECT_EQ(vec_eq(a, d), Logic::k0);
}

/// Property sweep: vector ops agree with 64-bit arithmetic on random data.
class LVecArithmetic : public ::testing::TestWithParam<int> {};

TEST_P(LVecArithmetic, MatchesUintSemantics) {
  const int width = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(width) * 977);
  const std::uint64_t mask =
      width == 64 ? ~0ull : ((1ull << width) - 1);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.next_u64() & mask;
    const std::uint64_t b = rng.next_u64() & mask;
    const LVec va = LVec::from_uint(a, width);
    const LVec vb = LVec::from_uint(b, width);
    EXPECT_EQ(*vec_add(va, vb).to_uint(), (a + b) & mask);
    EXPECT_EQ(*vec_sub(va, vb).to_uint(), (a - b) & mask);
    EXPECT_EQ(*vec_and(va, vb).to_uint(), a & b);
    EXPECT_EQ(*vec_or(va, vb).to_uint(), a | b);
    EXPECT_EQ(*vec_xor(va, vb).to_uint(), a ^ b);
    EXPECT_EQ(*vec_not(va).to_uint(), ~a & mask);
    EXPECT_EQ(vec_eq(va, vb), from_bool(a == b));
    EXPECT_EQ(vec_red_or(va), from_bool(a != 0));
    EXPECT_EQ(vec_red_and(va), from_bool(a == mask));
    EXPECT_EQ(vec_red_xor(va), from_bool(__builtin_parityll(a) != 0));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, LVecArithmetic,
                         ::testing::Values(1, 2, 7, 8, 16, 18, 32, 63));

TEST(LVec, AddWithXIsAllX) {
  LVec a = LVec::from_uint(1, 4);
  a.set_bit(1, Logic::kX);
  const LVec sum = vec_add(a, LVec::from_uint(1, 4));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(sum.bit(i), Logic::kX);
}

TEST(LVec, ResolveBitwise) {
  LVec a = LVec::zs(3);
  a.set_bit(0, Logic::k1);
  LVec b = LVec::zs(3);
  b.set_bit(0, Logic::k0);
  b.set_bit(1, Logic::k1);
  const LVec r = vec_resolve(a, b);
  EXPECT_EQ(r.bit(0), Logic::kX);  // conflict
  EXPECT_EQ(r.bit(1), Logic::k1);  // single driver
  EXPECT_EQ(r.bit(2), Logic::kZ);  // undriven
}

TEST(Logic, GateEdgeCasesWithX) {
  // Controlling values decide regardless of the other operand.
  EXPECT_EQ(logic_and(Logic::kX, Logic::k0), Logic::k0);
  EXPECT_EQ(logic_and(Logic::k0, Logic::kX), Logic::k0);
  EXPECT_EQ(logic_or(Logic::kX, Logic::k1), Logic::k1);
  EXPECT_EQ(logic_or(Logic::k1, Logic::kX), Logic::k1);
  // Non-controlling operands leave the result undefined.
  EXPECT_EQ(logic_and(Logic::kX, Logic::k1), Logic::kX);
  EXPECT_EQ(logic_or(Logic::kX, Logic::k0), Logic::kX);
  EXPECT_EQ(logic_and(Logic::kX, Logic::kX), Logic::kX);
  EXPECT_EQ(logic_or(Logic::kX, Logic::kX), Logic::kX);
  // XOR has no controlling value: X never cancels, even against itself.
  EXPECT_EQ(logic_xor(Logic::kX, Logic::kX), Logic::kX);
  EXPECT_EQ(logic_xor(Logic::kX, Logic::k0), Logic::kX);
  EXPECT_EQ(logic_xor(Logic::k1, Logic::kX), Logic::kX);
  EXPECT_EQ(logic_not(Logic::kX), Logic::kX);
}

TEST(Logic, ZBehavesLikeXInGates) {
  // A floating input is as undefined as X to every gate; only resolution
  // (tristate busses) treats Z specially.
  EXPECT_EQ(logic_and(Logic::kZ, Logic::k0), Logic::k0);
  EXPECT_EQ(logic_and(Logic::kZ, Logic::k1), Logic::kX);
  EXPECT_EQ(logic_and(Logic::kZ, Logic::kZ), Logic::kX);
  EXPECT_EQ(logic_or(Logic::kZ, Logic::k1), Logic::k1);
  EXPECT_EQ(logic_or(Logic::kZ, Logic::k0), Logic::kX);
  EXPECT_EQ(logic_or(Logic::kZ, Logic::kX), Logic::kX);
  EXPECT_EQ(logic_xor(Logic::kZ, Logic::k0), Logic::kX);
  EXPECT_EQ(logic_xor(Logic::k1, Logic::kZ), Logic::kX);
  EXPECT_EQ(logic_not(Logic::kZ), Logic::kX);
  // Resolution: Z yields to any driver, X poisons every conflict.
  EXPECT_EQ(resolve(Logic::kZ, Logic::kZ), Logic::kZ);
  EXPECT_EQ(resolve(Logic::kX, Logic::kZ), Logic::kX);
  EXPECT_EQ(resolve(Logic::kX, Logic::k1), Logic::kX);
}

TEST(LVec, EqWithZAndX) {
  // A forced mismatch on defined bits decides 0 even when other bits
  // float; otherwise any non-01 bit leaves the comparison undefined.
  LVec a = LVec::from_uint(0b01, 2);
  LVec b = LVec::from_uint(0b00, 2);
  b.set_bit(1, Logic::kZ);
  EXPECT_EQ(vec_eq(a, b), Logic::k0);  // bit 0: 1 vs 0
  a.set_bit(0, Logic::kX);
  EXPECT_EQ(vec_eq(a, b), Logic::kX);  // no defined mismatch left
  LVec c = LVec::zs(2);
  EXPECT_EQ(vec_eq(c, c), Logic::kX);  // all-Z compares undefined
}

TEST(LVec, MuxWithZSelectAndZData) {
  LVec t = LVec::from_uint(0b10, 2);
  LVec e = LVec::from_uint(0b10, 2);
  // Z select acts like X: agreeing defined bits survive...
  EXPECT_EQ(vec_mux(Logic::kZ, t, e).to_string(), "10");
  // ...but agreeing *undefined* bits do not (Z==Z still muxes to X).
  t.set_bit(0, Logic::kZ);
  e.set_bit(0, Logic::kZ);
  const LVec out = vec_mux(Logic::kZ, t, e);
  EXPECT_EQ(out.bit(0), Logic::kX);
  EXPECT_EQ(out.bit(1), Logic::k1);
  // A defined select passes Z data through untouched.
  EXPECT_EQ(vec_mux(Logic::k1, t, e).bit(0), Logic::kZ);
}

TEST(Logic, CharConversions) {
  EXPECT_EQ(to_char(Logic::kZ), 'Z');
  EXPECT_EQ(logic_from_char('1'), Logic::k1);
  EXPECT_EQ(logic_from_char('z'), Logic::kZ);
  EXPECT_EQ(logic_from_char('q'), Logic::kX);
}

// --- packed planes against a bit-by-bit reference ------------------------
//
// Every operator is checked against the scalar logic_*/resolve functions
// applied one bit at a time, over random four-state vectors whose widths
// straddle the 64-bit word boundary.

using Bits = std::vector<Logic>;  // bit 0 = LSB

const Logic kAllValues[] = {Logic::k0, Logic::k1, Logic::kX, Logic::kZ};

/// Uniform in [0, bound).
int below(util::Rng& rng, int bound) {
  return static_cast<int>(rng.below(static_cast<std::uint64_t>(bound)));
}

/// Random bits drawn from the first `values` of kAllValues.
Bits random_bits(util::Rng& rng, int width, int values = 4) {
  Bits out(static_cast<std::size_t>(width));
  for (Logic& b : out) b = kAllValues[below(rng, values)];
  return out;
}

LVec from_bits(const Bits& bits) {
  LVec v(static_cast<int>(bits.size()), Logic::k0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    v.set_bit(static_cast<int>(i), bits[i]);
  }
  return v;
}

Bits to_bits(const LVec& v) {
  Bits out;
  for (int i = 0; i < v.width(); ++i) out.push_back(v.bit(i));
  return out;
}

template <typename F>
Bits bitwise_ref(const Bits& a, const Bits& b, F f) {
  Bits out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = f(a[i], b[i]);
  return out;
}

bool all_01_ref(const Bits& a) {
  return std::all_of(a.begin(), a.end(), [](Logic b) { return is_01(b); });
}

/// vec_add/vec_sub semantics: all-X on any X/Z bit, else the low 64 bits
/// of the result and 0 above them.
Bits arith_ref(const Bits& a, const Bits& b, bool add) {
  if (!all_01_ref(a) || !all_01_ref(b)) return Bits(a.size(), Logic::kX);
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  for (std::size_t i = 0; i < a.size() && i < 64; ++i) {
    x |= std::uint64_t{a[i] == Logic::k1} << i;
    y |= std::uint64_t{b[i] == Logic::k1} << i;
  }
  const std::uint64_t r = add ? x + y : x - y;
  Bits out(a.size(), Logic::k0);
  for (std::size_t i = 0; i < a.size() && i < 64; ++i) {
    out[i] = from_bool(((r >> i) & 1) != 0);
  }
  return out;
}

std::vector<int> boundary_widths(util::Rng& rng) {
  std::vector<int> widths = {0, 1, 2, 16, 63, 64, 65, 127, 128, 129, 130};
  for (int i = 0; i < 40; ++i) widths.push_back(below(rng, 131));
  return widths;
}

TEST(LVecPlanes, EveryOperatorMatchesTheBitByBitReference) {
  util::Rng rng(2004);
  for (int width : boundary_widths(rng)) {
    for (int trial = 0; trial < 12; ++trial) {
      // Every third trial stays 0/1 so add/sub and to_uint see real values.
      const int values = trial % 3 == 0 ? 2 : 4;
      const Bits a = random_bits(rng, width, values);
      const Bits b = random_bits(rng, width, values);
      const LVec va = from_bits(a);
      const LVec vb = from_bits(b);
      SCOPED_TRACE("width " + std::to_string(width) + " a=" + va.to_string() +
                   " b=" + vb.to_string());
      ASSERT_EQ(to_bits(va), a);

      EXPECT_EQ(to_bits(vec_and(va, vb)), bitwise_ref(a, b, logic_and));
      EXPECT_EQ(to_bits(vec_or(va, vb)), bitwise_ref(a, b, logic_or));
      EXPECT_EQ(to_bits(vec_xor(va, vb)), bitwise_ref(a, b, logic_xor));
      EXPECT_EQ(to_bits(vec_resolve(va, vb)), bitwise_ref(a, b, resolve));
      EXPECT_EQ(to_bits(vec_not(va)),
                bitwise_ref(a, a, [](Logic x, Logic) { return logic_not(x); }));

      Logic red_and = Logic::k1;
      Logic red_or = Logic::k0;
      Logic red_xor = Logic::k0;
      bool mismatch = false;
      bool unknown = false;
      for (std::size_t i = 0; i < a.size(); ++i) {
        red_and = logic_and(red_and, a[i]);
        red_or = logic_or(red_or, a[i]);
        red_xor = logic_xor(red_xor, a[i]);
        if (is_01(a[i]) && is_01(b[i])) {
          mismatch = mismatch || a[i] != b[i];
        } else {
          unknown = true;
        }
      }
      EXPECT_EQ(vec_red_and(va), red_and);
      EXPECT_EQ(vec_red_or(va), red_or);
      EXPECT_EQ(vec_red_xor(va), red_xor);
      EXPECT_EQ(vec_eq(va, vb),
                mismatch ? Logic::k0 : unknown ? Logic::kX : Logic::k1);
      EXPECT_EQ(vec_eq(va, va), all_01_ref(a) ? Logic::k1 : Logic::kX);

      for (Logic sel : kAllValues) {
        const Bits expect =
            sel == Logic::k1   ? a
            : sel == Logic::k0 ? b
                               : bitwise_ref(a, b, [](Logic t, Logic e) {
                                   return t == e && is_01(t) ? t : Logic::kX;
                                 });
        EXPECT_EQ(to_bits(vec_mux(sel, va, vb)), expect) << to_char(sel);
      }
      EXPECT_EQ(to_bits(vec_add(va, vb)), arith_ref(a, b, true));
      EXPECT_EQ(to_bits(vec_sub(va, vb)), arith_ref(a, b, false));

      // The in-place forms may write into an operand.
      LVec acc = va;
      vec_and(acc, acc, vb);
      EXPECT_EQ(acc, vec_and(va, vb));
      acc = va;
      vec_resolve(acc, acc, vb);
      EXPECT_EQ(acc, vec_resolve(va, vb));
      acc = vb;
      vec_mux(acc, Logic::kX, va, acc);
      EXPECT_EQ(acc, vec_mux(Logic::kX, va, vb));
    }
  }
}

TEST(LVecPlanes, PredicatesStringsAndEquality) {
  util::Rng rng(7);
  for (int width : boundary_widths(rng)) {
    for (Logic fill : kAllValues) {
      const LVec v(width, fill);
      EXPECT_EQ(v.all_01(), is_01(fill) || width == 0);
      EXPECT_EQ(v.has_x(), fill == Logic::kX && width > 0);
      EXPECT_EQ(v.all_z(), fill == Logic::kZ && width > 0);
      EXPECT_EQ(v.to_string(),
                std::string(static_cast<std::size_t>(width), to_char(fill)));
    }
    const Bits a = random_bits(rng, width);
    const LVec va = from_bits(a);
    std::string text;
    for (auto it = a.rbegin(); it != a.rend(); ++it) {
      text.push_back(to_char(*it));
    }
    EXPECT_EQ(va.to_string(), text);
    EXPECT_EQ(va.all_01(), all_01_ref(a));
    EXPECT_EQ(va.has_x(), std::count(a.begin(), a.end(), Logic::kX) > 0);
    EXPECT_EQ(va.to_uint().has_value(), all_01_ref(a));
    EXPECT_EQ(from_bits(a), va);
    if (width > 0) {
      // One flipped bit anywhere, the top bit included, breaks equality.
      const auto at = static_cast<std::size_t>(below(rng, width));
      Bits c = a;
      c[at] = c[at] == Logic::kZ ? Logic::k0 : Logic::kZ;
      EXPECT_FALSE(from_bits(c) == va) << "bit " << at;
      EXPECT_FALSE(LVec(width + 1, Logic::k0) == LVec(width, Logic::k0));
    }

    const std::uint64_t value = rng.next_u64();
    const LVec u = LVec::from_uint(value, width);
    const std::uint64_t low =
        width >= 64 ? value : value & ((std::uint64_t{1} << width) - 1);
    EXPECT_EQ(u.to_uint(), low);
    for (int i = 64; i < width; ++i) EXPECT_EQ(u.bit(i), Logic::k0) << i;
  }
}

TEST(LVecPlanes, ConcatAndSliceAcrossTheWordBoundary) {
  util::Rng rng(65);
  for (int trial = 0; trial < 300; ++trial) {
    const int wh = below(rng, 131);
    const int wl = below(rng, 131);
    const Bits hi = random_bits(rng, wh);
    const Bits lo = random_bits(rng, wl);
    Bits cat = lo;
    cat.insert(cat.end(), hi.begin(), hi.end());
    const LVec vcat = vec_concat(from_bits(hi), from_bits(lo));
    ASSERT_EQ(to_bits(vcat), cat) << wh << "+" << wl;

    const int total = wh + wl;
    const int start = below(rng, total + 1);
    const int len = below(rng, total - start + 1);
    const Bits part(cat.begin() + start, cat.begin() + start + len);
    LVec out = LVec::xs(7);  // reshaped in place
    vec_slice(out, vcat, start, len);
    ASSERT_EQ(to_bits(out), part) << start << "+" << len << " of " << total;
  }
}

TEST(LVecPlanes, ResizeKeepsLowBitsAndClearsNewOnes) {
  util::Rng rng(129);
  for (int from : {0, 5, 64, 65, 130}) {
    for (int to : {0, 3, 64, 66, 129}) {
      const Bits a = random_bits(rng, from);
      LVec v = from_bits(a);
      v.resize(to);
      Bits expect(static_cast<std::size_t>(to), Logic::k0);
      std::copy_n(a.begin(), std::min(from, to), expect.begin());
      EXPECT_EQ(to_bits(v), expect) << from << "->" << to;
      EXPECT_EQ(v, from_bits(expect)) << from << "->" << to;
    }
  }
}

}  // namespace
}  // namespace la1::rtl
