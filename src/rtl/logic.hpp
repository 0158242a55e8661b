// Four-state logic values and bit vectors for the RTL level.
//
// The paper's final refinement target is synthesizable Verilog; this module
// supplies Verilog's value domain: 0, 1, X (unknown) and Z (high impedance),
// with conservative X-propagation in operators and multi-driver resolution
// for the tristate-buffered bank interconnect (paper §4.4).
//
// An LVec stores two bit-planes in the VPI aval/bval encoding the compiled
// simulator (csim) also uses: 0 = (0,0), 1 = (1,0), Z = (0,1), X = (1,1).
// Up to 64 bits both planes live inline; wider vectors keep them on the
// heap. Every operator is a handful of word operations per 64 bits.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace la1::rtl {

/// A single four-state logic value.
enum class Logic : std::uint8_t { k0 = 0, k1 = 1, kX = 2, kZ = 3 };

char to_char(Logic v);
Logic logic_from_char(char c);

inline Logic from_bool(bool b) { return b ? Logic::k1 : Logic::k0; }
inline bool is_01(Logic v) { return v == Logic::k0 || v == Logic::k1; }

Logic logic_and(Logic a, Logic b);
Logic logic_or(Logic a, Logic b);
Logic logic_xor(Logic a, Logic b);
Logic logic_not(Logic a);

/// Verilog wire resolution of two simultaneous drivers.
Logic resolve(Logic a, Logic b);

/// A fixed-width vector of four-state logic, bit 0 = LSB.
///
/// Invariant: plane bits at and above width() are 0, so equal vectors have
/// equal plane words.
class LVec {
 public:
  LVec() = default;
  explicit LVec(int width, Logic fill = Logic::kX) { assign(width, fill); }
  LVec(const LVec& other);
  LVec(LVec&& other) noexcept : width_(other.width_), s_(other.s_) {
    other.width_ = 0;
    other.s_ = Storage{};
  }
  LVec& operator=(const LVec& other);
  LVec& operator=(LVec&& other) noexcept {
    std::swap(width_, other.width_);
    std::swap(s_, other.s_);
    return *this;
  }
  ~LVec() {
    if (wide()) delete[] s_.heap;
  }

  /// Builds a vector from the low `width` bits of `value`.
  static LVec from_uint(std::uint64_t value, int width);
  /// All-X / all-Z / all-zero vectors.
  static LVec xs(int width) { return LVec(width, Logic::kX); }
  static LVec zs(int width) { return LVec(width, Logic::kZ); }
  static LVec zeros(int width) { return LVec(width, Logic::k0); }

  int width() const { return width_; }
  /// 64-bit words per plane.
  int words() const { return (width_ + 63) >> 6; }

  Logic bit(int i) const {
    const std::uint64_t m = std::uint64_t{1} << (i & 63);
    const int w = i >> 6;
    const unsigned code = ((aval()[w] & m) != 0 ? 1u : 0u) |
                          ((bval()[w] & m) != 0 ? 2u : 0u);
    return kDecode[code];
  }
  void set_bit(int i, Logic v);

  /// Reshapes to `width` bits of `fill`, reusing the storage.
  void assign(int width, Logic fill);
  /// Changes the width, keeping the low bits; new bits are 0. A no-op when
  /// the width is unchanged, so an operator may write into an operand.
  void resize(int width);

  /// Plane words, LSB word first: aval holds the value bit, bval marks X/Z.
  const std::uint64_t* aval() const { return wide() ? s_.heap : s_.words; }
  const std::uint64_t* bval() const { return aval() + (wide() ? words() : 1); }
  /// The bits of plane word `w` below width().
  std::uint64_t word_mask(int w) const {
    const int rest = width_ - 64 * w;
    return rest >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << rest) - 1;
  }
  /// Writes plane word `w`; bits past width() are dropped.
  void set_word(int w, std::uint64_t a, std::uint64_t b);
  /// Copies bits [src_lo, src_lo + n) of `src` to [dst_lo, dst_lo + n) of
  /// this vector; `src` must not be this vector.
  void copy_bits(const LVec& src, int src_lo, int n, int dst_lo);

  bool all_01() const;
  bool has_x() const;
  bool all_z() const;

  /// Unsigned value; nullopt when any bit is X or Z.
  std::optional<std::uint64_t> to_uint() const;

  /// MSB-first string, e.g. "10XZ".
  std::string to_string() const;

  bool operator==(const LVec& other) const;

 private:
  static constexpr Logic kDecode[4] = {Logic::k0, Logic::k1, Logic::kZ,
                                       Logic::kX};

  /// Up to 64 bits the planes are the two inline words {aval, bval};
  /// wider vectors own 2 * words() heap words, aval words then bval words.
  union Storage {
    std::uint64_t words[2];
    std::uint64_t* heap;
  };

  bool wide() const { return width_ > 64; }
  std::uint64_t* a_plane() { return wide() ? s_.heap : s_.words; }
  std::uint64_t* b_plane() { return a_plane() + (wide() ? words() : 1); }

  int width_ = 0;
  Storage s_{{0, 0}};
};

// Vector operators (operands must have equal width unless noted). Each has
// a value form and an in-place form writing `out`, which reuses its
// storage. The bitwise forms, add/sub and mux may write into an operand;
// concat and slice may not.
void vec_and(LVec& out, const LVec& a, const LVec& b);
void vec_or(LVec& out, const LVec& a, const LVec& b);
void vec_xor(LVec& out, const LVec& a, const LVec& b);
void vec_not(LVec& out, const LVec& a);
Logic vec_red_and(const LVec& a);
Logic vec_red_or(const LVec& a);
Logic vec_red_xor(const LVec& a);
/// Equality: k1/k0 when both sides fully defined, kX otherwise — except a
/// definite mismatch in 0/1 bits yields k0 even in the presence of X.
Logic vec_eq(const LVec& a, const LVec& b);
/// Unsigned add/sub modulo 2^width; any X/Z operand bit makes the result
/// all-X. Only the low 64 bits are added; wider results are 0 above them.
void vec_add(LVec& out, const LVec& a, const LVec& b);
void vec_sub(LVec& out, const LVec& a, const LVec& b);
/// Concatenates MSB-part `hi` above `lo`.
void vec_concat(LVec& out, const LVec& hi, const LVec& lo);
/// Bits [lo, lo+width) of `a`.
void vec_slice(LVec& out, const LVec& a, int lo, int width);
/// Two-driver resolution, bitwise.
void vec_resolve(LVec& out, const LVec& a, const LVec& b);
/// Ternary select: sel must be 1 bit; X sel yields X where branches differ.
void vec_mux(LVec& out, Logic sel, const LVec& then_v, const LVec& else_v);

inline LVec vec_and(const LVec& a, const LVec& b) {
  LVec o;
  vec_and(o, a, b);
  return o;
}
inline LVec vec_or(const LVec& a, const LVec& b) {
  LVec o;
  vec_or(o, a, b);
  return o;
}
inline LVec vec_xor(const LVec& a, const LVec& b) {
  LVec o;
  vec_xor(o, a, b);
  return o;
}
inline LVec vec_not(const LVec& a) {
  LVec o;
  vec_not(o, a);
  return o;
}
inline LVec vec_add(const LVec& a, const LVec& b) {
  LVec o;
  vec_add(o, a, b);
  return o;
}
inline LVec vec_sub(const LVec& a, const LVec& b) {
  LVec o;
  vec_sub(o, a, b);
  return o;
}
inline LVec vec_concat(const LVec& hi, const LVec& lo) {
  LVec o;
  vec_concat(o, hi, lo);
  return o;
}
inline LVec vec_slice(const LVec& a, int lo, int width) {
  LVec o;
  vec_slice(o, a, lo, width);
  return o;
}
inline LVec vec_resolve(const LVec& a, const LVec& b) {
  LVec o;
  vec_resolve(o, a, b);
  return o;
}
inline LVec vec_mux(Logic sel, const LVec& then_v, const LVec& else_v) {
  LVec o;
  vec_mux(o, sel, then_v, else_v);
  return o;
}

}  // namespace la1::rtl
