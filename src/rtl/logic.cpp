#include "rtl/logic.hpp"

#include <algorithm>
#include <functional>

namespace la1::rtl {

char to_char(Logic v) {
  switch (v) {
    case Logic::k0: return '0';
    case Logic::k1: return '1';
    case Logic::kX: return 'X';
    case Logic::kZ: return 'Z';
  }
  return '?';
}

Logic logic_from_char(char c) {
  switch (c) {
    case '0': return Logic::k0;
    case '1': return Logic::k1;
    case 'z': case 'Z': return Logic::kZ;
    default: return Logic::kX;
  }
}

Logic logic_and(Logic a, Logic b) {
  if (a == Logic::k0 || b == Logic::k0) return Logic::k0;
  if (a == Logic::k1 && b == Logic::k1) return Logic::k1;
  return Logic::kX;
}

Logic logic_or(Logic a, Logic b) {
  if (a == Logic::k1 || b == Logic::k1) return Logic::k1;
  if (a == Logic::k0 && b == Logic::k0) return Logic::k0;
  return Logic::kX;
}

Logic logic_xor(Logic a, Logic b) {
  if (!is_01(a) || !is_01(b)) return Logic::kX;
  return from_bool(a != b);
}

Logic logic_not(Logic a) {
  if (!is_01(a)) return Logic::kX;
  return a == Logic::k0 ? Logic::k1 : Logic::k0;
}

Logic resolve(Logic a, Logic b) {
  if (a == Logic::kZ) return b;
  if (b == Logic::kZ) return a;
  if (a == b) return a;
  return Logic::kX;
}

namespace {

constexpr std::uint64_t kAll = ~std::uint64_t{0};

/// Plane words of a constant `fill`: {aval, bval} with every bit set or clear.
std::uint64_t fill_a(Logic v) {
  return v == Logic::k1 || v == Logic::kX ? kAll : 0;
}
std::uint64_t fill_b(Logic v) {
  return v == Logic::kX || v == Logic::kZ ? kAll : 0;
}

/// Bits [pos, pos + n) of a plane, n <= 64, zero-extended; the range must
/// lie inside the plane.
std::uint64_t field(const std::uint64_t* plane, int pos, int n) {
  const int w = pos >> 6;
  const int s = pos & 63;
  std::uint64_t v = plane[w] >> s;
  if (s != 0 && s + n > 64) v |= plane[w + 1] << (64 - s);
  return n == 64 ? v : v & ((std::uint64_t{1} << n) - 1);
}

/// Writes the low `n` bits of `v` (n <= 64, higher bits clear) to bits
/// [pos, pos + n) of a plane.
void put(std::uint64_t* plane, int pos, int n, std::uint64_t v) {
  const int w = pos >> 6;
  const int s = pos & 63;
  const std::uint64_t m = n == 64 ? kAll : (std::uint64_t{1} << n) - 1;
  plane[w] = (plane[w] & ~(m << s)) | (v << s);
  if (s != 0 && s + n > 64) {
    plane[w + 1] = (plane[w + 1] & ~(m >> (64 - s))) | (v >> (64 - s));
  }
}

/// One word of both planes.
struct Word {
  std::uint64_t a;  // aval
  std::uint64_t b;  // bval
};

/// The word whose 0 bits are `zero`, whose 1 bits are `one`, and whose
/// other bits are X.
Word known(std::uint64_t zero, std::uint64_t one) {
  return {~zero, ~(zero | one)};
}

/// out = f(x, y) word by word; each word of `out` is written after both
/// operand words are read, so `out` may be an operand.
template <typename F>
void wordwise(LVec& out, const LVec& x, const LVec& y, F f) {
  out.resize(x.width());
  for (int w = 0; w < x.words(); ++w) {
    const Word r =
        f(Word{x.aval()[w], x.bval()[w]}, Word{y.aval()[w], y.bval()[w]});
    out.set_word(w, r.a, r.b);
  }
}

/// vec_add/vec_sub: all-X on any X/Z operand bit, else the low 64 bits of
/// `op(x, y)` and 0 above them. Both operands are read before `out` is
/// written.
template <typename Op>
void arith(LVec& out, const LVec& x, const LVec& y, Op op) {
  const int width = x.width();
  if (!x.all_01() || !y.all_01()) {
    out.assign(width, Logic::kX);
    return;
  }
  const std::uint64_t r = op(*x.to_uint(), *y.to_uint());
  out.assign(width, Logic::k0);
  if (width > 0) out.set_word(0, r, 0);
}

}  // namespace

void LVec::set_bit(int i, Logic v) {
  const std::uint64_t m = std::uint64_t{1} << (i & 63);
  const int w = i >> 6;
  std::uint64_t& a = a_plane()[w];
  std::uint64_t& b = b_plane()[w];
  a = (a & ~m) | (fill_a(v) & m);
  b = (b & ~m) | (fill_b(v) & m);
}

LVec::LVec(const LVec& other) : width_(other.width_), s_(other.s_) {
  if (!wide()) return;
  const std::size_t n = 2 * static_cast<std::size_t>(words());
  s_.heap = new std::uint64_t[n];
  std::copy(other.s_.heap, other.s_.heap + n, s_.heap);
}

LVec& LVec::operator=(const LVec& other) {
  if (this == &other) return *this;
  if (!wide() && !other.wide()) {
    width_ = other.width_;
    s_ = other.s_;
  } else if (wide() && other.wide() && words() == other.words()) {
    width_ = other.width_;
    std::copy(other.s_.heap, other.s_.heap + 2 * words(), s_.heap);
  } else {
    *this = LVec(other);
  }
  return *this;
}

void LVec::resize(int width) {
  if (width == width_) return;
  const int new_words = (width + 63) >> 6;
  if (wide() || width > 64) {
    // The storage changes shape: rebuild it, keeping the low words.
    Storage next{{0, 0}};
    std::uint64_t* a = next.words;
    std::uint64_t* b = next.words + 1;
    if (width > 64) {
      next.heap = new std::uint64_t[2 * static_cast<std::size_t>(new_words)]();
      a = next.heap;
      b = next.heap + new_words;
    }
    for (int w = 0; w < std::min(words(), new_words); ++w) {
      a[w] = aval()[w];
      b[w] = bval()[w];
    }
    if (wide()) delete[] s_.heap;
    s_ = next;
  }
  width_ = width;
  const int top = words() - 1;
  if (top >= 0) set_word(top, aval()[top], bval()[top]);
}

void LVec::assign(int width, Logic fill) {
  resize(width);
  for (int w = 0; w < words(); ++w) set_word(w, fill_a(fill), fill_b(fill));
}

void LVec::set_word(int w, std::uint64_t a, std::uint64_t b) {
  const std::uint64_t m = word_mask(w);
  a_plane()[w] = a & m;
  b_plane()[w] = b & m;
}

void LVec::copy_bits(const LVec& src, int src_lo, int n, int dst_lo) {
  for (int done = 0; done < n; done += 64) {
    const int k = std::min(64, n - done);
    put(a_plane(), dst_lo + done, k, field(src.aval(), src_lo + done, k));
    put(b_plane(), dst_lo + done, k, field(src.bval(), src_lo + done, k));
  }
}

bool LVec::operator==(const LVec& other) const {
  if (width_ != other.width_) return false;
  for (int w = 0; w < words(); ++w) {
    if (aval()[w] != other.aval()[w] || bval()[w] != other.bval()[w]) {
      return false;
    }
  }
  return true;
}

LVec LVec::from_uint(std::uint64_t value, int width) {
  LVec v(width, Logic::k0);
  if (width > 0) v.set_word(0, value, 0);
  return v;
}

bool LVec::all_01() const {
  for (int w = 0; w < words(); ++w) {
    if (bval()[w] != 0) return false;
  }
  return true;
}

bool LVec::has_x() const {
  for (int w = 0; w < words(); ++w) {
    if ((aval()[w] & bval()[w]) != 0) return true;
  }
  return false;
}

bool LVec::all_z() const {
  for (int w = 0; w < words(); ++w) {
    if (aval()[w] != 0 || bval()[w] != word_mask(w)) return false;
  }
  return width_ > 0;
}

std::optional<std::uint64_t> LVec::to_uint() const {
  if (!all_01()) return std::nullopt;
  return width_ > 0 ? aval()[0] : 0;
}

std::string LVec::to_string() const {
  std::string s;
  s.reserve(static_cast<std::size_t>(width_));
  for (int i = width_ - 1; i >= 0; --i) s.push_back(to_char(bit(i)));
  return s;
}

void vec_and(LVec& out, const LVec& x, const LVec& y) {
  wordwise(out, x, y, [](Word p, Word q) {
    return known((~p.a & ~p.b) | (~q.a & ~q.b), p.a & ~p.b & q.a & ~q.b);
  });
}

void vec_or(LVec& out, const LVec& x, const LVec& y) {
  wordwise(out, x, y, [](Word p, Word q) {
    return known(~p.a & ~p.b & ~q.a & ~q.b, (p.a & ~p.b) | (q.a & ~q.b));
  });
}

void vec_xor(LVec& out, const LVec& x, const LVec& y) {
  wordwise(out, x, y, [](Word p, Word q) {
    const std::uint64_t unknown = p.b | q.b;
    return Word{(p.a ^ q.a) | unknown, unknown};
  });
}

void vec_not(LVec& out, const LVec& x) {
  wordwise(out, x, x, [](Word p, Word) { return Word{~p.a | p.b, p.b}; });
}

Logic vec_red_and(const LVec& x) {
  bool all_one = true;
  for (int w = 0; w < x.words(); ++w) {
    const std::uint64_t a = x.aval()[w];
    const std::uint64_t b = x.bval()[w];
    const std::uint64_t valid = x.word_mask(w);
    if ((~a & ~b & valid) != 0) return Logic::k0;
    if ((a & ~b) != valid) all_one = false;
  }
  return all_one ? Logic::k1 : Logic::kX;
}

Logic vec_red_or(const LVec& x) {
  bool unknown = false;
  for (int w = 0; w < x.words(); ++w) {
    if ((x.aval()[w] & ~x.bval()[w]) != 0) return Logic::k1;
    if (x.bval()[w] != 0) unknown = true;
  }
  return unknown ? Logic::kX : Logic::k0;
}

Logic vec_red_xor(const LVec& x) {
  std::uint64_t parity = 0;
  for (int w = 0; w < x.words(); ++w) {
    if (x.bval()[w] != 0) return Logic::kX;
    parity ^= x.aval()[w];
  }
  return from_bool((__builtin_popcountll(parity) & 1) != 0);
}

Logic vec_eq(const LVec& x, const LVec& y) {
  bool unknown = false;
  for (int w = 0; w < x.words(); ++w) {
    const std::uint64_t b1 = x.bval()[w];
    const std::uint64_t b2 = y.bval()[w];
    if ((~b1 & ~b2 & (x.aval()[w] ^ y.aval()[w])) != 0) return Logic::k0;
    if ((b1 | b2) != 0) unknown = true;
  }
  return unknown ? Logic::kX : Logic::k1;
}

void vec_add(LVec& out, const LVec& x, const LVec& y) {
  arith(out, x, y, std::plus<>());
}

void vec_sub(LVec& out, const LVec& x, const LVec& y) {
  arith(out, x, y, std::minus<>());
}

void vec_concat(LVec& out, const LVec& hi, const LVec& lo) {
  out.resize(hi.width() + lo.width());
  out.copy_bits(lo, 0, lo.width(), 0);
  out.copy_bits(hi, 0, hi.width(), lo.width());
}

void vec_slice(LVec& out, const LVec& a, int lo, int width) {
  out.resize(width);
  out.copy_bits(a, lo, width, 0);
}

void vec_resolve(LVec& out, const LVec& x, const LVec& y) {
  wordwise(out, x, y, [](Word p, Word q) {
    const std::uint64_t pz = ~p.a & p.b;
    const std::uint64_t qz = ~q.a & q.b;
    // A Z side yields the other; otherwise equal bits pass and differing
    // bits are X.
    const std::uint64_t differ = (p.a ^ q.a) | (p.b ^ q.b);
    const std::uint64_t neither = ~pz & ~qz;
    return Word{(pz & q.a) | (~pz & qz & p.a) | (neither & (p.a | differ)),
                (pz & q.b) | (~pz & qz & p.b) | (neither & (p.b | differ))};
  });
}

void vec_mux(LVec& out, Logic sel, const LVec& then_v, const LVec& else_v) {
  if (sel == Logic::k1) {
    out = then_v;
    return;
  }
  if (sel == Logic::k0) {
    out = else_v;
    return;
  }
  wordwise(out, then_v, else_v, [](Word t, Word e) {
    // A bit survives only where both branches hold the same 0/1.
    const std::uint64_t same = ~(t.a ^ e.a) & ~t.b & ~e.b;
    return Word{t.a | ~same, ~same};
  });
}

}  // namespace la1::rtl
