#include "psl/parse.hpp"

#include <cctype>
#include <limits>
#include <set>
#include <vector>

namespace la1::psl {

namespace {

enum class Tok {
  kEnd, kIdent, kNumber,
  kLBrace, kRBrace, kLParen, kRParen, kLBracket, kRBracket,
  kSemi, kColon, kBar, kAndAnd, kBang,
  kArrow, kSuffixOverlap, kSuffixNext, kIff,
  kStar, kPlus, kEq, kGotoArrow,
  kAlways, kNever, kNext, kUntil, kUntilBang, kBefore, kBeforeBang,
  kEventuallyBang, kTrue, kFalse
};

struct Token {
  Tok kind = Tok::kEnd;
  std::string text;
  std::int64_t number = 0;
  std::size_t at = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) { advance(); }

  const Token& peek() const { return current_; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

  bool accept(Tok kind) {
    if (current_.kind != kind) return false;
    advance();
    return true;
  }

  Token expect(Tok kind, const char* what) {
    if (current_.kind != kind) {
      throw ParseError(std::string("expected ") + what, current_.at);
    }
    return take();
  }

 private:
  static bool ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
           c == '#';
  }

  void advance() {
    // Skip whitespace and // line comments.
    for (;;) {
      while (pos_ < text_.size() &&
             std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ + 1 < text_.size() && text_[pos_] == '/' &&
          text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      break;
    }
    current_ = Token{};
    current_.at = pos_;
    if (pos_ >= text_.size()) {
      current_.kind = Tok::kEnd;
      return;
    }
    const char c = text_[pos_];
    auto two = [&](char a, char b) {
      return c == a && pos_ + 1 < text_.size() && text_[pos_ + 1] == b;
    };
    auto three = [&](const char* s) {
      return text_.compare(pos_, 3, s) == 0;
    };

    if (three("|->")) { current_.kind = Tok::kSuffixOverlap; pos_ += 3; return; }
    if (three("|=>")) { current_.kind = Tok::kSuffixNext; pos_ += 3; return; }
    if (three("<->")) { current_.kind = Tok::kIff; pos_ += 3; return; }
    if (two('-', '>')) { current_.kind = Tok::kArrow; pos_ += 2; return; }
    if (two('&', '&')) { current_.kind = Tok::kAndAnd; pos_ += 2; return; }
    // '||' (boolean or) and '|' (SERE or) both lex to the or-token; the
    // grammar level gives each its meaning.
    if (two('|', '|')) { current_.kind = Tok::kBar; pos_ += 2; return; }
    switch (c) {
      case '{': current_.kind = Tok::kLBrace; ++pos_; return;
      case '}': current_.kind = Tok::kRBrace; ++pos_; return;
      case '(': current_.kind = Tok::kLParen; ++pos_; return;
      case ')': current_.kind = Tok::kRParen; ++pos_; return;
      case '[':
        // Distinguish repetition openers: [* [+ [= [->
        if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '-' &&
            pos_ + 2 < text_.size() && text_[pos_ + 2] == '>') {
          current_.kind = Tok::kGotoArrow;
          pos_ += 3;
          return;
        }
        current_.kind = Tok::kLBracket;
        ++pos_;
        return;
      case ']': current_.kind = Tok::kRBracket; ++pos_; return;
      case ';': current_.kind = Tok::kSemi; ++pos_; return;
      case ':': current_.kind = Tok::kColon; ++pos_; return;
      case '|': current_.kind = Tok::kBar; ++pos_; return;
      case '!': current_.kind = Tok::kBang; ++pos_; return;
      case '*': current_.kind = Tok::kStar; ++pos_; return;
      case '+': current_.kind = Tok::kPlus; ++pos_; return;
      case '=': current_.kind = Tok::kEq; ++pos_; return;
      default: break;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      current_.kind = Tok::kNumber;
      // Every count in the grammar is consumed as an int; reject anything
      // larger here, before the accumulation could overflow.
      constexpr std::int64_t kMax = std::numeric_limits<int>::max();
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        const int digit = text_[pos_] - '0';
        if (current_.number > (kMax - digit) / 10) {
          throw ParseError("number too large", current_.at);
        }
        current_.number = current_.number * 10 + digit;
        ++pos_;
      }
      return;
    }
    if (ident_char(c) && !std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = pos_;
      while (pos_ < text_.size() && ident_char(text_[pos_])) ++pos_;
      current_.text = text_.substr(start, pos_ - start);
      static const std::set<std::string> keywords{
          "always", "never", "next",  "true",      "false",
          "until",  "before", "eventually"};
      // Bit-selected signal names: "r[3]" is one identifier (keywords like
      // next[2] keep their bracket as syntax). Repetitions are unambiguous —
      // they always open with [*, [+, [= or [->.
      if (keywords.count(current_.text) == 0 && pos_ < text_.size() &&
          text_[pos_] == '[') {
        std::size_t scan = pos_ + 1;
        while (scan < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[scan]))) {
          ++scan;
        }
        if (scan > pos_ + 1 && scan < text_.size() && text_[scan] == ']') {
          pos_ = scan + 1;
          current_.text = text_.substr(start, pos_ - start);
        }
      }
      // Comparison atoms: "location=value" is one signal name (the explicit
      // checker's StateEnv evaluates it against ASM locations). '=' never
      // appears as a boolean operator in this grammar.
      if (keywords.count(current_.text) == 0 && pos_ + 1 < text_.size() &&
          text_[pos_] == '=' && ident_char(text_[pos_ + 1])) {
        std::size_t scan = pos_ + 1;
        while (scan < text_.size() && ident_char(text_[scan])) ++scan;
        pos_ = scan;
        current_.text = text_.substr(start, pos_ - start);
      }
      // Keywords; '!' suffixed keywords lex as keyword + kBang lookahead.
      auto bang_follows = [&] {
        return pos_ < text_.size() && text_[pos_] == '!';
      };
      if (current_.text == "always") { current_.kind = Tok::kAlways; return; }
      if (current_.text == "never") { current_.kind = Tok::kNever; return; }
      if (current_.text == "next") { current_.kind = Tok::kNext; return; }
      if (current_.text == "true") { current_.kind = Tok::kTrue; return; }
      if (current_.text == "false") { current_.kind = Tok::kFalse; return; }
      if (current_.text == "until") {
        if (bang_follows()) { ++pos_; current_.kind = Tok::kUntilBang; return; }
        current_.kind = Tok::kUntil;
        return;
      }
      if (current_.text == "before") {
        if (bang_follows()) { ++pos_; current_.kind = Tok::kBeforeBang; return; }
        current_.kind = Tok::kBefore;
        return;
      }
      if (current_.text == "eventually") {
        if (bang_follows()) {
          ++pos_;
          current_.kind = Tok::kEventuallyBang;
          return;
        }
        throw ParseError("'eventually' must be strong: eventually!", current_.at);
      }
      current_.kind = Tok::kIdent;
      return;
    }
    throw ParseError(std::string("unexpected character '") + c + "'", pos_);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  Token current_;
};

class Parser {
 public:
  explicit Parser(const std::string& text) : lex_(text) {}

  PropPtr property() {
    PropPtr p = property_inner();
    lex_.expect(Tok::kEnd, "end of input");
    return p;
  }

  SerePtr sere_top() {
    SerePtr s = sere();
    lex_.expect(Tok::kEnd, "end of input");
    return s;
  }

  BExprPtr bexpr_top() {
    BExprPtr b = bexpr();
    lex_.expect(Tok::kEnd, "end of input");
    return b;
  }

  VUnit vunit_top() {
    Token kw = lex_.expect(Tok::kIdent, "'vunit'");
    if (kw.text != "vunit") throw ParseError("expected 'vunit'", kw.at);
    const Token name = lex_.expect(Tok::kIdent, "vunit name");
    VUnit vunit(name.text);
    lex_.expect(Tok::kLBrace, "'{'");
    while (!lex_.accept(Tok::kRBrace)) {
      const Token kind = lex_.expect(Tok::kIdent, "assert/assume/cover");
      const Token dname = lex_.expect(Tok::kIdent, "directive name");
      lex_.expect(Tok::kColon, "':'");
      if (kind.text == "assert") {
        vunit.add_assert(dname.text, property_inner());
      } else if (kind.text == "assume") {
        vunit.add_assume(dname.text, property_inner());
      } else if (kind.text == "cover") {
        lex_.expect(Tok::kLBrace, "'{'");
        SerePtr s = sere();
        lex_.expect(Tok::kRBrace, "'}'");
        vunit.add_cover(dname.text, std::move(s));
      } else {
        throw ParseError("expected assert, assume or cover", kind.at);
      }
      lex_.expect(Tok::kSemi, "';'");
    }
    lex_.expect(Tok::kEnd, "end of input");
    return vunit;
  }

 private:
  /// One level of nesting for the scope of a recursive production,
  /// bounded by kMaxDepth.
  class Nest {
   public:
    explicit Nest(Parser& p) : depth_(&p.depth_) {
      if (++*depth_ > kMaxDepth) {
        --*depth_;
        throw ParseError("nesting deeper than the limit of " +
                             std::to_string(kMaxDepth),
                         p.lex_.peek().at);
      }
    }
    ~Nest() { --*depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    int* depth_;
  };

  // --- boolean layer ----------------------------------------------------
  BExprPtr bexpr() { return b_iff_level(); }

  BExprPtr b_iff_level() {
    BExprPtr lhs = b_impl_level();
    while (lex_.accept(Tok::kIff)) lhs = b_iff(lhs, b_impl_level());
    return lhs;
  }

  BExprPtr b_impl_level() {
    BExprPtr lhs = b_or_level();
    if (lex_.accept(Tok::kArrow)) return b_implies(lhs, b_impl_level());
    return lhs;
  }

  BExprPtr b_or_level() {
    BExprPtr lhs = b_and_level();
    while (lex_.peek().kind == Tok::kBar) {
      lex_.take();
      lhs = b_or(lhs, b_and_level());
    }
    return lhs;
  }

  BExprPtr b_and_level() {
    BExprPtr lhs = b_unary();
    while (lex_.accept(Tok::kAndAnd)) lhs = b_and(lhs, b_unary());
    return lhs;
  }

  BExprPtr b_unary() {
    const Nest nest(*this);
    if (lex_.accept(Tok::kBang)) return b_not(b_unary());
    if (lex_.accept(Tok::kLParen)) {
      BExprPtr inner = bexpr();
      lex_.expect(Tok::kRParen, "')'");
      return inner;
    }
    if (lex_.accept(Tok::kTrue)) return b_true();
    if (lex_.accept(Tok::kFalse)) return b_false();
    const Token t = lex_.expect(Tok::kIdent, "signal name");
    return b_sig(t.text);
  }

  // --- SERE layer ---------------------------------------------------------
  SerePtr sere() { return sere_or(); }

  SerePtr sere_or() {
    SerePtr lhs = sere_and();
    while (lex_.peek().kind == Tok::kBar) {
      lex_.take();
      lhs = s_or(lhs, sere_and());
    }
    return lhs;
  }

  SerePtr sere_and() {
    SerePtr lhs = sere_concat();
    while (lex_.accept(Tok::kAndAnd)) lhs = s_and(lhs, sere_concat());
    return lhs;
  }

  SerePtr sere_concat() {
    SerePtr lhs = sere_fusion();
    while (lex_.accept(Tok::kSemi)) lhs = s_concat(lhs, sere_fusion());
    return lhs;
  }

  SerePtr sere_fusion() {
    SerePtr lhs = sere_postfix();
    while (lex_.accept(Tok::kColon)) lhs = s_fusion(lhs, sere_postfix());
    return lhs;
  }

  SerePtr sere_postfix() {
    SerePtr base = sere_primary();
    while (true) {
      if (lex_.peek().kind == Tok::kLBracket) {
        lex_.take();
        base = repetition(std::move(base));
        continue;
      }
      if (lex_.peek().kind == Tok::kGotoArrow) {
        // b[->n] applies to a boolean primary.
        lex_.take();
        const Token n = count("repetition count");
        lex_.expect(Tok::kRBracket, "']'");
        if (base->kind != Sere::Kind::kBool) {
          throw ParseError("[->n] applies to a boolean", n.at);
        }
        base = s_goto(base->expr, static_cast<int>(n.number));
        continue;
      }
      return base;
    }
  }

  /// A count token, bounded by kMaxCount.
  Token count(const char* what) {
    const Token t = lex_.expect(Tok::kNumber, what);
    if (t.number > kMaxCount) {
      throw ParseError(std::string(what) + " " + std::to_string(t.number) +
                           " exceeds the limit of " + std::to_string(kMaxCount),
                       t.at);
    }
    return t;
  }

  SerePtr repetition(SerePtr base) {
    if (lex_.accept(Tok::kStar)) {
      if (lex_.accept(Tok::kRBracket)) return s_star(std::move(base));
      const Token n = count("repetition count");
      if (lex_.accept(Tok::kColon)) {
        const Token m = count("repetition bound");
        lex_.expect(Tok::kRBracket, "']'");
        return s_star(std::move(base), static_cast<int>(n.number),
                      static_cast<int>(m.number));
      }
      lex_.expect(Tok::kRBracket, "']'");
      return s_star(std::move(base), static_cast<int>(n.number),
                    static_cast<int>(n.number));
    }
    if (lex_.accept(Tok::kPlus)) {
      lex_.expect(Tok::kRBracket, "']'");
      return s_plus(std::move(base));
    }
    if (lex_.accept(Tok::kEq)) {
      const Token n = count("occurrence count");
      lex_.expect(Tok::kRBracket, "']'");
      if (base->kind != Sere::Kind::kBool) {
        throw ParseError("[=n] applies to a boolean", n.at);
      }
      return s_occurs(base->expr, static_cast<int>(n.number));
    }
    throw ParseError("expected repetition", lex_.peek().at);
  }

  SerePtr sere_primary() {
    const Nest nest(*this);
    if (lex_.accept(Tok::kLBrace)) {
      SerePtr inner = sere();
      lex_.expect(Tok::kRBrace, "'}'");
      return inner;
    }
    return s_bool(bexpr_no_impl());
  }

  /// Boolean expression without top-level '->' (reserved for properties) —
  /// parenthesized implications are still fine.
  BExprPtr bexpr_no_impl() { return b_or_level(); }

  // --- property layer -------------------------------------------------------
  /// Continues a property that started with a boolean expression: handles
  /// ->, until, before, boolean connectives, or yields the plain boolean.
  PropPtr boolean_property_suffix(BExprPtr lhs) {
    // Extend boolean connectives first ("(a || b) && c").
    for (;;) {
      if (lex_.accept(Tok::kAndAnd)) {
        lhs = b_and(std::move(lhs), b_unary());
        continue;
      }
      if (lex_.peek().kind == Tok::kBar) {
        lex_.take();
        lhs = b_or(std::move(lhs), b_and_level());
        continue;
      }
      break;
    }
    switch (lex_.peek().kind) {
      case Tok::kArrow: {
        lex_.take();
        if (lex_.peek().kind == Tok::kNext) {
          const auto [n, rhs] = next_clause();
          return p_suffix_impl(s_bool(std::move(lhs)),
                               n == 0 ? s_bool(rhs)
                                      : s_concat(s_skip(n), s_bool(rhs)));
        }
        BExprPtr rhs = bexpr_no_impl();
        return p_suffix_impl(s_bool(std::move(lhs)), s_bool(std::move(rhs)));
      }
      case Tok::kUntil:
        lex_.take();
        return p_until(std::move(lhs), bexpr_no_impl(), false);
      case Tok::kUntilBang:
        lex_.take();
        return p_until(std::move(lhs), bexpr_no_impl(), true);
      case Tok::kBefore:
        lex_.take();
        return p_before(std::move(lhs), bexpr_no_impl(), false);
      case Tok::kBeforeBang:
        lex_.take();
        return p_before(std::move(lhs), bexpr_no_impl(), true);
      default:
        return p_bool(std::move(lhs));
    }
  }

  PropPtr property_inner() {
    const Nest nest(*this);
    if (lex_.accept(Tok::kAlways)) return p_always(property_inner());
    if (lex_.accept(Tok::kNever)) {
      lex_.expect(Tok::kLBrace, "'{'");
      SerePtr s = sere();
      lex_.expect(Tok::kRBrace, "'}'");
      return p_never(std::move(s));
    }
    if (lex_.accept(Tok::kEventuallyBang)) return p_eventually(bexpr_no_impl());
    if (lex_.peek().kind == Tok::kNext) return next_property();

    if (lex_.peek().kind == Tok::kLParen) {
      // Property-level parentheses: "(p)"; if the inner parse yields a plain
      // boolean, property operators may continue after the ')'.
      lex_.take();
      PropPtr inner = property_inner();
      lex_.expect(Tok::kRParen, "')'");
      if (inner->kind == Prop::Kind::kBoolean) {
        return boolean_property_suffix(inner->expr);
      }
      return inner;
    }

    if (lex_.peek().kind == Tok::kLBrace) {
      lex_.take();
      SerePtr antecedent = sere();
      lex_.expect(Tok::kRBrace, "'}'");
      const bool overlap = lex_.peek().kind == Tok::kSuffixOverlap;
      if (!overlap && lex_.peek().kind != Tok::kSuffixNext) {
        throw ParseError("expected |-> or |=>", lex_.peek().at);
      }
      lex_.take();
      lex_.expect(Tok::kLBrace, "'{'");
      SerePtr consequent = sere();
      lex_.expect(Tok::kRBrace, "'}'");
      const bool strong = lex_.accept(Tok::kBang);
      return p_suffix_impl(std::move(antecedent), std::move(consequent), overlap,
                           strong);
    }

    // Leading boolean.
    return boolean_property_suffix(bexpr_no_impl());
  }

  /// next ['[' n ']'] bexpr
  std::pair<int, BExprPtr> next_clause() {
    lex_.expect(Tok::kNext, "'next'");
    int n = 1;
    if (lex_.accept(Tok::kLBracket)) {
      const Token t = count("cycle count");
      lex_.expect(Tok::kRBracket, "']'");
      n = static_cast<int>(t.number);
    }
    return {n, bexpr_no_impl()};
  }

  PropPtr next_property() {
    const auto [n, rhs] = next_clause();
    return p_next(rhs, n);
  }

  Lexer lex_;
  int depth_ = 0;
};

}  // namespace

PropPtr parse_property(const std::string& text) {
  return Parser(text).property();
}

SerePtr parse_sere(const std::string& text) { return Parser(text).sere_top(); }

BExprPtr parse_bexpr(const std::string& text) { return Parser(text).bexpr_top(); }

VUnit parse_vunit(const std::string& text) { return Parser(text).vunit_top(); }

}  // namespace la1::psl
