#include "msc/parse.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

namespace la1::msc {

std::string Diagnostic::render() const {
  std::ostringstream out;
  out << file << ':' << line << ':' << column << ": " << message;
  if (!source_line.empty()) {
    // A long line is clipped to this many characters on each side of the
    // caret, with "..." where it was cut.
    constexpr std::size_t kContext = 60;
    const std::size_t at = std::min(
        static_cast<std::size_t>(std::max(column, 1) - 1), source_line.size());
    const std::size_t first = at > kContext ? at - kContext : 0;
    const std::size_t last = std::min(source_line.size(), at + kContext);
    const char* left = first > 0 ? "..." : "";
    out << "\n  " << left << source_line.substr(first, last - first)
        << (last < source_line.size() ? "..." : "") << "\n  "
        << std::string(std::strlen(left), ' ');
    // Tabs in the source line keep their width in the caret line so the
    // caret stays under the offending column.
    for (std::size_t i = first; i < at; ++i) {
      out << (source_line[i] == '\t' ? '\t' : ' ');
    }
    out << '^';
  }
  return out.str();
}

ParseError::ParseError(Diagnostic d)
    : std::runtime_error(d.render()), diag_(std::move(d)) {}

namespace {

enum class Tok {
  kIdent,
  kNumber,
  kArrow,   // ->
  kMinus,   // - (only reachable when not followed by '>')
  kLBrace,
  kRBrace,
  kLBracket,
  kRBracket,
  kLParen,
  kRParen,
  kColon,
  kAt,
  kSlash,
  kEquals,
  kDotDot,  // ..
  kEnd,
};

const char* tok_name(Tok t) {
  switch (t) {
    case Tok::kIdent: return "identifier";
    case Tok::kNumber: return "number";
    case Tok::kArrow: return "'->'";
    case Tok::kMinus: return "'-'";
    case Tok::kLBrace: return "'{'";
    case Tok::kRBrace: return "'}'";
    case Tok::kLBracket: return "'['";
    case Tok::kRBracket: return "']'";
    case Tok::kLParen: return "'('";
    case Tok::kRParen: return "')'";
    case Tok::kColon: return "':'";
    case Tok::kAt: return "'@'";
    case Tok::kSlash: return "'/'";
    case Tok::kEquals: return "'='";
    case Tok::kDotDot: return "'..'";
    case Tok::kEnd: return "end of input";
  }
  return "?";
}

struct Token {
  Tok kind = Tok::kEnd;
  std::string text;
  int line = 1;
  int column = 1;
};

// Identifiers carry protocol names: tap paths (b0.dout_valid_k), templated
// taps (b$bank.fetch) and low-active pins (K#, W#), so '.', '$' and '#'
// are identifier characters. '..' outside an identifier is the range token.
bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}

bool ident_cont(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '.' || c == '$' || c == '#';
}

class Parser {
 public:
  Parser(const std::string& text, std::string file)
      : file_(std::move(file)) {
    split_lines(text);
    lex(text);
  }

  Chart parse() {
    Chart chart;
    expect_keyword("msc");
    chart.name = expect(Tok::kIdent, "chart name").text;
    expect(Tok::kLBrace, "'{' to open the chart body");
    std::set<std::string> lanes;
    while (!at(Tok::kRBrace)) {
      if (at(Tok::kEnd)) {
        fail(peek(), "unterminated chart body: expected '}' before end of "
                     "input");
      }
      parse_decl(chart, lanes);
    }
    advance();  // '}'
    if (!at(Tok::kEnd)) {
      fail(peek(), "trailing input after chart body");
    }
    return chart;
  }

 private:
  void split_lines(const std::string& text) {
    std::string cur;
    for (char c : text) {
      if (c == '\n') {
        lines_.push_back(cur);
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
    lines_.push_back(cur);
  }

  void lex(const std::string& text) {
    int line = 1;
    int col = 1;
    std::size_t i = 0;
    const std::size_t n = text.size();
    auto push = [&](Tok kind, std::string tok_text, int tok_col) {
      Token t;
      t.kind = kind;
      t.text = std::move(tok_text);
      t.line = line;
      t.column = tok_col;
      tokens_.push_back(std::move(t));
    };
    while (i < n) {
      const char c = text[i];
      if (c == '\n') {
        ++line;
        col = 1;
        ++i;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++col;
        ++i;
        continue;
      }
      if (c == '/' && i + 1 < n && text[i + 1] == '/') {
        while (i < n && text[i] != '\n') ++i;
        continue;
      }
      const int start_col = col;
      if (ident_start(c)) {
        std::string word(1, c);
        ++i;
        ++col;
        while (i < n && ident_cont(text[i])) {
          word.push_back(text[i]);
          ++i;
          ++col;
        }
        push(Tok::kIdent, std::move(word), start_col);
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        std::string digits(1, c);
        ++i;
        ++col;
        while (i < n && std::isdigit(static_cast<unsigned char>(text[i]))) {
          digits.push_back(text[i]);
          ++i;
          ++col;
        }
        push(Tok::kNumber, std::move(digits), start_col);
        continue;
      }
      if (c == '-' && i + 1 < n && text[i + 1] == '>') {
        push(Tok::kArrow, "->", start_col);
        i += 2;
        col += 2;
        continue;
      }
      if (c == '.' && i + 1 < n && text[i + 1] == '.') {
        push(Tok::kDotDot, "..", start_col);
        i += 2;
        col += 2;
        continue;
      }
      Tok kind;
      switch (c) {
        case '-': kind = Tok::kMinus; break;
        case '{': kind = Tok::kLBrace; break;
        case '}': kind = Tok::kRBrace; break;
        case '[': kind = Tok::kLBracket; break;
        case ']': kind = Tok::kRBracket; break;
        case '(': kind = Tok::kLParen; break;
        case ')': kind = Tok::kRParen; break;
        case ':': kind = Tok::kColon; break;
        case '@': kind = Tok::kAt; break;
        case '/': kind = Tok::kSlash; break;
        case '=': kind = Tok::kEquals; break;
        default: {
          Token bad;
          bad.line = line;
          bad.column = start_col;
          bad.text.assign(1, c);
          fail(bad, std::string("unexpected character '") + c + "'");
        }
      }
      push(kind, std::string(1, c), start_col);
      ++i;
      ++col;
    }
    Token end;
    end.kind = Tok::kEnd;
    end.line = line;
    end.column = col;
    tokens_.push_back(std::move(end));
  }

  const Token& peek() const { return tokens_[pos_]; }

  bool at(Tok kind) const { return peek().kind == kind; }

  bool at_keyword(const char* word) const {
    return at(Tok::kIdent) && peek().text == word;
  }

  Token advance() { return tokens_[pos_++]; }

  Token expect(Tok kind, const std::string& what) {
    if (!at(kind)) {
      fail(peek(), "expected " + what + ", found " + describe(peek()));
    }
    return advance();
  }

  void expect_keyword(const char* word) {
    if (!at_keyword(word)) {
      fail(peek(), std::string("expected '") + word + "', found " +
                       describe(peek()));
    }
    advance();
  }

  std::string describe(const Token& t) const {
    if (t.kind == Tok::kIdent || t.kind == Tok::kNumber) {
      return "'" + t.text + "'";
    }
    return tok_name(t.kind);
  }

  [[noreturn]] void fail(const Token& t, const std::string& message) const {
    Diagnostic d;
    d.file = file_;
    d.line = t.line;
    d.column = t.column;
    d.message = message;
    if (t.line >= 1 && t.line <= static_cast<int>(lines_.size())) {
      d.source_line = lines_[static_cast<std::size_t>(t.line - 1)];
    }
    throw ParseError(std::move(d));
  }

  int expect_count(const std::string& what) {
    if (at(Tok::kMinus)) {
      const Token minus = peek();
      // Negative numbers never mean anything in a timeline; catch them at
      // the sign so the caret lands on the '-'.
      fail(minus, "negative " + what + " (must be >= 0)");
    }
    const Token num = expect(Tok::kNumber, what);
    long long value = 0;
    for (char c : num.text) {
      value = value * 10 + (c - '0');
      if (value > 1000000) {
        fail(num, what + " out of range: " + num.text);
      }
    }
    return static_cast<int>(value);
  }

  void parse_decl(Chart& chart, std::set<std::string>& lanes) {
    if (at_keyword("lifeline")) {
      advance();
      const Token name = expect(Tok::kIdent, "lifeline name");
      if (!lanes.insert(name.text).second) {
        fail(name, "duplicate lifeline '" + name.text + "'");
      }
      chart.lifelines.push_back(name.text);
      return;
    }
    if (at_keyword("trigger")) {
      advance();
      const Token t = expect(Tok::kIdent, "trigger kind");
      if (t.text == "read") {
        chart.trigger = Trigger::kRead;
      } else if (t.text == "write") {
        chart.trigger = Trigger::kWrite;
      } else {
        fail(t, "unknown trigger '" + t.text + "' (expected read or write)");
      }
      return;
    }
    if (at_keyword("signal")) {
      advance();
      SignalBinding b;
      b.operation = expect(Tok::kIdent, "operation name").text;
      expect(Tok::kEquals, "'=' in signal binding");
      b.signal = expect(Tok::kIdent, "signal name").text;
      chart.signals.push_back(std::move(b));
      return;
    }
    chart.items.push_back(parse_item());
  }

  Item parse_item() {
    if (at_keyword("opt") || at_keyword("loop")) {
      return Item::of(parse_region());
    }
    return Item::of(parse_message());
  }

  Region parse_region() {
    const Token keyword = advance();
    if (depth_ == kMaxDepth) {
      fail(keyword, keyword.text + " region nested deeper than the limit of " +
                        std::to_string(kMaxDepth));
    }
    ++depth_;
    Region region;
    if (keyword.text == "opt") {
      region.kind = Region::Kind::kOpt;
    } else {
      region.kind = Region::Kind::kLoop;
      expect(Tok::kLBracket, "'[' before loop count");
      region.count = expect_count("loop count");
      expect(Tok::kRBracket, "']' after loop count");
      if (at_keyword("period")) {
        advance();
        region.period = expect_count("loop period");
      }
    }
    expect(Tok::kLBrace, "'{' to open the " + keyword.text + " region");
    while (!at(Tok::kRBrace)) {
      if (at(Tok::kEnd)) {
        // Anchor the diagnostic on the region keyword, not EOF — that is
        // where the unclosed region starts.
        fail(keyword, "unterminated " + keyword.text +
                          " region: expected '}' before end of input");
      }
      region.items.push_back(parse_item());
    }
    advance();  // '}'
    --depth_;
    return region;
  }

  Message parse_message() {
    Message m;
    m.from = expect(Tok::kIdent, "lifeline name").text;
    expect(Tok::kArrow, "'->' after source lifeline");
    m.to = expect(Tok::kIdent, "lifeline name").text;
    expect(Tok::kColon, "':' before the message annotation");
    m.operation = expect(Tok::kIdent, "operation name").text;
    expect(Tok::kLBracket, "'[' before the cycle annotation");
    m.cycle_lo = expect_count("cycle");
    m.cycle_hi = m.cycle_lo;
    if (at(Tok::kDotDot)) {
      advance();
      m.cycle_hi = expect_count("cycle");
      if (m.cycle_hi < m.cycle_lo) {
        fail(peek(), "inverted latency window [" +
                         std::to_string(m.cycle_lo) + ".." +
                         std::to_string(m.cycle_hi) + "]");
      }
    }
    expect(Tok::kRBracket, "']' after the cycle annotation");
    expect(Tok::kLParen, "'(' in the message annotation");
    expect(Tok::kRParen, "')' in the message annotation");
    expect(Tok::kAt, "'@' before the clock");
    const Token clock = expect(Tok::kIdent, "clock name");
    if (clock.text == "K") {
      m.clock = Clock::kK;
    } else if (clock.text == "K#") {
      m.clock = Clock::kKs;
    } else {
      fail(clock,
           "unknown clock '" + clock.text + "' (expected K or K#)");
    }
    if (at(Tok::kSlash)) {
      advance();
      m.duration = expect_count("duration");
    }
    return m;
  }

  std::string file_;
  std::vector<std::string> lines_;
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // regions open around the current item
};

}  // namespace

Chart parse_chart(const std::string& text, const std::string& file) {
  return Parser(text, file).parse();
}

}  // namespace la1::msc
