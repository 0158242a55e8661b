// Parser for the `.msc` chart format (ast.hpp): a tiny hand-written lexer
// plus a recursive-descent parser, in the style of the PSL property parser
// but with full source diagnostics — every error carries a 1-based
// line/column, the offending source line, and renders as a caret snippet:
//
//   read_mode.msc:6:52: unknown clock 'J' (expected K or K#)
//     NetworkProcessor -> ReadPort : OnReadRequest[0]()@J
//                                                        ^
//
// Grammar (// comments allowed anywhere; identifiers may contain letters,
// digits, '_', '.', '$' and '#', so tap names like b$bank.dout_valid and
// pins like W# lex as single tokens):
//
//   chart   := 'msc' IDENT '{' decl* '}'
//   decl    := 'lifeline' IDENT
//            | 'trigger' ('read' | 'write')
//            | 'signal' IDENT '=' IDENT
//            | item
//   item    := message | region
//   message := IDENT '->' IDENT ':' IDENT
//              '[' NUM ('..' NUM)? ']' '(' ')' '@' ('K' | 'K#') ('/' NUM)?
//   region  := 'opt' '{' item* '}'
//            | 'loop' '[' NUM ']' ('period' NUM)? '{' item* '}'
//
// Regions nest at most kMaxDepth deep: the parser and every pass over the
// chart recurse once per region, so deeper nesting is a diagnostic, not a
// stack overflow.
#pragma once

#include <stdexcept>
#include <string>

#include "msc/ast.hpp"

namespace la1::msc {

/// The deepest region nesting the parser accepts.
inline constexpr int kMaxDepth = 256;

/// One source-anchored finding.
struct Diagnostic {
  std::string file;  // label only; no file is ever opened here
  int line = 1;      // 1-based
  int column = 1;    // 1-based
  std::string message;
  std::string source_line;  // the full offending line, tabs preserved

  /// "file:line:col: message" plus the source line (clipped around the
  /// column when long) and a caret under the column.
  std::string render() const;
};

class ParseError : public std::runtime_error {
 public:
  explicit ParseError(Diagnostic d);

  const Diagnostic& diagnostic() const { return diag_; }

 private:
  Diagnostic diag_;
};

/// Parses one chart. `file` labels diagnostics (no IO happens). Throws
/// ParseError on the first syntax or chart-level error the parser can
/// anchor to a position (unknown clock, negative cycle, duplicate or
/// unknown lifeline, unterminated region, trailing garbage, ...).
/// Structural checks that need the whole chart remain in Chart::validate().
Chart parse_chart(const std::string& text, const std::string& file = "<msc>");

}  // namespace la1::msc
