// A parser for a practical PSL subset, so properties can be written as text
// (the paper writes its properties in PSL source form).
//
// Grammar (informal):
//   property := 'always' property
//             | 'never' '{' sere '}'
//             | 'eventually!' bexpr
//             | '{' sere '}' ('|->' | '|=>') '{' sere '}' ['!']
//             | bexpr '->' ( 'next' ['[' n ']'] bexpr | bexpr )
//             | bexpr ('until'|'until!'|'before'|'before!') bexpr
//             | 'next' ['[' n ']'] bexpr
//             | bexpr
//   sere     := sere ';' sere | sere ':' sere | sere '|' sere | sere '&&' sere
//             | '{' sere '}' | bexpr | sere rep
//   rep      := '[*]' | '[+]' | '[*' n ']' | '[*' n ':' m ']'
//             | '[->' n ']' | '[=' n ']'
//   bexpr    := the boolean layer with ! && || -> <-> ( ) true false ids
//
// Signal identifiers may contain letters, digits, '_', '.', and '#'
// (e.g. bank0.dout_valid, W#). Every count (repetition, occurrence, goto,
// next) is at most kMaxCount: a SERE repetition unrolls into one NFA copy
// per count, so an unbounded count is a parse error, not a hang.
#pragma once

#include <stdexcept>
#include <string>

#include "psl/temporal.hpp"

namespace la1::psl {

/// The largest count the parser accepts in [*n], [*n:m], [->n], [=n] and
/// next[n].
inline constexpr int kMaxCount = 1024;

class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, std::size_t at)
      : std::runtime_error(message + " (at offset " + std::to_string(at) + ")"),
        offset(at) {}
  std::size_t offset;
};

/// Parses one property. Throws ParseError on malformed input.
PropPtr parse_property(const std::string& text);

/// Parses one SERE (without enclosing braces).
SerePtr parse_sere(const std::string& text);

/// Parses one boolean-layer expression.
BExprPtr parse_bexpr(const std::string& text);

/// Parses a verification unit:
///
///   vunit <name> {
///     assert <name> : <property> ;
///     assume <name> : <property> ;
///     cover  <name> : { <sere> } ;
///   }
///
/// Line comments (`// ...`) are allowed anywhere.
VUnit parse_vunit(const std::string& text);

}  // namespace la1::psl
