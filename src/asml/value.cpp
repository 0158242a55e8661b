#include "asml/value.hpp"

#include <stdexcept>

#include "util/strings.hpp"

namespace la1::asml {

bool Value::as_bool() const {
  if (!is_bool()) throw std::invalid_argument("Value is not a bool: " + to_string());
  return std::get<bool>(v_);
}

std::int64_t Value::as_int() const {
  if (!is_int()) throw std::invalid_argument("Value is not an int: " + to_string());
  return std::get<std::int64_t>(v_);
}

const Symbol& Value::as_symbol() const {
  if (!is_symbol()) {
    throw std::invalid_argument("Value is not a symbol: " + to_string());
  }
  return std::get<Symbol>(v_);
}

const Word& Value::as_word() const {
  if (!is_word()) throw std::invalid_argument("Value is not a word: " + to_string());
  return std::get<Word>(v_);
}

std::string Value::to_string() const {
  if (is_bool()) return std::get<bool>(v_) ? "true" : "false";
  if (is_int()) return std::to_string(std::get<std::int64_t>(v_));
  if (is_symbol()) return std::get<Symbol>(v_).name;
  const Word& w = std::get<Word>(v_);
  return util::cat({"w", std::to_string(w.width), ":", std::to_string(w.bits)});
}

std::size_t hash_value(const Value& v) {
  const std::string s = v.to_string();
  std::size_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace la1::asml
