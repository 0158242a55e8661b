// Minimal JSON value model: writer + recursive-descent parser.
//
// Used by the bench `--json` reporting (util::BenchReport) and the harness
// trace export. Objects preserve insertion order so emitted reports diff
// cleanly across runs; the parser exists so tests can round-trip every
// emitted report (write -> parse -> compare).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace la1::util {

class Json {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Members = std::vector<std::pair<std::string, Json>>;

  Json() = default;  // null
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}
  Json(std::int64_t v) : kind_(Kind::kInt), int_(v) {}
  Json(int v) : Json(static_cast<std::int64_t>(v)) {}
  Json(std::uint64_t v) : Json(static_cast<std::int64_t>(v)) {}
  Json(double v) : kind_(Kind::kDouble), double_(v) {}
  Json(std::string v) : kind_(Kind::kString), string_(std::move(v)) {}
  Json(const char* v) : Json(std::string(v)) {}

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;  // accepts kInt too
  const std::string& as_string() const;

  /// Array append; throws unless this is an array.
  Json& push(Json v);
  /// Object insert-or-replace; throws unless this is an object.
  Json& set(const std::string& key, Json v);

  const Array& items() const;
  const Members& members() const;
  /// Object member lookup; nullptr when absent (or not an object).
  const Json* find(const std::string& key) const;

  std::size_t size() const;

  bool operator==(const Json& o) const;

  /// Serializes; indent > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;

  /// Parses a complete JSON document; throws std::invalid_argument with a
  /// byte offset on malformed input or trailing garbage.
  static Json parse(const std::string& text);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Members members_;
};

}  // namespace la1::util
