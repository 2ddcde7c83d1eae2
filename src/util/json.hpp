#pragma once
// Minimal JSON support: a value tree, a writer, and a recursive-descent
// parser. Used to persist graphs, schedules ("scheduling recipes"), and
// kernel timelines. Supports the JSON subset the library emits: objects,
// arrays, strings, doubles/integers, booleans, null. No external
// dependencies.

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ios {

/// A persisted document failed validation on load: truncated JSON, a
/// checksum mismatch, or a malformed format header. Callers that can fall
/// back to a cold start catch this type by name instead of pattern-matching
/// what() strings.
class CorruptFileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  JsonValue(std::nullptr_t) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  JsonValue(double d) : kind_(Kind::kNumber), number_(d) {}
  JsonValue(int v) : JsonValue(static_cast<double>(v)) {}
  JsonValue(std::int64_t v) : JsonValue(static_cast<double>(v)) {}
  JsonValue(const char* s) : kind_(Kind::kString), string_(s) {}
  JsonValue(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}

  static JsonValue array();
  static JsonValue object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  // ---- accessors (throw std::runtime_error on kind mismatch) ----
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  /// The number as a whole number in [lo, hi]. A fraction, NaN or a value
  /// out of range throws std::runtime_error ("must be an integer, got 2.5"
  /// or "must be in [1, 8], got 9"); callers prefix the key they parsed.
  std::int64_t as_int_in(std::int64_t lo, std::int64_t hi) const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::map<std::string, JsonValue>& as_object() const;

  /// Object member access; throws if missing or not an object.
  const JsonValue& at(const std::string& key) const;
  /// True if this is an object containing `key`.
  bool contains(const std::string& key) const;

  // ---- builders ----
  JsonValue& push_back(JsonValue v);            // array append
  JsonValue& set(const std::string& key, JsonValue v);  // object insert

  /// Serializes to a compact JSON string (keys sorted — deterministic).
  std::string dump() const;

  /// Parses a JSON document. Throws std::runtime_error with position info
  /// on malformed input.
  static JsonValue parse(std::string_view text);

 private:
  void dump_to(std::string& out) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Writes `text` to `path` atomically-ish (truncate+write). Throws on error.
void write_file(const std::string& path, const std::string& text);

/// Crash-safe write: `text` goes to `path`.tmp, is fsync'd, atomically
/// renamed over `path`, and the parent directory is fsync'd — a crash (even
/// kill -9 mid-write) leaves either the old file or the complete new one,
/// never a truncated hybrid. Throws std::runtime_error on failure (the temp
/// file is removed).
void write_file_atomic(const std::string& path, const std::string& text);

/// Hex content checksum of `text` (16 lowercase hex digits; FNV-1a + mix).
std::string content_checksum(std::string_view text);

/// Returns `doc` (must be an object) with a "checksum" member covering the
/// serialized form of every *other* member. Verified by
/// verify_content_checksum on load; detects torn/bit-rotted files that
/// still happen to parse.
JsonValue with_content_checksum(JsonValue doc);

/// Verifies the embedded "checksum" of a document produced by
/// with_content_checksum. A document without one passes (older files
/// predate checksums); a mismatch throws CorruptFileError naming `what`.
void verify_content_checksum(const JsonValue& doc, const std::string& what);

/// Reads a whole file. Throws std::runtime_error if unreadable.
std::string read_file(const std::string& path);

}  // namespace ios
