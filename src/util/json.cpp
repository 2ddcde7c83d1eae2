#include "util/json.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/hash.hpp"

namespace ios {

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

namespace {

[[noreturn]] void kind_error(const char* want) {
  throw std::runtime_error(std::string("json: value is not a ") + want);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) kind_error("number");
  return number_;
}

std::int64_t JsonValue::as_int() const {
  const double d = as_number();
  const auto i = static_cast<std::int64_t>(std::llround(d));
  return i;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_error("string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) kind_error("array");
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) kind_error("object");
  return object_;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) {
    throw std::runtime_error("json: missing key '" + key + "'");
  }
  return it->second;
}

bool JsonValue::contains(const std::string& key) const {
  return kind_ == Kind::kObject && object_.count(key) > 0;
}

JsonValue& JsonValue::push_back(JsonValue v) {
  if (kind_ != Kind::kArray) kind_error("array");
  array_.push_back(std::move(v));
  return *this;
}

JsonValue& JsonValue::set(const std::string& key, JsonValue v) {
  if (kind_ != Kind::kObject) kind_error("object");
  object_[key] = std::move(v);
  return *this;
}

namespace {

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(double d, std::string& out) {
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out += buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out += buf;
  }
}

}  // namespace

std::int64_t JsonValue::as_int_in(std::int64_t lo, std::int64_t hi) const {
  const double d = as_number();
  std::string text;
  dump_number(d, text);
  if (d != std::trunc(d)) {  // also NaN
    throw std::runtime_error("must be an integer, got " + text);
  }
  // Range-check the double before the cast: one outside int64 is UB.
  const bool fits = d >= -0x1p63 && d < 0x1p63;
  if (!fits || static_cast<std::int64_t>(d) < lo ||
      static_cast<std::int64_t>(d) > hi) {
    throw std::runtime_error("must be in [" + std::to_string(lo) + ", " +
                             std::to_string(hi) + "], got " + text);
  }
  return static_cast<std::int64_t>(d);
}

void JsonValue::dump_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      dump_number(number_, out);
      break;
    case Kind::kString:
      dump_string(string_, out);
      break;
    case Kind::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& v : array_) {
        if (!first) out += ',';
        v.dump_to(out);
        first = false;
      }
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out += ',';
        dump_string(k, out);
        out += ':';
        v.dump_to(out);
        first = false;
      }
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return JsonValue(parse_string());
    if (consume_literal("true")) return JsonValue(true);
    if (consume_literal("false")) return JsonValue(false);
    if (consume_literal("null")) return JsonValue(nullptr);
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            const int code =
                std::stoi(std::string(text_.substr(pos_, 4)), nullptr, 16);
            pos_ += 4;
            // Only BMP codepoints < 0x80 are emitted by our writer; encode
            // anything else as UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("invalid value");
    // The whole token must be the number: std::stod alone reads "2-1" as 2.
    const std::string token(text_.substr(start, pos_ - start));
    std::size_t used = 0;
    double value = 0;
    try {
      value = std::stod(token, &used);
    } catch (const std::exception&) {
      fail("invalid number");
    }
    if (used != token.size()) fail("invalid number");
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  f.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!f) throw std::runtime_error("write failed: " + path);
}

void write_file_atomic(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw std::runtime_error("cannot open for writing: " + tmp);
  std::size_t written = 0;
  while (written < text.size()) {
    const ssize_t n =
        ::write(fd, text.data() + written, text.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      std::remove(tmp.c_str());
      throw std::runtime_error("write failed: " + tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  // fsync before rename: the rename must not be durable before the data is,
  // or a crash could leave a correctly-named empty file.
  if (::fsync(fd) != 0) {
    ::close(fd);
    std::remove(tmp.c_str());
    throw std::runtime_error("fsync failed: " + tmp);
  }
  if (::close(fd) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("close failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " to " + path);
  }
  // fsync the directory so the rename itself survives a crash.
  std::string dir = path;
  const std::size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? "." : dir.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

std::string content_checksum(std::string_view text) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_bytes(text)));
  return buf;
}

namespace {

// The checksum covers the document serialized *without* its "checksum"
// member (JsonValue::dump sorts keys, so both sides serialize identically).
std::string dump_without_checksum(const JsonValue& doc) {
  JsonValue stripped = JsonValue::object();
  for (const auto& [key, value] : doc.as_object()) {
    if (key != "checksum") stripped.set(key, value);
  }
  return stripped.dump();
}

}  // namespace

JsonValue with_content_checksum(JsonValue doc) {
  if (!doc.is_object()) {
    throw std::runtime_error(
        "with_content_checksum: document must be a JSON object");
  }
  doc.set("checksum", content_checksum(dump_without_checksum(doc)));
  return doc;
}

void verify_content_checksum(const JsonValue& doc, const std::string& what) {
  if (!doc.is_object() || !doc.contains("checksum")) return;
  const std::string& stored = doc.at("checksum").as_string();
  const std::string actual = content_checksum(dump_without_checksum(doc));
  if (stored != actual) {
    throw CorruptFileError(what + ": content checksum mismatch (stored " +
                           stored + ", computed " + actual +
                           ") — file is corrupt or truncated");
  }
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open for reading: " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

}  // namespace ios
