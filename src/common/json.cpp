#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>

namespace fblas {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    std::ostringstream os;
    os << "JSON parse error at line " << line << ", column " << col << ": "
       << msg;
    throw ParseError(os.str());
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json::string(parse_string());
      case 't':
        if (consume_literal("true")) return Json::boolean(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json::boolean(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json();
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      take();
      return obj;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("object member name must be a string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[key] = parse_value();
      skip_ws();
      const char c = take();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    return obj;
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      take();
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    return arr;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') break;
      if (c == '\\') {
        const char e = take();
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= unsigned(h - '0');
              else if (h >= 'a' && h <= 'f') code |= unsigned(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= unsigned(h - 'A' + 10);
              else fail("invalid \\u escape");
            }
            if (code > 0x7f) fail("non-ASCII \\u escapes are unsupported");
            out.push_back(static_cast<char>(code));
            break;
          }
          default:
            fail("invalid escape sequence");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') take();
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0;
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (res.ec != std::errc() || res.ptr != text_.data() + pos_ ||
        pos_ == start) {
      pos_ = start;
      fail("invalid number");
    }
    return Json::number(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

const Json kNull{};

void dump_string(std::string& out, const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (u < 0x20) {
      out += "\\u00";
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xf]);
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

void dump_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";
  } else if (d == std::floor(d) && std::abs(d) < 1e15) {
    out += std::to_string(static_cast<std::int64_t>(d));
  } else {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), d);
    out.append(buf, res.ptr);
  }
}

}  // namespace

Json Json::boolean(bool b) {
  Json j;
  j.type_ = Type::Bool;
  j.bool_ = b;
  return j;
}

Json Json::number(double d) {
  Json j;
  j.type_ = Type::Number;
  j.num_ = d;
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.type_ = Type::String;
  j.str_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::Array;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::Object;
  return j;
}

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

bool Json::as_bool() const {
  FBLAS_REQUIRE(is_bool(), "JSON value is not a boolean");
  return bool_;
}

double Json::as_number() const {
  FBLAS_REQUIRE(is_number(), "JSON value is not a number");
  return num_;
}

std::int64_t Json::as_int() const {
  const double d = as_number();
  const auto i = static_cast<std::int64_t>(d);
  FBLAS_REQUIRE(static_cast<double>(i) == d, "JSON number is not integral");
  return i;
}

const std::string& Json::as_string() const {
  FBLAS_REQUIRE(is_string(), "JSON value is not a string");
  return str_;
}

std::size_t Json::size() const {
  if (is_array()) return arr_.size();
  if (is_object()) return obj_.size();
  throw ConfigError("JSON value has no size");
}

const Json& Json::at(std::size_t i) const {
  FBLAS_REQUIRE(is_array(), "JSON value is not an array");
  FBLAS_REQUIRE(i < arr_.size(), "JSON array index out of range");
  return arr_[i];
}

bool Json::contains(const std::string& key) const {
  return is_object() && obj_.find(key) != obj_.end();
}

const Json& Json::at(const std::string& key) const {
  FBLAS_REQUIRE(is_object(), "JSON value is not an object");
  const auto it = obj_.find(key);
  FBLAS_REQUIRE(it != obj_.end(), "missing JSON member '" + key + "'");
  return it->second;
}

const Json& Json::get(const std::string& key) const {
  if (!contains(key)) return kNull;
  return obj_.at(key);
}

const std::map<std::string, Json>& Json::members() const {
  FBLAS_REQUIRE(is_object(), "JSON value is not an object");
  return obj_;
}

void Json::push_back(Json v) {
  FBLAS_REQUIRE(is_array(), "JSON value is not an array");
  arr_.push_back(std::move(v));
}

Json& Json::operator[](const std::string& key) {
  FBLAS_REQUIRE(is_object(), "JSON value is not an object");
  return obj_[key];
}

void Json::dump_impl(std::string& out, int indent, int depth) const {
  const std::string pad(static_cast<std::size_t>(indent * (depth + 1)), ' ');
  const std::string pad_close(static_cast<std::size_t>(indent * depth), ' ');
  const char* nl = indent > 0 ? "\n" : "";
  switch (type_) {
    case Type::Null:
      out += "null";
      break;
    case Type::Bool:
      out += bool_ ? "true" : "false";
      break;
    case Type::Number:
      dump_number(out, num_);
      break;
    case Type::String:
      dump_string(out, str_);
      break;
    case Type::Array: {
      out.push_back('[');
      bool first = true;
      for (const Json& v : arr_) {
        if (!first) out.push_back(',');
        first = false;
        out += nl;
        out += pad;
        v.dump_impl(out, indent, depth + 1);
      }
      if (!arr_.empty()) {
        out += nl;
        out += pad_close;
      }
      out.push_back(']');
      break;
    }
    case Type::Object: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out.push_back(',');
        first = false;
        out += nl;
        out += pad;
        dump_string(out, k);
        out += indent > 0 ? ": " : ":";
        v.dump_impl(out, indent, depth + 1);
      }
      if (!obj_.empty()) {
        out += nl;
        out += pad_close;
      }
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_impl(out, indent, 0);
  return out;
}

}  // namespace fblas
