// The repo's one JSON value type: the code generator reads its routines
// specification through it (Sec. II-C) and the Chrome trace export writes
// every trace entry through it. Supports the full JSON grammar except \u
// escapes beyond the Basic Latin range; numbers are doubles.
//
// dump() round-trips exactly: Json::parse(j.dump()) == j for every value
// with finite numbers. Strings escape '"', '\\' and every byte below 0x20
// (as \u00XX); integral numbers below 1e15 in magnitude print as
// integers, all others in the shortest form that parses back to the same
// double. A non-finite number has no JSON spelling and dumps as null.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace fblas {

class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Json() : type_(Type::Null) {}
  static Json boolean(bool b);
  static Json number(double d);
  static Json string(std::string s);
  static Json array();
  static Json object();

  /// Parses a JSON document; throws ParseError with line/column context.
  static Json parse(std::string_view text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;  ///< number checked to be integral
  const std::string& as_string() const;

  // Array access.
  std::size_t size() const;
  const Json& at(std::size_t i) const;

  // Object access.
  bool contains(const std::string& key) const;
  const Json& at(const std::string& key) const;
  /// Returns the member or a shared null value.
  const Json& get(const std::string& key) const;
  const std::map<std::string, Json>& members() const;

  // Mutation (used by tests and by spec serialization).
  void push_back(Json v);
  Json& operator[](const std::string& key);

  /// Serializes back to JSON text (stable member order).
  std::string dump(int indent = 0) const;

  bool operator==(const Json& other) const = default;

 private:
  void dump_impl(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<Json> arr_;
  std::map<std::string, Json> obj_;
};

}  // namespace fblas
