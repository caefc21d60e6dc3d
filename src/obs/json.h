// Minimal JSON support for the observability layer: a streaming writer used
// by the trace exporter and the structured report emitters, and a small
// recursive-descent parser used by tests and verifiers to check what was
// emitted. No external dependencies; the subset implemented is exactly what
// Chrome trace-event files and BENCH_*.json reports need.
#ifndef BKUP_OBS_JSON_H_
#define BKUP_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace bkup {

// Streaming JSON writer. Handles commas and string escaping; callers are
// responsible for balanced Begin/End calls (asserted in debug builds).
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  // Key inside an object; follow with a value (or Begin*).
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Uint(uint64_t value);
  JsonWriter& Double(double value);  // non-finite values emit null
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  // Convenience: Key(k) + value in one call.
  JsonWriter& Field(std::string_view key, std::string_view value);
  JsonWriter& Field(std::string_view key, const char* value);
  JsonWriter& Field(std::string_view key, int64_t value);
  JsonWriter& Field(std::string_view key, uint64_t value);
  JsonWriter& Field(std::string_view key, double value);
  JsonWriter& Field(std::string_view key, bool value);

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void BeforeValue();
  void Raw(std::string_view text);

  std::string out_;
  // One frame per open container: 'o' object, 'a' array; tracks whether a
  // comma is due before the next element.
  struct Frame {
    char kind;
    bool has_elements = false;
    bool key_pending = false;
  };
  std::vector<Frame> stack_;
};

// Escapes `s` as the body of a JSON string (no surrounding quotes).
std::string JsonEscape(std::string_view s);

// A parsed JSON value. Objects preserve insertion order (vector of pairs),
// which also sidesteps incomplete-type issues in the recursive definition.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return bool_; }
  double number() const { return number_; }
  int64_t int_value() const { return static_cast<int64_t>(number_); }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  // Object lookup; returns nullptr when absent (or not an object).
  const JsonValue* Find(std::string_view key) const;
  // Chained lookup that never crashes: returns a null value when absent.
  const JsonValue& operator[](std::string_view key) const;

  static JsonValue MakeBool(bool b);
  static JsonValue MakeNumber(double d);
  static JsonValue MakeString(std::string s);
  static JsonValue MakeArray(std::vector<JsonValue> elements);
  static JsonValue MakeObject(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// Parses a complete JSON document. Trailing garbage is an error.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace bkup

#endif  // BKUP_OBS_JSON_H_
