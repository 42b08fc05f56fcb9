// Minimal JSON reader for the test harness.
//
// Just enough to (a) validate that --metrics-out / --trace-out documents
// parse, and (b) compute a structural signature for schema golden tests:
// StructureSignature() flattens a parsed document into sorted, de-duplicated
// "path:type" lines (array elements collapse to "[]"), so the golden file
// pins the schema — key names and value kinds — without pinning values.
//
// Not a general-purpose parser: numbers are stored as double, no \uXXXX
// surrogate handling beyond byte-wise copy-through, inputs are trusted test
// artifacts.
#ifndef MAMDR_TESTS_TESTING_JSON_H_
#define MAMDR_TESTS_TESTING_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mamdr {
namespace obs {
namespace json {

struct Value;
using ValuePtr = std::unique_ptr<Value>;

enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

struct Value {
  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<ValuePtr> array;
  std::map<std::string, ValuePtr> object;  // sorted: deterministic walks

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* Find(const std::string& key) const;
};

/// Parse `text`; returns nullptr and sets *error (with an offset) on
/// malformed input. Trailing whitespace is allowed, trailing garbage is not.
ValuePtr Parse(const std::string& text, std::string* error);

/// Sorted unique "path:type" lines describing the document's shape, one per
/// line ('\n'-terminated). Array indices collapse to "[]" so variable-length
/// arrays of uniform records produce a fixed signature.
std::string StructureSignature(const Value& root);

}  // namespace json
}  // namespace obs
}  // namespace mamdr

#endif  // MAMDR_TESTS_TESTING_JSON_H_
