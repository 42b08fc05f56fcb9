#include "testing/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <set>

namespace mamdr {
namespace obs {
namespace json {

const Value* Value::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  auto it = object.find(key);
  return it == object.end() ? nullptr : it->second.get();
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  ValuePtr Run() {
    ValuePtr v = ParseValue();
    if (v == nullptr) return nullptr;
    SkipWs();
    if (pos_ != text_.size()) {
      Error("trailing garbage");
      return nullptr;
    }
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  void Error(const char* what) {
    if (error_ != nullptr) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "json: %s at offset %zu", what, pos_);
      *error_ = buf;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(const char* word) {
    size_t n = 0;
    while (word[n] != '\0') ++n;
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  ValuePtr ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) {
      Error("unexpected end of input");
      return nullptr;
    }
    char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') {
      if (!ConsumeWord("null")) {
        Error("bad literal");
        return nullptr;
      }
      return std::make_unique<Value>();
    }
    return ParseNumber();
  }

  ValuePtr ParseObject() {
    ++pos_;  // '{'
    auto v = std::make_unique<Value>();
    v->kind = Kind::kObject;
    SkipWs();
    if (Consume('}')) return v;
    while (true) {
      SkipWs();
      ValuePtr key = ParseString();
      if (key == nullptr) return nullptr;
      if (!Consume(':')) {
        Error("expected ':'");
        return nullptr;
      }
      ValuePtr member = ParseValue();
      if (member == nullptr) return nullptr;
      v->object[key->string_value] = std::move(member);
      if (Consume(',')) continue;
      if (Consume('}')) return v;
      Error("expected ',' or '}'");
      return nullptr;
    }
  }

  ValuePtr ParseArray() {
    ++pos_;  // '['
    auto v = std::make_unique<Value>();
    v->kind = Kind::kArray;
    SkipWs();
    if (Consume(']')) return v;
    while (true) {
      ValuePtr element = ParseValue();
      if (element == nullptr) return nullptr;
      v->array.push_back(std::move(element));
      if (Consume(',')) continue;
      if (Consume(']')) return v;
      Error("expected ',' or ']'");
      return nullptr;
    }
  }

  ValuePtr ParseString() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      Error("expected string");
      return nullptr;
    }
    ++pos_;
    auto v = std::make_unique<Value>();
    v->kind = Kind::kString;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return v;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': v->string_value.push_back('"'); break;
          case '\\': v->string_value.push_back('\\'); break;
          case '/': v->string_value.push_back('/'); break;
          case 'n': v->string_value.push_back('\n'); break;
          case 't': v->string_value.push_back('\t'); break;
          case 'r': v->string_value.push_back('\r'); break;
          case 'b': v->string_value.push_back('\b'); break;
          case 'f': v->string_value.push_back('\f'); break;
          case 'u': {
            // Byte-wise copy-through (see header): keep the escape verbatim.
            v->string_value += "\\u";
            for (int i = 0; i < 4 && pos_ < text_.size(); ++i) {
              v->string_value.push_back(text_[pos_++]);
            }
            break;
          }
          default:
            Error("bad escape");
            return nullptr;
        }
      } else {
        v->string_value.push_back(c);
      }
    }
    Error("unterminated string");
    return nullptr;
  }

  ValuePtr ParseBool() {
    auto v = std::make_unique<Value>();
    v->kind = Kind::kBool;
    if (ConsumeWord("true")) {
      v->bool_value = true;
      return v;
    }
    if (ConsumeWord("false")) {
      v->bool_value = false;
      return v;
    }
    Error("bad literal");
    return nullptr;
  }

  ValuePtr ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      Error("expected value");
      return nullptr;
    }
    std::string num = text_.substr(start, pos_ - start);
    char* end = nullptr;
    double d = std::strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      Error("bad number");
      return nullptr;
    }
    auto v = std::make_unique<Value>();
    v->kind = Kind::kNumber;
    v->number_value = d;
    return v;
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kNull: return "null";
    case Kind::kBool: return "bool";
    case Kind::kNumber: return "number";
    case Kind::kString: return "string";
    case Kind::kArray: return "array";
    case Kind::kObject: return "object";
  }
  return "?";
}

void CollectPaths(const Value& v, const std::string& path,
                  std::set<std::string>* lines) {
  lines->insert(path + ":" + KindName(v.kind));
  if (v.kind == Kind::kObject) {
    for (const auto& kv : v.object) {
      CollectPaths(*kv.second, path + "." + kv.first, lines);
    }
  } else if (v.kind == Kind::kArray) {
    for (const ValuePtr& element : v.array) {
      CollectPaths(*element, path + "[]", lines);
    }
  }
}

}  // namespace

ValuePtr Parse(const std::string& text, std::string* error) {
  return Parser(text, error).Run();
}

std::string StructureSignature(const Value& root) {
  std::set<std::string> lines;
  CollectPaths(root, "$", &lines);
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out.push_back('\n');
  }
  return out;
}

}  // namespace json
}  // namespace obs
}  // namespace mamdr
