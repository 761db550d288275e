#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

/// A minimal JSON value for the benchmark's outputs: objects keep their
/// insertion order, doubles print in the shortest form that reads back
/// exactly, and non-finite doubles print as null.
class Json {
 public:
  Json() : kind_(Kind::kNull) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}  // NOLINT
  Json(const char* s) : kind_(Kind::kString), text_(s) {}  // NOLINT
  Json(std::string s) : kind_(Kind::kString), text_(std::move(s)) {}  // NOLINT
  template <typename T,
            std::enable_if_t<std::is_arithmetic_v<T> &&
                                 !std::is_same_v<T, bool>,
                             int> = 0>
  Json(T number) : kind_(Kind::kNumber) {  // NOLINT
    char buf[64];
    std::to_chars_result r;
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(number)) {
        kind_ = Kind::kNull;
        return;
      }
      r = std::to_chars(buf, buf + sizeof buf, static_cast<double>(number));
    } else {
      r = std::to_chars(buf, buf + sizeof buf, number);
    }
    text_.assign(buf, r.ptr);
  }

  static Json Object() { return Json(Kind::kObject); }
  static Json Array() { return Json(Kind::kArray); }

  /// Object member (appended; keys are not deduplicated).
  Json& Set(std::string key, Json value) {
    members_.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  /// Array element.
  Json& Push(Json value) {
    members_.emplace_back(std::string(), std::move(value));
    return *this;
  }

  std::string Dump() const {
    std::string out;
    DumpTo(out);
    return out;
  }

 private:
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  explicit Json(Kind kind) : kind_(kind) {}

  static void Quote(const std::string& s, std::string& out) {
    out += '"';
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
  }

  void DumpTo(std::string& out) const {
    switch (kind_) {
      case Kind::kNull: out += "null"; return;
      case Kind::kBool: out += bool_ ? "true" : "false"; return;
      case Kind::kNumber: out += text_; return;
      case Kind::kString: Quote(text_, out); return;
      case Kind::kObject:
      case Kind::kArray: {
        bool object = kind_ == Kind::kObject;
        out += object ? '{' : '[';
        for (size_t i = 0; i < members_.size(); ++i) {
          if (i > 0) out += ", ";
          if (object) {
            Quote(members_[i].first, out);
            out += ": ";
          }
          members_[i].second.DumpTo(out);
        }
        out += object ? '}' : ']';
        return;
      }
    }
  }

  Kind kind_;
  bool bool_ = false;
  std::string text_;  // number text or string value
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
