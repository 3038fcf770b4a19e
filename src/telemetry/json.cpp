#include "telemetry/json.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "core/error.hpp"

namespace hpdr::telemetry {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void Value::set(std::string key, Value val) {
  auto& obj = as_object();
  for (auto& [k, v] : obj) {
    if (k == key) {
      v = std::move(val);
      return;
    }
  }
  obj.emplace_back(std::move(key), std::move(val));
}

const Value* Value::get(std::string_view key) const {
  for (const auto& [k, v] : as_object())
    if (k == key) return &v;
  return nullptr;
}

namespace {

void dump_number(std::ostream& os, double d) {
  // Non-finite values are not representable in JSON; emit null so the file
  // stays parseable (a NaN metric is a bug to find in the data, not a
  // reason to corrupt the manifest).
  if (!std::isfinite(d)) {
    os << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  os << buf;
}

void dump_rec(std::ostream& os, const Value& v, int indent, int depth) {
  const auto pad = [&](int d) {
    if (indent > 0) {
      os << '\n';
      for (int i = 0; i < d * indent; ++i) os << ' ';
    }
  };
  if (v.is_null()) {
    os << "null";
  } else if (v.is_bool()) {
    os << (v.as_bool() ? "true" : "false");
  } else if (v.is_number()) {
    // Integers dump without a decimal point (non-negative ones unsigned, so
    // values above INT64_MAX stay exact), and so do whole doubles. A double
    // reaches as_int()'s cast only when finite and in int64's range.
    const double d = v.as_double();
    if (v.is_int() && d >= 0)
      os << v.as_uint();
    else if (v.is_int() || (std::isfinite(d) && d >= -0x1p63 && d < 0x1p63 &&
                            d == static_cast<double>(v.as_int())))
      os << v.as_int();
    else
      dump_number(os, d);
  } else if (v.is_string()) {
    os << '"' << json_escape(v.as_string()) << '"';
  } else if (v.is_array()) {
    const auto& a = v.as_array();
    os << '[';
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i) os << ',';
      pad(depth + 1);
      dump_rec(os, a[i], indent, depth + 1);
    }
    if (!a.empty()) pad(depth);
    os << ']';
  } else {
    const auto& o = v.as_object();
    os << '{';
    for (std::size_t i = 0; i < o.size(); ++i) {
      if (i) os << ',';
      pad(depth + 1);
      os << '"' << json_escape(o[i].first) << "\":";
      if (indent > 0) os << ' ';
      dump_rec(os, o[i].second, indent, depth + 1);
    }
    if (!o.empty()) pad(depth);
    os << '}';
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Value run() {
    Value v = parse_value();
    skip_ws();
    HPDR_REQUIRE(pos_ == s_.size(), "JSON: trailing characters at offset "
                                        << pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    HPDR_REQUIRE(pos_ < s_.size(), "JSON: unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    HPDR_REQUIRE(pos_ < s_.size() && s_[pos_] == c,
                 "JSON: expected '" << c << "' at offset " << pos_);
    ++pos_;
  }

  bool consume(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Value(parse_string());
    if (consume("true")) return Value(true);
    if (consume("false")) return Value(false);
    if (consume("null")) return Value(nullptr);
    return parse_number();
  }

  Value parse_object() {
    expect('{');
    Value obj = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.as_object().emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Value parse_array() {
    expect('[');
    Value arr = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
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
    while (true) {
      HPDR_REQUIRE(pos_ < s_.size(), "JSON: unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      HPDR_REQUIRE(pos_ < s_.size(), "JSON: unterminated escape");
      char e = s_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          HPDR_REQUIRE(pos_ + 4 <= s_.size(), "JSON: truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9')
              cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else
              HPDR_REQUIRE(false, "JSON: bad \\u escape");
          }
          // UTF-8 encode (surrogate pairs are not needed by our emitters;
          // lone surrogates encode as-is).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          HPDR_REQUIRE(false, "JSON: bad escape '\\" << e << "'");
      }
    }
  }

  Value parse_number() {
    const std::size_t begin = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    HPDR_REQUIRE(pos_ > begin, "JSON: invalid value at offset " << begin);
    const std::string tok(s_.substr(begin, pos_ - begin));
    try {
      // Integer literals keep every value in [INT64_MIN, UINT64_MAX].
      if (integral && tok[0] == '-')
        return Value(static_cast<std::int64_t>(std::stoll(tok)));
      if (integral) return Value(static_cast<std::uint64_t>(std::stoull(tok)));
      return Value(std::stod(tok));
    } catch (const std::exception&) {
      HPDR_REQUIRE(false, "JSON: bad number '" << tok << "'");
    }
    return Value();  // unreachable
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string dump(const Value& v, int indent) {
  std::ostringstream os;
  dump_rec(os, v, indent, 0);
  return os.str();
}

Value parse(std::string_view text) { return Parser(text).run(); }

}  // namespace hpdr::telemetry
