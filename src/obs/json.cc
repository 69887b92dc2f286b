#include "obs/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace lamp::obs {

void JsonValue::Set(std::string_view key, JsonValue v) {
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::string(key), std::move(v));
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string EscapeJson(std::string_view s) {
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

namespace {

void AppendNumber(std::string& out, double d,
                  const std::optional<std::int64_t>& exact) {
  if (exact.has_value()) {
    out += std::to_string(*exact);
    return;
  }
  if (!std::isfinite(d)) {
    // JSON has no Infinity/NaN; null is the conventional stand-in.
    out += "null";
    return;
  }
  // Integral doubles print as integers ("690", not "6.9e+02" — the
  // shortest-%g form below would pick the latter).
  if (d == std::floor(d) && std::abs(d) < 9.007199254740992e15) {
    out += std::to_string(static_cast<std::int64_t>(d));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  // Prefer the shortest representation that round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[32];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, d);
    if (std::strtod(probe, nullptr) == d) {
      out += probe;
      return;
    }
  }
  out += buf;
}

void AppendIndent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

}  // namespace

void JsonValue::DumpTo(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      AppendNumber(out, num_, int_);
      break;
    case Type::kString:
      out += '"';
      out += EscapeJson(str_);
      out += '"';
      break;
    case Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += indent < 0 ? "," : ",";
        AppendIndent(out, indent, depth + 1);
        items_[i].DumpTo(out, indent, depth + 1);
      }
      if (!items_.empty()) AppendIndent(out, indent, depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ",";
        AppendIndent(out, indent, depth + 1);
        out += '"';
        out += EscapeJson(members_[i].first);
        out += indent < 0 ? "\":" : "\": ";
        members_[i].second.DumpTo(out, indent, depth + 1);
      }
      if (!members_.empty()) AppendIndent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> Run() {
    SkipWs();
    JsonValue v;
    if (!ParseValue(v)) return std::nullopt;
    SkipWs();
    if (pos_ != text_.size()) return std::nullopt;  // Trailing garbage.
    return v;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWs() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
                        Peek() == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (AtEnd() || Peek() != c) return false;
    ++pos_;
    return true;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  // Nesting bookkeeping for arrays and objects. A failed parse abandons
  // the whole document, so only a successful close needs to ascend.
  bool Descend() { return ++depth_ <= JsonValue::kMaxParseDepth; }
  bool Ascend() {
    --depth_;
    return true;
  }

  bool ParseValue(JsonValue& out) {
    if (AtEnd()) return false;
    switch (Peek()) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"': {
        std::string s;
        if (!ParseString(s)) return false;
        out = JsonValue(std::move(s));
        return true;
      }
      case 't':
        if (!ConsumeWord("true")) return false;
        out = JsonValue(true);
        return true;
      case 'f':
        if (!ConsumeWord("false")) return false;
        out = JsonValue(false);
        return true;
      case 'n':
        if (!ConsumeWord("null")) return false;
        out = JsonValue();
        return true;
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue& out) {
    if (!Consume('{') || !Descend()) return false;
    out = JsonValue::Object();
    SkipWs();
    if (Consume('}')) return Ascend();
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(key)) return false;
      SkipWs();
      if (!Consume(':')) return false;
      SkipWs();
      JsonValue v;
      if (!ParseValue(v)) return false;
      out.Set(key, std::move(v));
      SkipWs();
      if (Consume('}')) return Ascend();
      if (!Consume(',')) return false;
    }
  }

  bool ParseArray(JsonValue& out) {
    if (!Consume('[') || !Descend()) return false;
    out = JsonValue::Array();
    SkipWs();
    if (Consume(']')) return Ascend();
    while (true) {
      SkipWs();
      JsonValue v;
      if (!ParseValue(v)) return false;
      out.PushBack(std::move(v));
      SkipWs();
      if (Consume(']')) return Ascend();
      if (!Consume(',')) return false;
    }
  }

  static void AppendUtf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool ParseHex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return false;
      }
    }
    pos_ += 4;
    return true;
  }

  bool ParseString(std::string& out) {
    if (!Consume('"')) return false;
    out.clear();
    while (true) {
      if (AtEnd()) return false;
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (AtEnd()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
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
          unsigned cp = 0;
          if (!ParseHex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // Surrogate pair: the low half must follow immediately.
            if (!ConsumeWord("\\u")) return false;
            unsigned low = 0;
            if (!ParseHex4(low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) return false;
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return false;  // Lone low surrogate.
          }
          AppendUtf8(out, cp);
          break;
        }
        default:
          return false;
      }
    }
  }

  bool ParseNumber(JsonValue& out) {
    const std::size_t start = pos_;
    if (Consume('-')) {
    }
    if (AtEnd()) return false;
    if (!Consume('0')) {
      if (AtEnd() || Peek() < '1' || Peek() > '9') return false;
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    bool integral = true;
    if (Consume('.')) {
      integral = false;
      if (AtEnd() || Peek() < '0' || Peek() > '9') return false;
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') return false;
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        out = JsonValue(static_cast<std::int64_t>(v));
        return true;
      }
    }
    out = JsonValue(std::strtod(token.c_str(), nullptr));
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).Run();
}

}  // namespace lamp::obs
