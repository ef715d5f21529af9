#include "report/json_value.hh"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace cbsim {

namespace {

const JsonValue kNull;

} // namespace

const JsonValue&
JsonValue::get(const std::string& key) const
{
    if (kind_ == Kind::Object)
        for (const auto& [k, v] : members_)
            if (k == key)
                return v;
    return kNull;
}

double
JsonValue::getNumber(const std::string& key) const
{
    const JsonValue& v = get(key);
    return v.isNumber() ? v.number() : 0.0;
}

std::string
JsonValue::getString(const std::string& key) const
{
    const JsonValue& v = get(key);
    return v.isString() ? v.text() : std::string();
}

/** Recursive-descent parser over one in-memory document. */
class JsonParser
{
  public:
    JsonParser(const std::string& text, std::string& error)
        : text_(text), error_(error)
    {
    }

    JsonValue
    run()
    {
        JsonValue v = parseValue();
        if (!error_.empty())
            return JsonValue();
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing characters after document");
            return JsonValue();
        }
        return v;
    }

  private:
    void
    fail(const std::string& msg)
    {
        if (!error_.empty())
            return; // keep the first (innermost) diagnostic
        std::ostringstream os;
        os << "line " << line_ << ": " << msg;
        error_ = os.str();
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '\n')
                ++line_;
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char* word)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    JsonValue
    parseValue()
    {
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of document");
            return JsonValue();
        }
        const char c = text_[pos_];
        switch (c) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return parseString();
          case 't':
          case 'f': return parseBool();
          case 'n': return parseNull();
          default: return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        JsonValue v;
        v.kind_ = JsonValue::Kind::Object;
        ++pos_; // '{'
        if (consume('}'))
            return v;
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                fail("expected object key string");
                return JsonValue();
            }
            JsonValue key = parseString();
            if (!error_.empty())
                return JsonValue();
            if (!consume(':')) {
                fail("expected ':' after object key");
                return JsonValue();
            }
            JsonValue val = parseValue();
            if (!error_.empty())
                return JsonValue();
            v.members_.emplace_back(key.str_, std::move(val));
            if (consume(','))
                continue;
            if (consume('}'))
                return v;
            fail("expected ',' or '}' in object");
            return JsonValue();
        }
    }

    JsonValue
    parseArray()
    {
        JsonValue v;
        v.kind_ = JsonValue::Kind::Array;
        ++pos_; // '['
        if (consume(']'))
            return v;
        while (true) {
            JsonValue item = parseValue();
            if (!error_.empty())
                return JsonValue();
            v.items_.push_back(std::move(item));
            if (consume(','))
                continue;
            if (consume(']'))
                return v;
            fail("expected ',' or ']' in array");
            return JsonValue();
        }
    }

    JsonValue
    parseString()
    {
        JsonValue v;
        v.kind_ = JsonValue::Kind::String;
        ++pos_; // opening quote
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return v;
            if (c != '\\') {
                v.str_.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': v.str_.push_back('"'); break;
              case '\\': v.str_.push_back('\\'); break;
              case '/': v.str_.push_back('/'); break;
              case 'b': v.str_.push_back('\b'); break;
              case 'f': v.str_.push_back('\f'); break;
              case 'n': v.str_.push_back('\n'); break;
              case 'r': v.str_.push_back('\r'); break;
              case 't': v.str_.push_back('\t'); break;
              case 'u': {
                  // Artifacts never emit non-ASCII; decode the BMP
                  // escape as a raw byte when it fits, '?' otherwise.
                  if (pos_ + 4 > text_.size()) {
                      fail("truncated \\u escape");
                      return JsonValue();
                  }
                  for (std::size_t i = pos_; i < pos_ + 4; ++i) {
                      if (!std::isxdigit(
                              static_cast<unsigned char>(text_[i]))) {
                          fail("bad \\u escape");
                          return JsonValue();
                      }
                  }
                  const unsigned long cp =
                      std::strtoul(text_.substr(pos_, 4).c_str(), nullptr,
                                   16);
                  pos_ += 4;
                  v.str_.push_back(cp < 128
                                       ? static_cast<char>(cp)
                                       : '?');
                  break;
              }
              default:
                fail("unknown escape sequence");
                return JsonValue();
            }
        }
        fail("unterminated string");
        return JsonValue();
    }

    JsonValue
    parseBool()
    {
        JsonValue v;
        v.kind_ = JsonValue::Kind::Bool;
        if (literal("true")) {
            v.bool_ = true;
            return v;
        }
        if (literal("false")) {
            v.bool_ = false;
            return v;
        }
        fail("invalid literal");
        return JsonValue();
    }

    JsonValue
    parseNull()
    {
        if (literal("null"))
            return JsonValue();
        fail("invalid literal");
        return JsonValue();
    }

    /** Skip a run of decimal digits; false when there is none. */
    bool
    digits()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        return pos_ > start;
    }

    /** JSON number grammar: -?digits(.digits)?([eE][+-]?digits)? */
    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        const auto at = [this](char c) {
            return pos_ < text_.size() && text_[pos_] == c;
        };
        if (at('-'))
            ++pos_;
        bool ok = digits();
        if (ok && at('.')) {
            ++pos_;
            ok = digits();
        }
        if (ok && (at('e') || at('E'))) {
            ++pos_;
            if (at('+') || at('-'))
                ++pos_;
            ok = digits();
        }
        if (pos_ == start) {
            fail("expected a value");
            return JsonValue();
        }
        // Swallow the rest of a malformed token so the diagnostic
        // shows all of it.
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ok = false;
            ++pos_;
        }
        JsonValue v;
        v.kind_ = JsonValue::Kind::Number;
        v.str_ = text_.substr(start, pos_ - start);
        if (!ok) {
            fail("malformed number '" + v.str_ + "'");
            return JsonValue();
        }
        v.num_ = std::strtod(v.str_.c_str(), nullptr);
        return v;
    }

    const std::string& text_;
    std::string& error_;
    std::size_t pos_ = 0;
    unsigned line_ = 1;
};

JsonValue
JsonValue::parse(const std::string& text, std::string& error)
{
    error.clear();
    return JsonParser(text, error).run();
}

JsonValue
JsonValue::parseFile(const std::string& path, std::string& error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open " + path;
        return JsonValue();
    }
    std::ostringstream os;
    os << in.rdbuf();
    JsonValue v = parse(os.str(), error);
    if (!error.empty())
        error = path + ": " + error;
    return v;
}

} // namespace cbsim
