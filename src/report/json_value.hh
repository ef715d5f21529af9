/**
 * @file
 * Minimal JSON parser for the report tool (docs/RESULTS.md consumers).
 *
 * The write side (harness/json.hh JsonWriter) is a streaming emitter;
 * this is its read-side complement: a recursive-descent parser into a
 * small DOM. Hand-rolled for the same reason the writer is — the
 * container carries no JSON library — and scoped to what cbsim
 * artifacts need: objects keep insertion order (artifacts are emitted
 * with deterministic key order, and reports echo it), numbers keep
 * their raw text next to the double so integers render exactly.
 */

#ifndef CBSIM_REPORT_JSON_VALUE_HH
#define CBSIM_REPORT_JSON_VALUE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cbsim {

/** One parsed JSON value; a tree of these is a parsed document. */
class JsonValue
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }

    bool boolean() const { return bool_; }
    double number() const { return num_; }

    /** String payload, or the raw numeric token for Number values. */
    const std::string& text() const { return str_; }

    const std::vector<JsonValue>& items() const { return items_; }

    /** Object members in document order. */
    const std::vector<std::pair<std::string, JsonValue>>&
    members() const
    {
        return members_;
    }

    /**
     * Member @p key of an object, or a shared Null value when absent
     * (or when this is not an object) — lets lookups chain safely.
     */
    const JsonValue& get(const std::string& key) const;

    /** get(), but the value's number (0.0 when absent / non-numeric). */
    double getNumber(const std::string& key) const;

    /** get(), but the value's string ("" when absent / non-string). */
    std::string getString(const std::string& key) const;

    /**
     * Parse @p text as one JSON document.
     * @param error receives a "line N: message" diagnostic on failure
     * @return the parsed value, or Null with @p error set
     */
    static JsonValue parse(const std::string& text, std::string& error);

    /** parse() over the contents of @p path (error covers I/O too). */
    static JsonValue parseFile(const std::string& path, std::string& error);

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

} // namespace cbsim

#endif // CBSIM_REPORT_JSON_VALUE_HH
