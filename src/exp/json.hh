/**
 * @file
 * A minimal JSON document model used by the experiment subsystem for
 * structured result emission (BENCH_*.json trajectory files) and for
 * reading the sweep journal back on resume.
 *
 * Deliberately small: null/bool/number/string/array/object, UTF-8
 * passthrough, insertion-ordered objects so emitted files diff cleanly
 * across runs. Not a general-purpose JSON library.
 */

#ifndef ASAP_EXP_JSON_HH
#define ASAP_EXP_JSON_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace asap::exp
{

class Json
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Json() : type_(Type::Null) {}
    Json(bool value) : type_(Type::Bool), bool_(value) {}
    Json(double value) : type_(Type::Number), number_(value) {}
    Json(int value) : Json(static_cast<double>(value)) {}
    Json(std::uint64_t value) : Json(static_cast<double>(value)) {}
    Json(const char *value) : type_(Type::String), string_(value) {}
    Json(std::string value) : type_(Type::String), string_(std::move(value))
    {}

    static Json array() { Json j; j.type_ = Type::Array; return j; }
    static Json object() { Json j; j.type_ = Type::Object; return j; }

    Type type() const { return type_; }

    bool asBool() const { return bool_; }
    double asNumber() const { return number_; }
    const std::string &asString() const { return string_; }

    /** Array elements (empty unless Type::Array). */
    const std::vector<Json> &items() const { return items_; }
    /** Object members in insertion order (empty unless Type::Object). */
    const std::vector<std::pair<std::string, Json>> &members() const
    { return members_; }

    /** Append to an array. */
    void
    push(Json value)
    {
        items_.push_back(std::move(value));
    }

    /** Insert-or-overwrite an object member (keeps insertion order). */
    void set(const std::string &key, Json value);

    /** Member lookup; nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;

    /** Serialize; indent > 0 pretty-prints with that many spaces. */
    std::string dump(int indent = 0) const;

    /** Parse a document; std::nullopt on malformed input, including
     *  any number outside JSON's syntax or beyond double range. */
    static std::optional<Json> parse(const std::string &text);

    /** Shortest decimal string that round-trips @p value exactly. */
    static std::string numberToString(double value);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Json> items_;
    std::vector<std::pair<std::string, Json>> members_;
};

} // namespace asap::exp

#endif // ASAP_EXP_JSON_HH
