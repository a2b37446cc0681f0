#include "exp/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace asap::exp
{

std::string
Json::numberToString(double value)
{
    char buf[32];
    for (int precision = 1; precision < 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
        if (std::strtod(buf, nullptr) == value)
            return buf;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

void
Json::set(const std::string &key, Json value)
{
    type_ = Type::Object;
    for (auto &[existing, member] : members_) {
        if (existing == key) {
            member = std::move(value);
            return;
        }
    }
    members_.emplace_back(key, std::move(value));
}

const Json *
Json::find(const std::string &key) const
{
    for (const auto &[name, member] : members_) {
        if (name == key)
            return &member;
    }
    return nullptr;
}

namespace
{

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
appendNumber(std::string &out, double value)
{
    if (!std::isfinite(value)) {
        out += "null";   // JSON has no inf/nan
        return;
    }
    out += Json::numberToString(value);
}

void
appendNewlineIndent(std::string &out, int indent, int depth)
{
    if (indent <= 0)
        return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Number:
        appendNumber(out, number_);
        break;
      case Type::String:
        appendEscaped(out, string_);
        break;
      case Type::Array:
        out += '[';
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i)
                out += ',';
            appendNewlineIndent(out, indent, depth + 1);
            items_[i].dumpTo(out, indent, depth + 1);
        }
        if (!items_.empty())
            appendNewlineIndent(out, indent, depth);
        out += ']';
        break;
      case Type::Object:
        out += '{';
        for (std::size_t i = 0; i < members_.size(); ++i) {
            if (i)
                out += ',';
            appendNewlineIndent(out, indent, depth + 1);
            appendEscaped(out, members_[i].first);
            out += indent > 0 ? ": " : ":";
            members_[i].second.dumpTo(out, indent, depth + 1);
        }
        if (!members_.empty())
            appendNewlineIndent(out, indent, depth);
        out += '}';
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

// ---------------------------------------------------------------------------
// Parsing (recursive descent).
// ---------------------------------------------------------------------------

namespace
{

struct Parser
{
    const char *cursor;
    const char *end;
    bool failed = false;

    void
    skipWs()
    {
        while (cursor != end && std::isspace(
                   static_cast<unsigned char>(*cursor)))
            ++cursor;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (cursor == end || *cursor != c)
            return false;
        ++cursor;
        return true;
    }

    Json
    fail()
    {
        failed = true;
        return Json();
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (static_cast<std::size_t>(end - cursor) < n ||
            std::strncmp(cursor, word, n) != 0)
            return false;
        cursor += n;
        return true;
    }

    Json
    parseString()
    {
        std::string out;
        ++cursor;   // opening quote
        while (cursor != end && *cursor != '"') {
            if (*cursor == '\\') {
                if (++cursor == end)
                    return fail();
                switch (*cursor) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (end - cursor < 5)
                        return fail();
                    unsigned code = 0;
                    for (int k = 1; k <= 4; ++k) {
                        const char c = cursor[k];
                        if (!std::isxdigit(static_cast<unsigned char>(c)))
                            return fail();
                        code = code * 16 +
                               static_cast<unsigned>(
                                   c <= '9' ? c - '0'
                                            : std::tolower(c) - 'a' + 10);
                    }
                    cursor += 4;
                    // ASCII-only escapes; enough for our own output.
                    out += static_cast<char>(code & 0x7f);
                    break;
                  }
                  default:
                    return fail();
                }
                ++cursor;
            } else {
                out += *cursor++;
            }
        }
        if (cursor == end)
            return fail();
        ++cursor;   // closing quote
        return Json(std::move(out));
    }

    /** Skip a run of digits; false when there is none. */
    bool
    digits()
    {
        const char *start = cursor;
        while (cursor != end &&
               std::isdigit(static_cast<unsigned char>(*cursor)))
            ++cursor;
        return cursor != start;
    }

    /** A number in JSON's own syntax only: strtod alone would also
     *  take inf, NaN, hex, a leading '+' or '.', and overflow to
     *  infinity. */
    Json
    parseNumber()
    {
        const char *start = cursor;
        if (cursor != end && *cursor == '-')
            ++cursor;
        if (cursor != end && *cursor == '0')
            ++cursor;
        else if (!digits())
            return fail();
        if (cursor != end && *cursor == '.') {
            ++cursor;
            if (!digits())
                return fail();
        }
        if (cursor != end && (*cursor == 'e' || *cursor == 'E')) {
            ++cursor;
            if (cursor != end && (*cursor == '+' || *cursor == '-'))
                ++cursor;
            if (!digits())
                return fail();
        }
        const double value =
            std::strtod(std::string(start, cursor).c_str(), nullptr);
        if (!std::isfinite(value))
            return fail();
        return Json(value);
    }

    Json
    parseValue()
    {
        skipWs();
        if (cursor == end)
            return fail();
        switch (*cursor) {
          case '{': {
            ++cursor;
            Json obj = Json::object();
            skipWs();
            if (consume('}'))
                return obj;
            do {
                skipWs();
                if (cursor == end || *cursor != '"')
                    return fail();
                Json key = parseString();
                if (failed || !consume(':'))
                    return fail();
                Json value = parseValue();
                if (failed)
                    return fail();
                obj.set(key.asString(), std::move(value));
            } while (consume(','));
            if (!consume('}'))
                return fail();
            return obj;
          }
          case '[': {
            ++cursor;
            Json arr = Json::array();
            skipWs();
            if (consume(']'))
                return arr;
            do {
                Json value = parseValue();
                if (failed)
                    return fail();
                arr.push(std::move(value));
            } while (consume(','));
            if (!consume(']'))
                return fail();
            return arr;
          }
          case '"':
            return parseString();
          case 't':
            return literal("true") ? Json(true) : fail();
          case 'f':
            return literal("false") ? Json(false) : fail();
          case 'n':
            return literal("null") ? Json() : fail();
          default:
            return parseNumber();
        }
    }
};

} // namespace

std::optional<Json>
Json::parse(const std::string &text)
{
    Parser parser{text.data(), text.data() + text.size()};
    Json value = parser.parseValue();
    if (parser.failed)
        return std::nullopt;
    parser.skipWs();
    if (parser.cursor != parser.end)
        return std::nullopt;
    return value;
}

} // namespace asap::exp
