#include "exp/json.hpp"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace sf::exp {

void
Json::set(std::string_view key, Json v)
{
    Object &obj = asObject();
    for (Member &m : obj) {
        if (m.first == key) {
            m.second = std::move(v);
            return;
        }
    }
    obj.emplace_back(std::string(key), std::move(v));
}

const Json *
Json::find(std::string_view key) const
{
    if (!isObject())
        return nullptr;
    for (const Member &m : asObject())
        if (m.first == key)
            return &m.second;
    return nullptr;
}

const Json &
Json::at(std::string_view key) const
{
    if (const Json *v = find(key))
        return *v;
    throw JsonError("missing key: " + std::string(key));
}

bool
Json::operator==(const Json &other) const
{
    // Compare mixed numeric alternatives by value so a parsed "3"
    // equals a Double(3.0) that dumped as "3", and a small Uint
    // equals the Int it parses back as.
    if (isNumber() && other.isNumber() && !isDouble() &&
        !other.isDouble() && isInt() != other.isInt()) {
        // int64 / uint64 mix: equal only when both sides are
        // representable as the same unsigned value.
        if (isInt() && std::get<std::int64_t>(value_) < 0)
            return false;
        if (other.isInt() &&
            std::get<std::int64_t>(other.value_) < 0)
            return false;
        return asUint() == other.asUint();
    }
    if (isNumber() && other.isNumber() &&
        isDouble() != other.isDouble())
        return asDouble() == other.asDouble();
    return value_ == other.value_;
}

namespace {

void
appendEscaped(std::string &out, const std::string &s)
{
    out.push_back('"');
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
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

void
appendNumber(std::string &out, double d)
{
    if (!std::isfinite(d)) {
        // JSON has no NaN/Inf; null keeps the document valid and
        // makes the pathology visible instead of crashing a reader.
        out += "null";
        return;
    }
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof buf, d);
    out.append(buf, r.ptr);
}

void
newlineIndent(std::string &out, int indent, int depth)
{
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    if (isNull()) {
        out += "null";
    } else if (isBool()) {
        out += asBool() ? "true" : "false";
    } else if (isInt()) {
        char buf[24];
        const auto r = std::to_chars(
            buf, buf + sizeof buf, std::get<std::int64_t>(value_));
        out.append(buf, r.ptr);
    } else if (isUint()) {
        char buf[24];
        const auto r = std::to_chars(
            buf, buf + sizeof buf,
            std::get<std::uint64_t>(value_));
        out.append(buf, r.ptr);
    } else if (isDouble()) {
        appendNumber(out, std::get<double>(value_));
    } else if (isString()) {
        appendEscaped(out, asString());
    } else if (isArray()) {
        const Array &a = asArray();
        if (a.empty()) {
            out += "[]";
            return;
        }
        out.push_back('[');
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (i)
                out.push_back(',');
            if (indent)
                newlineIndent(out, indent, depth + 1);
            a[i].dumpTo(out, indent, depth + 1);
        }
        if (indent)
            newlineIndent(out, indent, depth);
        out.push_back(']');
    } else {
        const Object &o = asObject();
        if (o.empty()) {
            out += "{}";
            return;
        }
        out.push_back('{');
        for (std::size_t i = 0; i < o.size(); ++i) {
            if (i)
                out.push_back(',');
            if (indent)
                newlineIndent(out, indent, depth + 1);
            appendEscaped(out, o[i].first);
            out.push_back(':');
            if (indent)
                out.push_back(' ');
            o[i].second.dumpTo(out, indent, depth + 1);
        }
        if (indent)
            newlineIndent(out, indent, depth);
        out.push_back('}');
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

// ------------------------------------------------------------- parser

namespace {

/** Deepest array/object nesting the parser accepts. It recurses once
 *  per level, so an unbounded input would overflow the stack; 512
 *  is far beyond any report or checkpoint entry. */
constexpr int kMaxNesting = 512;

class Parser {
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Json document()
    {
        Json v = value(0);
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters");
        return v;
    }

    std::vector<Json> documents(bool dropTruncatedTail)
    {
        std::vector<Json> out;
        skipWs();
        while (pos_ < text_.size()) {
            try {
                out.push_back(value(0));
            } catch (const JsonError &) {
                // A parse failure *at* end of input is a document
                // cut off mid-write; anywhere earlier it is real
                // corruption.
                if (dropTruncatedTail && pos_ >= text_.size())
                    return out;
                throw;
            }
            skipWs();
        }
        return out;
    }

  private:
    [[noreturn]] void fail(const char *what)
    {
        throw JsonError("JSON parse error at offset " +
                        std::to_string(pos_) + ": " + what);
    }

    void skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    char peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    bool consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void expect(char c)
    {
        if (!consume(c))
            fail("unexpected character");
    }

    void literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            fail("bad literal");
        pos_ += word.size();
    }

    /** A value inside @p depth enclosing arrays/objects. */
    Json value(int depth)
    {
        skipWs();
        switch (peek()) {
        case '{': return object(depth + 1);
        case '[': return array(depth + 1);
        case '"': return Json(string());
        case 't': literal("true"); return Json(true);
        case 'f': literal("false"); return Json(false);
        case 'n': literal("null"); return Json(nullptr);
        default: return number();
        }
    }

    Json object(int depth)
    {
        if (depth > kMaxNesting)
            fail("nesting too deep");
        expect('{');
        Json obj = Json::object();
        skipWs();
        if (consume('}'))
            return obj;
        while (true) {
            skipWs();
            std::string key = string();
            skipWs();
            expect(':');
            obj.asObject().emplace_back(std::move(key), value(depth));
            skipWs();
            if (consume('}'))
                return obj;
            expect(',');
        }
    }

    Json array(int depth)
    {
        if (depth > kMaxNesting)
            fail("nesting too deep");
        expect('[');
        Json arr = Json::array();
        skipWs();
        if (consume(']'))
            return arr;
        while (true) {
            arr.push(value(depth));
            skipWs();
            if (consume(']'))
                return arr;
            expect(',');
        }
    }

    std::string string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("short \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a') + 10;
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A') + 10;
                    else
                        fail("bad \\u escape");
                }
                // Encode the code point as UTF-8 (BMP only; the
                // writer never emits surrogate pairs).
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(
                        static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(
                        static_cast<char>(0xE0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
            }
            default: fail("unknown escape");
            }
        }
    }

    Json number()
    {
        const std::size_t start = pos_;
        consume('-');
        while (pos_ < text_.size() &&
               ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        const std::string_view tok =
            text_.substr(start, pos_ - start);
        if (tok.empty())
            fail("expected a value");
        const bool integral =
            tok.find_first_of(".eE") == std::string_view::npos;
        // "-0" must stay a double: Int(0) would re-dump as "0",
        // breaking the dump/parse byte round-trip.
        if (integral && tok != "-0") {
            std::int64_t i = 0;
            const auto r = std::from_chars(
                tok.data(), tok.data() + tok.size(), i);
            if (r.ec == std::errc() &&
                r.ptr == tok.data() + tok.size())
                return Json(i);
            // Positive values above INT64_MAX (64-bit seeds).
            if (tok[0] != '-') {
                std::uint64_t u = 0;
                const auto ru = std::from_chars(
                    tok.data(), tok.data() + tok.size(), u);
                if (ru.ec == std::errc() &&
                    ru.ptr == tok.data() + tok.size())
                    return Json(u);
            }
        }
        double d = 0.0;
        const auto r =
            std::from_chars(tok.data(), tok.data() + tok.size(), d);
        if (r.ec != std::errc() || r.ptr != tok.data() + tok.size())
            fail("bad number");
        return Json(d);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

} // namespace

Json
Json::parse(std::string_view text)
{
    return Parser(text).document();
}

std::vector<Json>
Json::parseLines(std::string_view text, bool dropTruncatedTail)
{
    return Parser(text).documents(dropTruncatedTail);
}

void
appendJsonLine(const std::string &path, const Json &value)
{
    const std::string line = value.dump() + "\n";
    std::FILE *f = std::fopen(path.c_str(), "ab");
    if (!f)
        throw std::runtime_error("cannot open for appending: " +
                                 path);
    const std::size_t written =
        std::fwrite(line.data(), 1, line.size(), f);
    const int rc = std::fclose(f);
    if (written != line.size() || rc != 0)
        throw std::runtime_error("short append: " + path);
}

} // namespace sf::exp
