#include "common/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace edgert {

namespace {

void
appendEscaped(std::string &out, std::string_view s)
{
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
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
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    appendEscaped(out, s);
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

JsonWriter &
JsonWriter::open(char bracket, Layout layout)
{
    prefix();
    out_ += bracket;
    bool in_inline = !stack_.empty() && stack_.back().inline_layout;
    stack_.push_back({in_inline || layout == Layout::Inline, true});
    return *this;
}

JsonWriter &
JsonWriter::close(char bracket)
{
    bool inline_layout = stack_.back().inline_layout;
    stack_.pop_back();
    if (!inline_layout) {
        out_ += '\n';
        out_.append(2 * stack_.size(), ' ');
    }
    out_ += bracket;
    return *this;
}

void
JsonWriter::prefix()
{
    if (pending_key_) {
        pending_key_ = false;
        return; // a value follows its key on the same line
    }
    if (stack_.empty())
        return;
    Level &top = stack_.back();
    if (top.inline_layout) {
        if (!top.first)
            out_ += ", ";
    } else {
        if (!top.first)
            out_ += ',';
        out_ += '\n';
        out_.append(2 * stack_.size(), ' ');
    }
    top.first = false;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    prefix();
    out_ += '"';
    appendEscaped(out_, k);
    out_ += "\": ";
    pending_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    prefix();
    out_ += '"';
    appendEscaped(out_, v);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::raw(std::string_view json)
{
    prefix();
    out_ += json;
    return *this;
}

namespace {

/** Recursive-descent validator over a byte range. */
class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {}

    bool
    parse()
    {
        skipWs();
        if (!value(0))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing bytes after JSON value");
        return true;
    }

  private:
    static constexpr int kMaxDepth = 64;

    bool
    fail(const std::string &what)
    {
        if (error_ && error_->empty())
            *error_ = what + " at byte " + std::to_string(pos_);
        return false;
    }

    bool atEnd() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    void
    skipWs()
    {
        while (!atEnd() && (peek() == ' ' || peek() == '\t' ||
                            peek() == '\n' || peek() == '\r'))
            pos_++;
    }

    bool
    literal(const char *word)
    {
        for (const char *p = word; *p; p++, pos_++)
            if (atEnd() || peek() != *p)
                return fail(std::string("bad literal '") + word +
                            "'");
        return true;
    }

    bool
    string()
    {
        if (atEnd() || peek() != '"')
            return fail("expected string");
        pos_++;
        while (true) {
            if (atEnd())
                return fail("unterminated string");
            unsigned char c =
                static_cast<unsigned char>(text_[pos_]);
            if (c == '"') {
                pos_++;
                return true;
            }
            if (c < 0x20)
                return fail("raw control character in string");
            if (c == '\\') {
                pos_++;
                if (atEnd())
                    return fail("dangling escape");
                char e = peek();
                if (e == 'u') {
                    pos_++;
                    for (int i = 0; i < 4; i++, pos_++)
                        if (atEnd() || !std::isxdigit(
                                static_cast<unsigned char>(peek())))
                            return fail("bad \\u escape");
                    continue;
                }
                if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                    e != 'f' && e != 'n' && e != 'r' && e != 't')
                    return fail("bad escape character");
                pos_++;
                continue;
            }
            pos_++;
        }
    }

    bool
    number()
    {
        std::size_t start = pos_;
        if (!atEnd() && peek() == '-')
            pos_++;
        if (atEnd() || !std::isdigit(
                static_cast<unsigned char>(peek())))
            return fail("expected digit");
        if (peek() == '0') {
            pos_++;
            if (!atEnd() && std::isdigit(
                    static_cast<unsigned char>(peek())))
                return fail("leading zero in number");
        } else {
            while (!atEnd() &&
                   std::isdigit(static_cast<unsigned char>(peek())))
                pos_++;
        }
        if (!atEnd() && peek() == '.') {
            pos_++;
            if (atEnd() || !std::isdigit(
                    static_cast<unsigned char>(peek())))
                return fail("expected fraction digit");
            while (!atEnd() &&
                   std::isdigit(static_cast<unsigned char>(peek())))
                pos_++;
        }
        if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
            pos_++;
            if (!atEnd() && (peek() == '+' || peek() == '-'))
                pos_++;
            if (atEnd() || !std::isdigit(
                    static_cast<unsigned char>(peek())))
                return fail("expected exponent digit");
            while (!atEnd() &&
                   std::isdigit(static_cast<unsigned char>(peek())))
                pos_++;
        }
        return pos_ > start;
    }

    bool
    value(int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (atEnd())
            return fail("expected value");
        char c = peek();
        if (c == '{')
            return object(depth);
        if (c == '[')
            return array(depth);
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    bool
    object(int depth)
    {
        pos_++; // '{'
        skipWs();
        if (!atEnd() && peek() == '}') {
            pos_++;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (atEnd() || peek() != ':')
                return fail("expected ':'");
            pos_++;
            skipWs();
            if (!value(depth + 1))
                return false;
            skipWs();
            if (atEnd())
                return fail("unterminated object");
            if (peek() == ',') {
                pos_++;
                continue;
            }
            if (peek() == '}') {
                pos_++;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    array(int depth)
    {
        pos_++; // '['
        skipWs();
        if (!atEnd() && peek() == ']') {
            pos_++;
            return true;
        }
        while (true) {
            skipWs();
            if (!value(depth + 1))
                return false;
            skipWs();
            if (atEnd())
                return fail("unterminated array");
            if (peek() == ',') {
                pos_++;
                continue;
            }
            if (peek() == ']') {
                pos_++;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    const std::string &text_;
    std::string *error_;
    std::size_t pos_ = 0;
};

} // namespace

bool
jsonValid(const std::string &text, std::string *error)
{
    if (error)
        error->clear();
    return JsonParser(text, error).parse();
}

} // namespace edgert
