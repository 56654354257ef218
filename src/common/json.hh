#ifndef EDGERT_COMMON_JSON_HH
#define EDGERT_COMMON_JSON_HH

/**
 * @file
 * JSON for the whole repo: canonical string escaping,
 * shortest-round-trip number formatting, a validating parser, and
 * JsonWriter, the one writer behind every report, watch file,
 * incident file, drift verdict and bench artifact. In src/ only the
 * metric snapshot and the chrome trace format by hand. These helpers
 * keep the emitted bytes deterministic and give tests an in-repo way
 * to assert the output actually parses.
 */

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace edgert {

/**
 * Escape a string for embedding inside a JSON string literal.
 * Handles quotes, backslashes, and all control characters (so
 * hostile kernel/span names cannot break the emitted document).
 */
std::string jsonEscape(const std::string &s);

/**
 * Format a finite double with the shortest representation that
 * round-trips; NaN/Inf (not representable in JSON) become 0. The
 * output is deterministic for equal inputs, which is what makes
 * metric snapshots byte-reproducible.
 */
std::string jsonNumber(double v);

/**
 * Validate that @p text is one complete JSON value (RFC 8259
 * subset: objects, arrays, strings, numbers, true/false/null).
 * @param error If non-null, receives a description of the first
 *              syntax error (byte offset included).
 * @return true when the document parses.
 */
bool jsonValid(const std::string &text, std::string *error = nullptr);

/**
 * Streaming JSON writer that owns layout: indentation, commas and
 * number formatting. Keys print in call order; doubles go through
 * jsonNumber, so two runs that compute the same values emit
 * byte-identical documents.
 *
 * A container is laid out one of two ways:
 *  - Lines (the default): each member on its own line, indented two
 *    spaces per level; the closing bracket always sits on its own
 *    line at the parent's indent, even when the container is empty
 *    (`[` newline `  ]`).
 *  - Inline: `{"a": 1, "b": [2, 3]}` on the current line; an empty
 *    one prints `[]` / `{}`. Containers opened inside an inline one
 *    are inline too.
 */
class JsonWriter
{
  public:
    enum class Layout { Lines, Inline };

    JsonWriter &beginObject(Layout layout = Layout::Lines)
    {
        return open('{', layout);
    }
    JsonWriter &endObject() { return close('}'); }

    JsonWriter &beginArray(Layout layout = Layout::Lines)
    {
        return open('[', layout);
    }
    JsonWriter &endArray() { return close(']'); }

    /** Start a member of the current object. */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(bool v) { return raw(v ? "true" : "false"); }
    JsonWriter &value(double v) { return raw(jsonNumber(v)); }
    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }

    template <typename T,
              typename = std::enable_if_t<std::is_integral_v<T> &&
                                          !std::is_same_v<T, bool>>>
    JsonWriter &value(T v)
    {
        char buf[24];
        auto res = std::to_chars(buf, buf + sizeof(buf), v);
        return raw(std::string_view(buf, res.ptr - buf));
    }

    /** Splice pre-rendered JSON (a registry snapshot, a fixed-decimal
     *  number) as one value. */
    JsonWriter &raw(std::string_view json);

    template <typename T>
    JsonWriter &field(std::string_view k, const T &v)
    {
        return key(k).value(v);
    }

    const std::string &str() const { return out_; }

  private:
    struct Level
    {
        bool inline_layout;
        bool first;
    };

    JsonWriter &open(char bracket, Layout layout);
    JsonWriter &close(char bracket);
    /** Comma, newline and indent before a value, key or container. */
    void prefix();

    std::string out_;
    std::vector<Level> stack_;
    bool pending_key_ = false;
};

} // namespace edgert

#endif // EDGERT_COMMON_JSON_HH
