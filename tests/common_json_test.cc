#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "common/json.hh"

using namespace edgert;

TEST(JsonEscape, PassesPlainText)
{
    EXPECT_EQ(jsonEscape("conv1/relu"), "conv1/relu");
    EXPECT_EQ(jsonEscape(""), "");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes)
{
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
}

TEST(JsonEscape, EscapesControlCharacters)
{
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape("a\tb"), "a\\tb");
    EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonEscape, HostileNameSurvivesAsDocument)
{
    std::string hostile = "conv\"},\n\\evil\x02{";
    std::string doc = "{\"name\": \"" + jsonEscape(hostile) + "\"}";
    std::string err;
    EXPECT_TRUE(jsonValid(doc, &err)) << err;
}

TEST(JsonNumber, RoundTripsSimpleValues)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(2.0), "2");
    EXPECT_EQ(jsonNumber(1.5), "1.5");
    EXPECT_EQ(jsonNumber(-3.25), "-3.25");
}

TEST(JsonNumber, NonFiniteBecomesZero)
{
    EXPECT_EQ(jsonNumber(std::nan("")), "0");
    EXPECT_EQ(jsonNumber(HUGE_VAL), "0");
    EXPECT_EQ(jsonNumber(-HUGE_VAL), "0");
}

TEST(JsonNumber, Deterministic)
{
    double v = 1.0 / 3.0;
    EXPECT_EQ(jsonNumber(v), jsonNumber(v));
    std::string err;
    EXPECT_TRUE(jsonValid(jsonNumber(v), &err)) << err;
}

TEST(JsonValid, AcceptsWellFormedDocuments)
{
    EXPECT_TRUE(jsonValid("{}"));
    EXPECT_TRUE(jsonValid("[]"));
    EXPECT_TRUE(jsonValid("true"));
    EXPECT_TRUE(jsonValid("-1.5e3"));
    EXPECT_TRUE(jsonValid("\"hi\\u0041\""));
    EXPECT_TRUE(jsonValid(
        "{\"a\": [1, 2.5, null], \"b\": {\"c\": false}}"));
}

TEST(JsonValid, RejectsMalformedDocuments)
{
    std::string err;
    EXPECT_FALSE(jsonValid("", &err));
    EXPECT_FALSE(jsonValid("{", &err));
    EXPECT_FALSE(jsonValid("{\"a\": }", &err));
    EXPECT_FALSE(jsonValid("[1,]", &err));
    EXPECT_FALSE(jsonValid("{} extra", &err));
    EXPECT_FALSE(jsonValid("\"unterminated", &err));
    EXPECT_FALSE(jsonValid("\"bad\\x\"", &err));
    EXPECT_FALSE(jsonValid("01", &err));
    EXPECT_FALSE(jsonValid(std::string("\"raw\ncontrol\""), &err));
    EXPECT_FALSE(err.empty());
}

TEST(JsonValid, RejectsExcessiveNesting)
{
    std::string deep(200, '[');
    deep += std::string(200, ']');
    EXPECT_FALSE(jsonValid(deep));
}

namespace {

using Layout = JsonWriter::Layout;

/** The writer's output, after asserting it parses. */
std::string
checked(const JsonWriter &w)
{
    std::string err;
    EXPECT_TRUE(jsonValid(w.str(), &err)) << err << "\n" << w.str();
    return w.str();
}

} // namespace

TEST(JsonWriter, LineObjectAndArray)
{
    JsonWriter w;
    w.beginObject();
    w.field("a", 1);
    w.key("b").beginArray();
    w.value(2);
    w.value("x");
    w.endArray();
    w.endObject();
    EXPECT_EQ(checked(w), "{\n"
                          "  \"a\": 1,\n"
                          "  \"b\": [\n"
                          "    2,\n"
                          "    \"x\"\n"
                          "  ]\n"
                          "}");
}

TEST(JsonWriter, InlineObjectAndArray)
{
    JsonWriter w;
    w.beginObject(Layout::Inline);
    w.field("a", 1);
    w.key("b").beginArray(Layout::Inline);
    w.value(2).value(3);
    w.endArray();
    w.endObject();
    EXPECT_EQ(checked(w), "{\"a\": 1, \"b\": [2, 3]}");
}

TEST(JsonWriter, InlineNestedInLine)
{
    JsonWriter w;
    w.beginObject();
    w.key("rows").beginArray();
    for (int i = 0; i < 2; i++) {
        w.beginObject(Layout::Inline);
        w.field("i", i);
        w.endObject();
    }
    w.endArray();
    w.key("rank").beginArray(Layout::Inline);
    w.value("nx").value("agx");
    w.endArray();
    w.endObject();
    EXPECT_EQ(checked(w), "{\n"
                          "  \"rows\": [\n"
                          "    {\"i\": 0},\n"
                          "    {\"i\": 1}\n"
                          "  ],\n"
                          "  \"rank\": [\"nx\", \"agx\"]\n"
                          "}");
}

TEST(JsonWriter, ContainersInsideInlineAreInline)
{
    // The nested containers ask for the line layout and still print
    // inline, as every member of an inline container does.
    JsonWriter w;
    w.beginArray(Layout::Inline);
    w.beginObject();
    w.key("stage").beginObject();
    w.field("queue", 0.5);
    w.endObject();
    w.key("ms").beginArray();
    w.value(1.5);
    w.endArray();
    w.endObject();
    w.endArray();
    EXPECT_EQ(checked(w),
              "[{\"stage\": {\"queue\": 0.5}, \"ms\": [1.5]}]");
}

TEST(JsonWriter, EmptyContainersKeepTheirLayout)
{
    JsonWriter w;
    w.beginObject();
    w.key("events").beginArray();
    w.endArray();
    w.key("alerts").beginObject();
    w.endObject();
    w.key("files").beginArray(Layout::Inline);
    w.endArray();
    w.key("config").beginObject(Layout::Inline);
    w.endObject();
    w.endObject();
    EXPECT_EQ(checked(w), "{\n"
                          "  \"events\": [\n"
                          "  ],\n"
                          "  \"alerts\": {\n"
                          "  },\n"
                          "  \"files\": [],\n"
                          "  \"config\": {}\n"
                          "}");
}

TEST(JsonWriter, EscapesKeysAndStrings)
{
    JsonWriter w;
    w.beginObject(Layout::Inline);
    w.field(std::string("k\"\n") + '\x01', std::string("v\\\t"));
    w.endObject();
    EXPECT_EQ(checked(w), "{\"k\\\"\\n\\u0001\": \"v\\\\\\t\"}");
}

TEST(JsonWriter, ScalarValues)
{
    JsonWriter w;
    w.beginArray(Layout::Inline);
    w.value(true).value(false);
    w.value(std::int64_t{-9223372036854775807 - 1});
    w.value(std::uint64_t{18446744073709551615ULL});
    w.value(-7).value(42u);
    w.value(0.1).value(2.0).value(std::nan(""));
    w.value(std::string("s")).value("c");
    w.endArray();
    EXPECT_EQ(checked(w), "[true, false, -9223372036854775808, "
                          "18446744073709551615, -7, 42, " +
                              jsonNumber(0.1) + ", 2, 0, \"s\", \"c\"]");
}

TEST(JsonWriter, RawSplicesPreRenderedJson)
{
    JsonWriter w;
    w.beginObject();
    w.key("pct").raw("0.1000");
    w.key("metrics").raw("{\"counters\": {}}");
    w.key("list").beginArray(Layout::Inline);
    w.raw("1.50").raw("[]");
    w.endArray();
    w.endObject();
    EXPECT_EQ(checked(w), "{\n"
                          "  \"pct\": 0.1000,\n"
                          "  \"metrics\": {\"counters\": {}},\n"
                          "  \"list\": [1.50, []]\n"
                          "}");
}
