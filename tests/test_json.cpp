/**
 * @file
 * Tests for the exp JSON model: construction, ordered objects,
 * deterministic serialisation, parsing, and round-trips.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "exp/json.hpp"

namespace {

using sf::exp::Json;
using sf::exp::JsonError;

TEST(Json, ScalarsDump)
{
    EXPECT_EQ(Json().dump(), "null");
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(false).dump(), "false");
    EXPECT_EQ(Json(42).dump(), "42");
    EXPECT_EQ(Json(std::int64_t{-7}).dump(), "-7");
    EXPECT_EQ(Json(0.5).dump(), "0.5");
    EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    Json obj = Json::object();
    obj.set("zebra", 1);
    obj.set("apple", 2);
    obj.set("mango", 3);
    EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
    // Replacing a key keeps its original position.
    obj.set("apple", 9);
    EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"apple\":9,\"mango\":3}");
}

TEST(Json, StringEscapes)
{
    const Json s(std::string("a\"b\\c\nd\te"));
    EXPECT_EQ(s.dump(), "\"a\\\"b\\\\c\\nd\\te\"");
    const Json parsed = Json::parse(s.dump());
    EXPECT_EQ(parsed.asString(), "a\"b\\c\nd\te");
}

TEST(Json, NonFiniteNumbersBecomeNull)
{
    EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(),
              "null");
    EXPECT_EQ(Json(std::nan("")).dump(), "null");
}

TEST(Json, ParseScalars)
{
    EXPECT_TRUE(Json::parse("null").isNull());
    EXPECT_EQ(Json::parse("true").asBool(), true);
    EXPECT_EQ(Json::parse("-12").asInt(), -12);
    EXPECT_TRUE(Json::parse("1e3").isDouble());
    EXPECT_DOUBLE_EQ(Json::parse("1e3").asDouble(), 1000.0);
    EXPECT_EQ(Json::parse("\"x\"").asString(), "x");
}

TEST(Json, ParseNested)
{
    const Json v = Json::parse(
        R"({"a": [1, 2.5, {"b": null}], "c": "d"})");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.at("a").asArray().size(), 3u);
    EXPECT_EQ(v.at("a").asArray()[0].asInt(), 1);
    EXPECT_DOUBLE_EQ(v.at("a").asArray()[1].asDouble(), 2.5);
    EXPECT_TRUE(v.at("a").asArray()[2].at("b").isNull());
    EXPECT_EQ(v.at("c").asString(), "d");
    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_THROW(v.at("missing"), JsonError);
}

TEST(Json, ParseErrors)
{
    EXPECT_THROW(Json::parse(""), JsonError);
    EXPECT_THROW(Json::parse("{"), JsonError);
    EXPECT_THROW(Json::parse("[1,]"), JsonError);
    EXPECT_THROW(Json::parse("tru"), JsonError);
    EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
    EXPECT_THROW(Json::parse("1 2"), JsonError);
    EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonError);

    // Nesting is capped at 512 levels: deeper input throws at the
    // bracket that crosses the cap instead of overflowing the stack.
    const auto error = [](const std::string &text) -> std::string {
        try {
            (void)Json::parse(text);
        } catch (const JsonError &e) {
            return e.what();
        }
        return "parsed";
    };
    EXPECT_EQ(error(std::string(100000, '[')),
              "JSON parse error at offset 512: nesting too deep");
    std::string objects;
    for (int i = 0; i < 513; ++i)
        objects += "{\"a\":";
    EXPECT_EQ(error(objects),
              "JSON parse error at offset 2560: nesting too deep");
    EXPECT_TRUE(Json::parse(std::string(512, '[') +
                            std::string(512, ']'))
                    .isArray());
}

TEST(Json, RoundTripIsByteStable)
{
    Json obj = Json::object();
    obj.set("name", "fig10");
    obj.set("rate", 0.045);
    obj.set("nodes", 1024);
    obj.set("saturated", false);
    Json arr = Json::array();
    arr.push(1.5);
    arr.push(std::int64_t{3});
    arr.push("x");
    arr.push(nullptr);
    obj.set("series", std::move(arr));

    // dump -> parse -> dump must reproduce the exact bytes, both
    // compact and pretty — this is what report determinism rests on.
    for (const int indent : {0, 2}) {
        const std::string first = obj.dump(indent);
        const std::string second =
            Json::parse(first).dump(indent);
        EXPECT_EQ(first, second);
    }
}

TEST(Json, DoubleFormattingIsShortestRoundTrip)
{
    // to_chars shortest form: parse(dump(x)) == x exactly.
    for (const double x :
         {0.1, 1.0 / 3.0, 12345.6789, 2.2250738585072014e-308,
          9007199254740993.0}) {
        const Json parsed = Json::parse(Json(x).dump());
        EXPECT_DOUBLE_EQ(parsed.asDouble(), x);
    }
}

TEST(Json, Uint64SeedsKeepFullRange)
{
    // Derived run seeds are full-range 64-bit hashes: values above
    // INT64_MAX must serialise as their decimal unsigned form, not
    // wrap negative, and must round-trip.
    const std::uint64_t big = 0xF123456789ABCDEFULL;
    const Json j(big);
    EXPECT_EQ(j.dump(), std::to_string(big));
    EXPECT_EQ(j.dump()[0] == '-', false);
    const Json parsed = Json::parse(j.dump());
    EXPECT_TRUE(parsed.isUint());
    EXPECT_EQ(parsed.asUint(), big);
    EXPECT_EQ(parsed.dump(), j.dump());
    // Small unsigned values parse back as Int but compare equal.
    EXPECT_TRUE(Json(std::uint64_t{5}) == Json::parse("5"));
    EXPECT_FALSE(Json(std::uint64_t{5}) == Json(-5));
}

TEST(Json, NegativeZeroRoundTrips)
{
    // -0.0 dumps as "-0" and must parse back as a double, not
    // Int(0) (which would re-dump as "0" and break byte-stability).
    const Json j(-0.0);
    EXPECT_EQ(j.dump(), "-0");
    const Json parsed = Json::parse("-0");
    EXPECT_TRUE(parsed.isDouble());
    EXPECT_EQ(parsed.dump(), "-0");
}

TEST(Json, NumericEquality)
{
    // An integral double that dumped as "3" compares equal to the
    // Int it parses back as.
    EXPECT_TRUE(Json(3.0) == Json(std::int64_t{3}));
    EXPECT_TRUE(Json::parse(Json(3.0).dump()) == Json(3.0));
}

TEST(Json, PrettyPrint)
{
    Json obj = Json::object();
    obj.set("a", 1);
    EXPECT_EQ(obj.dump(2), "{\n  \"a\": 1\n}");
    EXPECT_EQ(Json::object().dump(2), "{}");
    EXPECT_EQ(Json::array().dump(2), "[]");
}

TEST(Json, ParseLinesStreamsDocuments)
{
    // The JSON-Lines form the checkpoint journal uses: one compact
    // document per line, in stream order.
    const auto docs = Json::parseLines(
        "{\"event\":\"store\",\"run\":\"a\"}\n"
        "\n"
        "{\"event\":\"stale\",\"run\":\"b\"}\n"
        "7\n");
    ASSERT_EQ(docs.size(), 3u);
    EXPECT_EQ(docs[0].at("event").asString(), "store");
    EXPECT_EQ(docs[1].at("run").asString(), "b");
    EXPECT_EQ(docs[2].asInt(), 7);

    EXPECT_TRUE(Json::parseLines("").empty());
    EXPECT_TRUE(Json::parseLines("  \n \n").empty());
    // A malformed record anywhere in the stream still throws.
    EXPECT_THROW(Json::parseLines("{\"a\":1}\n{oops"), JsonError);
}

TEST(Json, ParseLinesCanDropATruncatedTail)
{
    // A crashed appendJsonLine() writer leaves at most one partial
    // trailing line; dropTruncatedTail returns the complete prefix
    // instead of throwing away the whole stream.
    const std::string stream =
        "{\"event\":\"store\",\"run\":\"a\"}\n"
        "{\"event\":\"store\",\"run\":\"b\"}\n"
        "{\"event\":\"sto"; // killed mid-write
    EXPECT_THROW(Json::parseLines(stream), JsonError);
    const auto docs = Json::parseLines(stream, true);
    ASSERT_EQ(docs.size(), 2u);
    EXPECT_EQ(docs[1].at("run").asString(), "b");

    // Truncated mid-string, mid-number-less cases too.
    EXPECT_EQ(Json::parseLines("1\n\"unterminat", true).size(),
              1u);
    EXPECT_EQ(Json::parseLines("[1,2", true).size(), 0u);

    // Mid-stream corruption is NOT a truncated tail: still throws.
    EXPECT_THROW(Json::parseLines("{oops}\n{\"a\":1}", true),
                 JsonError);
}

TEST(Json, AppendJsonLineAccumulatesAStream)
{
    const std::string path =
        std::string(::testing::TempDir()) + "sf_jsonl_test.jsonl";
    std::remove(path.c_str());

    for (int i = 0; i < 3; ++i) {
        Json line = Json::object();
        line.set("i", i);
        sf::exp::appendJsonLine(path, line);
    }
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[256];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, got);
    std::fclose(f);
    std::remove(path.c_str());

    EXPECT_EQ(text, "{\"i\":0}\n{\"i\":1}\n{\"i\":2}\n");
    const auto docs = Json::parseLines(text);
    ASSERT_EQ(docs.size(), 3u);
    EXPECT_EQ(docs[2].at("i").asInt(), 2);
}

} // namespace
