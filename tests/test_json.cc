/**
 * @file
 * Tests for the shared JSON module (common/json.hh): value model,
 * strict parser, canonical writer, raw-token number round-trips --
 * and for the tool command-line conventions (common/cli.hh).
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "sim/canonical.hh"
#include "trace/presets.hh"

namespace shotgun
{
namespace
{

using json::JsonError;
using json::Value;

TEST(JsonValueTest, ScalarsAndAccessors)
{
    EXPECT_TRUE(Value::null().isNull());
    EXPECT_TRUE(Value::boolean(true).asBool());
    EXPECT_FALSE(Value::boolean(false).asBool());
    EXPECT_EQ(Value::string("hi").asString(), "hi");
    EXPECT_EQ(Value::number(std::uint64_t{42}).asU64(), 42u);
    EXPECT_EQ(Value::number(std::int64_t{-7}).asI64(), -7);
    EXPECT_EQ(Value::number(0.25).asDouble(), 0.25);

    // Kind mismatches are errors, not coercions.
    EXPECT_THROW(Value::string("x").asU64(), JsonError);
    EXPECT_THROW(Value::number(0.5).asString(), JsonError);
    EXPECT_THROW(Value::number(0.5).asU64(), JsonError);
    EXPECT_THROW(Value::number(std::int64_t{-1}).asU64(), JsonError);

    // What each number accessor makes of a parsed token: a value, or
    // (nullopt) a JsonError. A double that overflows to +-inf is
    // refused; underflow reads as strtod reads it.
    struct NumberCase
    {
        const char *token;
        std::optional<double> asDouble;
        std::optional<std::uint64_t> asU64;
        std::optional<std::int64_t> asI64;
    };
    const NumberCase cases[] = {
        {"-0", -0.0, std::nullopt, 0},
        {"1e-400", 0.0, std::nullopt, std::nullopt},
        {"-1e-400", -0.0, std::nullopt, std::nullopt},
        {"4.9406564584124654e-324",
         std::numeric_limits<double>::denorm_min(), std::nullopt,
         std::nullopt},
        {"1e400", std::nullopt, std::nullopt, std::nullopt},
        {"-1e400", std::nullopt, std::nullopt, std::nullopt},
        {"18446744073709551615", 18446744073709551615.0,
         18446744073709551615ull, std::nullopt},
        {"18446744073709551616", 18446744073709551616.0, std::nullopt,
         std::nullopt},
        {"-9223372036854775808", -9223372036854775808.0, std::nullopt,
         std::numeric_limits<std::int64_t>::min()},
        {"1.5", 1.5, std::nullopt, std::nullopt},
    };
    for (const NumberCase &c : cases) {
        const Value v = Value::parse(c.token);
        if (c.asDouble) {
            EXPECT_EQ(v.asDouble(), *c.asDouble) << c.token;
            EXPECT_EQ(std::signbit(v.asDouble()),
                      std::signbit(*c.asDouble))
                << c.token;
        } else {
            EXPECT_THROW(v.asDouble(), JsonError) << c.token;
        }
        if (c.asU64)
            EXPECT_EQ(v.asU64(), *c.asU64) << c.token;
        else
            EXPECT_THROW(v.asU64(), JsonError) << c.token;
        if (c.asI64)
            EXPECT_EQ(v.asI64(), *c.asI64) << c.token;
        else
            EXPECT_THROW(v.asI64(), JsonError) << c.token;
    }
}

TEST(JsonValueTest, U64PrecisionSurvives)
{
    // 2^64 - 1 is not representable as a double; the raw-token
    // representation must keep every digit.
    const std::uint64_t big = 18446744073709551615ull;
    Value v = Value::number(big);
    EXPECT_EQ(v.asU64(), big);
    EXPECT_EQ(v.dump(), "18446744073709551615");
    EXPECT_EQ(Value::parse(v.dump()).asU64(), big);
}

TEST(JsonValueTest, ObjectsPreserveOrderAndLookup)
{
    Value v = Value::object();
    v.set("b", Value::number(std::uint64_t{1}));
    v.set("a", Value::number(std::uint64_t{2}));
    EXPECT_EQ(v.members()[0].first, "b");
    EXPECT_EQ(v.at("a").asU64(), 2u);
    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_THROW(v.at("missing"), JsonError);
    EXPECT_EQ(v.dump(), "{\"b\":1,\"a\":2}");
}

TEST(JsonValueTest, WriterEscapes)
{
    Value v = Value::string("a\"b\\c\nd\te\x01");
    EXPECT_EQ(v.dump(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    // And the parser undoes exactly that.
    EXPECT_EQ(Value::parse(v.dump()).asString(), "a\"b\\c\nd\te\x01");
}

TEST(JsonParseTest, RoundTripsItsOwnOutput)
{
    const std::string text =
        "{\"s\":\"x\",\"n\":-2.5e3,\"i\":123,\"b\":true,\"z\":null,"
        "\"a\":[1,2,{\"k\":\"v\"}]}";
    const Value v = Value::parse(text);
    EXPECT_EQ(v.dump(), text);
    EXPECT_EQ(v.at("a").items()[2].at("k").asString(), "v");
    EXPECT_EQ(v.at("n").asDouble(), -2500.0);
}

TEST(JsonParseTest, AcceptsUnicodeEscapes)
{
    // Plain runs are copied in bulk; the escape after one must still
    // decode.
    const std::string run(64, 'a');
    const std::pair<std::string, std::string> cases[] = {
        {"\"\\u0041\"", "A"},
        {"\"\\u00e9\"", "\xc3\xa9"},
        // Surrogate pair: U+1F600.
        {"\"\\ud83d\\ude00\"", "\xf0\x9f\x98\x80"},
        {"\"" + run + "\\u00e9\"", run + "\xc3\xa9"},
        {"\"" + run + "\\ud83d\\ude00" + run + "\"",
         run + "\xf0\x9f\x98\x80" + run},
    };
    for (const auto &c : cases)
        EXPECT_EQ(Value::parse(c.first).asString(), c.second) << c.first;
    EXPECT_THROW(Value::parse("\"\\ud83d\""), JsonError);
}

TEST(JsonParseTest, RejectsMalformedDocuments)
{
    const std::string run(64, 'a');
    const std::string bad[] = {
        "",
        "{",
        "}",
        "{\"a\":}",
        "{\"a\":1,}",
        "[1,]",
        "[1 2]",
        "{\"a\":1}x",
        "nul",
        "truex",
        "\"unterminated",
        "\"bad\\escape\"",
        "01",
        "1.",
        "1e",
        "-",
        "+1",
        "{'a':1}",
        "{\"a\":1,\"a\":2}", // duplicate key
        "\"tab\there\"",     // unescaped control char
        // The same rules right after a bulk-copied plain run.
        "\"" + run + "\x01\"",
        "\"" + run + "\x1f" + run + "\"",
        "\"" + run,
        "\"" + run + "\\",
        "\"\\",
        "\"" + run + "\\q\"",
        "\"" + run + "\\u12\"",
        "{\"" + run + "\":1,\"" + run + "\":2}",
    };
    for (const std::string &text : bad)
        EXPECT_THROW(Value::parse(text), JsonError) << text;
}

TEST(JsonParseTest, RejectsRunawayNesting)
{
    std::string deep(200, '[');
    deep += std::string(200, ']');
    EXPECT_THROW(Value::parse(deep), JsonError);
}

TEST(JsonFormatTest, FormatDoubleRoundTrips)
{
    for (double v : {0.0, 0.5, 1.0 / 3.0, -2.5e-7, 12345.678901234567}) {
        const std::string text = json::formatDouble(v);
        EXPECT_EQ(std::stod(text), v) << text;
    }
    EXPECT_EQ(json::formatDouble(0.5), "0.5");

    // formatDouble must keep writing printf's "%.17g" bytes: every
    // stored fingerprint and result digest was computed over them.
    std::vector<double> pinned = {
        0.0,
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        DBL_MIN,
        DBL_MAX,
        -DBL_MAX,
        0.1,
        1.0 / 3.0,
        1e-5,
        1e-4,
        1e16,
        1e17,
    };
    // ... and every number of the default SimConfig and the six
    // presets' canonical encodings, which covers each double default.
    std::vector<SimConfig> configs = {SimConfig{}};
    for (const WorkloadPreset &preset : allPresets())
        configs.push_back(SimConfig::make(preset, SchemeType::Shotgun));
    for (const SimConfig &config : configs) {
        const Value encoded = encodeSimConfig(config);
        std::vector<const Value *> stack = {&encoded};
        while (!stack.empty()) {
            const Value *v = stack.back();
            stack.pop_back();
            if (v->isNumber())
                pinned.push_back(v->asDouble());
            else if (v->isObject())
                for (const auto &member : v->members())
                    stack.push_back(&member.second);
        }
    }
    EXPECT_GT(pinned.size(), 6 * 40u);
    for (double v : pinned) {
        char expected[64];
        std::snprintf(expected, sizeof(expected), "%.17g", v);
        EXPECT_EQ(json::formatDouble(v), expected);
    }
}

TEST(JsonHashTest, Fnv1a64KnownVectors)
{
    // Published FNV-1a test vectors.
    EXPECT_EQ(json::fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(json::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(json::fnv1a64("foobar"), 0x85944171f73967e8ull);
}

// ------------------------------------------------- CLI conventions

char **
fakeArgv(std::initializer_list<const char *> args)
{
    static std::vector<const char *> storage;
    storage.assign(args.begin(), args.end());
    return const_cast<char **>(storage.data());
}

TEST(CliTest, FindsStandardFlagsAnywhere)
{
    using cli::StandardFlag;
    EXPECT_EQ(cli::checkStandardFlags(1, fakeArgv({"tool"})),
              StandardFlag::None);
    EXPECT_EQ(cli::checkStandardFlags(
                  2, fakeArgv({"tool", "--help"})),
              StandardFlag::Help);
    EXPECT_EQ(cli::checkStandardFlags(2, fakeArgv({"tool", "-h"})),
              StandardFlag::Help);
    EXPECT_EQ(cli::checkStandardFlags(
                  2, fakeArgv({"tool", "--version"})),
              StandardFlag::Version);
    EXPECT_EQ(cli::checkStandardFlags(
                  3, fakeArgv({"tool", "record", "--help"})),
              StandardFlag::Help);
    // Help wins when both are present.
    EXPECT_EQ(cli::checkStandardFlags(
                  3, fakeArgv({"tool", "--version", "--help"})),
              StandardFlag::Help);
    // Ordinary options are not standard flags.
    EXPECT_EQ(cli::checkStandardFlags(
                  2, fakeArgv({"tool", "--jobs"})),
              StandardFlag::None);
}

TEST(CliTest, HandleStandardFlagsReportsExitZero)
{
    int exit_code = 77;
    EXPECT_TRUE(cli::handleStandardFlags(
        2, fakeArgv({"tool", "--version"}), "tool", "usage\n",
        exit_code));
    EXPECT_EQ(exit_code, 0);

    exit_code = 77;
    EXPECT_FALSE(cli::handleStandardFlags(
        1, fakeArgv({"tool"}), "tool", "usage\n", exit_code));
    EXPECT_EQ(exit_code, 77); // untouched

    // The convention's usage exit code is distinct from help (0) and
    // fatal (1).
    EXPECT_EQ(cli::kUsageExitCode, 2);
}

} // namespace
} // namespace shotgun
