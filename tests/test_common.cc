/**
 * @file
 * Unit tests for the common foundation: statistics, configuration,
 * deterministic RNG, logging counters, the fixed ring, and the JSON
 * codec — fuzzed against every line writer that uses it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <ranges>
#include <sstream>
#include <vector>

#include "checkpoint/checkpoint.hh"
#include "common/config.hh"
#include "common/error.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "inject/inject.hh"
#include "runner/journal.hh"
#include "runner/perfbench.hh"
#include "runner/shard.hh"
#include "serve/proto.hh"
#include "store/store.hh"

using namespace simalpha;

TEST(Counter, StartsAtZeroAndIncrements)
{
    stats::Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    ++c;
    EXPECT_EQ(c.value(), 2u);
    c += 40;
    EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, SetAndReset)
{
    stats::Counter c;
    c.set(100);
    EXPECT_EQ(c.value(), 100u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Distribution, BucketsSamplesCorrectly)
{
    stats::Distribution d(0, 9, 1);
    d.sample(0);
    d.sample(5);
    d.sample(5);
    d.sample(9);
    EXPECT_EQ(d.samples(), 4u);
    EXPECT_EQ(d.bucketCount(5), 2u);
    EXPECT_EQ(d.bucketCount(0), 1u);
    EXPECT_EQ(d.overflow(), 0u);
}

TEST(Distribution, OverflowTracked)
{
    stats::Distribution d(0, 9, 1);
    d.sample(100);
    EXPECT_EQ(d.overflow(), 1u);
    EXPECT_EQ(d.samples(), 1u);
}

TEST(Distribution, MeanComputed)
{
    stats::Distribution d(0, 63, 1);
    d.sample(2);
    d.sample(4);
    EXPECT_DOUBLE_EQ(d.mean(), 3.0);
}

TEST(Distribution, WideBuckets)
{
    stats::Distribution d(0, 99, 10);
    d.sample(5);
    d.sample(15);
    d.sample(19);
    EXPECT_EQ(d.bucketCount(0), 1u);
    EXPECT_EQ(d.bucketCount(1), 2u);
}

TEST(StatsGroup, CounterLazilyCreated)
{
    stats::Group g("test");
    EXPECT_FALSE(g.has("events"));
    ++g.counter("events");
    EXPECT_TRUE(g.has("events"));
    EXPECT_EQ(g.get("events"), 1u);
}

TEST(StatsGroup, GetOfUnknownCounterIsZero)
{
    stats::Group g("test");
    EXPECT_EQ(g.get("nothing"), 0u);
}

TEST(StatsGroup, ResetClearsEverything)
{
    stats::Group g("test");
    g.counter("a") += 5;
    g.distribution("d").sample(3);
    g.reset();
    EXPECT_EQ(g.get("a"), 0u);
    EXPECT_EQ(g.distribution("d").samples(), 0u);
}

TEST(StatsGroup, DumpIncludesNameAndFormulas)
{
    stats::Group g("m");
    g.counter("x").set(7);
    g.formula("twice_x", [&]() { return double(g.get("x")) * 2; });
    std::ostringstream os;
    g.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("m.x 7"), std::string::npos);
    EXPECT_NE(out.find("m.twice_x 14"), std::string::npos);
}

TEST(StatsGroup, CounterNamesSorted)
{
    stats::Group g("m");
    g.counter("zeta");
    g.counter("alpha");
    auto names = g.counterNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "zeta");
}

TEST(Means, ArithmeticMean)
{
    EXPECT_DOUBLE_EQ(arithmeticMean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(arithmeticMean({}), 0.0);
}

TEST(Means, HarmonicMean)
{
    // Harmonic mean of 1 and 3 is 1.5.
    EXPECT_DOUBLE_EQ(harmonicMean({1.0, 3.0}), 1.5);
    EXPECT_DOUBLE_EQ(harmonicMean({2.0, 2.0, 2.0}), 2.0);
}

TEST(Means, HarmonicLessThanArithmetic)
{
    std::vector<double> xs{0.5, 1.0, 4.0};
    EXPECT_LT(harmonicMean(xs), arithmeticMean(xs));
}

TEST(Means, StdDeviation)
{
    EXPECT_DOUBLE_EQ(stdDeviation({2.0, 2.0}), 0.0);
    EXPECT_NEAR(stdDeviation({1.0, 3.0}), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(stdDeviation({5.0}), 0.0);
}

TEST(Config, TypedRoundTrip)
{
    Config c;
    c.set("width", std::int64_t(4));
    c.set("enabled", true);
    c.set("rate", 0.25);
    c.set("name", "sim-alpha");
    EXPECT_EQ(c.getInt("width"), 4);
    EXPECT_TRUE(c.getBool("enabled"));
    EXPECT_DOUBLE_EQ(c.getDouble("rate"), 0.25);
    EXPECT_EQ(c.getString("name"), "sim-alpha");
}

TEST(Config, DefaultsWhenMissing)
{
    Config c;
    EXPECT_EQ(c.getInt("missing", 7), 7);
    EXPECT_TRUE(c.getBool("missing", true));
    EXPECT_DOUBLE_EQ(c.getDouble("missing", 1.5), 1.5);
    EXPECT_EQ(c.getString("missing", "dflt"), "dflt");
}

TEST(Config, HasAndOverwrite)
{
    Config c;
    EXPECT_FALSE(c.has("k"));
    c.set("k", std::int64_t(1));
    EXPECT_TRUE(c.has("k"));
    c.set("k", std::int64_t(2));
    EXPECT_EQ(c.getInt("k"), 2);
}

TEST(Config, MergeOtherWins)
{
    Config a, b;
    a.set("x", std::int64_t(1));
    a.set("y", std::int64_t(2));
    b.set("y", std::int64_t(20));
    a.merge(b);
    EXPECT_EQ(a.getInt("x"), 1);
    EXPECT_EQ(a.getInt("y"), 20);
}

TEST(Config, KeysSorted)
{
    Config c;
    c.set("b", std::int64_t(1));
    c.set("a", std::int64_t(1));
    auto keys = c.keys();
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "a");
}

TEST(Random, Deterministic)
{
    Random a(42), b(42);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        if (a.next() == b.next())
            same++;
    EXPECT_LT(same, 3);
}

TEST(Random, BelowInRange)
{
    Random r(7);
    for (int i = 0; i < 1000; i++)
        EXPECT_LT(r.below(10), 10u);
}

TEST(Random, UnitInRange)
{
    Random r(9);
    for (int i = 0; i < 1000; i++) {
        double u = r.unit();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Random, ChanceExtremes)
{
    Random r(11);
    for (int i = 0; i < 100; i++) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Logging, WarnCountIncrements)
{
    setQuiet(true);
    std::uint64_t before = warnCount();
    warn("test warning %d", 1);
    EXPECT_EQ(warnCount(), before + 1);
}

namespace {

/** The ring's elements front to back, through its iterators. */
std::vector<int>
contents(const Ring<int> &r)
{
    return std::vector<int>(r.begin(), r.end());
}

} // namespace

TEST(Ring, WrapsAroundItsStorage)
{
    Ring<int> r(4);
    for (int round = 0; round < 5; round++) {
        for (int i = 0; i < 3; i++)
            r.push_back(10 * round + i);
        EXPECT_EQ(r.front(), 10 * round);
        EXPECT_EQ(r.back(), 10 * round + 2);
        for (int i = 0; i < 3; i++) {
            EXPECT_EQ(r[0], 10 * round + i);
            r.pop_front();
        }
        EXPECT_TRUE(r.empty());
    }
}

TEST(Ring, PopBackAcrossTheWrap)
{
    Ring<int> r(4);
    for (int i = 0; i < 3; i++)
        r.push_back(i);
    r.pop_front();
    r.pop_front();
    // Slots 2, 3, 0, 1: the last two pushes wrap to the storage start.
    r.push_back(3);
    r.push_back(4);
    r.push_back(5);
    EXPECT_EQ(r.size(), r.capacity());
    EXPECT_EQ(contents(r), (std::vector<int>{2, 3, 4, 5}));
    r.pop_back();
    r.pop_back();
    r.pop_back();
    EXPECT_EQ(contents(r), (std::vector<int>{2}));
    r.push_back(6);
    EXPECT_EQ(contents(r), (std::vector<int>{2, 6}));
}

TEST(Ring, IteratesForwardAndInReverse)
{
    Ring<int> r(5);
    for (int i = 0; i < 4; i++)
        r.push_back(i);
    r.pop_front();
    r.push_back(4);
    r.push_back(5);
    EXPECT_EQ(contents(r), (std::vector<int>{1, 2, 3, 4, 5}));
    auto reversed = r | std::views::reverse;
    std::vector<int> rev(reversed.begin(), reversed.end());
    EXPECT_EQ(rev, (std::vector<int>{5, 4, 3, 2, 1}));
    EXPECT_EQ(r.end() - r.begin(), 5);
    // Random access: sorted by construction, so binary search works.
    auto it = std::lower_bound(r.begin(), r.end(), 4);
    EXPECT_EQ(it - r.begin(), 3);
    EXPECT_EQ(*it, 4);
}

TEST(Ring, ElementAddressesAreStableAcrossPushAndPop)
{
    Ring<int> r(8);
    for (int i = 0; i < 6; i++)
        r.push_back(i);
    int *third = &r[2];
    int *last = &r.back();
    for (int round = 0; round < 2; round++) {
        r.pop_front();          // elements before `third` leave
        r.push_back(100 + round);
    }
    r.pop_back();               // younger elements come and go
    r.push_back(7);
    EXPECT_EQ(third, &r[0]);
    EXPECT_EQ(*third, 2);
    EXPECT_EQ(last, &r[3]);
    EXPECT_EQ(*last, 5);
}

TEST(Ring, EmplaceBackValueInitialises)
{
    struct Slot
    {
        int a = 7;
        int b = 0;
    };
    Ring<Slot> r(2);
    r.emplace_back().b = 5;
    r.pop_front();
    r.emplace_back();
    r.pop_front();
    Slot &reused = r.emplace_back();    // the first slot again
    EXPECT_EQ(reused.a, 7);
    EXPECT_EQ(reused.b, 0);
}

TEST(Ring, OverflowAndUnderflowAreInvariantErrors)
{
    Ring<int> r(3);
    for (int i = 0; i < 3; i++)
        r.push_back(i);
    // The bound is the requested capacity, not the power-of-two
    // storage behind it.
    EXPECT_EQ(r.capacity(), 3u);
    EXPECT_THROW(r.push_back(3), InvariantError);
    EXPECT_THROW(r.emplace_back(), InvariantError);
    EXPECT_EQ(contents(r), (std::vector<int>{0, 1, 2}));
    r.clear();
    EXPECT_THROW(r.pop_front(), InvariantError);
    EXPECT_THROW(r.pop_back(), InvariantError);
}

TEST(Ring, ResetKeepsStorageThatIsLargeEnough)
{
    Ring<int> r(6);
    r.push_back(1);
    int *slot = &r.front();
    r.reset(5);
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.capacity(), 5u);
    r.push_back(2);
    EXPECT_EQ(&r.front(), slot);
}

// ---------------------------------------------------------------------
// JSON codec
// ---------------------------------------------------------------------

namespace {

using json::Value;
using Kind = json::Value::Kind;

/** Every byte value once, in order. */
std::string
allBytes()
{
    std::string s;
    for (int b = 0; b < 256; b++)
        s += char(b);
    return s;
}

/** Each single byte, then all of them together. */
std::vector<std::string>
byteStrings()
{
    std::vector<std::string> out;
    for (int b = 0; b < 256; b++)
        out.push_back(std::string(1, char(b)));
    out.push_back(allBytes());
    return out;
}

bool
parses(const std::string &text)
{
    Value v;
    std::string error;
    bool ok = json::parse(text, &v, &error);
    EXPECT_EQ(ok, error.empty()) << text;
    return ok;
}

} // namespace

TEST(JsonCodec, EscapeWritesTheWritersExactBytes)
{
    std::string want;
    for (int b = 0; b < 256; b++) {
        char c = char(b);
        if (c == '"')
            want += "\\\"";
        else if (c == '\\')
            want += "\\\\";
        else if (c == '\n')
            want += "\\n";
        else if (c == '\t')
            want += "\\t";
        else if (b < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", b);
            want += buf;
        } else
            want += c;
    }
    EXPECT_EQ(json::escape(allBytes()), want);
    EXPECT_EQ(json::escape(""), "");
    EXPECT_EQ(json::escape("\r\x1f"), "\\u000d\\u001f");
}

TEST(JsonCodec, ReadStringStopsPastTheClosingQuote)
{
    std::string text = "x\"a\\u00ffb\\/\\r\"tail";
    std::size_t pos = 2;
    std::string out;
    ASSERT_TRUE(json::readString(text, &pos, &out));
    EXPECT_EQ(out, std::string("a\xff" "b/\r"));
    EXPECT_EQ(text.substr(pos), "tail");

    // Failures leave the position where it was.
    for (const std::string &bad : std::vector<std::string>{
             "abc", "a\\", "a\\u00f", "a\\u0100\"", "a\\x\"",
             std::string("a\x01\"", 3)}) {
        pos = 0;
        EXPECT_FALSE(json::readString(bad, &pos, &out)) << bad;
        EXPECT_EQ(pos, 0u);
    }
}

TEST(JsonCodec, ParseAcceptsTheWritersGrammar)
{
    Value v;
    std::string error;
    ASSERT_TRUE(json::parse(
        " {\"s\":\"a\\\"b\",\"u\":18446744073709551615,\"z\":0,"
        "\"n\":-1.5e3,\"f\":0.25,\"t\":true,\"b\":false,"
        "\"o\":{\"k\":{}} }\r\n",
        &v, &error))
        << error;
    ASSERT_EQ(v.kind, Kind::Object);
    ASSERT_EQ(v.members.size(), 8u);
    // Members keep their order.
    EXPECT_EQ(v.members[0].key, "s");
    EXPECT_EQ(v.members[7].key, "o");
    EXPECT_EQ(v.find("s", Kind::String)->str, "a\"b");
    EXPECT_EQ(v.find("u", Kind::UInt)->uint, 18446744073709551615ull);
    EXPECT_EQ(v.find("z", Kind::UInt)->uint, 0u);
    EXPECT_EQ(v.find("n", Kind::Number)->number, -1500.0);
    EXPECT_EQ(v.find("f", Kind::Number)->number, 0.25);
    EXPECT_TRUE(v.find("t", Kind::Bool)->boolean);
    EXPECT_FALSE(v.find("b", Kind::Bool)->boolean);
    const Value *o = v.find("o", Kind::Object);
    ASSERT_NE(o, nullptr);
    EXPECT_NE(o->find("k", Kind::Object), nullptr);
    EXPECT_EQ(v.find("s", Kind::UInt), nullptr);
    EXPECT_EQ(v.find("missing"), nullptr);

    // The last duplicate wins; both stay in order.
    ASSERT_TRUE(json::parse("{\"a\":1,\"a\":\"x\"}", &v, &error));
    EXPECT_EQ(v.members.size(), 2u);
    EXPECT_EQ(v.find("a")->kind, Kind::String);
}

TEST(JsonCodec, ParseRejectsEverythingElse)
{
    const std::vector<std::string> bad = {
        "", "   ", "{", "}", "{}x", "{} {}", "\"s\"", "42", "true",
        "null", "[1]", "{\"a\":[1]}", "{\"a\":null}", "{\"a\":nul}",
        "{a:1}", "{\"a\" 1}", "{\"a\":1,}", "{,}", "{\"a\":1 \"b\":2}",
        "{\"a\":01}", "{\"a\":-}", "{\"a\":1.}", "{\"a\":.5}",
        "{\"a\":1e}", "{\"a\":+1}", "{\"a\":18446744073709551616}",
        "{\"a\":99999999999999999999}", "{\"a\":1e999}",
        "{\"a\":\"\\u0100\"}", "{\"a\":\"\\ud800\"}", "{\"a\":\"\\q\"}",
        std::string("{\"a\":\"\x01\"}"), "{\"a\":\"x}", "{\"a\":tru}",
        std::string("{\"a\":1}\0", 8), "\xef\xbb\xbf{}",
    };
    for (const std::string &text : bad)
        EXPECT_FALSE(parses(text)) << text;
    EXPECT_TRUE(parses("{}"));
}

TEST(JsonCodec, NestingDepthIsBounded)
{
    auto nested = [](int depth) {
        std::string s;
        for (int i = 1; i < depth; i++)
            s += "{\"a\":";
        s += "{}";
        s += std::string(std::size_t(depth - 1), '}');
        return s;
    };
    EXPECT_TRUE(parses(nested(json::kMaxDepth)));
    EXPECT_FALSE(parses(nested(json::kMaxDepth + 1)));
    EXPECT_FALSE(parses(std::string(1 << 20, '{')));
}

// Writers and readers: every line kind parses back to equal fields.

namespace {

runner::CellResult
sampledInjectedResult(const std::string &error,
                      const std::string &detail)
{
    runner::CellResult r;
    r.cell.machine = "sim-alpha";
    r.cell.opt = validate::Optimization::FastL1;
    r.cell.workload = "gcc";
    r.cell.maxInsts = 100000;
    r.cell.seed = 18446744073709551615ull;
    r.cell.sample.windows = 5;
    r.cell.sample.len = 1000;
    r.cell.sample.warmup = 500;
    std::string why;
    EXPECT_TRUE(inject::parseInjectSpec("rob:12345:17:1000",
                                        &r.cell.inject, &why))
        << why;
    r.seed = r.cell.seed;
    r.ok = true;
    r.error = error;
    r.errorClass = "invariant";
    r.cycles = 123456;
    r.instsCommitted = 100000;
    r.finished = true;
    r.counters = {{"a.b", 1}, {"zz", 18446744073709551615ull}};
    r.manifestHash = "0123456789abcdef";
    r.sampleWindows = 5;
    r.sampleTotalInsts = 987654;
    r.sampleIpcMean = 1.25;
    r.sampleIpcStddev = 0.5;
    r.sampleIpcCi = 0.125;
    r.injectOutcome = "sdc";
    r.injectDetail = detail;
    return r;
}

void
expectSameResult(const runner::CellResult &a, const runner::CellResult &b)
{
    EXPECT_EQ(runner::journalKey(a.cell), runner::journalKey(b.cell));
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.errorClass, b.errorClass);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instsCommitted, b.instsCommitted);
    EXPECT_EQ(a.finished, b.finished);
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.manifestHash, b.manifestHash);
    EXPECT_EQ(a.sampleWindows, b.sampleWindows);
    EXPECT_EQ(a.sampleTotalInsts, b.sampleTotalInsts);
    EXPECT_EQ(a.sampleIpcMean, b.sampleIpcMean);
    EXPECT_EQ(a.sampleIpcStddev, b.sampleIpcStddev);
    EXPECT_EQ(a.sampleIpcCi, b.sampleIpcCi);
    EXPECT_EQ(a.injectOutcome, b.injectOutcome);
    EXPECT_EQ(a.injectDetail, b.injectDetail);
}

using Strings = std::map<std::string, std::string>;
using Numbers = std::map<std::string, std::uint64_t>;

void
expectServeLine(const std::string &line, const Strings &strings,
                const Numbers &numbers)
{
    Strings s;
    Numbers n;
    ASSERT_TRUE(serve::isServeLine(line)) << line;
    ASSERT_TRUE(serve::parseServeLine(line, &s, &n)) << line;
    EXPECT_EQ(s, strings) << line;
    Numbers want = numbers;
    want["serve"] = 1;
    EXPECT_EQ(n, want) << line;
}

std::string
readBenchPerf()
{
    std::ifstream in(SIMALPHA_BENCH_PERF, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

} // namespace

TEST(JsonCodec, JournalLinesRoundTrip)
{
    runner::CellResult r = sampledInjectedResult("boom", "rob[3] bit 17");
    std::string line = runner::journalLine("table3", r);
    runner::CellResult back;
    std::string key;
    ASSERT_TRUE(runner::parseJournalLine(line, "table3", &back, &key))
        << line;
    EXPECT_EQ(key, runner::journalKey(r.cell));
    EXPECT_TRUE(back.fromJournal);
    expectSameResult(r, back);
    // Re-serializing the parsed result reproduces the line.
    EXPECT_EQ(runner::journalLine("table3", back), line);
}

TEST(JsonCodec, ShardLinesRoundTrip)
{
    std::string hb = runner::heartbeatLine("c\"x", 4096, "gcc");
    std::size_t cell = 0;
    ASSERT_TRUE(runner::parseHeartbeatLine(hb, "c\"x", &cell)) << hb;
    EXPECT_EQ(cell, 4096u);

    runner::StoreTraffic t;
    t.hits = 1;
    t.misses = 2;
    t.bytesRead = 18446744073709551615ull;
    t.bytesWritten = 0;
    std::string summary = runner::storeSummaryLine("c\"x", t);
    runner::StoreTraffic back;
    ASSERT_TRUE(runner::parseStoreSummaryLine(summary, "c\"x", &back))
        << summary;
    EXPECT_EQ(back.hits, t.hits);
    EXPECT_EQ(back.misses, t.misses);
    EXPECT_EQ(back.bytesRead, t.bytesRead);
    EXPECT_EQ(back.bytesWritten, t.bytesWritten);
}

TEST(JsonCodec, ServeLinesRoundTrip)
{
    expectServeLine(serve::helloLine("/s\tp", 3, 4),
                    {{"event", "hello"}, {"store", "/s\tp"}},
                    {{"version", serve::kProtoVersion},
                     {"max_pending", 3},
                     {"max_clients", 4}});
    expectServeLine(serve::errorLine("busy", "bad\rthing"),
                    {{"event", "error"},
                     {"code", "busy"},
                     {"message", "bad\rthing"}},
                    {});
    expectServeLine(serve::acceptedLine("t3", "j1", 40, 2),
                    {{"event", "accepted"}, {"campaign", "t3"},
                     {"job", "j1"}},
                    {{"cells", 40}, {"pending_ahead", 2}});
    expectServeLine(serve::doneLine("t3", "j1", 40, 39, 1, "failed"),
                    {{"event", "done"}, {"campaign", "t3"},
                     {"job", "j1"}, {"outcome", "failed"}},
                    {{"cells", 40}, {"ok", 39}, {"failed", 1}});
    expectServeLine(serve::statusLine("t3", "j1", "running", 7, 40),
                    {{"event", "status"}, {"campaign", "t3"},
                     {"job", "j1"}, {"state", "running"}},
                    {{"settled", 7}, {"cells", 40}});
    serve::HealthSnapshot h;
    h.draining = true;
    h.storeDegraded = true;
    h.clients = 2;
    h.jobsPending = 3;
    h.jobRunning = true;
    h.jobsDone = 4;
    h.cellsComputed = 5;
    h.cellsServed = 6;
    h.busyRejections = 7;
    h.pid = 8;
    h.uptimeSeconds = 9;
    h.storePath = "/st";
    expectServeLine(serve::healthLine(h),
                    {{"event", "health"}, {"status", "draining"},
                     {"store", "degraded"}, {"store_path", "/st"}},
                    {{"clients", 2}, {"jobs_pending", 3},
                     {"jobs_running", 1}, {"jobs_done", 4},
                     {"cells_computed", 5}, {"cells_served", 6},
                     {"busy_rejections", 7}, {"pid", 8},
                     {"uptime_s", 9}});
    serve::Capabilities caps;
    caps.storePath = "/st";
    caps.isolate = "process";
    caps.maxPending = 1;
    caps.maxClients = 2;
    caps.maxCellsPerCampaign = 3;
    caps.maxClientCells = 4;
    expectServeLine(
        serve::capabilitiesLine(caps),
        {{"event", "capabilities"},
         {"ops", "hello,submit,status,results,cancel,health,"
                 "capabilities,sync,shutdown"},
         {"store_path", "/st"}, {"isolate", "process"}},
        {{"version", serve::kProtoVersion},
         {"max_line_bytes", serve::kMaxLineBytes},
         {"max_sync_line_bytes", serve::kMaxSyncLineBytes},
         {"max_pending", 1}, {"max_clients", 2}, {"max_cells", 3},
         {"max_client_cells", 4}});
    expectServeLine(serve::syncedLine("pull", 12),
                    {{"event", "synced"}, {"direction", "pull"}},
                    {{"entries", 12}});
    expectServeLine(serve::drainingLine(), {{"event", "draining"}}, {});
    expectServeLine(serve::cancellingLine("t3", "j1"),
                    {{"event", "cancelling"}, {"campaign", "t3"},
                     {"job", "j1"}},
                    {});
}

TEST(JsonCodec, StoreExportLinesRoundTrip)
{
    std::string line = store::ResultStore::formatExportLine(
        "k|\"1\"", "{\"campaign\":\"x\"}\n");
    std::string key, payload;
    ASSERT_TRUE(store::ResultStore::parseExportLine(line, &key, &payload))
        << line;
    EXPECT_EQ(key, "k|\"1\"");
    EXPECT_EQ(payload, "{\"campaign\":\"x\"}\n");
}

TEST(JsonCodec, CommittedPerfFileRoundTrips)
{
    std::string text = readBenchPerf();
    ASSERT_FALSE(text.empty()) << SIMALPHA_BENCH_PERF;
    runner::PerfReport report;
    std::string error;
    ASSERT_TRUE(runner::parsePerfReport(text, &report, &error)) << error;
    EXPECT_TRUE(report.baseline.valid);
    EXPECT_TRUE(report.current.valid);
    // The file was written by perfReportToJson, so the parsed fields
    // render back to the same bytes.
    EXPECT_EQ(runner::perfReportToJson(report), text);
}

// Control bytes: every byte value written through the shared escaper
// reads back byte-identically wherever a string crosses a line.

TEST(JsonCodec, EveryByteRoundTripsThroughEveryReader)
{
    for (const std::string &s : byteStrings()) {
        std::string e = json::escape(s);
        std::string label = "byte string of size " +
                            std::to_string(s.size()) + " starting " +
                            std::to_string(int((unsigned char)s[0]));

        serve::Request req;
        std::string error;
        ASSERT_TRUE(serve::parseRequest(
            "{\"op\":\"submit\",\"campaign\":\"" + e +
                "\",\"sample\":\"" + e + "\",\"client\":\"" + e + "\"}",
            &req, &error))
            << label << ": " << error;
        EXPECT_EQ(req.campaign, s) << label;
        EXPECT_EQ(req.sample, s) << label;
        EXPECT_EQ(req.client, s) << label;

        Strings strings;
        Numbers numbers;
        ASSERT_TRUE(serve::parseServeLine(
            serve::errorLine("job_failed", s), &strings, &numbers))
            << label;
        EXPECT_EQ(strings["message"], s) << label;

        runner::CellResult r = sampledInjectedResult(s, s);
        runner::CellResult back;
        std::string key;
        ASSERT_TRUE(runner::parseJournalLine(
            runner::journalLine("c", r), "c", &back, &key))
            << label;
        EXPECT_EQ(back.error, s) << label;
        EXPECT_EQ(back.injectDetail, s) << label;

        std::string k, payload;
        ASSERT_TRUE(store::ResultStore::parseExportLine(
            store::ResultStore::formatExportLine(s, s), &k, &payload))
            << label;
        EXPECT_EQ(k, s) << label;
        EXPECT_EQ(payload, s) << label;
    }
}

TEST(JsonCodec, IntegerOverflowIsRejectedNotSaturated)
{
    std::string line = runner::journalLine(
        "c", sampledInjectedResult("", ""));
    std::string seedField = "\"seed\":18446744073709551615,";
    std::size_t at = line.find(seedField);
    ASSERT_NE(at, std::string::npos) << line;
    runner::CellResult r;
    std::string key;
    ASSERT_TRUE(runner::parseJournalLine(line, "c", &r, &key));
    EXPECT_EQ(r.seed, 18446744073709551615ull);
    for (std::size_t digits : {20, 21, 30}) {
        std::string bad = line;
        bad.replace(at, seedField.size(),
                    "\"seed\":" + std::string(digits, '9') + ",");
        EXPECT_FALSE(runner::parseJournalLine(bad, "c", &r, &key))
            << digits << " digits";
    }
}

// Fixed-seed mutation pass over every writer's output: byte flips,
// truncations and insertions never crash any reader, and no reader
// accepts a truncated line.

TEST(JsonCodec, MutatedLinesNeverCrashAnyReader)
{
    serve::HealthSnapshot h;
    h.storePath = "/st";
    serve::Capabilities caps;
    runner::StoreTraffic t;
    t.hits = 3;
    const std::vector<std::string> lines = {
        runner::journalLine("c", sampledInjectedResult("e\n", "d\x01")),
        runner::heartbeatLine("c", 7, "gcc"),
        runner::storeSummaryLine("c", t),
        "{\"op\":\"submit\",\"campaign\":\"smoke\",\"max_insts\":100}",
        serve::helloLine("/st", 1, 2),
        serve::errorLine("busy", "queue\tfull"),
        serve::acceptedLine("c", "j", 1, 2),
        serve::doneLine("c", "j", 1, 1, 0, "complete"),
        serve::statusLine("c", "j", "pending", 0, 1),
        serve::healthLine(h),
        serve::capabilitiesLine(caps),
        serve::syncedLine("push", 2),
        serve::drainingLine(),
        serve::cancellingLine("c", "j"),
        store::ResultStore::formatExportLine("k\x02", "p\"q"),
        readBenchPerf(),
    };

    // Every reader, on one input; returns how many accepted it.
    auto readAll = [](const std::string &text) {
        int accepted = 0;
        Value v;
        std::string error;
        accepted += json::parse(text, &v, &error);
        runner::CellResult r;
        std::string key;
        accepted += runner::parseJournalLine(text, "c", &r, &key);
        std::size_t cell = 0;
        accepted += runner::parseHeartbeatLine(text, "c", &cell);
        runner::StoreTraffic traffic;
        accepted += runner::parseStoreSummaryLine(text, "c", &traffic);
        serve::Request req;
        error.clear();
        bool ok = serve::parseRequest(text, &req, &error);
        EXPECT_TRUE(ok || !error.empty()) << text;
        accepted += ok;
        Strings strings;
        Numbers numbers;
        accepted += serve::parseServeLine(text, &strings, &numbers);
        std::string k, payload;
        accepted +=
            store::ResultStore::parseExportLine(text, &k, &payload);
        runner::PerfReport report;
        accepted += runner::parsePerfReport(text, &report, &error);
        return accepted;
    };

    Random rng(0x15C0DEC);
    int truncations = 0;
    for (const std::string &line : lines) {
        ASSERT_GT(readAll(line), 0) << line;
        for (int i = 0; i < 250; i++) {
            std::string m = line;
            std::size_t at = rng.below(m.size());
            switch (rng.below(3)) {
              case 0:
                m[at] = char(rng.below(256));
                readAll(m);
                break;
              case 1:
                m.insert(at, 1, char(rng.below(256)));
                readAll(m);
                break;
              default:
                m.resize(at);
                truncations++;
                EXPECT_EQ(readAll(m), 0) << "truncated: " << m;
            }
        }
    }
    EXPECT_GT(truncations, 1000);
}
