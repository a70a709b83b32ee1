/**
 * @file
 * Unit tests for the common foundation: statistics, configuration,
 * deterministic RNG, logging counters, and the fixed ring.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ranges>
#include <sstream>
#include <vector>

#include "common/config.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/ring.hh"
#include "common/stats.hh"

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
