#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace rafda::obs {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

TEST(Histogram, BucketIndexEdges) {
    // Bucket 0 is exact zeros; bucket i covers [2^(i-1), 2^i).
    EXPECT_EQ(Histogram::bucket_index(0), 0u);
    EXPECT_EQ(Histogram::bucket_index(1), 1u);
    EXPECT_EQ(Histogram::bucket_index(2), 2u);
    EXPECT_EQ(Histogram::bucket_index(3), 2u);
    EXPECT_EQ(Histogram::bucket_index(4), 3u);
    EXPECT_EQ(Histogram::bucket_index(7), 3u);
    EXPECT_EQ(Histogram::bucket_index(8), 4u);
    EXPECT_EQ(Histogram::bucket_index((1u << 30) - 1), 30u);
    // Everything with bit_width >= kBuckets lands in the last bucket.
    EXPECT_EQ(Histogram::bucket_index(std::uint64_t{1} << 32), Histogram::kBuckets - 1);
    EXPECT_EQ(Histogram::bucket_index(kMax), Histogram::kBuckets - 1);
}

TEST(Histogram, BucketUpperBounds) {
    EXPECT_EQ(Histogram::bucket_upper_bound(0), 0u);
    EXPECT_EQ(Histogram::bucket_upper_bound(1), 1u);
    EXPECT_EQ(Histogram::bucket_upper_bound(2), 3u);
    EXPECT_EQ(Histogram::bucket_upper_bound(10), 1023u);
    EXPECT_EQ(Histogram::bucket_upper_bound(Histogram::kBuckets - 1), kMax);
    // Consistency: every value sits at or below its bucket's upper bound.
    for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{900},
                            std::uint64_t{1} << 40, kMax})
        EXPECT_GE(Histogram::bucket_upper_bound(Histogram::bucket_index(v)), v);
}

TEST(Histogram, RecordAccumulatesStats) {
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    for (std::uint64_t v : {7u, 0u, 100u, 3u}) h.record(v);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 110u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 27.5);
    EXPECT_EQ(h.buckets()[0], 1u);                             // the zero
    EXPECT_EQ(h.buckets()[Histogram::bucket_index(7)], 1u);    // [4,8)
    EXPECT_EQ(h.buckets()[Histogram::bucket_index(100)], 1u);  // [64,128)
}

TEST(Histogram, ApproxQuantileIsMonotoneAndClamped) {
    Histogram h;
    for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
    std::uint64_t p0 = h.approx_quantile(0.0);
    std::uint64_t p50 = h.approx_quantile(0.5);
    std::uint64_t p99 = h.approx_quantile(0.99);
    EXPECT_LE(p0, p50);
    EXPECT_LE(p50, p99);
    // Quantiles come from bucket upper bounds but never exceed the true max.
    EXPECT_LE(p99, 100u);
    EXPECT_GE(p50, 32u);  // the median (50) lives in [32,64)
    EXPECT_EQ(Histogram().approx_quantile(0.5), 0u);
}

TEST(Histogram, EmptyHistogramQuantilesAreDefinedZero) {
    // N = 0 has no rank; the quantile must be a defined 0 — including
    // right after a reset, when stale buckets must not leak back out.
    Histogram h;
    for (double q : {0.0, 0.5, 0.95, 0.99, 1.0})
        EXPECT_EQ(h.approx_quantile(q), 0u) << "q=" << q;
    h.record(1234);
    h.reset();
    for (double q : {0.0, 0.5, 0.95, 0.99, 1.0})
        EXPECT_EQ(h.approx_quantile(q), 0u) << "q=" << q;
}

TEST(Histogram, SingleSampleQuantilesReturnTheSample) {
    Histogram h;
    h.record(77);
    // The bucket bound (127) clamps to the one recorded value.
    EXPECT_EQ(h.approx_quantile(0.50), 77u);
    EXPECT_EQ(h.approx_quantile(0.95), 77u);
    EXPECT_EQ(h.approx_quantile(0.99), 77u);
}

TEST(Histogram, QuantileFromBucketsClampsToMax) {
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};
    buckets[Histogram::bucket_index(1000)] = 10;  // bound 1023 > true max
    EXPECT_EQ(Histogram::quantile_from_buckets(buckets, 10, 1000, 0.99), 1000u);
    EXPECT_EQ(Histogram::quantile_from_buckets(buckets, 0, 0, 0.5), 0u);
}

TEST(Histogram, ResetZeroesEverything) {
    Histogram h;
    h.record(42);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.max(), 0u);
    for (std::uint64_t b : h.buckets()) EXPECT_EQ(b, 0u);
}

TEST(Registry, HandlesAreStableAcrossReset) {
    Registry reg;
    Counter& c = reg.counter("a.calls");
    Gauge& g = reg.gauge("a.depth");
    Histogram& h = reg.histogram("a.size");
    c.add(5);
    g.set(-3);
    h.record(9);

    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(h.count(), 0u);

    // Same name resolves to the same object, and the handle still works.
    EXPECT_EQ(&reg.counter("a.calls"), &c);
    c.add(2);
    EXPECT_EQ(reg.find_counter("a.calls")->value(), 2u);
}

TEST(Registry, FindReturnsNullForUnknownNames) {
    Registry reg;
    reg.counter("present");
    EXPECT_NE(reg.find_counter("present"), nullptr);
    EXPECT_EQ(reg.find_counter("absent"), nullptr);
    EXPECT_EQ(reg.find_gauge("absent"), nullptr);
    EXPECT_EQ(reg.find_histogram("absent"), nullptr);
}

TEST(Registry, ProbesSampleLiveStateAtSnapshotTime) {
    Registry reg;
    std::int64_t external = 10;
    reg.register_probe("vm.node0.instructions", [&] { return external; });

    Snapshot s1 = reg.snapshot();
    external = 25;
    Snapshot s2 = reg.snapshot();
    ASSERT_NE(s1.find("vm.node0.instructions"), nullptr);
    EXPECT_EQ(s1.find("vm.node0.instructions")->gauge, 10);
    EXPECT_EQ(s2.find("vm.node0.instructions")->gauge, 25);

    // reset() leaves probes alone: they sample external state.
    reg.reset();
    EXPECT_EQ(reg.snapshot().find("vm.node0.instructions")->gauge, 25);
}

TEST(Registry, RemoveProbesWithPrefix) {
    Registry reg;
    reg.register_probe("vm.node0.instructions", [] { return 1; });
    reg.register_probe("vm.node0.invokes", [] { return 2; });
    reg.register_probe("vm.node1.instructions", [] { return 3; });
    reg.remove_probes_with_prefix("vm.node0.");
    Snapshot s = reg.snapshot();
    EXPECT_EQ(s.find("vm.node0.instructions"), nullptr);
    EXPECT_EQ(s.find("vm.node0.invokes"), nullptr);
    ASSERT_NE(s.find("vm.node1.instructions"), nullptr);
    EXPECT_EQ(s.find("vm.node1.instructions")->gauge, 3);
}

TEST(Registry, VisitCountersInNameOrder) {
    Registry reg;
    reg.counter("b").add(2);
    reg.counter("a").add(1);
    reg.counter("c").add(3);
    std::vector<std::string> names;
    std::vector<std::uint64_t> values;
    reg.visit_counters([&](const std::string& n, std::uint64_t v) {
        names.push_back(n);
        values.push_back(v);
    });
    EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(values, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(Snapshot, CounterValueConvenience) {
    Registry reg;
    reg.counter("x").add(7);
    reg.gauge("g").set(9);
    Snapshot s = reg.snapshot();
    EXPECT_EQ(s.counter_value("x"), 7u);
    EXPECT_EQ(s.counter_value("missing"), 0u);
    EXPECT_EQ(s.counter_value("g"), 0u);  // not a counter
}

TEST(Snapshot, DiffSubtractsCountersAndHistograms) {
    Registry reg;
    Counter& c = reg.counter("calls");
    Histogram& h = reg.histogram("size");
    c.add(10);
    h.record(4);
    Snapshot before = reg.snapshot();

    c.add(5);
    h.record(4);
    h.record(1000);
    Snapshot after = reg.snapshot();

    Snapshot d = diff(before, after);
    EXPECT_EQ(d.counter_value("calls"), 5u);
    const Sample* hs = d.find("size");
    ASSERT_NE(hs, nullptr);
    EXPECT_EQ(hs->count, 2u);
    EXPECT_EQ(hs->sum, 1004u);
    EXPECT_EQ(hs->buckets[Histogram::bucket_index(4)], 1u);
    EXPECT_EQ(hs->buckets[Histogram::bucket_index(1000)], 1u);
}

TEST(Snapshot, DiffKeepsGaugeLevelAndTakesNewMetricsWhole) {
    Registry reg;
    reg.gauge("depth").set(3);
    Snapshot before = reg.snapshot();
    reg.gauge("depth").set(8);
    reg.counter("born.later").add(4);  // absent in `before`
    Snapshot d = diff(before, reg.snapshot());
    EXPECT_EQ(d.find("depth")->gauge, 8);  // level, not delta
    EXPECT_EQ(d.counter_value("born.later"), 4u);
}

TEST(Snapshot, DiffClampsBackwardCountersToZero) {
    // A reset between the two snapshots must not underflow.
    Registry reg;
    reg.counter("calls").add(10);
    Snapshot before = reg.snapshot();
    reg.reset();
    reg.counter("calls").add(2);
    EXPECT_EQ(diff(before, reg.snapshot()).counter_value("calls"), 0u);
}

}  // namespace
}  // namespace rafda::obs
