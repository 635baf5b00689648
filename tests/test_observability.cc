// Observability layer: span tracing, flight recorder, SLO monitor,
// diagnostics snapshot, ShardStats hot-path counters, and histogram
// quantile error bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/zen.h"
#include "obs/obs.h"
#include "util/clock.h"
#include "util/histogram.h"

namespace zen::obs {
namespace {

#ifndef ZEN_OBS_DISABLED
constexpr bool kObsEnabled = true;
#else
constexpr bool kObsEnabled = false;
#endif

// ---- histogram quantile bounds ----

TEST(Histogram, QuantilesWithinSubBucketError) {
  util::Histogram h;
  for (int v = 1; v <= 10000; ++v) h.record(v);
  // 64 linear sub-buckets per octave bound relative quantile error by
  // ~1/64 plus the midpoint rounding: allow 3%.
  const double p50 = h.percentile(0.50);
  const double p90 = h.percentile(0.90);
  const double p99 = h.percentile(0.99);
  EXPECT_NEAR(p50, 5000, 5000 * 0.03);
  EXPECT_NEAR(p90, 9000, 9000 * 0.03);
  EXPECT_NEAR(p99, 9900, 9900 * 0.03);
  // Quantiles are monotone and bracketed by the exact extremes.
  EXPECT_LE(h.percentile(0.0), p50);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.percentile(1.0));
  EXPECT_DOUBLE_EQ(h.min(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 10000);
}

TEST(Histogram, EmptyAndSingleValueQuantiles) {
  util::Histogram empty;
  EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);
  EXPECT_EQ(empty.count(), 0u);

  util::Histogram one;
  one.record(42.0);
  // A single sample: every quantile lands in its (sub-)bucket.
  EXPECT_NEAR(one.percentile(0.01), 42.0, 42.0 * 0.03);
  EXPECT_NEAR(one.percentile(0.99), 42.0, 42.0 * 0.03);
}

TEST(Histogram, MergePreservesQuantiles) {
  util::Histogram a, b;
  for (int v = 1; v <= 500; ++v) a.record(v);
  for (int v = 501; v <= 1000; ++v) b.record(v);
  a.merge(b);
  EXPECT_EQ(a.count(), 1000u);
  EXPECT_NEAR(a.percentile(0.5), 500, 500 * 0.03);
  EXPECT_DOUBLE_EQ(a.max(), 1000);
}

// ---- ShardStats ----

TEST(ShardStats, BumpsFlushIntoBoundCounters) {
  auto& reg = MetricsRegistry::global();
  Counter& c = reg.counter("zen_test_shard_total");
  const std::uint64_t before = c.value();
  {
    ShardStats shard;
    shard.bind(0, c);
    shard.bump(0);
    shard.bump(0, 9);
    // Not yet flushed: the shared counter must be untouched.
    EXPECT_EQ(c.value(), before);
    shard.flush();
    EXPECT_EQ(c.value(), before + (kObsEnabled ? 10 : 0));
    shard.bump(0, 5);
    // Registry snapshot flushes every registered shard.
    (void)reg.snapshot();
    EXPECT_EQ(c.value(), before + (kObsEnabled ? 15 : 0));
    shard.bump(0, 2);
  }  // destructor flushes residue
  EXPECT_EQ(c.value(), before + (kObsEnabled ? 17 : 0));
}

TEST(ShardStats, UnboundSlotAccumulatesSilently) {
  ShardStats shard;
  shard.bump(3, 100);  // no target bound: flush must not crash
  shard.flush();
  SUCCEED();
}

TEST(ShardStats, MultiShardConcurrentBumpsSumExactly) {
  Counter& total = MetricsRegistry::global().counter(
      "zen_test_shard_agg_total", "", "test-only aggregation counter");
  const std::uint64_t before = total.value();
  constexpr int kThreads = 4;
  constexpr std::uint64_t kBumps = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&total, t] {
      ShardStats shard;  // one block per thread: single-writer bumps
      shard.bind(0, total);
      for (std::uint64_t i = 0; i < kBumps + static_cast<std::uint64_t>(t);
           ++i)
        shard.bump(0);
      // Destructor flushes the residue.
    });
  }
  std::uint64_t expected = 0;
  for (int t = 0; t < kThreads; ++t) expected += kBumps + t;
  for (auto& t : threads) t.join();
  EXPECT_EQ(total.value() - before, kObsEnabled ? expected : 0);
}

TEST(ShardStats, PendingExposesUndrainedDelta) {
  Counter& c = MetricsRegistry::global().counter("zen_test_shard_pending_total");
  ShardStats shard;
  shard.bind(0, c);
  shard.bump(0, 7);
  EXPECT_EQ(shard.pending(0), kObsEnabled ? 7u : 0u);
  const std::uint64_t before = c.value();
  shard.flush();
  EXPECT_EQ(shard.pending(0), 0u);
  EXPECT_EQ(c.value() - before, kObsEnabled ? 7u : 0u);
}

// ---- flight recorder ----

TEST(FlightRecorder, RecordsAndRendersEvents) {
  auto& fr = FlightRecorder::global();
  fr.clear();
  fr.record(FlightEventKind::kTableFull, 7, 2, "rulestore");
  fr.record(FlightEventKind::kFaultInjected, 3, 0, "link_down");
  const auto events = fr.events();
  ASSERT_EQ(events.size(), kObsEnabled ? 2u : 0u);
  const std::string json = fr.render_json();
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  if (kObsEnabled) {
    EXPECT_NE(json.find("table_full"), std::string::npos);
    EXPECT_NE(json.find("fault_injected"), std::string::npos);
    EXPECT_NE(json.find("link_down"), std::string::npos);
  }
  fr.clear();
}

// Accesses FlightEvent members, which only exist in the enabled build.
#ifndef ZEN_OBS_DISABLED
TEST(FlightRecorder, RingKeepsNewestWhenFull) {
  auto& fr = FlightRecorder::global();
  fr.clear();
  for (std::uint64_t i = 0; i < 9000; ++i)
    fr.record(FlightEventKind::kRetransmit, i, 0);
  const auto events = fr.events();
  EXPECT_EQ(events.size(), 8192u);
  EXPECT_EQ(fr.total_recorded(), 9000u);
  // Oldest surviving first; the newest recorded event is last.
  EXPECT_EQ(events.front().a, 9000u - 8192u);
  EXPECT_EQ(events.back().a, 8999u);
  fr.clear();
}
#endif

// The crash-dump hook writes the armed path from a signal handler; the
// env var must override the caller-supplied path without a rebuild. A
// death test forks, so the child's SIGABRT dump lands on disk where the
// parent can inspect it.
#ifndef ZEN_OBS_DISABLED
TEST(FlightRecorderDeathTest, CrashDumpHonorsEnvPathOverride) {
  const char* path = "zen_fr_env_override.json";
  std::remove(path);
  ::setenv("ZEN_FLIGHTREC_PATH", path, 1);
  EXPECT_DEATH(
      {
        FlightRecorder::global().record(FlightEventKind::kFaultInjected, 1, 2,
                                        "boom");
        FlightRecorder::global().arm_crash_dump("ignored_default.json");
        std::abort();
      },
      "");
  ::unsetenv("ZEN_FLIGHTREC_PATH");
  std::FILE* f = std::fopen(path, "r");
  ASSERT_NE(f, nullptr) << "crash dump did not follow ZEN_FLIGHTREC_PATH";
  char buf[4096];
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  EXPECT_NE(std::string(buf).find("fault_injected"), std::string::npos);
  std::remove(path);
  std::remove("ignored_default.json");
}
#endif

TEST(FlightRecorder, DisableGatesRecording) {
  auto& fr = FlightRecorder::global();
  fr.clear();
  fr.set_enabled(false);
  fr.record(FlightEventKind::kReconnect, 1, 1);
  EXPECT_TRUE(fr.events().empty());
  fr.set_enabled(true);
  fr.clear();
}

// ---- SLO monitor ----

TEST(Slo, BurnRateTransitionsOnVirtualClock) {
  if (!kObsEnabled) GTEST_SKIP();
  double t = 1000.0;
  const std::uint64_t token =
      util::set_time_source([&t] { return t; }, /*is_virtual=*/true);

  auto& mon = SloMonitor::global();
  mon.reset();
  Slo& slo = mon.objective(SloMonitor::Objective{.name = "test_objective",
                                                 .target = 0.99,
                                                 .short_window_s = 5,
                                                 .long_window_s = 10});
  // Healthy traffic across several buckets.
  for (int s = 0; s < 10; ++s) {
    for (int i = 0; i < 100; ++i) slo.record(true);
    t += 1.0;
  }
  auto statuses = mon.evaluate();
  const auto find = [&](const char* name) -> const SloMonitor::Status* {
    for (const auto& st : statuses)
      if (st.name == name) return &st;
    return nullptr;
  };
  const auto* healthy = find("test_objective");
  ASSERT_NE(healthy, nullptr);
  EXPECT_EQ(healthy->state, SloMonitor::State::kOk);

  // 50% errors against a 1% budget: burn rate ~50 in both windows.
  for (int s = 0; s < 10; ++s) {
    for (int i = 0; i < 50; ++i) {
      slo.record(true);
      slo.record(false);
    }
    t += 1.0;
  }
  statuses = mon.evaluate();
  const auto* burning = find("test_objective");
  ASSERT_NE(burning, nullptr);
  EXPECT_EQ(burning->state, SloMonitor::State::kFastBurn);
  EXPECT_GT(burning->short_burn, 14.4);

  // Recovery: clean traffic pushes the windows back under budget.
  for (int s = 0; s < 15; ++s) {
    for (int i = 0; i < 100; ++i) slo.record(true);
    t += 1.0;
  }
  statuses = mon.evaluate();
  const auto* recovered = find("test_objective");
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->state, SloMonitor::State::kOk);

  mon.reset();
  util::clear_time_source(token);
}

TEST(Slo, LatencyObjectiveClassifiesByThreshold) {
  if (!kObsEnabled) GTEST_SKIP();
  double t = 2000.0;
  const std::uint64_t token =
      util::set_time_source([&t] { return t; }, /*is_virtual=*/true);
  auto& mon = SloMonitor::global();
  mon.reset();
  Slo& slo =
      mon.objective(SloMonitor::Objective{.name = "test_latency",
                                          .target = 0.9,
                                          .latency_threshold_s = 0.020});
  slo.record_latency(0.001);  // good
  slo.record_latency(0.019);  // good
  slo.record_latency(0.500);  // bad
  const auto statuses = mon.evaluate();
  for (const auto& st : statuses) {
    if (st.name != "test_latency") continue;
    EXPECT_EQ(st.good, 2u);
    EXPECT_EQ(st.bad, 1u);
  }
  mon.reset();
  util::clear_time_source(token);
}

TEST(Slo, RenderJsonListsObjectives) {
  auto& mon = SloMonitor::global();
  (void)mon.objective(SloMonitor::Objective{.name = "test_render"});
  const std::string json = mon.render_json();
  EXPECT_EQ(json.front(), '[');
  if (kObsEnabled) {
    EXPECT_NE(json.find("test_render"), std::string::npos);
  }
}

// ---- span tracer ----

class SpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::global().set_enabled(true);
    SpanTracer::global().clear();
  }
  void TearDown() override {
    SpanTracer::global().clear();
    TraceRecorder::global().set_enabled(false);
    TraceRecorder::global().clear();
  }
};

// These three inspect trace_id/span_id, which only exist when enabled.
#ifndef ZEN_OBS_DISABLED
TEST_F(SpanTest, TraceLifecycleTracksSpans) {
  auto& tracer = SpanTracer::global();
  const SpanContext root = tracer.start_trace("flow_setup", "trace");
  ASSERT_TRUE(root.valid());
  const SpanContext child = tracer.start_span("dispatch", "trace", root);
  ASSERT_TRUE(child.valid());
  EXPECT_EQ(child.trace_id, root.trace_id);
  const SpanContext grandchild =
      tracer.start_span("app:test", "trace", child);
  EXPECT_EQ(tracer.open_span_count(root), 3);

  // end_span returns the parent for chained closure.
  const SpanContext back = tracer.end_span(grandchild);
  EXPECT_EQ(back.span_id, child.span_id);
  tracer.end_span(child);
  EXPECT_EQ(tracer.open_span_count(root), 1);
  tracer.end_trace(root);

  const auto finished = tracer.finished();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_EQ(finished[0].name, "flow_setup");
  EXPECT_EQ(finished[0].spans_started, 3);
  EXPECT_EQ(finished[0].spans_ended, 3);
  EXPECT_TRUE(finished[0].complete);
}

TEST_F(SpanTest, BindTakeMovesContextAcrossKeys) {
  auto& tracer = SpanTracer::global();
  const SpanContext root = tracer.start_trace("t", "trace");
  const std::uint64_t k =
      SpanTracer::key(SpanTracer::Key::kPacketIn, 1, 7, 42);
  tracer.bind(k, root);
  const SpanContext taken = tracer.take(k);
  EXPECT_EQ(taken.span_id, root.span_id);
  // A key is consumed by take: second take is invalid.
  EXPECT_FALSE(tracer.take(k).valid());
  // Distinct namespaces do not collide.
  EXPECT_NE(SpanTracer::key(SpanTracer::Key::kPacketIn, 1, 7, 42),
            SpanTracer::key(SpanTracer::Key::kAck, 1, 7, 42));
  tracer.end_trace(root);
}

TEST_F(SpanTest, ScopeSetsThreadLocalCurrent) {
  auto& tracer = SpanTracer::global();
  EXPECT_FALSE(tracer.current().valid());
  const SpanContext root = tracer.start_trace("t", "trace");
  {
    SpanTracer::Scope scope(root);
    EXPECT_EQ(tracer.current().span_id, root.span_id);
    {
      const SpanContext child = tracer.start_span("inner", "trace", root);
      SpanTracer::Scope inner(child);
      EXPECT_EQ(tracer.current().span_id, child.span_id);
      tracer.end_span(child);
    }
    EXPECT_EQ(tracer.current().span_id, root.span_id);
  }
  EXPECT_FALSE(tracer.current().valid());
  tracer.end_trace(root);
}
#endif

TEST_F(SpanTest, AbandonedTraceIsNotComplete) {
  if (!kObsEnabled) GTEST_SKIP();
  auto& tracer = SpanTracer::global();
  const SpanContext root = tracer.start_trace("orphan", "trace");
  (void)tracer.start_span("child", "trace", root);
  tracer.abandon_trace(root);
  const auto finished = tracer.finished();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_FALSE(finished[0].complete);
  EXPECT_EQ(tracer.abandoned_traces(), 1u);
  EXPECT_EQ(tracer.open_traces(), 0u);
}

TEST_F(SpanTest, AsyncEventsRenderWithTraceIds) {
  if (!kObsEnabled) GTEST_SKIP();
  auto& tracer = SpanTracer::global();
  const SpanContext root = tracer.start_trace("render_me", "trace");
  tracer.annotate(root, "marker");
  tracer.end_trace(root);
  const std::string json = TraceRecorder::global().render_chrome_json();
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"n\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"0x"), std::string::npos);
  EXPECT_NE(json.find("render_me"), std::string::npos);
  EXPECT_NE(json.find("marker"), std::string::npos);
}

// ---- diagnostics ----

TEST(Diagnostics, ProvidersAppearInDumpAndDeregister) {
  auto& diag = Diagnostics::global();
  const std::size_t before = diag.provider_count();
  const std::uint64_t token =
      diag.add_provider("test_section", [] { return std::string("{\"x\":1}"); });
  EXPECT_EQ(diag.provider_count(), before + 1);
  const std::string dump = diag.dump();
  EXPECT_NE(dump.find("\"test_section\":{\"x\":1}"), std::string::npos);
  EXPECT_NE(dump.find("\"time\""), std::string::npos);
  EXPECT_NE(dump.find("\"slo\""), std::string::npos);
  EXPECT_NE(dump.find("\"flightrec\""), std::string::npos);
  EXPECT_NE(dump.find("\"metrics\""), std::string::npos);
  diag.remove_provider(token);
  EXPECT_EQ(diag.provider_count(), before);
  EXPECT_EQ(diag.dump().find("\"test_section\""), std::string::npos);
}

TEST(Diagnostics, NetworkRegistersStackProviders) {
  auto& diag = Diagnostics::global();
  const std::size_t before = diag.provider_count();
  {
    core::Network net = core::Network::linear(2, 1);
    net.add_app<controller::apps::LearningSwitch>();
    net.enable_intents();
    net.start();
    EXPECT_EQ(diag.provider_count(), before + 4);
    const std::string dump = diag.dump();
    EXPECT_NE(dump.find("\"switches\":["), std::string::npos);
    EXPECT_NE(dump.find("\"rule_store\":{"), std::string::npos);
    EXPECT_NE(dump.find("\"intents\":{"), std::string::npos);
    EXPECT_NE(dump.find("\"path_engine\":{"), std::string::npos);
    EXPECT_NE(dump.find("\"dpid\""), std::string::npos);
  }
  // Destroying the network removes its providers.
  EXPECT_EQ(diag.provider_count(), before);
}

// ---- end-to-end: one flow setup produces one connected trace ----

TEST(SpanIntegration, FlowSetupTraceStitchesAcrossLayers) {
  if (!kObsEnabled) GTEST_SKIP();
  auto& tracer = SpanTracer::global();
  auto& rec = TraceRecorder::global();
  rec.clear();
  rec.set_enabled(true);
  tracer.clear();

  {
    core::Network net = core::Network::linear(2, 1);
    controller::apps::LearningSwitch::Options opts;
    opts.transactional = true;
    net.add_app<controller::apps::LearningSwitch>(opts);
    net.start();
    // First packet floods (learns src); reply converges to an install.
    net.host(0).send_udp(net.host_ip(1), 4000, 4001, 64);
    net.run_for(0.5);
    net.host(1).send_udp(net.host_ip(0), 4001, 4000, 64);
    net.run_for(1.0);
  }

  const auto finished = tracer.finished();
  ASSERT_FALSE(finished.empty());
  // Every finished flow_setup trace must be span-complete, and the richest
  // one (known-destination install) carries the full punt -> dispatch ->
  // app -> flow_mod/packet_out -> barrier_ack ladder: >= 5 spans.
  int max_spans = 0;
  for (const auto& t : finished) {
    EXPECT_TRUE(t.complete) << t.name << " lost spans: " << t.spans_started
                            << " started, " << t.spans_ended << " ended";
    max_spans = std::max(max_spans, t.spans_started);
  }
  EXPECT_GE(max_spans, 5);
  EXPECT_EQ(tracer.open_traces(), 0u);

  tracer.clear();
  rec.set_enabled(false);
  rec.clear();
}

}  // namespace
}  // namespace zen::obs
