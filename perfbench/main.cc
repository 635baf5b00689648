// zenbench: one workload of the zen end-to-end benchmark per invocation.
//
//   zenbench --workload <fabric_forward|reactive_churn|control_churn>
//            --seed <n> --seconds <s> --trace <0|1>
//
// The workload's inputs are generated from the seed before anything is
// timed. Untraced runs (--trace 0) set the network up repeatedly before,
// inside (untimed, between steps) and after the timed phase (setup_s), drive
// the schedule through one instance and print the end-to-end metrics. Traced
// runs (--trace 1) drive the same schedule twice, untraced and then with the
// benchmark's spans and captures on, and print the per-layer metrics. Both
// run the workload's output checks and print a determinism fingerprint. The
// last line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
// Exit status is non-zero when a check fails.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <optional>
#include <stdexcept>

#include "common.h"

namespace zb {
namespace {

// A set-up batch repeats set-up until both bounds are met (or kMaxSetups is
// reached), so that cheap set-ups are sampled often enough for a steady
// low quantile.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 200;
constexpr double kMinSetupTotalS = 0.4;
// Set-up batches in an untraced run: before, inside and after the timed
// phase, so that the set-ups sample the host over the whole run.
constexpr int kSetupBatches = 4;

// The gated host times are 5th percentiles. The vCPUs of a shared cloud host
// switch between speed modes about 1.5x apart that last for seconds,
// presumably with other tenants' load on the same physical cores; how much
// of a run falls in the slow mode is luck, and it moved medians and p90s of
// runs of the same code by 25-35%. The 5th percentile is the cost of the
// work on an uncontended core, and a run has to be slow 95% of the time to
// move it.
constexpr double kGatedQuantile = 0.05;

struct Pass {
  std::unique_ptr<Instance> inst;
  std::vector<double> step_ms;
  std::uint64_t ops = 0;
  double host_s = 0;  // sum of step times, tap time excluded
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t fingerprint = 0;
  std::vector<std::string> problems;
};

// Drives every step of the schedule through `inst`, then finishes it.
// `interlude`, when given, runs untimed at `interludes` evenly spaced points
// of the schedule.
void drive(Pass& pass, Tracer& tr, const Options& opt,
           const std::function<void()>& interlude = {}, int interludes = 0) {
  Instance& inst = *pass.inst;
  const std::size_t n = inst.steps();
  pass.step_ms.reserve(n);
  int done = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (done < interludes &&
        i == n * static_cast<std::size_t>(done + 1) / (interludes + 1)) {
      interlude();
      ++done;
    }
    const std::uint64_t tap0 = inst.capture.tap_ns();
    const std::uint64_t t0 = now_ns();
    pass.ops += inst.run_step(i, tr);
    const std::uint64_t dt =
        now_ns() - t0 - (inst.capture.tap_ns() - tap0);
    pass.step_ms.push_back(static_cast<double>(dt) * 1e-6);
    pass.host_s += static_cast<double>(dt) * 1e-9;
  }
  pass.failed = inst.finish(pass.attempted, pass.problems);

  Fnv fnv;
  fnv.u64(inst.capture.hash());
  fnv.u64(inst.capture.mods());
  hash_deliveries(inst.net(), fnv);
  pass.fingerprint = fnv.value();
  std::printf("fingerprint %s seed=%" PRIu64 " seconds=%d %016" PRIx64 "\n",
              opt.workload.c_str(), opt.seed, opt.seconds, pass.fingerprint);
}

// Times one batch of set-ups, appending each time to `secs`. Every set-up
// must program the same southbound stream (`hash` holds the first one's).
// The last instance is kept in `keep` when given.
void setup_batch(const Factory& factory, Tracer& off,
                 std::optional<std::uint64_t>& hash, std::vector<double>& secs,
                 std::vector<std::string>& problems,
                 std::unique_ptr<Instance>* keep) {
  int n = 0;
  double total = 0;
  while (n < kMaxSetups && (n < kMinSetups || total < kMinSetupTotalS)) {
    if (keep) keep->reset();
    const std::uint64_t t0 = now_ns();
    std::unique_ptr<Instance> inst = factory(off, false);
    secs.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    total += secs.back();
    ++n;
    if (!hash) hash = inst->capture.hash();
    if (*hash != inst->capture.hash())
      problems.push_back("set-up southbound stream differs between repeats");
    if (keep) *keep = std::move(inst);
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_metric(const Metric& m) {
  std::printf("  %-34s %16.6f %-8s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.note.c_str());
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

Factory make_factory(const Options& opt) {
  if (opt.workload == "fabric_forward") return fabric_forward(opt);
  if (opt.workload == "reactive_churn") return reactive_churn(opt);
  if (opt.workload == "control_churn") return control_churn(opt);
  throw std::invalid_argument("unknown workload: " + opt.workload);
}

int run(const Options& opt) {
  // Inputs first: the schedule is generated before any timing starts.
  const Factory factory = make_factory(opt);
  Tracer off(false);
  Tracer on(true);

  std::vector<std::string> problems;
  Report e2e;
  Report layers;
  Report aliases;
  Pass main_pass;

  if (!opt.trace) {
    // The last set-up of the first batch runs the schedule.
    std::optional<std::uint64_t> setup_hash;
    std::vector<double> setup_secs;
    setup_batch(factory, off, setup_hash, setup_secs, problems, &main_pass.inst);
    drive(
        main_pass, off, opt,
        [&] { setup_batch(factory, off, setup_hash, setup_secs, problems, nullptr); },
        kSetupBatches - 2);

    main_pass.inst->workload_metrics(main_pass.step_ms, main_pass.ops,
                                     main_pass.host_s, aliases);
    std::vector<double> gated;
    for (std::size_t i = 0; i < main_pass.step_ms.size(); ++i)
      if (main_pass.inst->gated_step(i)) gated.push_back(main_pass.step_ms[i]);
    main_pass.inst.reset();
    setup_batch(factory, off, setup_hash, setup_secs, problems, nullptr);

    e2e.add("setup_s", percentile(setup_secs, kGatedQuantile), "s",
            "p5 of n=" + std::to_string(setup_secs.size()) +
                " set-ups before, inside and after the timed phase (median " +
                std::to_string(percentile(setup_secs, 0.5)) + " s)");
    e2e.add("peak_rss_mb", peak_rss_mb(), "MB");
    // Gated: p5 of step time. Throughput, the median and p90 are printed
    // only, since they follow the host's speed mode.
    e2e.add("step_ms_p05", percentile(gated, kGatedQuantile), "ms",
            "n=" + std::to_string(gated.size()) + " steps");
    const std::string n_steps =
        "n=" + std::to_string(main_pass.step_ms.size()) + " steps";
    aliases.add("step_ms_p50", percentile(main_pass.step_ms, 0.5), "ms", n_steps);
    aliases.add("step_ms_p90", percentile(main_pass.step_ms, 0.9), "ms", n_steps);
  } else {
    // Untraced pass on one instance, traced pass on a second one: the
    // ratio of their host times is the tracing overhead.
    Pass plain;
    plain.inst = factory(off, false);
    drive(plain, off, opt);
    for (auto& p : plain.problems) problems.push_back("untraced pass: " + p);
    if (plain.failed != 0)
      problems.push_back("untraced pass: " + std::to_string(plain.failed) +
                         " operations failed");
    const std::uint64_t plain_fp = plain.fingerprint;
    const double plain_s = plain.host_s;
    plain.inst.reset();

    main_pass.inst = factory(on, true);
    const auto base = read_baseline(*main_pass.inst);
    drive(main_pass, on, opt);
    if (main_pass.fingerprint != plain_fp)
      problems.push_back("traced and untraced passes disagree on the fingerprint");
    common_layer_metrics(*main_pass.inst, base, on, main_pass.ops, layers);
    main_pass.inst->layer_metrics(layers);
    main_pass.inst->workload_metrics(main_pass.step_ms, main_pass.ops,
                                     main_pass.host_s, aliases);
    layers.add("obs.trace_overhead_ratio", main_pass.host_s / plain_s, "ratio",
               "traced " + std::to_string(main_pass.host_s) + " s / untraced " +
                   std::to_string(plain_s) + " s");
    on.print();
  }

  for (auto& p : main_pass.problems) problems.push_back(std::move(p));
  const bool correct = problems.empty() && main_pass.failed == 0;
  for (const auto& p : problems) std::printf("CHECK FAILED: %s\n", p.c_str());
  std::printf("workload %s seed=%" PRIu64 " %s: %" PRIu64
              " operations attempted, %" PRIu64 " failed (failed_ratio %.6g)\n",
              opt.workload.c_str(), opt.seed, opt.trace ? "traced" : "untraced",
              main_pass.attempted, main_pass.failed,
              main_pass.attempted
                  ? static_cast<double>(main_pass.failed) /
                        static_cast<double>(main_pass.attempted)
                  : 0.0);
  const Report& out = opt.trace ? layers : e2e;
  std::printf("%s metrics:\n", opt.trace ? "per-layer" : "end-to-end");
  for (const Metric& m : out.metrics) print_metric(m);
  if (!aliases.metrics.empty()) {
    std::printf("workload metrics:\n");
    for (const Metric& m : aliases.metrics) print_metric(m);
  }
  print_json(correct, std::max<std::uint64_t>(main_pass.attempted, 1),
             main_pass.failed, out);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace zb

int main(int argc, char** argv) {
  zb::Options opt;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opt.seconds = std::stoi(val);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (!have_workload || opt.seconds < 1) {
    std::fprintf(stderr,
                 "usage: zenbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  try {
    return zb::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zenbench: %s\n", e.what());
    return 1;
  }
}
