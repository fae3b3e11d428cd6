// Self-test of the benchmark's own arithmetic and failure accounting:
// percentile selection, due-time latency, the set-up median, span self time,
// and a deliberately corrupted output being counted as a failure.
//
//   cmake --build .bench_build --target perfbench_selftest
//   .bench_build/perfbench_selftest        (exit 0 = all checks passed)
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "models/zoo.h"
#include "rt/inputs.h"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool cond, const std::string& what) {
  if (!cond) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

void test_percentile() {
  // Nearest rank on an unsorted input: the smallest sample with at least q
  // of the samples at or below it.
  const std::vector<double> ten = {7, 3, 10, 1, 9, 2, 8, 4, 6, 5};
  expect(near(percentile(ten, 0.5), 5), "p50 of 1..10 is 5");
  expect(near(percentile(ten, 0.9), 9), "p90 of 1..10 is 9");
  expect(near(percentile(ten, 0.99), 10), "p99 of 1..10 is 10");
  expect(near(percentile(ten, 1.0), 10), "p100 is the maximum");
  expect(near(percentile(ten, 0.01), 1), "p1 of 1..10 is 1");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(near(percentile(hundred, 0.9), 90), "p90 of 1..100 is 90");
  expect(near(percentile(hundred, 0.91), 91), "p91 of 1..100 is 91");
  expect(near(percentile({4.5}, 0.9), 4.5), "one sample is every percentile");
  expect(near(percentile({}, 0.5), 0), "empty input yields 0");
}

void test_median() {
  expect(near(median({3, 1, 2}), 2), "odd median");
  expect(near(median({4, 1, 3, 2}), 2.5), "even median averages the middle");
}

void test_due_latency() {
  // Sent 2.5 ms after it was due, then 4 ms inside the server.
  expect(near(due_latency_ms(1'000'000, 3'500'000, 4.0), 6.5),
         "late send is charged to the request");
  expect(near(due_latency_ms(7'000'000, 7'000'000, 1.25), 1.25),
         "on-time send costs only the server time");
  // Timestamps far from zero keep their precision.
  const std::int64_t base = 9'000'000'000'000'000;
  expect(near(due_latency_ms(base, base + 10'000, 0.0), 0.01, 1e-12),
         "large clock values keep microsecond precision");
}

void test_setup_median() {
  // Set-ups of 5, 100, 20, 10 and 200 ms: median 20 ms, mean 67 ms. Each
  // teardown (50 ms) and slice (30 ms) around them must not be counted.
  const int delays_ms[] = {5, 100, 20, 10, 200};
  int call = 0;
  int teardowns = 0;
  std::vector<int> slices;
  bool ok = true;
  const std::vector<double> times = sliced_window(
      5,
      [&] {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(delays_ms[call++]));
        return true;
      },
      [&] {
        ++teardowns;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      },
      [&](int i) {
        slices.push_back(i);
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
      },
      &ok);
  expect(ok, "set-ups all verified");
  expect(times.size() == 5, "one time per set-up");
  for (int i = 0; i < 5 && i < static_cast<int>(times.size()); ++i) {
    expect(times[i] >= delays_ms[i] / 1e3 && times[i] < delays_ms[i] / 1e3 + 0.03,
           "set-up " + std::to_string(i) + " timed alone, got " +
               std::to_string(times[i]));
  }
  expect(teardowns == 5, "each set-up is preceded by a teardown");
  expect(slices == std::vector<int>({0, 1, 2, 3, 4}),
         "each set-up is followed by its slice");

  EndToEnd e2e;
  e2e.setups_s = times;
  Result result;
  put_end_to_end(e2e, &result);
  const double s = result.metrics.front().second;
  expect(result.metrics.front().first == "setup_s" && s >= 0.020 && s < 0.050,
         "setup_s is the median set-up (20 ms), got " + std::to_string(s));

  call = 0;
  sliced_window(
      3, [&] { return call++ != 1; }, [] {}, [](int) {}, &ok);
  expect(!ok, "a set-up whose first output fails verification is reported");
}

void test_self_time() {
  Tracer tr(true);
  const int root = tr.add("op", 0, 10'000'000, -1, 0);
  tr.add("child", 1'000'000, 4'000'000, root, 0);
  tr.add("child", 3'000'000, 6'000'000, root, 0);  // overlaps the first
  double op_self = -1.0;
  double child_self = -1.0;
  for (const auto& [name, ms] : tr.self_ms_by_name()) {
    if (name == "op") op_self = ms;
    if (name == "child") child_self = ms;
  }
  expect(near(op_self, 5.0, 1e-9), "self time removes the union of children");
  expect(near(child_self, 6.0, 1e-9), "leaf self time is its duration");
}

void test_corrupted_output_counts_as_failure() {
  const ramiel::Graph g = ramiel::models::build("squeezenet");
  ramiel::Rng rng(7);
  const auto inputs = ramiel::make_example_inputs(g, 2, rng);
  const auto ref = ramiel::SequentialExecutor(&g).run(inputs);
  const auto again = ramiel::SequentialExecutor(&g).run(inputs);

  std::string why;
  Tally tally;
  tally.record(outputs_identical(ref, again, &why), why);
  tally.record(outputs_close(ref, again, &why), why);
  expect(tally.attempted == 2 && tally.failed == 0,
         "identical outputs pass both checks");

  // Flip one element of one output of the second sample.
  auto corrupted = again;
  auto& [key, tensor] = *corrupted[1].begin();
  ramiel::Tensor copy = tensor.clone();
  copy.mutable_data()[copy.numel() / 2] += 0.5f;
  corrupted[1][key] = copy;

  const bool identical = outputs_identical(ref, corrupted, &why);
  tally.record(identical, why);
  const bool close = outputs_close(ref, corrupted, &why);
  tally.record(close, why);
  expect(!identical && !close, "a corrupted output fails both checks");
  expect(tally.attempted == 4 && tally.failed == 2,
         "each corrupted check counts one failure against attempted");
  expect(!tally.all_ok(), "a run with a failure is not correct");

  Result result;
  result.tally = tally;
  result.put("p50_ms", 1.5);
  const std::string line = result_json(result);
  expect(line.find("\"correct\": false") != std::string::npos &&
             line.find("\"attempted\": 4") != std::string::npos &&
             line.find("\"failed\": 2") != std::string::npos &&
             line.find("\"p50_ms\": 1.5") != std::string::npos,
         "the result line reports the failure: " + line);

  // A tiny perturbation inside the test tolerance still passes the
  // reference check but not the bit-identity check.
  auto nudged = again;
  auto& [key2, tensor2] = *nudged[0].begin();
  ramiel::Tensor copy2 = tensor2.clone();
  copy2.mutable_data()[0] += 1e-6f;
  nudged[0][key2] = copy2;
  expect(outputs_close(ref, nudged, &why), "within tolerance passes");
  expect(!outputs_identical(ref, nudged, &why), "any bit flip fails identity");
}

void test_fingerprint_mismatch() {
  const auto a = ramiel::compile_model(ramiel::models::build("squeezenet"),
                                       zoo_compile_options());
  const auto b = ramiel::compile_model(ramiel::models::build("squeezenet"),
                                       zoo_compile_options());
  expect(fingerprint(a) == fingerprint(b), "compiles are reproducible");
  auto opts = zoo_compile_options();
  opts.cloning = false;
  opts.pattern_rewrites = false;
  const auto c =
      ramiel::compile_model(ramiel::models::build("squeezenet"), opts);
  expect(!(fingerprint(a) == fingerprint(c)),
         "a different compile has a different fingerprint");
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  test_percentile();
  test_median();
  test_due_latency();
  test_setup_median();
  test_self_time();
  test_corrupted_output_counts_as_failure();
  test_fingerprint_mismatch();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
