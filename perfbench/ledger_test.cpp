/// Self-tests for the benchmark's statistics code (ledger.h): the tail
/// percentile, registry snapshot deltas, self time from nested spans, and
/// the tracer-span parser. run.py runs this binary before every
/// benchmark run; a failure stops the run.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "ledger.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << '\n';
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

void test_median() {
  expect(near(perfbench::median({}), 0.0), "median of nothing is 0");
  expect(near(perfbench::median({3, 1, 2}), 2.0), "odd median");
  expect(near(perfbench::median({4, 1, 3, 2}), 2.5), "even median");
}

void test_tail() {
  // 1..30: 10 samples beyond index 19 (value 20), rank 20/30.
  std::vector<double> v;
  for (int i = 30; i >= 1; --i) v.push_back(i);
  const perfbench::Tail t = perfbench::tail_percentile(v);
  expect(near(t.value, 20.0), "tail value with 30 samples");
  expect(near(t.percentile, 100.0 * 20.0 / 30.0), "tail rank with 30");
  expect(t.samples == 30, "tail sample count");
  // 21 samples: the median (index 10) is the first with 10 beyond it
  // that is not below the median.
  std::vector<double> e(21);
  for (int i = 0; i < 21; ++i) e[static_cast<std::size_t>(i)] = 100 + i;
  const perfbench::Tail t21 = perfbench::tail_percentile(e);
  expect(near(t21.value, 110.0), "tail with 21 samples is the median");
  // 20 samples: index 9 would lie below the median; the maximum instead.
  e.pop_back();
  const perfbench::Tail t20 = perfbench::tail_percentile(e);
  expect(near(t20.value, 119.0) && near(t20.percentile, 100.0),
         "tail with 20 samples is the maximum");
  // Too few: fall back to the maximum at rank 100.
  const perfbench::Tail small = perfbench::tail_percentile({5, 9, 7});
  expect(near(small.value, 9.0) && near(small.percentile, 100.0),
         "tail with too few samples is the maximum");
  expect(perfbench::tail_percentile({}).samples == 0, "empty tail");
}

void test_registry_delta() {
  opckit::trace::MetricsSnapshot a, b;
  a.counters["x.count"] = 5;
  b.counters["x.count"] = 12;
  a.gauges["x.ms"] = 1.5;
  b.gauges["x.ms"] = 4.0;
  opckit::trace::HistogramSnapshot h0, h1;
  h0.lo = h1.lo = 0.0;
  h0.hi = h1.hi = 10.0;
  h0.bins = {1, 0};
  h1.bins = {3, 2};
  h1.overflow = 1;
  a.histograms["x.hist"] = h0;
  b.histograms["x.hist"] = h1;
  const auto d = perfbench::registry_delta(a, b);
  expect(near(perfbench::delta_of(d, "x.count"), 7.0), "counter delta");
  expect(near(perfbench::delta_of(d, "x.ms"), 2.5), "gauge delta");
  expect(near(perfbench::delta_of(d, "x.hist.count"), 5.0),
         "histogram sample-count delta");
  expect(near(perfbench::delta_of(d, "absent"), 0.0), "absent name is 0");

  // Against the live registry: a counter bumped between two snapshots.
  auto& reg = opckit::trace::metrics();
  const auto before = reg.snapshot();
  reg.counter(opckit::trace::metric::kFlowTilesMerged).add(3);
  const auto live = perfbench::registry_delta(before, reg.snapshot());
  expect(near(perfbench::delta_of(live, opckit::trace::metric::kFlowTilesMerged),
              3.0),
         "live registry delta");
}

void test_self_time() {
  // parent [0,10] with children [1,3] and [2,5] (overlapping: union 4)
  // and [8,12] (clipped to [8,10]: 2) -> self = 10 - 4 - 2 = 4.
  // grandchild [1.5,2] of child 1 does not count against the parent.
  std::vector<perfbench::SpanRecord> s(5);
  s[0] = {"p", 0, 10, -1, 1, 0};
  s[1] = {"a", 1, 3, 0, 1, 0};
  s[2] = {"b", 2, 5, 0, 1, 0};
  s[3] = {"c", 8, 12, 0, 1, 0};
  s[4] = {"g", 1.5, 2, 1, 1, 0};
  const std::vector<double> self = perfbench::self_times(s);
  expect(near(self[0], 4.0), "parent self time");
  expect(near(self[1], 1.5), "child self time minus grandchild");
  expect(near(self[2], 3.0), "leaf self time");
  expect(near(self[4], 0.5), "grandchild self time");

  // The recorder nests begin/end on one thread.
  perfbench::Ledger ledger;
  const int outer = ledger.begin("outer", 7);
  const int inner = ledger.begin("inner");
  ledger.end(inner);
  ledger.end(outer);
  const auto spans = ledger.spans();
  expect(spans.size() == 2 && spans[1].parent == outer,
         "nested span records its parent");
  expect(spans[1].job == 7, "child inherits the job id");
  expect(perfbench::self_times(spans)[0] >= 0.0, "recorded self time >= 0");
}

void test_tracer_parse() {
  const std::string json =
      "{\"traceEvents\":[\n"
      "{\"name\":\"flow.solve.tile\",\"cat\":\"opckit\",\"ph\":\"B\","
      "\"pid\":1,\"tid\":2,\"ts\":1000,\"args\":{\"index\":0}},\n"
      "{\"name\":\"flow.gather.tile\",\"cat\":\"opckit\",\"ph\":\"B\","
      "\"pid\":1,\"tid\":2,\"ts\":1100},\n"
      "{\"name\":\"flow.gather.tile\",\"cat\":\"opckit\",\"ph\":\"E\","
      "\"pid\":1,\"tid\":2,\"ts\":1200},\n"
      "{\"name\":\"flow.solve.tile\",\"cat\":\"opckit\",\"ph\":\"E\","
      "\"pid\":1,\"tid\":2,\"ts\":4500}\n"
      "]}\n";
  const auto spans = perfbench::parse_tracer_spans(json, "flow.solve.tile", 10);
  expect(spans.size() == 1, "one solve span parsed");
  if (!spans.empty()) {
    expect(near(spans[0].start_ms, 11.0) && near(spans[0].end_ms, 14.5),
           "tracer span times in ms with offset");
  }
}

}  // namespace

int main() {
  test_median();
  test_tail();
  test_registry_delta();
  test_self_time();
  test_tracer_parse();
  if (failures) {
    std::cerr << failures << " self-test failure(s)\n";
    return 1;
  }
  std::cout << "perfbench self-test: ok\n";
  return 0;
}
