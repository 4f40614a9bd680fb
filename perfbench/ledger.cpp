#include "ledger.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>

#include "util/strings.h"

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail tail_percentile(std::vector<double> samples, std::size_t beyond) {
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n <= 2 * beyond) {
    t.value = samples.back();
    t.percentile = 100.0;
    return t;
  }
  t.value = samples[n - beyond - 1];
  t.percentile =
      100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
  return t;
}

std::map<std::string, double> registry_delta(
    const opckit::trace::MetricsSnapshot& before,
    const opckit::trace::MetricsSnapshot& after) {
  const auto d = opckit::trace::MetricsSnapshot::delta(before, after);
  std::map<std::string, double> out;
  for (const auto& [name, v] : d.counters) out[name] = static_cast<double>(v);
  for (const auto& [name, v] : d.gauges) out[name] = v;
  for (const auto& [name, h] : d.histograms) {
    out[name + ".count"] = static_cast<double>(h.total());
  }
  return out;
}

double delta_of(const std::map<std::string, double>& delta,
                const std::string& name) {
  const auto it = delta.find(name);
  return it == delta.end() ? 0.0 : it->second;
}

std::vector<double> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ms,
                                                                s.end_ms);
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_ms;
    const double hi = spans[i].end_ms;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    double covered = 0.0;
    double run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    out[i] = (hi - lo) - covered;
  }
  return out;
}

namespace {

std::uint64_t this_thread_key() {
  return static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

}  // namespace

Ledger::Ledger() : t0_(Clock::now()) {}

double Ledger::to_ms(Clock::time_point t) const {
  return std::chrono::duration<double, std::milli>(t - t0_).count();
}

double Ledger::now_ms() const { return to_ms(Clock::now()); }

int Ledger::begin(const std::string& name, std::uint64_t job) {
  SpanRecord s;
  s.name = name;
  s.job = job;
  s.thread = this_thread_key();
  std::lock_guard<std::mutex> lock(mutex_);
  auto& stack = open_[s.thread];
  if (!stack.empty()) {
    s.parent = stack.back();
    if (job == 0) s.job = spans_[static_cast<std::size_t>(s.parent)].job;
  }
  s.start_ms = now_ms();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size() - 1);
  stack.push_back(id);
  return id;
}

void Ledger::end(int id) {
  const double t = now_ms();
  std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord& s = spans_[static_cast<std::size_t>(id)];
  s.end_ms = t;
  auto& stack = open_[s.thread];
  const auto it = std::find(stack.begin(), stack.end(), id);
  if (it != stack.end()) stack.erase(it, stack.end());
}

int Ledger::add(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

std::vector<SpanRecord> Ledger::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> Ledger::durations(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const SpanRecord& s : spans_) {
    if (s.name == name) out.push_back(s.duration_ms());
  }
  return out;
}

void Ledger::write_json(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  const std::vector<double> self = self_times(all);
  std::ofstream out(path, std::ios::trunc);
  out << "{\"spans\":[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    out << (i ? ",\n" : "") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ms\":" << opckit::util::format_double(s.start_ms)
        << ",\"end_ms\":" << opckit::util::format_double(s.end_ms)
        << ",\"self_ms\":" << opckit::util::format_double(self[i])
        << ",\"parent\":" << s.parent << ",\"job\":" << s.job
        << ",\"thread\":" << s.thread << "}";
  }
  out << "\n]}\n";
}

std::vector<SpanRecord> parse_tracer_spans(const std::string& json,
                                           const std::string& name,
                                           double offset_ms) {
  // One event per line: {"name":"...","cat":..,"ph":"B","pid":1,
  // "tid":N,"ts":F[,"args":{...}]}.
  const auto field = [](const std::string& line, const std::string& key) {
    const std::string tag = "\"" + key + "\":";
    const std::size_t p = line.find(tag);
    if (p == std::string::npos) return std::string();
    std::size_t b = p + tag.size();
    if (b < line.size() && line[b] == '"') {
      const std::size_t e = line.find('"', b + 1);
      return line.substr(b + 1, e - b - 1);
    }
    std::size_t e = b;
    while (e < line.size() && line[e] != ',' && line[e] != '}') ++e;
    return line.substr(b, e - b);
  };
  std::vector<SpanRecord> out;
  std::map<std::uint64_t, std::vector<double>> open;  // tid -> begin ts
  std::size_t pos = 0;
  while (pos < json.size()) {
    std::size_t eol = json.find('\n', pos);
    if (eol == std::string::npos) eol = json.size();
    const std::string line = json.substr(pos, eol - pos);
    pos = eol + 1;
    if (field(line, "name") != name) continue;
    const std::string ph = field(line, "ph");
    const std::uint64_t tid = std::stoull(field(line, "tid"));
    const double ts_ms = std::stod(field(line, "ts")) / 1000.0;
    if (ph == "B") {
      open[tid].push_back(ts_ms);
    } else if (ph == "E" && !open[tid].empty()) {
      SpanRecord s;
      s.name = name;
      s.start_ms = open[tid].back() + offset_ms;
      s.end_ms = ts_ms + offset_ms;
      s.thread = tid;
      open[tid].pop_back();
      out.push_back(std::move(s));
    }
  }
  return out;
}

}  // namespace perfbench
