#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>

#include "bench.h"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::uint64_t h, const std::vector<std::uint8_t>& bytes) {
  for (const std::uint8_t b : bytes) {
    h = (h ^ b) * 1099511628211ull;
  }
  return h;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

void PassSample::add_op(double wall, double cpu, std::uint64_t acc) {
  wall_s += wall;
  cpu_s += cpu;
  accesses += acc;
  op_wall_s.push_back(wall);
  op_cpu_s.push_back(cpu);
  op_accesses.push_back(acc);
}

bool more_setup_reps(const std::vector<double>& samples) {
  double total = 0.0;
  for (const double s : samples) total += s;
  return samples.size() < 5 || (total < 1.0 && samples.size() < 50);
}

double pass_estimate(const WorkloadReport& rep, const SpanRecorder* rec) {
  std::vector<double> walls;
  for (const PassSample& s : rep.passes) walls.push_back(s.wall_s);
  // A traced pass costs at least as much as an untraced one.
  return median(walls) * (rec != nullptr ? 2.0 : 1.0);
}

void Outcome::record(std::uint64_t ops, bool ok, const std::string& why) {
  attempted += ops;
  if (ok) return;
  failed += ops;
  if (failures.size() < 8) failures.push_back(why);
}

std::size_t SpanRecorder::open(std::string name, std::uint64_t id) {
  Span s;
  s.name = std::move(name);
  s.start_us = seconds_since(origin_) * 1e6;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.id = id;
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  spans_[index].end_us = seconds_since(origin_) * 1e6;
  // Spans close in LIFO order (ScopedSpan); tolerate anything else by
  // removing exactly this one.
  const auto it = std::find(open_.rbegin(), open_.rend(), index);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += std::max(0.0, s.end_us - s.start_us - child_us[i]) * 1e-6;
  }
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
        << s.name.substr(0, s.name.find('.'))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
        << ",\"dur\":" << (s.end_us - s.start_us) << ",\"args\":{\"span\":" << i
        << ",\"parent\":" << s.parent << ",\"id\":" << s.id << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
