#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {
namespace {

double cpu_of(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double rss_of(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

double self_cpu_s() { return cpu_of(RUSAGE_SELF); }
double children_cpu_s() { return cpu_of(RUSAGE_CHILDREN); }
double self_peak_rss_mib() { return rss_of(RUSAGE_SELF); }
double children_peak_rss_mib() { return rss_of(RUSAGE_CHILDREN); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t SpanLog::open(const std::string& name, std::uint64_t parent) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.name = name;
  s.start_s = seconds_since(origin_);
  s.end_s = s.start_s;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanLog::close(std::uint64_t id,
                    std::map<std::string, std::int64_t> counts) {
  Span& s = spans_.at(id - 1);
  s.end_s = seconds_since(origin_);
  s.counts = std::move(counts);
}

std::uint64_t SpanLog::add(const std::string& name, std::uint64_t parent,
                           Clock::time_point start, Clock::time_point end) {
  const std::uint64_t id = open(name, parent);
  Span& s = spans_.back();
  s.start_s = std::chrono::duration<double>(start - origin_).count();
  s.end_s = std::chrono::duration<double>(end - origin_).count();
  return id;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream os(path);
  os.precision(9);
  os << "{\"run_id\": " << run_id_ << ", \"spans\": [";
  bool first = true;
  for (const Span& s : spans_) {
    os << (first ? "\n" : ",\n") << "  {\"id\": " << s.id
       << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
       << "\", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
       << ", \"counts\": {";
    bool first_count = true;
    for (const auto& [k, v] : s.counts) {
      os << (first_count ? "" : ", ") << "\"" << k << "\": " << v;
      first_count = false;
    }
    os << "}}";
    first = false;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
