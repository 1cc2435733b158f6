#include "cpp/probes.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

Status ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  if (!f) {
    return Status::IoError("cannot reset VmHWM via /proc/self/clear_refs");
  }
  return Status::OK();
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;  // kB
    }
  }
  return 0;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double SupportedTailPercentile(size_t samples) {
  double best = 0;
  for (double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    const double beyond = static_cast<double>(samples) * (1.0 - p / 100.0);
    if (beyond >= 10.0) best = p;
  }
  return best;
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t h) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

ule::Result<uint64_t> HashFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::IoError("cannot open " + path);
  uint64_t h = 1469598103934665603ull;
  std::vector<char> buf(1 << 20);
  while (f) {
    f.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    h = Fnv1a(buf.data(), static_cast<size_t>(f.gcount()), h);
  }
  if (f.bad()) return Status::IoError("read error on " + path);
  return h;
}

bool Recorder::Time(const std::string& kind, double work_bytes,
                    const std::function<Status()>& op,
                    const std::function<Status()>& check) {
  ++attempted_;
  Status reset = ResetPeakRss();
  if (!reset.ok()) {
    Fail(kind, reset);
    return false;
  }
  OpSample s;
  s.work_bytes = work_bytes;
  const double cpu0 = ProcessCpuS();
  const double t0 = NowS();
  Status status = op();
  s.wall_s = NowS() - t0;
  s.cpu_s = ProcessCpuS() - cpu0;
  s.peak_rss_mb = perfbench::PeakRssMb();
  if (status.ok()) status = check();
  if (!status.ok()) {
    ++failed_;
    std::cerr << "perfbench: " << kind << " failed: " << status.ToString()
              << "\n";
    return false;
  }
  samples_[kind].push_back(s);
  return true;
}

void Recorder::Fail(const std::string& what, const Status& status) {
  ++attempted_;
  ++failed_;
  std::cerr << "perfbench: " << what << " failed: " << status.ToString()
            << "\n";
}

const std::vector<OpSample>& Recorder::samples(const std::string& kind) const {
  static const std::vector<OpSample> kNone;
  auto it = samples_.find(kind);
  return it == samples_.end() ? kNone : it->second;
}

double Recorder::MedianWall(const std::string& kind) const {
  std::vector<double> v;
  for (const OpSample& s : samples(kind)) v.push_back(s.wall_s);
  return Median(v);
}

double Recorder::MedianMbPerS(const std::string& kind) const {
  std::vector<double> v;
  for (const OpSample& s : samples(kind)) {
    v.push_back(s.work_bytes / s.wall_s / 1e6);
  }
  return Median(v);
}

double Recorder::MedianCpuPerMb(const std::string& kind) const {
  std::vector<double> v;
  for (const OpSample& s : samples(kind)) {
    v.push_back(s.cpu_s / (s.work_bytes / 1e6));
  }
  return Median(v);
}

double Recorder::MedianBlockMean(const std::string& kind, size_t block,
                                 bool cpu) const {
  const std::vector<OpSample>& v = samples(kind);
  std::vector<double> means;
  for (size_t at = 0; at < v.size(); at += block) {
    const size_t end = std::min(at + block, v.size());
    if (end - at < block && !means.empty()) break;
    double sum = 0;
    for (size_t i = at; i < end; ++i) sum += cpu ? v[i].cpu_s : v[i].wall_s;
    means.push_back(sum / static_cast<double>(end - at));
  }
  return Median(means);
}

double Recorder::PeakRssMb() const {
  double peak = 0;
  for (const auto& [kind, v] : samples_) {
    std::vector<double> peaks;
    for (const OpSample& s : v) peaks.push_back(s.peak_rss_mb);
    peak = std::max(peak, Median(peaks));
  }
  return peak;
}

double Recorder::PoolUtil() const {
  double cpu = 0;
  for (const auto& [kind, v] : samples_) {
    for (const OpSample& s : v) cpu += s.cpu_s;
  }
  const double wall = TotalWall();
  return wall > 0 ? cpu / (wall * threads_) : 0;
}

double Recorder::TotalWall() const {
  double wall = 0;
  for (const auto& [kind, v] : samples_) {
    for (const OpSample& s : v) wall += s.wall_s;
  }
  return wall;
}

std::string Recorder::WallsJson() const {
  std::ostringstream out;
  out << "{";
  bool first_kind = true;
  for (const auto& [kind, v] : samples_) {
    out << (first_kind ? "" : ", ") << "\"" << kind << "\": [";
    for (size_t i = 0; i < v.size(); ++i) {
      char value[32];
      std::snprintf(value, sizeof(value), "%.6g", v[i].wall_s);
      out << (i ? ", " : "") << value;
    }
    out << "]";
    first_kind = false;
  }
  out << "}";
  return out.str();
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    // %.17g keeps every digit of the double as measured.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
