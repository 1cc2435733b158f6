#include "cpp/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "cpp/probes.h"

namespace perfbench {
namespace {

std::atomic<Tracer*> g_active{nullptr};
thread_local int64_t tls_open_span = -1;

uint64_t ThreadNumber() {
  static std::atomic<uint64_t> next{0};
  thread_local const uint64_t id = next.fetch_add(1);
  return id;
}

}  // namespace

Tracer* Tracer::Active() { return g_active.load(std::memory_order_acquire); }

void Tracer::SetActive(Tracer* tracer) {
  g_active.store(tracer, std::memory_order_release);
}

int64_t Tracer::Begin(const char* name, Kind kind, int64_t* saved_stage) {
  const double now = NowS();
  const uint64_t thread = ThreadNumber();
  std::lock_guard<std::mutex> lock(mu_);
  if (origin_ < 0) origin_ = now;
  const int64_t id = static_cast<int64_t>(spans_.size());
  SpanRecord rec;
  rec.name = name;
  rec.start = now;
  rec.thread = thread;
  if (kind == Kind::kOpRoot) {
    current_op_ = id;
    rec.op = id;
  } else {
    rec.parent = tls_open_span >= 0 ? tls_open_span : current_stage_;
    rec.op = current_op_;
  }
  *saved_stage = current_stage_;
  if (kind != Kind::kCall) current_stage_ = id;
  spans_.push_back(std::move(rec));
  return id;
}

void Tracer::End(int64_t id, Kind kind, int64_t saved_stage) {
  const double now = NowS();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = now;
  if (kind != Kind::kCall) current_stage_ = saved_stage;
}

std::map<std::string, double> Tracer::SelfSeconds(size_t from) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back({s.start, s.end});
    }
  }
  std::map<std::string, double> self;
  for (size_t i = from; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the span.
    double covered = 0;
    double run_start = 0, run_end = -1;
    for (const auto& [a0, b0] : kids) {
      const double a = std::max(a0, s.start);
      const double b = std::min(b0, s.end);
      if (b <= a) continue;
      if (a > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = a;
        run_end = b;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[s.name] += std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

double Tracer::RootSeconds(size_t from) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  for (size_t i = from; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0) total += spans_[i].end - spans_[i].start;
  }
  return total;
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string Tracer::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%lld,\"op\":%lld}}",
                  out.empty() ? "" : ",\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.thread),
                  (s.start - origin_) * 1e6, (s.end - s.start) * 1e6, i,
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.op));
    out += buf;
  }
  return out;
}

Span::Span(const char* name, Kind kind)
    : tracer_(Tracer::Active()), kind_(kind) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->Begin(name, kind, &saved_stage_);
  saved_parent_ = tls_open_span;
  tls_open_span = id_;
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->End(id_, kind_, saved_stage_);
  tls_open_span = saved_parent_;
}

}  // namespace perfbench
