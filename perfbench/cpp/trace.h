// In-memory span recorder of the traced run. Spans are recorded by the
// benchmark's own code around calls into the product's public functions
// (nothing inside src/ is instrumented). Each span has a name, start,
// end, parent span, operation id and thread; spans are kept in memory
// and written out as Chrome trace-event JSON when the run ends.

#ifndef PERFBENCH_CPP_TRACE_H_
#define PERFBENCH_CPP_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    double start = 0;
    double end = 0;
    int64_t parent = -1;  ///< index of the parent span, -1 for op roots
    int64_t op = -1;      ///< operation id (the op root's index)
    uint64_t thread = 0;
  };

  /// The tracer spans report to; null (the untraced run) makes every
  /// Span a no-op.
  static Tracer* Active();
  static void SetActive(Tracer* tracer);

  /// Where a span sits in its operation. An op root starts an operation;
  /// a stage is a span on the client thread under which the pool workers
  /// it fans out to nest; a call is any other span.
  enum class Kind { kCall, kStage, kOpRoot };

  /// Opens a span; a stage or op root also becomes the parent of worker
  /// spans until it ends, and `*saved_stage` receives the one it hides.
  int64_t Begin(const char* name, Kind kind, int64_t* saved_stage);
  void End(int64_t id, Kind kind, int64_t saved_stage);

  /// Self seconds per span name over the spans recorded from index
  /// `from` on: each span's duration minus the part of its interval
  /// covered by its children (on any thread).
  std::map<std::string, double> SelfSeconds(size_t from = 0) const;
  /// Summed duration of the op-root spans from index `from` on.
  double RootSeconds(size_t from = 0) const;
  size_t span_count() const;
  /// Chrome trace-event JSON of every span (events only, comma
  /// separated).
  std::string Events() const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  int64_t current_op_ = -1;
  int64_t current_stage_ = -1;  ///< innermost open stage or op root
  double origin_ = -1;
};

/// \brief RAII span. Its parent is the innermost open span on this
/// thread or, on a pool worker with no open span, the innermost open
/// stage of the operation running now (the benchmark is a single client,
/// so one op runs at a time).
class Span {
 public:
  using Kind = Tracer::Kind;
  explicit Span(const char* name, Kind kind = Kind::kCall);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  Kind kind_;
  int64_t id_ = -1;
  int64_t saved_parent_ = -1;
  int64_t saved_stage_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_CPP_TRACE_H_
