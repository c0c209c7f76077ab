// The traced run: spans recorded by the benchmark around its calls into
// each layer's public entry points, and the per-layer metrics derived from
// them.
#ifndef BIX_PERFBENCH_TRACED_H_
#define BIX_PERFBENCH_TRACED_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

// In-memory span store, written out once when the run ends. Thread-safe;
// nesting is tracked per thread, so a span opened while another is open on
// the same thread becomes its child.
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    const char* layer;
    const char* phase;
    uint64_t request;
    int parent;  // index into the span list, -1 for a root
    int64_t start_ns;
    int64_t end_ns;
  };

  // RAII span; a null recorder makes it a no-op.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, const char* layer,
          uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int id_ = -1;
    int saved_parent_ = -1;
  };

  // Tags spans opened from now on (one label per traced-run phase).
  void SetPhase(const char* phase);
  std::vector<Span> Spans() const;
  bool WriteJsonl(const std::string& path) const;

 private:
  int64_t NowNs() const;

  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;      // guarded by mu_
  const char* phase_ = "";       // guarded by mu_
};

// Runs the traced phases over a started stack and fills `report` with
// every per-layer metric; spans go to `spans_path`.
void RunTraced(const Stack& stack, const Inputs& inputs,
               const WorkloadSpec& spec, uint64_t seed, double seconds,
               const std::string& spans_path, Report* report, Tally* tally);

}  // namespace perfbench

#endif  // BIX_PERFBENCH_TRACED_H_
