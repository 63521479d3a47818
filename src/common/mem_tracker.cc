#include "common/mem_tracker.h"

#include <ctime>
#include <cstdlib>
#include <cstring>

namespace dl2sql {

int64_t ThreadCpuNanos() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
#else
  return 0;
#endif
}

namespace {

bool DefaultEnabled() {
  const char* env = std::getenv("DL2SQL_MEM_TRACKER");
  if (env != nullptr && (std::strcmp(env, "OFF") == 0 ||
                         std::strcmp(env, "off") == 0 ||
                         std::strcmp(env, "0") == 0)) {
    return false;
  }
  return true;
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{DefaultEnabled()};
  return enabled;
}

}  // namespace

MemTracker::MemTracker(std::string label, MemTracker* parent,
                       int64_t limit_bytes)
    : label_(std::move(label)), parent_(parent), limit_bytes_(limit_bytes) {}

MemTracker::~MemTracker() {
  // Release anything still charged from every ancestor so a tracker whose
  // owner forgot (or failed mid-query) cannot permanently inflate the root.
  const int64_t outstanding = consumption_.load(std::memory_order_relaxed);
  if (outstanding != 0) {
    for (MemTracker* t = parent_; t != nullptr; t = t->parent_) {
      t->ConsumeLocal(-outstanding);
    }
  }
}

MemTracker* MemTracker::Process() {
  // Leaked singleton, same pattern as TraceCollector: safe to charge against
  // during static destruction of other objects.
  static MemTracker* process = new MemTracker("process");
  return process;
}

bool MemTracker::Enabled() {
  return EnabledFlag().load(std::memory_order_relaxed);
}

void MemTracker::SetEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

void MemTracker::ConsumeLocal(int64_t bytes) {
  const int64_t now =
      consumption_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (bytes > 0) {
    cumulative_.fetch_add(bytes, std::memory_order_relaxed);
    int64_t prev_peak = peak_.load(std::memory_order_relaxed);
    while (now > prev_peak && !peak_.compare_exchange_weak(
                                  prev_peak, now, std::memory_order_relaxed)) {
    }
  }
}

void MemTracker::Consume(int64_t bytes) {
  if (bytes == 0 || !Enabled()) return;
  for (MemTracker* t = this; t != nullptr; t = t->parent_) {
    t->ConsumeLocal(bytes);
  }
}

Status MemTracker::TryConsume(int64_t bytes) {
  if (bytes <= 0 || !Enabled()) {
    Consume(bytes);
    return Status::OK();
  }
  // Check every limited ancestor first so a refusal charges nothing. The
  // check races with concurrent consumers (two queries can both pass and
  // overshoot by one charge); that is acceptable for a soft budget — the
  // alternative, a CAS loop per ancestor, would put contention on the hot
  // path for a guarantee nothing needs.
  for (MemTracker* t = this; t != nullptr; t = t->parent_) {
    if (t->limit_bytes_ > 0 &&
        t->consumption_.load(std::memory_order_relaxed) + bytes >
            t->limit_bytes_) {
      return Status::ResourceExhausted(
          "memory limit exceeded for ", t->label_, ": limit ",
          t->limit_bytes_, " bytes, in use ",
          t->consumption_.load(std::memory_order_relaxed), ", requested ",
          bytes, " (in ", label_, ")");
    }
  }
  for (MemTracker* t = this; t != nullptr; t = t->parent_) {
    t->ConsumeLocal(bytes);
  }
  return Status::OK();
}

}  // namespace dl2sql
