/// \file admission.h
/// \brief Admission control for the serving layer: bounded FIFO queue with a
/// concurrency cap and queue timeout. Overload answers with a status —
/// rejected, never hung.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

#include "common/result.h"
#include "common/status.h"

namespace dl2sql::server {

struct AdmissionOptions {
  /// Queries executing at once. Intra-query morsels and inter-query
  /// parallelism share one thread pool, so this caps how many queries carve
  /// it up concurrently.
  int max_concurrent = 4;
  /// Waiters allowed behind the running queries; the next arrival is
  /// rejected with ResourceExhausted (backpressure, not buffering).
  int max_queue_depth = 64;
  /// How long a waiter may queue before being rejected with
  /// ResourceExhausted. <= 0 means reject immediately when saturated.
  double queue_timeout_ms = 5000.0;
};

/// \brief FIFO admission: Admit() blocks until a slot frees (in arrival
/// order), the queue overflows, or the timeout passes. Pair every successful
/// Admit() with Release(), or hold a Ticket.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  /// OK = admitted (caller owns a slot); ResourceExhausted = rejected.
  Status Admit();
  void Release();

  /// Queries currently holding a slot.
  int running() const;
  const AdmissionOptions& options() const { return options_; }

  /// \brief RAII slot: releases on destruction if admitted.
  class Ticket {
   public:
    Ticket() = default;
    explicit Ticket(AdmissionController* controller)
        : controller_(controller) {}
    ~Ticket() { reset(); }
    Ticket(Ticket&& o) noexcept : controller_(o.controller_) {
      o.controller_ = nullptr;
    }
    Ticket& operator=(Ticket&& o) noexcept {
      if (this != &o) {
        reset();
        controller_ = o.controller_;
        o.controller_ = nullptr;
      }
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    void reset() {
      if (controller_ != nullptr) controller_->Release();
      controller_ = nullptr;
    }

   private:
    AdmissionController* controller_ = nullptr;
  };

  /// Admit() returning a Ticket on success.
  Result<Ticket> AdmitTicket();

 private:
  const AdmissionOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Tickets of waiters in arrival order; the front waiter is admitted next.
  std::deque<uint64_t> waiting_;
  uint64_t next_ticket_ = 0;
  int running_ = 0;
};

}  // namespace dl2sql::server
