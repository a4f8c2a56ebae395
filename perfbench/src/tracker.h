// Client-side bookkeeping for every request the benchmark sends.
//
// One Tracker belongs to one service instance. The generator thread
// add()s a record and submit()s it; the outcome arrives on the callback
// channel (dispatch side, or inline for front-door rejections), where
// complete() stamps the time, classifies the status and checks the
// output bit for bit against the oracle's reference for its (task,
// image) pair (see model.h). The top-1 class is also compared with the
// float reference: an accuracy figure for int8, not a failure.
// After the service drains, conservation() cross-checks the tally with
// the service's own ServiceStats.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "model.h"
#include "serve/service.h"
#include "util.h"

namespace perfbench {

enum class Status : std::uint8_t {
    pending,
    ok,
    wrong,  ///< served, but the output differs from the reference
    expired,
    cancelled,
    shed,  ///< ServeStatus::overloaded
    invalid,
    shutdown,
};

/// Records of the set-up warm-up carry this phase; measured phases use
/// 0, 1, ... (one per rate step).
inline constexpr std::uint8_t kWarmupPhase = 255;

struct Record {
    std::int64_t due_ns = 0;     ///< when the request was due (open loop)
    std::int64_t submit_ns = 0;  ///< submit() entered
    std::int64_t return_ns = 0;  ///< submit() returned
    std::int64_t done_ns = 0;    ///< outcome delivered
    std::int32_t deadline_us = 0;  ///< 0 = none
    std::uint16_t image = 0;
    std::uint8_t task = 0;
    std::uint8_t phase = 0;
    std::uint8_t batch_size = 0;
    bool interactive = true;
    bool top1_agrees = false;
    std::atomic<std::uint8_t> outcomes{0};
    std::atomic<Status> status{Status::pending};
};

struct Tally {
    std::int64_t offered = 0;
    std::int64_t ok = 0;
    std::int64_t wrong = 0;
    std::int64_t expired = 0;
    std::int64_t cancelled = 0;
    std::int64_t shed = 0;
    std::int64_t invalid = 0;
    std::int64_t shutdown = 0;
    std::int64_t pending = 0;

    /// Outcomes that make the run fail (deadline misses do not).
    std::int64_t failed() const {
        return wrong + invalid + shutdown + shed + pending;
    }
};

class Tracker {
public:
    Tracker(const Oracle& oracle, Clock::time_point epoch);
    Tracker(const Tracker&) = delete;
    Tracker& operator=(const Tracker&) = delete;

    /// Appends a record (generator thread only) and returns its index.
    std::size_t add(std::size_t task, std::size_t image, std::uint8_t phase,
                    std::int64_t due_ns, std::int32_t deadline_us,
                    bool interactive);
    Record& at(std::size_t index) {
        return chunks_[index / kChunk][index % kChunk];
    }
    const Record& at(std::size_t index) const {
        return chunks_[index / kChunk][index % kChunk];
    }
    std::size_t size() const { return size_; }

    /// Sends record `index` with callback delivery. `image` is consumed.
    mime::serve::RequestTicket submit(mime::serve::InferenceService& service,
                                      std::size_t index, mime::Tensor image,
                                      bool trace);

    /// Requests submitted whose outcome has not arrived yet.
    std::int64_t inflight() const {
        return inflight_.load(std::memory_order_acquire);
    }
    /// Blocks until fewer than `limit` requests are in flight.
    void wait_inflight_below(std::int64_t limit);

    std::int64_t since_epoch_ns() const {
        return to_ns(Clock::now() - epoch_);
    }
    Clock::time_point epoch() const { return epoch_; }

    /// Counts every record's status (call after the service drained).
    Tally tally() const;
    /// Problems found: missing or duplicate outcomes, or a mismatch with
    /// the service's own counters. Empty when everything adds up.
    std::vector<std::string> conservation(
        const mime::serve::ServiceStats& stats) const;
    /// First few output mismatches, for the log.
    std::vector<std::string> mismatch_notes() const;

private:
    static constexpr std::size_t kChunk = 4096;
    static constexpr std::size_t kMaxChunks = 4096;  // 16M requests

    void complete(std::size_t index,
                  mime::serve::Outcome<mime::serve::InferenceResult> outcome);
    bool check_output(Record& record,
                      const mime::serve::InferenceResult& result);
    void note_mismatch(std::string note);

    const Oracle& oracle_;
    Clock::time_point epoch_;
    std::vector<std::unique_ptr<Record[]>> chunks_;
    std::size_t size_ = 0;
    std::atomic<std::int32_t> inflight_{0};
    std::atomic<std::int64_t> duplicates_{0};
    std::atomic<std::int64_t> inline_rejections_{0};

    mutable std::mutex mutex_;
    std::vector<std::string> mismatches_;
};

}  // namespace perfbench
