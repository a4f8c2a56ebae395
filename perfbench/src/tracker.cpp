#include "tracker.h"

#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace {

/// Set while this thread is inside InferenceService::submit: an outcome
/// delivered then is a front-door rejection that the service never
/// counted as submitted.
thread_local bool t_in_submit = false;

Status classify(mime::serve::ServeStatus status) {
    switch (status) {
        case mime::serve::ServeStatus::ok:
            return Status::ok;
        case mime::serve::ServeStatus::overloaded:
            return Status::shed;
        case mime::serve::ServeStatus::deadline_exceeded:
            return Status::expired;
        case mime::serve::ServeStatus::cancelled:
            return Status::cancelled;
        case mime::serve::ServeStatus::shutdown:
            return Status::shutdown;
        case mime::serve::ServeStatus::invalid_request:
            return Status::invalid;
    }
    return Status::invalid;
}

}  // namespace

Tracker::Tracker(const Oracle& oracle, Clock::time_point epoch)
    : oracle_(oracle), epoch_(epoch), chunks_(kMaxChunks) {}

std::size_t Tracker::add(std::size_t task, std::size_t image,
                         std::uint8_t phase, std::int64_t due_ns,
                         std::int32_t deadline_us, bool interactive) {
    const std::size_t index = size_;
    if (index / kChunk >= kMaxChunks) {
        throw std::runtime_error("request log full");
    }
    auto& chunk = chunks_[index / kChunk];
    if (!chunk) {
        chunk = std::make_unique<Record[]>(kChunk);
    }
    Record& record = chunk[index % kChunk];
    record.task = static_cast<std::uint8_t>(task);
    record.image = static_cast<std::uint16_t>(image);
    record.phase = phase;
    record.due_ns = due_ns;
    record.deadline_us = deadline_us;
    record.interactive = interactive;
    ++size_;
    return index;
}

mime::serve::RequestTicket Tracker::submit(
    mime::serve::InferenceService& service, std::size_t index,
    mime::Tensor image, bool trace) {
    Record& record = at(index);
    mime::serve::SubmitOptions options;
    options.deadline = std::chrono::microseconds(record.deadline_us);
    options.priority = record.interactive ? mime::serve::Priority::interactive
                                          : mime::serve::Priority::batch;
    options.trace = trace;
    options.on_result =
        [this, index](mime::serve::Outcome<mime::serve::InferenceResult> o) {
            complete(index, std::move(o));
        };
    inflight_.fetch_add(1, std::memory_order_acq_rel);
    t_in_submit = true;
    record.submit_ns = since_epoch_ns();
    mime::serve::RequestTicket ticket = service.submit(
        oracle_.task_names[record.task], std::move(image), std::move(options));
    record.return_ns = since_epoch_ns();
    t_in_submit = false;
    return ticket;
}

void Tracker::wait_inflight_below(std::int64_t limit) {
    std::int32_t current = inflight_.load(std::memory_order_acquire);
    while (current >= limit) {
        inflight_.wait(current, std::memory_order_acquire);
        current = inflight_.load(std::memory_order_acquire);
    }
}

void Tracker::complete(
    std::size_t index,
    mime::serve::Outcome<mime::serve::InferenceResult> outcome) {
    const std::int64_t now = since_epoch_ns();
    Record& record = at(index);
    if (record.outcomes.fetch_add(1, std::memory_order_acq_rel) != 0) {
        duplicates_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    if (t_in_submit) {
        inline_rejections_.fetch_add(1, std::memory_order_relaxed);
    }
    Status status = classify(outcome.status());
    if (status == Status::ok && !check_output(record, outcome.value())) {
        status = Status::wrong;
    }
    record.done_ns = now;
    record.status.store(status, std::memory_order_release);
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    inflight_.notify_all();
}

bool Tracker::check_output(Record& record,
                           const mime::serve::InferenceResult& result) {
    record.batch_size = static_cast<std::uint8_t>(result.batch_size);
    const std::size_t task = record.task;
    const std::size_t image = record.image;
    const std::string& name = oracle_.task_names[task];
    if (result.task != name || result.logits.numel() != kClasses) {
        note_mismatch("task " + name + ": wrong task tag or logit count");
        return false;
    }
    record.top1_agrees =
        result.predicted_class == oracle_.expected_top1(task, image);
    if (std::memcmp(result.logits.data(), oracle_.expected(task, image),
                    sizeof(float) * static_cast<std::size_t>(kClasses)) != 0) {
        note_mismatch("task " + name + " image " + std::to_string(image) +
                      " (batch of " + std::to_string(result.batch_size) +
                      "): logits differ from " +
                      (oracle_.int8() ? "the single-task int8 plan"
                                      : "MimeNetwork::forward"));
        return false;
    }
    return true;
}

void Tracker::note_mismatch(std::string note) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (mismatches_.size() < 8) {
        mismatches_.push_back(std::move(note));
    }
}

Tally Tracker::tally() const {
    Tally t;
    for (std::size_t i = 0; i < size_; ++i) {
        ++t.offered;
        switch (at(i).status.load(std::memory_order_acquire)) {
            case Status::pending: ++t.pending; break;
            case Status::ok: ++t.ok; break;
            case Status::wrong: ++t.wrong; break;
            case Status::expired: ++t.expired; break;
            case Status::cancelled: ++t.cancelled; break;
            case Status::shed: ++t.shed; break;
            case Status::invalid: ++t.invalid; break;
            case Status::shutdown: ++t.shutdown; break;
        }
    }
    return t;
}

std::vector<std::string> Tracker::conservation(
    const mime::serve::ServiceStats& stats) const {
    std::vector<std::string> problems;
    const Tally t = tally();
    const auto expect = [&problems](const char* what, std::int64_t got,
                                    std::int64_t want) {
        if (got != want) {
            problems.push_back(std::string(what) + ": " + std::to_string(got) +
                               " != " + std::to_string(want));
        }
    };
    expect("requests without an outcome", t.pending, 0);
    expect("duplicate outcomes", duplicates_.load(), 0);
    expect("offered vs ok+expired+cancelled+shed+failed", t.offered,
           t.ok + t.wrong + t.expired + t.cancelled + t.shed + t.invalid +
               t.shutdown + t.pending);
    const std::int64_t accepted = t.offered - inline_rejections_.load();
    expect("service submitted vs accepted", stats.submitted, accepted);
    expect("service completed vs accepted", stats.completed, accepted);
    expect("service shed", stats.shed, t.shed);
    expect("service deadline_expired", stats.deadline_expired, t.expired);
    expect("service cancelled", stats.cancelled, t.cancelled);
    return problems;
}

std::vector<std::string> Tracker::mismatch_notes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return mismatches_;
}

}  // namespace perfbench
