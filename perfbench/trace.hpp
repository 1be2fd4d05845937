// In-memory span recording for the traced benchmark run.
//
// Each thread owns a Tracer; spans nest through the tracer's open-span
// stack, so a span's parent is whatever span was open on that thread
// when it began.  Spans are written out once the run ends.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "perfbench.hpp"

namespace perfbench {

struct Span {
    const char* name = "";
    std::uint64_t id = 0;     ///< document or query id the span belongs to
    std::int32_t parent = -1; ///< index of the parent span in the same tracer
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

class Tracer {
public:
    Tracer(Clock::time_point epoch, std::uint32_t thread)
        : epoch_(epoch), thread_(thread) {}

    std::int32_t open(const char* name, std::uint64_t id);
    void close(std::int32_t index);

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
    [[nodiscard]] std::uint32_t thread() const { return thread_; }
    [[nodiscard]] Clock::time_point epoch() const { return epoch_; }

private:
    Clock::time_point epoch_;
    std::uint32_t thread_ = 0;
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
public:
    ScopedSpan(Tracer* tracer, const char* name, std::uint64_t id)
        : tracer_(tracer),
          index_(tracer != nullptr ? tracer->open(name, id) : -1) {}
    ~ScopedSpan() {
        if (tracer_ != nullptr) tracer_->close(index_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    Tracer* tracer_;
    std::int32_t index_;
};

/// The tracers of one run: one per thread, at stable addresses.
class TraceSet {
public:
    explicit TraceSet(Clock::time_point epoch) : epoch_(epoch) {}
    Tracer& add() {
        return tracers_.emplace_back(epoch_,
                                     static_cast<std::uint32_t>(tracers_.size()));
    }
    [[nodiscard]] std::vector<const Tracer*> all() const {
        std::vector<const Tracer*> out;
        for (const Tracer& t : tracers_) out.push_back(&t);
        return out;
    }

private:
    Clock::time_point epoch_;
    std::deque<Tracer> tracers_;
};

/// Per-name totals over a set of tracers: count, summed duration, summed
/// self time (duration minus the part covered by child spans) and the
/// duration of every span, for percentiles.
struct SpanTotals {
    std::size_t count = 0;
    double total_s = 0;
    double self_s = 0;
    Samples duration_us;
};

[[nodiscard]] std::map<std::string, SpanTotals> summarize(
    const std::vector<const Tracer*>& tracers);

/// Summed self time of the spans in trees rooted at spans named `root`;
/// the roots' own self time counts only with `include_root`.  Divided by
/// the traced end-to-end time, it is the share of that time the spans
/// along the blocking path account for.
[[nodiscard]] double self_time_under(const std::vector<const Tracer*>& tracers,
                                     const std::string& root,
                                     bool include_root);

/// Write spans as one JSON object per line, at most `limit` of them;
/// returns how many were written.
std::size_t write_spans(const std::string& path,
                        const std::vector<const Tracer*>& tracers,
                        std::size_t limit);

}  // namespace perfbench
