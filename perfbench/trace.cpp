#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int32_t Tracer::open(const char* name, std::uint64_t id) {
    Span span;
    span.name = name;
    span.id = id;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - epoch_)
                        .count();
    auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(span);
    open_.push_back(index);
    return index;
}

void Tracer::close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count();
    // Spans close in LIFO order on one thread (ScopedSpan guarantees it).
    if (!open_.empty() && open_.back() == index) open_.pop_back();
}

namespace {

/// Self time of every span of one tracer, in ns.  Children of one parent
/// run sequentially on the parent's thread, so their durations do not
/// overlap; clipping to the parent's interval guards the arithmetic.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].end_ns - spans[i].start_ns;
    for (const Span& s : spans) {
        if (s.parent < 0) continue;
        const Span& p = spans[static_cast<std::size_t>(s.parent)];
        std::int64_t covered = std::min(s.end_ns, p.end_ns) -
                               std::max(s.start_ns, p.start_ns);
        if (covered > 0) self[static_cast<std::size_t>(s.parent)] -= covered;
    }
    return self;
}

}  // namespace

std::map<std::string, SpanTotals> summarize(
    const std::vector<const Tracer*>& tracers) {
    std::map<std::string, SpanTotals> totals;
    for (const Tracer* t : tracers) {
        const auto& spans = t->spans();
        std::vector<std::int64_t> self = self_times(spans);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            SpanTotals& s = totals[spans[i].name];
            double dur = static_cast<double>(spans[i].end_ns -
                                             spans[i].start_ns);
            ++s.count;
            s.total_s += dur * 1e-9;
            s.self_s += static_cast<double>(self[i]) * 1e-9;
            s.duration_us.add(dur * 1e-3);
        }
    }
    return totals;
}

double self_time_under(const std::vector<const Tracer*>& tracers,
                       const std::string& root, bool include_root) {
    double total = 0;
    for (const Tracer* t : tracers) {
        const auto& spans = t->spans();
        std::vector<std::int64_t> self = self_times(spans);
        // Parents always precede their children in a tracer.
        std::vector<char> under(spans.size(), 0);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            bool is_root = spans[i].parent < 0;
            under[i] = is_root ? root == spans[i].name
                               : under[static_cast<std::size_t>(spans[i].parent)];
            if (under[i] && (include_root || !is_root))
                total += static_cast<double>(self[i]) * 1e-9;
        }
    }
    return total;
}

std::size_t write_spans(const std::string& path,
                        const std::vector<const Tracer*>& tracers,
                        std::size_t limit) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    char line[256];
    std::size_t written = 0;
    for (const Tracer* t : tracers) {
        for (const Span& s : t->spans()) {
            if (written == limit) return written;
            ++written;
            std::snprintf(line, sizeof line,
                          "{\"thread\":%u,\"name\":\"%s\",\"id\":%llu,"
                          "\"parent\":%d,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                          t->thread(), s.name,
                          static_cast<unsigned long long>(s.id), s.parent,
                          static_cast<long long>(s.start_ns),
                          static_cast<long long>(s.end_ns));
            out << line;
        }
    }
    return written;
}

}  // namespace perfbench
