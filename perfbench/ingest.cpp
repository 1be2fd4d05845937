// ingest: one closed-loop client streams documents into a fresh durable
// store, one outermost commit (WAL append + fsync) per document, then
// closes the store, recovers it and reads it back with cold queries.
// A fixed number of rounds, set by --seconds, repeat on fresh stores.
#include <algorithm>
#include <cmath>

#include "loader/reconstruct.hpp"
#include "perfbench.hpp"
#include "trace.hpp"
#include "xml/serializer.hpp"

namespace perfbench {

using namespace xr;

namespace {

constexpr std::size_t kDocs = 256;          // documents per round
constexpr std::size_t kReconstructed = 8;   // sampled round-trip checks
constexpr double kRoundSeconds = 1.25;      // nominal: sets the round count
// Read-back: every distinct query of the mix (about 1180 of its 1550)
// each round, in a few passes: they are cheap here, and a tail taken from
// the best of more passes is less at the mercy of the host.
constexpr std::size_t kReadBackQueries = 4000;
constexpr std::size_t kReadBackPasses = 3;

/// Median of `v[from, to)`.
double median_of(const std::vector<double>& v, std::size_t from,
                 std::size_t to) {
    Samples s;
    for (std::size_t i = from; i < to; ++i) s.add(v[i]);
    return s.median();
}

}  // namespace

Outcome run_ingest(const RunConfig& config) {
    Outcome out;
    Corpus corpus = make_corpus(config.seed, 1, kDocs);
    out.note("corpus: " + std::to_string(corpus.size()) + " documents, " +
             std::to_string(corpus.good_elements()) + " elements, " +
             std::to_string(corpus.bytes) + " bytes per round");

    TraceSet traces(Clock::now());
    Tracer& tracer = traces.add();
    ReadBack read_back(corpus, config, kReadBackQueries);
    Tracer* read_back_tracer = config.trace ? &traces.add() : nullptr;

    // Every round loads the same documents into an identical fresh store;
    // each round gives its own percentiles and throughput (see PerRound).
    PerRound doc_p50_ms, doc_p95_ms, elems_per_s, recovery_s;
    Samples setup_s, wal_ratio, replay_rate;
    // Traced runs alternate untraced and traced rounds: the untraced ones
    // give the baseline for the tracing overhead.
    PerRound untraced_p50_ms, traced_p50_ms;
    Samples growth, traced_loop_s;
    std::uint64_t traced_docs = 0, chunks = 0, indexes = 0, republished = 0,
                  wal_bytes = 0;
    std::size_t versions_live_max = 0;
    std::unique_ptr<Store> last;

    const auto rounds = std::max<std::size_t>(
        2, static_cast<std::size_t>(std::lround(config.seconds / kRoundSeconds)));
    std::size_t observations = 0;
    for (std::size_t round = 0; round < rounds; ++round) {
        bool traced = config.trace && round % 2 == 1;
        last.reset();
        last = std::make_unique<Store>(config.out_dir + "/ingest-store");
        Store& store = *last;
        setup_s.add(store.setup_s);
        validate::Validator validator(store.dtd);
        std::uint64_t wal0 = store.db->wal_bytes_appended();
        rdb::MvccStats mv0 = store.db->mvcc_stats();

        std::vector<double> latency_ms;
        double loop_s = 0;
        on_fresh_thread([&] {
            auto loop0 = Clock::now();
            for (std::size_t i = 0; i < corpus.size(); ++i) {
                auto t0 = Clock::now();
                bool ok = true;
                try {
                    ScopedSpan root(traced ? &tracer : nullptr, "ingest.doc", i);
                    load_document(store, validator, corpus.texts[i],
                                  traced ? &tracer : nullptr, i);
                } catch (const std::exception& e) {
                    ok = false;
                    out.tally(false, "document " + std::to_string(i) + ": " +
                                         e.what());
                }
                double ms = std::chrono::duration<double, std::milli>(
                                Clock::now() - t0)
                                .count();
                if (ok) {
                    ++out.attempted;
                    latency_ms.push_back(ms);
                }
                if (traced)
                    versions_live_max = std::max(
                        versions_live_max, store.db->mvcc_stats().versions_live);
            }
            loop_s = seconds_between(loop0, Clock::now());
        });
        std::uint64_t round_wal = store.db->wal_bytes_appended() - wal0;

        Samples round_ms;
        for (double ms : latency_ms) round_ms.add(ms);
        if (!config.trace) {
            doc_p50_ms.add(round_ms.percentile(0.50));
            doc_p95_ms.add(round_ms.percentile(0.95));
            elems_per_s.add(static_cast<double>(corpus.good_elements()) /
                            loop_s);
            observations += round_ms.size();
        }
        (traced ? traced_p50_ms : untraced_p50_ms)
            .add(round_ms.percentile(0.50));
        out.note("round " + std::to_string(round) + ": p50 " +
                 std::to_string(round_ms.percentile(0.50)) + " ms, p95 " +
                 std::to_string(round_ms.percentile(0.95)) + " ms, " +
                 std::to_string(static_cast<double>(corpus.good_elements()) /
                                loop_s) +
                 " elements/s");
        wal_ratio.add(static_cast<double>(round_wal) /
                      static_cast<double>(corpus.bytes));
        if (traced) {
            rdb::MvccStats mv1 = store.db->mvcc_stats();
            traced_docs += latency_ms.size();
            chunks += mv1.chunks_cowed - mv0.chunks_cowed;
            indexes += mv1.indexes_cowed - mv0.indexes_cowed;
            republished += mv1.tables_republished - mv0.tables_republished;
            wal_bytes += round_wal;
            traced_loop_s.add(loop_s);
        }

        // Sampled documents rebuilt from the tables must serialize back
        // to exactly the text that was loaded.
        {
            loader::Reconstructor rebuild(store.mapping, store.schema,
                                          *store.db);
            xml::SerializeOptions so;
            so.indent = "";
            so.declaration = false;
            for (std::size_t k = 0; k < kReconstructed; ++k) {
                std::size_t i = k * corpus.size() / kReconstructed;
                std::string text;
                try {
                    text = xml::serialize(
                        *rebuild.reconstruct(static_cast<std::int64_t>(i) + 1),
                        so);
                } catch (const std::exception& e) {
                    text = e.what();
                }
                out.tally(text == corpus.texts[i],
                          "document " + std::to_string(i) +
                              " does not reconstruct to its input");
            }
        }

        Recovery r = close_and_recover(store, out);
        recovery_s.add(r.open_s);
        replay_rate.add(static_cast<double>(r.records_replayed) / r.open_s);
        for (std::size_t k = 0; k < kReadBackPasses; ++k)
            read_back.pass(store, out, read_back_tracer);

        if (traced) {
            // Commit cost growth within the round: last tenth of the
            // documents against the first tenth.
            std::vector<double> commit_us;
            for (const Span& s : tracer.spans())
                if (std::string_view(s.name) == "rdb.commit")
                    commit_us.push_back(
                        static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
            commit_us.erase(commit_us.begin(),
                            commit_us.end() -
                                static_cast<std::ptrdiff_t>(latency_ms.size()));
            std::size_t tenth = std::max<std::size_t>(1, commit_us.size() / 10);
            growth.add(median_of(commit_us, commit_us.size() - tenth,
                                 commit_us.size()) /
                       median_of(commit_us, 0, tenth));
        }
    }
    out.note("rounds: " + std::to_string(rounds) + " fresh stores, " +
             std::to_string(kDocs) + " documents each");

    // Before the oracle's DOMs exist: peak memory of the measured rounds.
    if (!config.trace) out.set("peak_rss_mb", peak_rss_mb(), "MiB", rounds);
    read_back.finish(*last, config.seed, out,
                     config.trace ? &traces : nullptr);
    last.reset();

    if (!config.trace) {
        out.set("setup_s", setup_s.median(), "s", setup_s.size());
        out.set("load_elems_per_s", elems_per_s.highest(), "elem/s",
                observations);
        out.set("load_doc_ms_p50", doc_p50_ms.lowest(), "ms", observations);
        out.set("load_doc_ms_p95", doc_p95_ms.lowest(), "ms", observations);
        out.set("recovery_s", recovery_s.lowest(), "s", rounds);
        out.set("wal_bytes_per_input_byte", wal_ratio.median(), "B/B", rounds);
        return out;
    }

    auto totals = summarize({&tracer});
    auto per_doc = [&](const char* name) {
        return totals[name].duration_us.median();
    };
    std::size_t n = static_cast<std::size_t>(traced_docs);
    double docs = std::max(1.0, static_cast<double>(traced_docs));
    out.set("xml.parse_us", per_doc("xml.parse"), "us", n);
    out.set("validate.us", per_doc("validate"), "us", n);
    out.set("loader.shred_us", per_doc("loader.shred"), "us", n);
    out.set("rdb.commit_us", per_doc("rdb.commit"), "us", n);
    out.set("rdb.commit_growth", growth.median(), "ratio", growth.size());
    out.set("rdb.chunks_cowed_per_doc", static_cast<double>(chunks) / docs,
            "count", n);
    out.set("rdb.indexes_cowed_per_doc", static_cast<double>(indexes) / docs,
            "count", n);
    out.set("rdb.tables_republished_per_doc",
            static_cast<double>(republished) / docs, "count", n);
    out.set("rdb.wal_bytes_per_doc", static_cast<double>(wal_bytes) / docs,
            "B", n);
    out.set("rdb.replay_records_per_s", replay_rate.median(), "1/s",
            rounds);
    out.set("rdb.versions_live_max", static_cast<double>(versions_live_max),
            "count", n);
    out.set("loader.bulk_load_s",
            time_bulk_load_corpus(corpus, config.out_dir + "/ingest-bulk", out),
            "s", 1);
    out.set("loader.quarantined", 0, "count", rounds);
    out.set("loader.leaked_pks", 0, "count", rounds);
    out.set("trace.overhead_pct",
            (traced_p50_ms.lowest() / untraced_p50_ms.lowest() - 1) * 100,
            "%", traced_p50_ms.size());
    out.set("trace.blocking_coverage",
            self_time_under({&tracer}, "ingest.doc", false) /
                traced_loop_s.sum(),
            "ratio", n);
    write_trace(config, traces, out);
    return out;
}

}  // namespace perfbench
