// bulk: one BulkLoader::load_texts call (one worker per hardware thread)
// loads a corpus with planted malformed documents into a fresh durable
// store under FailurePolicy::kQuarantine, in a single commit; the store is
// then recovered and read back with cold queries.  A fixed number of
// rounds, set by --seconds, repeat on fresh stores.
#include <algorithm>
#include <cmath>

#include "loader/bulk_loader.hpp"
#include "perfbench.hpp"
#include "trace.hpp"
#include "xml/parser.hpp"

namespace perfbench {

using namespace xr;

namespace {

constexpr std::size_t kDocs = 2048;
constexpr std::size_t kMalformedEvery = 64;
constexpr double kRoundSeconds = 1.25;  // nominal: sets the round count
// Read-back: about 500 distinct queries each round (cold ones cost about
// 2 ms on this store).
constexpr std::size_t kReadBackQueries = 1000;

/// Every planted document quarantined, every other one loaded.
void check_report(const Corpus& corpus, const loader::LoadReport& report,
                  const Store& store, Outcome& out) {
    using Status = loader::DocumentOutcome::Status;
    std::size_t wrong = 0;
    for (const auto& o : report.outcomes) {
        Status want = corpus.planted[o.index] ? Status::kQuarantined
                                              : Status::kLoaded;
        if (o.status != want) ++wrong;
    }
    std::size_t planted = corpus.planted_count();
    const rdb::Table* quarantine = store.db->table(loader::kQuarantineTable);
    out.tally(wrong == 0 && report.outcomes.size() == corpus.size() &&
                  report.quarantined == planted &&
                  report.loaded == corpus.size() - planted &&
                  quarantine != nullptr && quarantine->row_count() == planted,
              "bulk outcomes: " + std::to_string(report.loaded) + " loaded, " +
                  std::to_string(report.quarantined) + " quarantined, " +
                  std::to_string(wrong) + " wrong; " +
                  std::to_string(planted) + " planted");
}

/// Single-threaded per-document cost of the layers the bulk pipeline
/// runs on its workers: parse, validate and serial shredding (Loader::load
/// inside one outer unit, rolled back afterwards).
void serial_layers(const Corpus& corpus, const std::string& dir,
                   Tracer& tracer, Outcome& out) {
    Store store(dir);
    validate::Validator validator(store.dtd);
    store.db->begin_unit();
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        if (corpus.planted[i]) continue;
        std::unique_ptr<xml::Document> doc;
        {
            ScopedSpan s(&tracer, "xml.parse", i);
            doc = xml::parse_document(corpus.texts[i]);
        }
        {
            ScopedSpan s(&tracer, "validate", i);
            validate::ValidateOptions options;
            options.apply_defaults = true;
            out.tally(validator.validate(*doc, options).ok(),
                      "document " + std::to_string(i) + " is invalid");
        }
        loader::LoadOptions options;
        options.validate = false;
        ScopedSpan s(&tracer, "loader.shred", i);
        store.loader->load(*doc, options);
    }
    store.db->rollback_unit();
}

}  // namespace

Outcome run_bulk(const RunConfig& config) {
    Outcome out;
    Corpus corpus = make_corpus(config.seed, 2, kDocs, kMalformedEvery);
    out.note("corpus: " + std::to_string(corpus.size()) + " documents (" +
             std::to_string(corpus.planted_count()) + " malformed), " +
             std::to_string(corpus.good_elements()) + " elements, " +
             std::to_string(corpus.bytes) + " bytes per round");

    TraceSet traces(Clock::now());
    Tracer& tracer = traces.add();
    ReadBack read_back(corpus, config, kReadBackQueries);
    Tracer* read_back_tracer = config.trace ? &traces.add() : nullptr;

    PerRound load_s, elems_per_s, recovery_s;
    Samples setup_s, wal_ratio, replay_rate;
    PerRound untraced_load_s;
    Samples traced_round_s;
    std::uint64_t traced_docs = 0, chunks = 0, indexes = 0, republished = 0,
                  wal_bytes = 0, quarantined = 0, leaked = 0;
    std::size_t versions_live_max = 0;
    std::unique_ptr<Store> last;

    const auto rounds = std::max<std::size_t>(
        2, static_cast<std::size_t>(std::lround(config.seconds / kRoundSeconds)));
    for (std::size_t round = 0; round < rounds; ++round) {
        bool traced = config.trace && round % 2 == 1;
        last.reset();
        last = std::make_unique<Store>(config.out_dir + "/bulk-store");
        Store& store = *last;
        setup_s.add(store.setup_s);
        std::uint64_t wal0 = store.db->wal_bytes_appended();
        rdb::MvccStats mv0 = store.db->mvcc_stats();

        loader::BulkLoader bulk(store.dtd, store.mapping, store.schema,
                                *store.db);
        loader::BulkLoadOptions options;
        options.on_error = loader::FailurePolicy::kQuarantine;
        loader::LoadReport report;
        auto t0 = Clock::now();
        try {
            if (!traced) {
                on_fresh_thread(
                    [&] { report = bulk.load_texts(corpus.texts, options); });
            } else {
                // The outer unit moves the outermost commit (stats fold,
                // publish, WAL append, fsync) out of load_texts into its
                // own span.
                ScopedSpan root(&tracer, "bulk.round", round);
                store.db->begin_unit();
                try {
                    {
                        ScopedSpan s(&tracer, "loader.bulk_load_texts", round);
                        report = bulk.load_texts(corpus.texts, options);
                    }
                    ScopedSpan s(&tracer, "rdb.commit", round);
                    store.db->commit_unit();
                } catch (...) {
                    store.db->rollback_unit();
                    throw;
                }
            }
        } catch (const std::exception& e) {
            out.tally(false, std::string("bulk load: ") + e.what());
            break;
        }
        double s = seconds_between(t0, Clock::now());
        out.attempted += corpus.size();
        check_report(corpus, report, store, out);

        std::uint64_t round_wal = store.db->wal_bytes_appended() - wal0;
        if (!config.trace) {
            load_s.add(s);
            elems_per_s.add(static_cast<double>(corpus.good_elements()) / s);
        }
        if (traced)
            traced_round_s.add(s);
        else
            untraced_load_s.add(s);
        wal_ratio.add(static_cast<double>(round_wal) /
                      static_cast<double>(corpus.bytes));
        if (traced) {
            rdb::MvccStats mv1 = store.db->mvcc_stats();
            traced_docs += report.loaded;
            chunks += mv1.chunks_cowed - mv0.chunks_cowed;
            indexes += mv1.indexes_cowed - mv0.indexes_cowed;
            republished += mv1.tables_republished - mv0.tables_republished;
            wal_bytes += round_wal;
            quarantined += report.quarantined;
            leaked += report.leaked_pks;
            versions_live_max =
                std::max(versions_live_max, mv1.versions_live);
        }

        Recovery r = close_and_recover(store, out);
        recovery_s.add(r.open_s);
        replay_rate.add(static_cast<double>(r.records_replayed) / r.open_s);
        read_back.pass(store, out, read_back_tracer);
    }
    out.note("rounds: " + std::to_string(rounds) +
             " fresh stores, one load_texts call each");
    if (last == nullptr || out.failed > 0) return out;

    // Before the oracle's DOMs exist: peak memory of the measured rounds.
    if (!config.trace) out.set("peak_rss_mb", peak_rss_mb(), "MiB", rounds);
    read_back.finish(*last, config.seed, out,
                     config.trace ? &traces : nullptr);
    last.reset();

    if (!config.trace) {
        // Every document of a bulk call becomes durable when the call
        // returns, so within a round each document's latency is the call's
        // duration, its p50 and p95 alike, so the two metrics are equal by
        // construction: both are the best round's (see PerRound).
        std::size_t docs = rounds * corpus.size();
        out.set("setup_s", setup_s.median(), "s", rounds);
        out.set("load_elems_per_s", elems_per_s.highest(), "elem/s", rounds);
        out.set("load_doc_ms_p50", load_s.lowest() * 1e3, "ms", docs);
        out.set("load_doc_ms_p95", load_s.lowest() * 1e3, "ms", docs);
        out.set("recovery_s", recovery_s.lowest(), "s", rounds);
        out.set("wal_bytes_per_input_byte", wal_ratio.median(), "B/B", rounds);
        return out;
    }

    Tracer& serial = traces.add();
    serial_layers(corpus, config.out_dir + "/bulk-serial", serial, out);
    auto totals = summarize(traces.all());
    auto median = [&](const char* name) {
        return totals[name].duration_us.median();
    };
    std::size_t good = corpus.size() - corpus.planted_count();
    std::size_t n = static_cast<std::size_t>(traced_docs);
    std::size_t traced_rounds = traced_round_s.size();
    double docs = std::max(1.0, static_cast<double>(traced_docs));
    out.set("xml.parse_us", median("xml.parse"), "us", good);
    out.set("validate.us", median("validate"), "us", good);
    out.set("loader.shred_us", median("loader.shred"), "us", good);
    out.set("rdb.commit_us", median("rdb.commit"), "us", traced_rounds);
    out.set("rdb.commit_growth", 0, "ratio", 0);  // one commit per round
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
            "count", traced_rounds);
    out.set("loader.bulk_load_s",
            time_bulk_load_corpus(corpus, config.out_dir + "/bulk-dom", out),
            "s", 1);
    out.set("loader.quarantined",
            static_cast<double>(quarantined) /
                static_cast<double>(traced_rounds),
            "count", traced_rounds);
    out.set("loader.leaked_pks",
            static_cast<double>(leaked) / static_cast<double>(traced_rounds),
            "count", traced_rounds);
    out.set("trace.overhead_pct",
            (traced_round_s.percentile(0.0) / untraced_load_s.lowest() - 1) *
                100,
            "%",
            traced_rounds);
    out.set("trace.blocking_coverage",
            self_time_under({&tracer}, "bulk.round", false) /
                traced_round_s.sum(),
            "ratio", traced_rounds);
    write_trace(config, traces, out);
    return out;
}

}  // namespace perfbench
