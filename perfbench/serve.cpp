// serve: a bulk-preloaded store served through QueryService::submit_path
// by two closed-loop clients on a two-worker service, while an open-loop
// writer loads more documents at a fixed rate through a serial Loader —
// each commit publishes an epoch and invalidates cached results.  The run
// is split into a fixed number of episodes, set by --seconds, each on a
// freshly preloaded store.
#include <algorithm>
#include <cmath>
#include <map>
#include <thread>

#include "loader/bulk_loader.hpp"
#include "perfbench.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace xr;

namespace {

constexpr std::size_t kPreload = 512;
constexpr double kWriterRate = 20;  // documents per second
constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;
constexpr double kEpisodeSeconds = 1.25;
constexpr double kWarmup = 0.25;  // seconds of each episode not measured
// The measured second of an episode is cut into windows; each window is a
// round for the query metrics (see PerRound).
constexpr std::size_t kWindowsPerEpisode = 2;

/// Fresh store plus the bulk preload; the whole of it is set-up time.
std::unique_ptr<Store> preloaded_store(const RunConfig& config,
                                       const Corpus& preload, Outcome& out) {
    auto t0 = Clock::now();
    auto store = std::make_unique<Store>(config.out_dir + "/serve-store");
    loader::BulkLoader bulk(store->dtd, store->mapping, store->schema,
                            *store->db);
    loader::LoadReport report = bulk.load_texts(preload.texts);
    store->reset_loader();  // doc ids continue after the preload
    store->setup_s = seconds_between(t0, Clock::now());
    out.tally(report.loaded == preload.size(),
              "preload loaded " + std::to_string(report.loaded) + " of " +
                  std::to_string(preload.size()));
    return store;
}

/// `clients` closed-loop client threads, each submitting through
/// QueryService::submit_path and waiting for the result, until `seconds`
/// pass; latencies are also split by completion time into `windows` equal
/// windows.  A client's query sequence depends only on the seed and the
/// client's number.  Count results must never decrease for a client; any
/// exception or decrease is a failed operation.  With `traces`, every query
/// gets a "query" span in a per-client tracer.
QueryPhase run_clients(query::QueryService& service, const QueryMix& mix,
                       std::uint64_t seed, std::size_t clients, double seconds,
                       std::size_t windows, Outcome& out, TraceSet* traces) {
    struct ClientResult {
        Samples latency_us;
        std::vector<Samples> windows;
        std::uint64_t attempted = 0;
        std::uint64_t failed = 0;
        std::vector<std::string> failures;
    };
    std::vector<ClientResult> results(clients);
    for (auto& r : results) r.windows.resize(windows);
    const double window_s = seconds / static_cast<double>(windows);
    QueryPhase phase;
    phase.before = service.stats();
    auto start = Clock::now();
    auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
    std::vector<Tracer*> tracers(clients, nullptr);
    if (traces != nullptr)
        for (auto& t : tracers) t = &traces->add();
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            ClientResult& r = results[c];
            Tracer* tracer = tracers[c];
            std::mt19937_64 rng(mix_seed(seed, 0xC1, c));
            std::map<std::size_t, std::int64_t> last_count;
            auto fail = [&](std::string what) {
                ++r.failed;
                if (r.failures.size() < 4) r.failures.push_back(std::move(what));
            };
            while (Clock::now() < deadline) {
                std::size_t q = mix.sample(rng);
                ++r.attempted;
                try {
                    query::QueryService::Result rs;
                    auto t0 = Clock::now();
                    {
                        ScopedSpan span(tracer, "query",
                                        (std::uint64_t{c} << 40) | r.attempted);
                        rs = service.submit_path(mix.distinct()[q]).get();
                    }
                    auto t1 = Clock::now();
                    double us =
                        std::chrono::duration<double, std::micro>(t1 - t0)
                            .count();
                    r.latency_us.add(us);
                    auto w = static_cast<std::size_t>(
                        seconds_between(start, t1) / window_s);
                    if (w < windows) r.windows[w].add(us);
                    if (mix.is_count(q)) {
                        // Documents are only ever added, so a count seen
                        // by one client can never go down.
                        std::int64_t n = rs->scalar().as_integer();
                        auto [it, fresh] = last_count.emplace(q, n);
                        if (!fresh && n < it->second)
                            fail("count decreased: " + mix.distinct()[q]);
                        it->second = std::max(it->second, n);
                    }
                } catch (const std::exception& e) {
                    fail(mix.distinct()[q] + ": " + e.what());
                }
            }
        });
    }
    for (auto& t : threads) t.join();
    phase.elapsed_s = seconds_between(start, Clock::now());
    phase.after = service.stats();
    phase.window_s = window_s;
    phase.windows.resize(windows);
    for (ClientResult& r : results) {
        for (std::size_t w = 0; w < windows; ++w)
            phase.windows[w].append(r.windows[w]);
        phase.latency_us.append(r.latency_us);
        phase.completed += r.latency_us.size();
        out.attempted += r.attempted;
        out.failed += r.failed;
        for (auto& f : r.failures)
            if (out.failures.size() < 16) out.failures.push_back(f);
    }
    return phase;
}

struct WriterResult {
    std::vector<double> latency_ms;  ///< due → committed, by document
    std::vector<double> busy_s;      ///< started → committed, by document
    Samples late_ms;     ///< due → started
    std::size_t elements = 0;
    std::size_t bytes = 0;
    std::size_t docs = 0;
    std::uint64_t wal_bytes = 0;
    rdb::MvccStats before, after;
    std::size_t versions_live_max = 0;
    std::vector<std::string> failures;
};

/// Open loop: document k is due at start + offset + k / rate, whatever
/// happened to earlier ones; it is timed from when it was due.
void run_writer(Store& store, const Corpus& docs, std::uint64_t seed,
                Clock::time_point start, Clock::time_point end,
                Tracer* tracer, WriterResult& w) {
    validate::Validator validator(store.dtd);
    const double period = 1.0 / kWriterRate;
    const double offset =
        period * static_cast<double>(mix_seed(seed, 0xA1, 0) % 1000) / 1000.0;
    w.before = store.db->mvcc_stats();
    std::uint64_t wal0 = store.db->wal_bytes_appended();
    for (std::size_t k = 0; k < docs.size(); ++k) {
        auto due = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   offset + period * static_cast<double>(k)));
        if (due >= end) break;
        std::this_thread::sleep_until(due);
        auto t0 = Clock::now();
        try {
            ScopedSpan root(tracer, "writer.doc", k);
            load_document(store, validator, docs.texts[k], tracer, k);
        } catch (const std::exception& e) {
            w.failures.push_back("writer document " + std::to_string(k) +
                                 ": " + e.what());
            continue;
        }
        auto t1 = Clock::now();
        w.late_ms.add(std::chrono::duration<double, std::milli>(t0 - due).count());
        w.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - due).count());
        w.busy_s.push_back(seconds_between(t0, t1));
        w.elements += docs.elements[k];
        w.bytes += docs.texts[k].size();
        ++w.docs;
        w.versions_live_max = std::max(w.versions_live_max,
                                       store.db->mvcc_stats().versions_live);
    }
    w.wal_bytes = store.db->wal_bytes_appended() - wal0;
    w.after = store.db->mvcc_stats();
}

struct Phase {
    QueryPhase queries;
    WriterResult writer;
};

/// Clients and writer together for `seconds`, the first kWarmup of them
/// unmeasured.
Phase serve_phase(Store& store, query::QueryService& service,
                  const QueryMix& mix, const Corpus& writer_docs,
                  const RunConfig& config, double seconds, TraceSet* traces,
                  Outcome& out) {
    Phase p;
    Tracer* writer_tracer = traces != nullptr ? &traces->add() : nullptr;
    auto start = Clock::now();
    auto end = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    std::jthread writer([&] {
        run_writer(store, writer_docs, config.seed, start, end, writer_tracer,
                   p.writer);
    });
    // The clients first fill the caches; only the steady state is kept.
    run_clients(service, mix, config.seed, kClients, kWarmup, 1, out, nullptr);
    p.queries = run_clients(service, mix, mix_seed(config.seed, 0xE1, 0),
                            kClients, seconds - kWarmup, kWindowsPerEpisode,
                            out, traces);
    writer.join();
    out.attempted += p.writer.docs + p.writer.failures.size();
    for (const auto& f : p.writer.failures) {
        ++out.failed;
        if (out.failures.size() < 16) out.failures.push_back(f);
    }
    return p;
}

}  // namespace

Outcome run_serve(const RunConfig& config) {
    Outcome out;
    const auto episodes = std::max<std::size_t>(
        2, static_cast<std::size_t>(std::lround(config.seconds / kEpisodeSeconds)));
    Corpus preload = make_corpus(config.seed, 3, kPreload);
    auto writer_count =
        static_cast<std::size_t>(std::ceil(kEpisodeSeconds * kWriterRate)) + 1;
    Corpus writer_docs = make_corpus(config.seed, 4, writer_count);
    out.note("preload: " + std::to_string(preload.size()) + " documents, " +
             std::to_string(preload.good_elements()) + " elements; writer: " +
             std::to_string(kWriterRate) + " documents/s; " +
             std::to_string(episodes) + " episodes of " +
             std::to_string(kEpisodeSeconds) + " s");

    // The query mix samples values present in the preloaded corpus.
    QueryMix mix(preload, config.seed, config.zipf, config.weights);

    query::ServiceOptions options;
    options.threads = kWorkers;
    TraceSet traces(Clock::now());
    Samples setup_s, wal_ratio, replay_rate;
    // Per episode (see PerRound).
    PerRound qps, query_p50_us, query_p99_us, writer_p50_ms, writer_p95_ms,
        writer_elems_per_s, recovery_s, untraced_qps, traced_qps;
    Samples late_ms;
    std::size_t writer_docs_done = 0;
    std::size_t queries = 0;
    double coverage = 0;
    Phase last;  // the final episode, checked and (traced) decomposed
    std::unique_ptr<Store> store;
    for (std::size_t e = 0; e < episodes; ++e) {
        // Traced runs alternate untraced and traced episodes, ending on a
        // traced one: the untraced ones give the tracing overhead baseline.
        bool traced = config.trace && (episodes - 1 - e) % 2 == 0;
        store.reset();  // the new store reuses the directory
        store = preloaded_store(config, preload, out);
        setup_s.add(store->setup_s);
        {
            query::QueryService service(*store->db, store->mapping,
                                        store->schema, options);
            last = serve_phase(*store, service, mix, writer_docs, config,
                               kEpisodeSeconds, traced ? &traces : nullptr,
                               out);
            for (const Samples& window : last.queries.windows)
                out.tally(!window.empty(), "episode " + std::to_string(e) +
                                               " has a window without a "
                                               "completed query");
            if (e + 1 == episodes) {
                // Before the oracle's DOMs exist: peak memory of the
                // measured episodes.
                if (!config.trace)
                    out.set("peak_rss_mb", peak_rss_mb(), "MiB", episodes);
                // After the writer stops: every distinct query once through
                // path(), against the DOM oracle over everything loaded.
                auto oracle = parse_good(preload);
                auto written = parse_good(writer_docs);
                std::vector<const xml::Document*> all;
                std::vector<const std::string*> texts = good_texts(preload);
                for (const auto& d : oracle) all.push_back(d.get());
                for (std::size_t k = 0; k < last.writer.docs; ++k) {
                    all.push_back(written[k].get());
                    texts.push_back(&writer_docs.texts[k]);
                }
                std::size_t bytes =
                    check_queries(service, mix, all, texts, out);
                out.note("store: " + std::to_string(store->db->total_rows()) +
                         " rows after the last episode");
                out.note("distinct results: " +
                         std::to_string(static_cast<double>(bytes) / (1 << 20)) +
                         " MiB against a " +
                         std::to_string(options.result_cache_bytes >> 20) +
                         " MiB result-cache budget");
                if (config.trace) {
                    report_service_layers(last.queries, last.writer.docs, out);
                    coverage = measure_query_layers(service, *store, mix,
                                                    config.seed, traces.add(),
                                                    out);
                }
            }
        }
        const WriterResult& w = last.writer;
        const QueryPhase& q = last.queries;
        Samples episode_ms;
        for (double ms : w.latency_ms) episode_ms.add(ms);
        double episode_writer_p50_ms = episode_ms.percentile(0.50);
        double episode_writer_p95_ms = episode_ms.percentile(0.95);
        double episode_qps = static_cast<double>(q.completed) / q.elapsed_s;
        (traced ? traced_qps : untraced_qps).add(episode_qps);
        if (!config.trace) {
            for (const Samples& window : q.windows) {
                qps.add(static_cast<double>(window.size()) / q.window_s);
                query_p50_us.add(window.percentile(0.50));
                query_p99_us.add(window.percentile(0.99));
            }
            queries += q.completed;
            Samples busy_s;
            for (double s : w.busy_s) busy_s.add(s);
            writer_docs_done += episode_ms.size();
            writer_p50_ms.add(episode_writer_p50_ms);
            writer_p95_ms.add(episode_writer_p95_ms);
            writer_elems_per_s.add(static_cast<double>(w.elements) /
                                   busy_s.sum());
        }
        late_ms.append(w.late_ms);
        wal_ratio.add(static_cast<double>(w.wal_bytes) /
                      static_cast<double>(w.bytes));
        out.note("episode " + std::to_string(e) + ": " +
                 std::to_string(static_cast<long long>(episode_qps)) +
                 " qps, p50 " + std::to_string(q.latency_us.percentile(0.5)) +
                 " us, p99 " + std::to_string(q.latency_us.percentile(0.99)) +
                 " us, hit ratio " +
                 std::to_string(
                     static_cast<double>(q.after.result_cache.hits -
                                         q.before.result_cache.hits) /
                     static_cast<double>(q.completed)) +
                 "; writer p50 " + std::to_string(episode_writer_p50_ms) +
                 " ms, p95 " + std::to_string(episode_writer_p95_ms) + " ms");

        Recovery r = close_and_recover(*store, out);
        recovery_s.add(r.open_s);
        replay_rate.add(static_cast<double>(r.records_replayed) / r.open_s);
    }
    store.reset();
    out.note("serve: " + std::to_string(mix.distinct().size()) +
             " distinct queries; writer " + std::to_string(last.writer.docs) +
             " documents per episode, late p50 " +
             std::to_string(late_ms.median()) + " ms, p99 " +
             std::to_string(late_ms.percentile(0.99)) + " ms, max " +
             std::to_string(late_ms.percentile(1.0)) + " ms");

    if (!config.trace) {
        out.set("query_qps", qps.highest(), "1/s", queries);
        out.set("query_us_p50", query_p50_us.lowest(), "us", queries);
        out.set("query_us_p99", query_p99_us.lowest(), "us", queries);
        out.set("setup_s", setup_s.median(), "s", setup_s.size());
        out.set("load_elems_per_s", writer_elems_per_s.highest(), "elem/s",
                writer_docs_done);
        out.set("load_doc_ms_p50", writer_p50_ms.lowest(), "ms",
                writer_docs_done);
        out.set("load_doc_ms_p95", writer_p95_ms.lowest(), "ms",
                writer_docs_done);
        out.set("recovery_s", recovery_s.lowest(), "s", episodes);
        out.set("wal_bytes_per_input_byte", wal_ratio.median(), "B/B",
                writer_docs_done);
        return out;
    }

    const WriterResult& w = last.writer;
    auto totals = summarize(traces.all());
    auto median = [&](const char* name) {
        return totals[name].duration_us.median();
    };
    // Commit growth over the last episode's writer documents.
    std::vector<double> commit_us;
    for (const Tracer* t : traces.all())
        for (const Span& s : t->spans())
            if (std::string_view(s.name) == "rdb.commit")
                commit_us.push_back(static_cast<double>(s.end_ns - s.start_ns) *
                                    1e-3);
    commit_us.erase(commit_us.begin(),
                    commit_us.end() - static_cast<std::ptrdiff_t>(std::min(
                                          commit_us.size(), w.docs)));
    double growth = 0;
    if (commit_us.size() >= 10) {
        std::size_t tenth = commit_us.size() / 10;
        Samples first, tail;
        for (std::size_t i = 0; i < tenth; ++i) first.add(commit_us[i]);
        for (std::size_t i = commit_us.size() - tenth; i < commit_us.size(); ++i)
            tail.add(commit_us[i]);
        growth = tail.median() / first.median();
    }
    std::size_t n = w.docs;
    double docs = std::max<double>(1, static_cast<double>(w.docs));
    out.set("xml.parse_us", median("xml.parse"), "us", n);
    out.set("validate.us", median("validate"), "us", n);
    out.set("loader.shred_us", median("loader.shred"), "us", n);
    out.set("rdb.commit_us", median("rdb.commit"), "us", n);
    out.set("rdb.commit_growth", growth, "ratio", n);
    out.set("rdb.chunks_cowed_per_doc",
            static_cast<double>(w.after.chunks_cowed - w.before.chunks_cowed) /
                docs,
            "count", n);
    out.set("rdb.indexes_cowed_per_doc",
            static_cast<double>(w.after.indexes_cowed -
                                w.before.indexes_cowed) /
                docs,
            "count", n);
    out.set("rdb.tables_republished_per_doc",
            static_cast<double>(w.after.tables_republished -
                                w.before.tables_republished) /
                docs,
            "count", n);
    out.set("rdb.wal_bytes_per_doc", static_cast<double>(w.wal_bytes) / docs,
            "B", n);
    out.set("rdb.replay_records_per_s", replay_rate.median(), "1/s",
            episodes);
    out.set("rdb.versions_live_max", static_cast<double>(w.versions_live_max),
            "count", n);
    out.set("loader.bulk_load_s",
            time_bulk_load_corpus(preload, config.out_dir + "/serve-dom", out),
            "s", 1);
    out.set("loader.quarantined", 0, "count", 1);
    out.set("loader.leaked_pks", 0, "count", 1);
    out.set("trace.overhead_pct",
            (untraced_qps.highest() / traced_qps.highest() - 1) * 100, "%",
            traced_qps.size());
    // The service is a black box to the harness: the blocking path of a
    // result-cache miss is checked by timing the three layer calls against
    // the service's own cold path() on the same queries.
    out.set("trace.blocking_coverage", coverage, "ratio",
            totals["query.path"].count);
    write_trace(config, traces, out);
    return out;
}

}  // namespace perfbench
