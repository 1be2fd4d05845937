// End-to-end benchmark for the XML → relational stack.
//
// Three seeded workloads (see README.md) drive the library from outside,
// through its public entry points only: xml::parse_document,
// validate::Validator, loader::Loader / BulkLoader, rdb::Database,
// query::QueryService, xquery::SqlTranslator and the sql planner and
// executor.  An untraced run reports the end-to-end metrics; a traced run
// records a span around every layer call and reports per-layer metrics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "dtd/dtd.hpp"
#include "loader/loader.hpp"
#include "mapping/pipeline.hpp"
#include "query/service.hpp"
#include "rdb/database.hpp"
#include "rel/schema.hpp"
#include "validate/validator.hpp"
#include "xml/dom.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- config

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20;
    bool trace = false;
    /// Query mix: Zipf exponent over each template's parameters, and
    /// template weights (empty: equal).  Both are assumptions; see README.
    double zipf = 1.5;
    std::vector<double> weights;
    std::string out_dir;  ///< temporary stores, run records and trace files
    std::string commit = "unknown";
    unsigned cores = 1;
};

// --------------------------------------------------------------- results

/// A list of observations with order statistics.
class Samples {
public:
    void add(double v) { values_.push_back(v); }
    void append(const Samples& other) {
        values_.insert(values_.end(), other.values_.begin(),
                       other.values_.end());
    }
    [[nodiscard]] std::size_t size() const { return values_.size(); }
    [[nodiscard]] bool empty() const { return values_.empty(); }
    /// Linear interpolation between closest ranks; q in [0, 1].
    [[nodiscard]] double percentile(double q) const;
    [[nodiscard]] double median() const { return percentile(0.5); }
    [[nodiscard]] double sum() const;

private:
    std::vector<double> values_;
};

/// One statistic per round of a run with a fixed number of rounds.  The
/// benchmark's host shares its cores with other tenants and its speed
/// swings several-fold from second to second, so a run repeats the same
/// work a fixed number of times (set by --seconds, never by how fast the
/// rounds go) and takes the best round's value.  A round's value is its
/// own statistic over its own items (a tail is that round's percentile),
/// so whatever slows every round, stalls on a share of the items included,
/// moves the best round too.
class PerRound {
public:
    void add(double v) { values_.add(v); }
    [[nodiscard]] std::size_t size() const { return values_.size(); }
    [[nodiscard]] double lowest() const { return values_.percentile(0.0); }
    [[nodiscard]] double highest() const { return values_.percentile(1.0); }
    [[nodiscard]] double median() const { return values_.median(); }

private:
    Samples values_;
};

struct Metric {
    double value = 0;
    std::string unit;
    std::size_t samples = 0;  ///< observations behind the value
};

/// What one workload run produced: metrics for the mode that ran, the
/// operation tally, and the outcome of every correctness check.
struct Outcome {
    std::map<std::string, Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;  ///< first few failure messages
    std::vector<std::string> notes;     ///< sizes and settings for the report

    void set(const std::string& name, double value, const std::string& unit,
             std::size_t samples) {
        metrics[name] = Metric{value, unit, samples};
    }
    /// Count one operation; a false `ok` marks it failed with `what`.
    void tally(bool ok, const std::string& what);
    void note(std::string line) { notes.push_back(std::move(line)); }
};

// ---------------------------------------------------------------- corpus

/// Seeded bibliography documents (paper DTD), serialized before any
/// timing starts; the program under test only ever sees `texts`.
struct Corpus {
    std::vector<std::string> texts;
    std::vector<std::size_t> elements;  ///< element count per document
    std::vector<bool> planted;          ///< deliberately malformed
    std::size_t bytes = 0;

    [[nodiscard]] std::size_t size() const { return texts.size(); }
    /// Elements over the well-formed documents.
    [[nodiscard]] std::size_t good_elements() const;
    [[nodiscard]] std::size_t planted_count() const;
};

/// `count` documents for (seed, stream); every `malformed_every`-th
/// document on average (exactly count / malformed_every of them, at
/// seeded positions) is corrupted so it cannot parse.  0 plants none.
[[nodiscard]] Corpus make_corpus(std::uint64_t seed, std::uint64_t stream,
                                 std::size_t count,
                                 std::size_t malformed_every = 0);

/// Parse the well-formed texts back into DOMs for the query oracle.  Done
/// only after the measured rounds, so the harness's DOMs stay out of
/// peak_rss_mb.
[[nodiscard]] std::vector<std::unique_ptr<xr::xml::Document>> parse_good(
    const Corpus& corpus);

[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream,
                                     std::uint64_t index);

// ----------------------------------------------------------------- store

/// One durable store for the paper DTD: mapping, relational schema, the
/// database in its data directory, and a serial loader.
struct Store {
    xr::dtd::Dtd dtd;
    xr::mapping::MappingResult mapping;
    xr::rel::RelationalSchema schema;
    std::string dir;
    std::unique_ptr<xr::rdb::Database> db;
    std::unique_ptr<xr::loader::Loader> loader;
    double setup_s = 0;  ///< mapping + schema + open + materialize

    /// Create a fresh store in `dir` (removed first); times the set-up.
    explicit Store(std::string dir);
    ~Store();
    Store(const Store&) = delete;
    Store& operator=(const Store&) = delete;

    /// Close the database and recover it from `dir`; returns the recovery
    /// report and sets `open_s` to the time Database::open took.
    xr::rdb::RecoveryReport reopen(double& open_s);
    /// Rebuild the serial loader (after a bulk load changed xrel_docs).
    void reset_loader();
    [[nodiscard]] std::map<std::string, std::size_t> row_counts() const;
};

/// Run `work` on a new thread and wait for it, rethrowing what it threw.
/// Repetitions run this way land on whichever core is free, so a best-of
/// over them is not stuck with one contended core for the whole run.
void on_fresh_thread(const std::function<void()>& work);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

// --------------------------------------------------------------- queries

/// The seeded query mix over the paper DTD: six templates (see README),
/// each parameterized one filled with
/// every value of its kind that occurs in `corpus`, in seeded rank order.
/// A query is a template picked by weight, then a parameter picked with a
/// Zipf skew (exponent `zipf`) over the ranks.
class QueryMix {
public:
    QueryMix(const Corpus& corpus, std::uint64_t seed, double zipf,
             const std::vector<double>& weights);

    /// Index into distinct() of the next query for a client.
    [[nodiscard]] std::size_t sample(std::mt19937_64& rng) const;
    /// About `total` distinct queries in template proportion, each
    /// template's best-ranked first, so every seed gets the same mix.
    [[nodiscard]] std::vector<std::size_t> stratified(std::size_t total) const;

    [[nodiscard]] const std::vector<std::string>& distinct() const {
        return distinct_;
    }
    [[nodiscard]] bool is_count(std::size_t q) const { return counts_[q]; }
    /// The value substituted into query `q`'s template ("" for none).
    [[nodiscard]] const std::string& param(std::size_t q) const {
        return params_[q];
    }

private:
    struct Template {
        double weight = 0;
        std::vector<std::size_t> queries;  ///< indices into distinct_, by rank
        std::vector<double> cdf;           ///< Zipf over ranks
    };
    std::vector<Template> templates_;
    std::vector<double> template_cdf_;
    std::vector<std::string> distinct_;
    std::vector<bool> counts_;
    std::vector<std::string> params_;

    void add_template(double weight, double zipf, const std::string& pattern,
                      const std::vector<std::string>& params);
};

struct QueryPhase {
    Samples latency_us;  ///< submit → result, per completed query
    std::uint64_t completed = 0;
    double elapsed_s = 0;
    xr::query::ServiceStats before;
    xr::query::ServiceStats after;
    /// The same latencies split by completion time into consecutive
    /// windows of `window_s`.
    std::vector<Samples> windows;
    double window_s = 0;
};

class Tracer;
class TraceSet;

/// The texts of the well-formed documents, in parse_good's order.
[[nodiscard]] std::vector<const std::string*> good_texts(const Corpus& corpus);

/// Run every distinct query (or only those marked in `only`) once
/// through path() and compare with xquery::evaluate over `docs` (the
/// oracle); `texts[i]` is the text `docs[i]` was parsed from.  Mismatches
/// are failures.  Returns the summed size of the results, estimated the
/// way the service's result cache charges them.
std::size_t check_queries(xr::query::QueryService& service,
                          const QueryMix& mix,
                          const std::vector<const xr::xml::Document*>& docs,
                          const std::vector<const std::string*>& texts,
                          Outcome& out,
                          const std::vector<char>* only = nullptr);

/// Query-side per-layer metrics on a quiesced store: dispatch cost
/// (submit→get against sync path() on one stream) and translate / plan /
/// execute spans on the stream's distinct queries, each made right next to
/// a cold path() call for the same query on a fresh service.  Returns the
/// share of those path() calls' time that the three layer calls account
/// for (the query side's blocking-path coverage).
double measure_query_layers(xr::query::QueryService& service, const Store& store,
                          const QueryMix& mix, std::uint64_t seed,
                          Tracer& tracer, Outcome& out);

/// Service-counter per-layer metrics for a client phase.
void report_service_layers(const QueryPhase& phase, std::uint64_t commits,
                           Outcome& out);

/// The read-back phase of the load workloads: after every round, one
/// client sends a fixed set of distinct queries (QueryMix::stratified) to
/// the round's freshly recovered store through the synchronous
/// QueryService::path(), from an empty result cache — cold queries.  Each
/// pass gives its own p50, p99 and throughput (see PerRound).
class ReadBack {
public:
    /// About `queries` distinct queries per pass (fewer if the mix has
    /// fewer).
    ReadBack(const Corpus& corpus, const RunConfig& config,
             std::size_t queries);

    /// One pass over `store`; with a tracer every query gets a span.
    void pass(Store& store, Outcome& out, Tracer* tracer);
    /// Report the query metrics, check every read-back query against the
    /// DOM oracle on `store`, and (traced) measure the query-side layers.
    void finish(Store& store, std::uint64_t seed, Outcome& out,
                TraceSet* traces);

private:
    const Corpus& corpus_;
    QueryMix mix_;
    std::vector<std::size_t> sequence_;
    PerRound p50_us_, p99_us_, qps_;
    std::size_t observations_ = 0;
    QueryPhase counters_;  ///< service counters of the latest pass
};

/// Load one document text the way a user does (parse, then
/// Loader::load, which validates and commits).  With a tracer the same
/// work runs as separate layer calls, each in a span: xml.parse,
/// validate, loader.shred (Loader::load inside an outer unit, so it does
/// not publish) and rdb.commit (the outermost commit_unit).
void load_document(Store& store, const xr::validate::Validator& validator,
                   const std::string& text, Tracer* tracer, std::uint64_t id);

/// Verify the store, close it, recover it with Database::open, and check
/// that it verifies again with identical per-table row counts.
struct Recovery {
    double open_s = 0;
    std::size_t records_replayed = 0;
};
Recovery close_and_recover(Store& store, Outcome& out);

/// Time BulkLoader::load_corpus on pre-parsed DOMs of `corpus` into a
/// fresh durable store under `dir` (loader.bulk_load_s).
double time_bulk_load_corpus(const Corpus& corpus, const std::string& dir,
                             Outcome& out);

/// Write the run's spans next to the run record and note where.
void write_trace(const RunConfig& config, const TraceSet& traces,
                 Outcome& out);

// ------------------------------------------------------------- workloads

Outcome run_ingest(const RunConfig& config);
Outcome run_bulk(const RunConfig& config);
Outcome run_serve(const RunConfig& config);

/// Every per-layer metric name with its unit, in report order.  Workloads
/// that do not pass through a layer report its count/ratio metrics as 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();
/// Every end-to-end metric name with its unit, in report order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
end_to_end_metrics();

}  // namespace perfbench
