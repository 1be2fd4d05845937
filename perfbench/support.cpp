// Corpus, store, query mix, read-back, oracle and layer measurements
// shared by the workloads.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "gen/corpora.hpp"
#include "gen/doc_gen.hpp"
#include "loader/bulk_loader.hpp"
#include "perfbench.hpp"
#include "rdb/integrity.hpp"
#include "rel/materialize.hpp"
#include "rel/translate.hpp"
#include "sql/executor.hpp"
#include "sql/parser.hpp"
#include "sql/planner.hpp"
#include "trace.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"
#include "xquery/dom_eval.hpp"
#include "xquery/query.hpp"
#include "xquery/sql_translate.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace xr;

// ---------------------------------------------------------------- results

double Samples::percentile(double q) const {
    if (values_.empty()) return 0;
    std::vector<double> v = values_;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Samples::sum() const {
    return std::accumulate(values_.begin(), values_.end(), 0.0);
}

void Outcome::tally(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 16) failures.push_back(what);
}

// ----------------------------------------------------------------- corpus

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t index) {
    // splitmix64 over the three inputs.
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL +
                      index * 0x94D049BB133111EBULL + 0x2545F4914F6CDD1DULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

std::size_t Corpus::good_elements() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < texts.size(); ++i)
        if (!planted[i]) n += elements[i];
    return n;
}

std::size_t Corpus::planted_count() const {
    return static_cast<std::size_t>(
        std::count(planted.begin(), planted.end(), true));
}

namespace {

/// Soft cap on elements per generated article (about 25 on average): large
/// enough for several authors per document, small enough that the cold
/// tail-predicate and [ancestor::] queries stay in the millisecond range.
constexpr std::size_t kElementsPerDoc = 60;

/// Make a well-formed text unparseable: either cut it short or rename
/// its last end tag so it no longer matches.
std::string corrupt(std::string text, std::mt19937_64& rng) {
    if (rng() % 2 == 0) {
        std::size_t cut = text.size() / 4 + rng() % (text.size() / 2);
        text.resize(cut);
    } else {
        std::size_t end = text.rfind("</");
        text.insert(end + 2, "x");
    }
    return text;
}

}  // namespace

Corpus make_corpus(std::uint64_t seed, std::uint64_t stream, std::size_t count,
                   std::size_t malformed_every) {
    dtd::Dtd dtd = gen::paper_dtd();
    xml::SerializeOptions so;
    so.indent = "";
    so.declaration = false;
    Corpus c;
    c.texts.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        gen::DocGenParams params;
        params.max_elements = kElementsPerDoc;
        params.seed = mix_seed(seed, stream, i);
        auto doc = gen::generate_document(dtd, "article", params);
        c.elements.push_back(doc->root()->subtree_element_count());
        c.texts.push_back(xml::serialize(*doc, so));
    }
    c.planted.assign(count, false);
    if (malformed_every > 0) {
        std::mt19937_64 rng(mix_seed(seed, stream, ~0ULL));
        std::vector<std::size_t> order(count);
        std::iota(order.begin(), order.end(), 0);
        std::shuffle(order.begin(), order.end(), rng);
        for (std::size_t k = 0; k < count / malformed_every; ++k) {
            c.planted[order[k]] = true;
            c.texts[order[k]] = corrupt(std::move(c.texts[order[k]]), rng);
        }
    }
    for (const auto& t : c.texts) c.bytes += t.size();
    return c;
}

std::vector<const std::string*> good_texts(const Corpus& corpus) {
    std::vector<const std::string*> texts;
    for (std::size_t i = 0; i < corpus.size(); ++i)
        if (!corpus.planted[i]) texts.push_back(&corpus.texts[i]);
    return texts;
}

std::vector<std::unique_ptr<xml::Document>> parse_good(const Corpus& corpus) {
    std::vector<std::unique_ptr<xml::Document>> docs;
    for (std::size_t i = 0; i < corpus.size(); ++i)
        if (!corpus.planted[i])
            docs.push_back(xml::parse_document(corpus.texts[i]));
    return docs;
}

// ------------------------------------------------------------------ store

Store::Store(std::string directory) : dir(std::move(directory)) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    auto t0 = Clock::now();
    dtd = gen::paper_dtd();
    mapping = mapping::map_dtd(dtd);
    schema = rel::translate(mapping);
    db = std::make_unique<rdb::Database>();
    db->open(dir);
    rel::materialize(schema, mapping, *db);
    db->flush_wal();
    loader = std::make_unique<loader::Loader>(dtd, mapping, schema, *db);
    setup_s = seconds_between(t0, Clock::now());
}

Store::~Store() {
    loader.reset();
    db.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
#ifdef __GLIBC__
    // Hand the freed store back to the OS, so that peak RSS measures one
    // round's footprint rather than what earlier rounds left in the
    // allocator's per-thread arenas.
    malloc_trim(0);
#endif
}

rdb::RecoveryReport Store::reopen(double& open_s) {
    loader.reset();
    db.reset();
    db = std::make_unique<rdb::Database>();
    auto t0 = Clock::now();
    rdb::RecoveryReport report = db->open(dir);
    open_s = seconds_between(t0, Clock::now());
    reset_loader();
    return report;
}

void Store::reset_loader() {
    loader = std::make_unique<loader::Loader>(dtd, mapping, schema, *db);
}

std::map<std::string, std::size_t> Store::row_counts() const {
    std::map<std::string, std::size_t> counts;
    for (const auto& name : db->table_names())
        counts[name] = db->require(name).row_count();
    return counts;
}

void on_fresh_thread(const std::function<void()>& work) {
    std::exception_ptr error;
    std::jthread([&] {
        try {
            work();
        } catch (...) {
            error = std::current_exception();
        }
    }).join();
    if (error) std::rethrow_exception(error);
}

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream in(line.substr(6));
            double kb = 0;
            in >> kb;
            return kb / 1024.0;
        }
    }
    return 0;
}

// ---------------------------------------------------------------- queries

namespace {

void harvest(const xml::Element& e, std::set<std::string>& lastnames,
             std::set<std::string>& authorids) {
    if (e.name() == "lastname") lastnames.insert(e.text());
    if (e.name() == "contactauthor")
        if (const std::string* id = e.attribute("authorid"))
            authorids.insert(*id);
    for (const xml::Element* c : e.child_elements())
        harvest(*c, lastnames, authorids);
}

std::vector<std::string> ranked(const std::set<std::string>& values,
                                std::mt19937_64& rng) {
    std::vector<std::string> out;
    // Only values that serialize unescaped, so a document that matches a
    // query must contain the query's value verbatim (see check_queries).
    for (const auto& v : values)
        if (!v.empty() && v.find_first_of("'\"&<>") == std::string::npos)
            out.push_back(v);
    std::shuffle(out.begin(), out.end(), rng);
    return out;
}

}  // namespace

QueryMix::QueryMix(const Corpus& corpus, std::uint64_t seed, double zipf,
                   const std::vector<double>& weights) {
    // One document at a time, so the harness never holds the corpus DOMs.
    std::set<std::string> titles, lastnames, authorids;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        if (corpus.planted[i]) continue;
        auto doc = xml::parse_document(corpus.texts[i]);
        if (const xml::Element* t = doc->root()->first_child("title"))
            titles.insert(t->text());
        harvest(*doc->root(), lastnames, authorids);
    }
    std::mt19937_64 rng(mix_seed(seed, 0x51, 0));
    std::vector<std::string> title_rank = ranked(titles, rng);
    std::vector<std::string> lastname_rank = ranked(lastnames, rng);
    std::vector<std::string> authorid_rank = ranked(authorids, rng);

    constexpr std::size_t kTemplates = 6;
    if (!weights.empty() && weights.size() != kTemplates)
        throw std::invalid_argument("the query mix takes 6 template weights");
    auto weight = [&](std::size_t t) {
        return weights.empty() ? 1.0 : weights[t];
    };
    add_template(weight(0), zipf, "/article[title = '%']/author", title_rank);
    add_template(weight(1), zipf, "/article/author[name/lastname = '%']",
                 lastname_rank);
    add_template(weight(2), zipf,
                 "/article[contactauthor/@authorid = '%']/title",
                 authorid_rank);
    add_template(weight(3), zipf, "count(//name)", {""});
    // Full-path enumerations, cheapest first: their rank order is fixed,
    // not seeded, so every seed carries the same heavy tail.
    add_template(weight(4), zipf, "%",
                 {"/article/contactauthor/@authorid", "/article/affiliation",
                  "/article/author/name/lastname"});
    add_template(weight(5), zipf,
                 "/article[title = '%']//name[ancestor::author]", title_rank);

    double acc = 0;
    for (const Template& t : templates_) template_cdf_.push_back(acc += t.weight);
    for (double& c : template_cdf_) c /= acc;
}

void QueryMix::add_template(double weight, double zipf,
                            const std::string& pattern,
                            const std::vector<std::string>& params) {
    Template t;
    t.weight = weight;
    double acc = 0;
    for (std::size_t r = 0; r < params.size(); ++r) {
        std::string text = pattern;
        std::size_t at = text.find('%');
        if (at != std::string::npos) text.replace(at, 1, params[r]);
        t.queries.push_back(distinct_.size());
        counts_.push_back(text.rfind("count(", 0) == 0);
        // A bare "%" takes a whole query (the full-path template), not a
        // value to match.
        params_.push_back(at != std::string::npos && pattern != "%"
                              ? params[r]
                              : "");
        distinct_.push_back(std::move(text));
        t.cdf.push_back(acc += std::pow(static_cast<double>(r + 1), -zipf));
    }
    for (double& c : t.cdf) c /= acc;
    templates_.push_back(std::move(t));
}

std::size_t QueryMix::sample(std::mt19937_64& rng) const {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    auto pick = [&](const std::vector<double>& cdf) {
        auto it = std::lower_bound(cdf.begin(), cdf.end(), u(rng));
        return std::min(static_cast<std::size_t>(it - cdf.begin()),
                        cdf.size() - 1);
    };
    const Template& t = templates_[pick(template_cdf_)];
    return t.queries[pick(t.cdf)];
}

std::vector<std::size_t> QueryMix::stratified(std::size_t total) const {
    std::vector<std::size_t> out;
    double weights = 0;
    for (const Template& t : templates_) weights += t.weight;
    for (const Template& t : templates_) {
        auto n = static_cast<std::size_t>(
            std::ceil(t.weight / weights * static_cast<double>(total)));
        for (std::size_t r = 0; r < n && r < t.queries.size(); ++r)
            out.push_back(t.queries[r]);
    }
    return out;
}

namespace {

/// Bytes a result occupies in the service's result cache (the same
/// estimate the service charges against its budget).
std::size_t result_bytes(const sql::ResultSet& rs) {
    std::size_t bytes = sizeof(sql::ResultSet);
    for (const auto& c : rs.columns) bytes += sizeof(std::string) + c.size();
    for (const auto& row : rs.rows) {
        bytes += sizeof(rdb::Row) + row.size() * sizeof(rdb::Value);
        for (const auto& v : row)
            if (v.type() == rdb::ValueType::kText) bytes += v.as_text().size();
    }
    return bytes;
}

}  // namespace

std::size_t check_queries(query::QueryService& service, const QueryMix& mix,
                          const std::vector<const xml::Document*>& docs,
                          const std::vector<const std::string*>& texts,
                          Outcome& out, const std::vector<char>* only) {
    auto t0 = Clock::now();
    std::size_t total_bytes = 0, checked = 0;
    for (std::size_t q = 0; q < mix.distinct().size(); ++q) {
        if (only != nullptr && !(*only)[q]) continue;
        const std::string& text = mix.distinct()[q];
        bool ok = false;
        std::string why;
        try {
            xquery::Translation t = service.translate(text);
            query::QueryService::Result rs = service.path(text);
            total_bytes += result_bytes(*rs);
            // A document matches an equality on a value only if its text
            // contains the value, so the others cannot change the answer
            // and the oracle skips them.
            std::vector<const xml::Document*> candidates;
            const std::string& param = mix.param(q);
            for (std::size_t i = 0; i < docs.size(); ++i)
                if (param.empty() || texts[i]->find(param) != std::string::npos)
                    candidates.push_back(docs[i]);
            xquery::DomResult dom =
                xquery::evaluate(candidates, xquery::parse_query(text));
            if (t.yield == xquery::Translation::Yield::kCount) {
                ok = static_cast<std::size_t>(rs->scalar().as_integer()) ==
                     dom.size();
            } else if (t.yield == xquery::Translation::Yield::kStrings) {
                std::multiset<std::string> want(dom.strings.begin(),
                                                dom.strings.end());
                if (want.empty())
                    for (const auto* n : dom.nodes) want.insert(n->text());
                std::multiset<std::string> got;
                for (const auto& row : rs->rows)
                    if (!row.back().is_null())
                        got.insert(row.back().to_string());
                ok = got == want;
            } else {
                ok = rs->row_count() == dom.size();
            }
            if (!ok) why = "SQL and DOM disagree";
        } catch (const std::exception& e) {
            why = e.what();
        }
        out.tally(ok, "oracle: " + text + ": " + why);
        ++checked;
    }
    out.note("oracle: " + std::to_string(checked) +
             " distinct queries checked against the DOMs in " +
             std::to_string(seconds_between(t0, Clock::now())) + " s");
    return total_bytes;
}

double measure_query_layers(query::QueryService& service, const Store& store,
                            const QueryMix& mix, std::uint64_t seed,
                            Tracer& tracer, Outcome& out) {
    constexpr std::size_t kStream = 2000;
    constexpr std::size_t kDecompose = 400;
    std::mt19937_64 rng(mix_seed(seed, 0xD1, 0));
    std::vector<std::size_t> stream(kStream);
    for (auto& q : stream) q = mix.sample(rng);

    // Dispatch: the same stream, from the same cache state, once through
    // the worker queue and once synchronously on the caller's thread.
    auto time_stream = [&](bool submit) {
        service.clear_result_cache();
        Samples us;
        for (std::size_t q : stream) {
            auto t0 = Clock::now();
            if (submit)
                service.submit_path(mix.distinct()[q]).get();
            else
                service.path(mix.distinct()[q]);
            us.add(std::chrono::duration<double, std::micro>(Clock::now() - t0)
                       .count());
        }
        return us;
    };
    time_stream(false);  // warm the plan cache
    Samples submitted = time_stream(true);
    Samples sync = time_stream(false);
    out.set("query.dispatch_us", submitted.median() - sync.median(), "us",
            submitted.size());

    // The stream's first kDecompose distinct queries (its result-cache
    // misses; the stream is drawn further until there are that many), each
    // twice: once through path() on a fresh service, whose empty caches
    // make it translate, plan and execute ("query.path"), and once as those
    // three layer calls made directly ("query.miss").  The two legs run
    // back to back in alternating order, so a change in the host's speed
    // hits both.
    std::vector<std::size_t> misses;
    std::set<std::size_t> seen;
    for (std::size_t i = 0; i < 10 * kStream && misses.size() < kDecompose;
         ++i) {
        std::size_t q = i < stream.size() ? stream[i] : mix.sample(rng);
        if (seen.insert(q).second) misses.push_back(q);
    }
    query::ServiceOptions cold_options;
    cold_options.threads = 1;
    query::QueryService cold(*store.db, store.mapping, store.schema,
                             cold_options);
    xquery::SqlTranslator translator(store.mapping, store.schema);
    sql::PlannerOptions as_planned;
    as_planned.enable = false;  // plan_select already reordered the stmt
    Samples q_error;
    double scanned = 0, returned = 0;
    for (std::size_t i = 0; i < misses.size(); ++i) {
        std::size_t q = misses[i];
        const std::string& text = mix.distinct()[q];
        auto through_service = [&] {
            ScopedSpan s(&tracer, "query.path", q);
            cold.path(text);
        };
        if (i % 2 == 0) through_service();
        {
            ScopedSpan root(&tracer, "query.miss", q);
            xquery::Translation t;
            {
                ScopedSpan s(&tracer, "xquery.translate", q);
                t = translator.translate(xquery::parse_query(text));
            }
            std::optional<rdb::ReadSnapshot> snapshot;
            sql::SelectStmt stmt;
            sql::PlanInfo plan;
            {
                ScopedSpan s(&tracer, "sql.plan", q);
                snapshot.emplace(store.db->read_snapshot());
                stmt = sql::parse_select(t.sql);
                plan = sql::plan_select(snapshot->view(), stmt);
            }
            sql::ExecStats stats;
            sql::ResultSet rs;
            {
                ScopedSpan s(&tracer, "sql.exec", q);
                rs = sql::execute_select(snapshot->view(), stmt, &stats, {},
                                         &as_planned);
            }
            scanned += static_cast<double>(stats.rows_scanned.load());
            returned += static_cast<double>(rs.row_count());
            if (!mix.is_count(q) && plan.planned) {
                double est = std::max(1.0, plan.est_rows);
                double act = std::max<double>(1.0, rs.row_count());
                q_error.add(std::max(est, act) / std::min(est, act));
            }
        }
        if (i % 2 == 1) through_service();
    }
    auto totals = summarize({&tracer});
    auto median_of = [&](const char* name) {
        auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.duration_us.median();
    };
    std::size_t n = misses.size();
    out.set("xquery.translate_us", median_of("xquery.translate"), "us", n);
    out.set("sql.plan_us", median_of("sql.plan"), "us", n);
    out.set("sql.exec_us", median_of("sql.exec"), "us", n);
    out.set("sql.rows_scanned_per_result_row",
            returned > 0 ? scanned / returned : 0, "ratio", n);
    out.set("sql.q_error_p50", q_error.median(), "ratio", q_error.size());
    return self_time_under({&tracer}, "query.miss", false) /
           totals["query.path"].total_s;
}

void report_service_layers(const QueryPhase& phase, std::uint64_t commits,
                           Outcome& out) {
    const auto& b = phase.before;
    const auto& a = phase.after;
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    double hits = static_cast<double>(a.result_cache.hits - b.result_cache.hits);
    double misses =
        static_cast<double>(a.result_cache.misses - b.result_cache.misses);
    double plan_hits =
        static_cast<double>(a.plan_cache.hits - b.plan_cache.hits);
    double plan_misses =
        static_cast<double>(a.plan_cache.misses - b.plan_cache.misses);
    auto lookups = static_cast<std::size_t>(hits + misses);
    out.set("query.queue_wait_us_p99",
            static_cast<double>(a.overload.p99_queue_wait_us), "us",
            std::min<std::size_t>(512, lookups));
    out.set("query.result_hit_ratio", ratio(hits, hits + misses), "ratio",
            lookups);
    out.set("query.result_invalidated_per_commit",
            ratio(static_cast<double>(a.result_cache.invalidated -
                                      b.result_cache.invalidated),
                  static_cast<double>(commits)),
            "count", commits);
    out.set("query.result_evicted",
            static_cast<double>(a.result_cache.evicted - b.result_cache.evicted),
            "count", lookups);
    out.set("query.plan_hit_ratio",
            ratio(plan_hits, plan_hits + plan_misses), "ratio",
            static_cast<std::size_t>(plan_hits + plan_misses));
}

double time_bulk_load_corpus(const Corpus& corpus, const std::string& dir,
                             Outcome& out) {
    auto docs = parse_good(corpus);
    std::vector<xml::Document*> ptrs;
    for (auto& d : docs) ptrs.push_back(d.get());
    Store store(dir);
    loader::BulkLoader bulk(store.dtd, store.mapping, store.schema, *store.db);
    loader::BulkLoadOptions options;
    options.on_error = loader::FailurePolicy::kQuarantine;
    auto t0 = Clock::now();
    loader::LoadReport report = bulk.load_corpus(ptrs, options);
    double s = seconds_between(t0, Clock::now());
    out.tally(report.loaded == ptrs.size(),
              "load_corpus on pre-parsed DOMs loaded " +
                  std::to_string(report.loaded) + " of " +
                  std::to_string(ptrs.size()));
    return s;
}

namespace {

std::vector<const xml::Document*> views_of(
    const std::vector<std::unique_ptr<xml::Document>>& docs) {
    std::vector<const xml::Document*> views;
    for (const auto& d : docs) views.push_back(d.get());
    return views;
}

}  // namespace

ReadBack::ReadBack(const Corpus& corpus, const RunConfig& config,
                   std::size_t queries)
    : corpus_(corpus),
      mix_(corpus, config.seed, config.zipf, config.weights),
      sequence_(mix_.stratified(queries)) {}

void ReadBack::pass(Store& store, Outcome& out, Tracer* tracer) {
    query::ServiceOptions options;
    options.threads = 2;
    query::QueryService service(*store.db, store.mapping, store.schema,
                                options);
    counters_.before = service.stats();
    Samples us;
    double elapsed_s = 0;
    on_fresh_thread([&] {
        auto start = Clock::now();
        for (std::size_t i = 0; i < sequence_.size(); ++i) {
            const std::string& text = mix_.distinct()[sequence_[i]];
            auto t0 = Clock::now();
            try {
                ScopedSpan span(tracer, "query", i);
                service.path(text);
            } catch (const std::exception& e) {
                out.tally(false, text + ": " + e.what());
                continue;
            }
            ++out.attempted;
            us.add(std::chrono::duration<double, std::micro>(Clock::now() - t0)
                       .count());
        }
        elapsed_s = seconds_between(start, Clock::now());
    });
    counters_.after = service.stats();
    p50_us_.add(us.percentile(0.50));
    p99_us_.add(us.percentile(0.99));
    qps_.add(static_cast<double>(us.size()) / elapsed_s);
    observations_ += us.size();
}

void ReadBack::finish(Store& store, std::uint64_t seed, Outcome& out,
                      TraceSet* traces) {
    out.set("query_qps", qps_.highest(), "1/s", observations_);
    out.set("query_us_p50", p50_us_.lowest(), "us", observations_);
    out.set("query_us_p99", p99_us_.lowest(), "us", observations_);

    query::ServiceOptions options;
    options.threads = 2;
    query::QueryService service(*store.db, store.mapping, store.schema,
                                options);
    std::vector<char> issued(mix_.distinct().size(), 0);
    for (std::size_t q : sequence_) issued[q] = 1;
    auto docs = parse_good(corpus_);
    check_queries(service, mix_, views_of(docs), good_texts(corpus_), out,
                  &issued);
    if (traces != nullptr) {
        report_service_layers(counters_, 0, out);
        double coverage = measure_query_layers(service, store, mix_, seed,
                                               traces->add(), out);
        out.note("query side: translate + plan + exec account for " +
                 std::to_string(coverage) + " of cold path() time");
        // The passes call path() synchronously and never queue; the queue
        // waits are those of the dispatch stream just measured.
        out.set("query.queue_wait_us_p99",
                static_cast<double>(service.stats().overload.p99_queue_wait_us),
                "us", 512);
    }
    out.note("store: " + std::to_string(store.db->total_rows()) + " rows");
    out.note("read-back: " + std::to_string(sequence_.size()) +
             " cold queries after every round, of " +
             std::to_string(mix_.distinct().size()) + " distinct");
}

void load_document(Store& store, const validate::Validator& validator,
                   const std::string& text, Tracer* tracer, std::uint64_t id) {
    if (tracer == nullptr) {
        auto doc = xml::parse_document(text);
        store.loader->load(*doc);
        return;
    }
    std::unique_ptr<xml::Document> doc;
    {
        ScopedSpan s(tracer, "xml.parse", id);
        doc = xml::parse_document(text);
    }
    {
        ScopedSpan s(tracer, "validate", id);
        validate::ValidateOptions options;
        options.apply_defaults = true;  // as Loader::load validates
        validate::ValidationResult result = validator.validate(*doc, options);
        if (!result.ok())
            throw std::runtime_error("invalid document: " + result.to_string());
    }
    rdb::Database& db = *store.db;
    db.begin_unit();
    try {
        loader::LoadOptions options;
        options.validate = false;
        {
            ScopedSpan s(tracer, "loader.shred", id);
            store.loader->load(*doc, options);
        }
        ScopedSpan s(tracer, "rdb.commit", id);
        db.commit_unit();
    } catch (...) {
        db.rollback_unit();
        throw;
    }
}

Recovery close_and_recover(Store& store, Outcome& out) {
    rdb::IntegrityReport before = store.db->verify();
    out.tally(before.clean(), "verify before close: " + before.to_string());
    auto counts = store.row_counts();
    Recovery r;
    rdb::RecoveryReport report;
    on_fresh_thread([&] { report = store.reopen(r.open_s); });
    r.records_replayed = report.records_replayed;
    rdb::IntegrityReport after = store.db->verify();
    out.tally(after.clean(), "verify after recovery: " + after.to_string());
    out.tally(store.row_counts() == counts,
              "per-table row counts differ after recovery");
    return r;
}

void write_trace(const RunConfig& config, const TraceSet& traces,
                 Outcome& out) {
    constexpr std::size_t kLimit = 200000;
    std::string path = config.out_dir + "/trace-" + config.workload + "-seed" +
                       std::to_string(config.seed) + ".jsonl";
    std::size_t total = 0;
    for (const Tracer* t : traces.all()) total += t->spans().size();
    std::size_t written = write_spans(path, traces.all(), kLimit);
    out.note("trace: " + std::to_string(written) + " of " +
             std::to_string(total) + " spans written to " + path);
    char line[160];
    for (const auto& [name, t] : summarize(traces.all())) {
        std::snprintf(line, sizeof line,
                      "span %-24s count %8zu  total %9.4f s  self %9.4f s",
                      name.c_str(), t.count, t.total_s, t.self_s);
        out.note(line);
    }
}

// ----------------------------------------------------------------- metrics

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"setup_s", "s"},
        {"load_elems_per_s", "elem/s"},
        {"load_doc_ms_p50", "ms"},
        {"load_doc_ms_p95", "ms"},
        {"recovery_s", "s"},
        {"wal_bytes_per_input_byte", "B/B"},
        {"query_qps", "1/s"},
        {"query_us_p50", "us"},
        {"query_us_p99", "us"},
        {"peak_rss_mb", "MiB"},
    };
    return m;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"xml.parse_us", "us"},
        {"validate.us", "us"},
        {"loader.shred_us", "us"},
        {"rdb.commit_us", "us"},
        {"rdb.commit_growth", "ratio"},
        {"rdb.chunks_cowed_per_doc", "count"},
        {"rdb.indexes_cowed_per_doc", "count"},
        {"rdb.tables_republished_per_doc", "count"},
        {"rdb.wal_bytes_per_doc", "B"},
        {"rdb.replay_records_per_s", "1/s"},
        {"rdb.versions_live_max", "count"},
        {"loader.bulk_load_s", "s"},
        {"loader.quarantined", "count"},
        {"loader.leaked_pks", "count"},
        {"query.dispatch_us", "us"},
        {"query.queue_wait_us_p99", "us"},
        {"query.result_hit_ratio", "ratio"},
        {"query.result_invalidated_per_commit", "count"},
        {"query.result_evicted", "count"},
        {"query.plan_hit_ratio", "ratio"},
        {"xquery.translate_us", "us"},
        {"sql.plan_us", "us"},
        {"sql.exec_us", "us"},
        {"sql.rows_scanned_per_result_row", "ratio"},
        {"sql.q_error_p50", "ratio"},
        {"trace.overhead_pct", "%"},
        {"trace.blocking_coverage", "ratio"},
    };
    return m;
}

}  // namespace perfbench
