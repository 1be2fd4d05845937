// Bulk-load pipeline: the parallel staged loader must be observationally
// equivalent to the serial row-at-a-time loader — same row counts per
// table, same ID registry contents, same reference-resolution stats and
// byte-identical reconstructions — differing only in surrogate key values
// (bulk reserves chunked per-worker pk ranges) and physical row order.
// Also covers the rdb-level machinery underneath: batched inserts and
// deferred index rebuilds.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "loader/bulk_loader.hpp"
#include "loader/reconstruct.hpp"
#include "rel/translate.hpp"
#include "xml/serializer.hpp"

namespace xr {
namespace {

using rdb::Value;

void expect_stats_equal(const loader::LoadStats& a, const loader::LoadStats& b) {
    EXPECT_EQ(a.documents, b.documents);
    EXPECT_EQ(a.elements_visited, b.elements_visited);
    EXPECT_EQ(a.entity_rows, b.entity_rows);
    EXPECT_EQ(a.relationship_rows, b.relationship_rows);
    EXPECT_EQ(a.reference_rows, b.reference_rows);
    EXPECT_EQ(a.overflow_rows, b.overflow_rows);
    EXPECT_EQ(a.resolved_references, b.resolved_references);
    EXPECT_EQ(a.unresolved_references, b.unresolved_references);
    EXPECT_EQ(a.skipped_elements, b.skipped_elements);
}

void expect_row_counts_equal(const rdb::Database& a, const rdb::Database& b) {
    ASSERT_EQ(a.table_names(), b.table_names());
    for (const auto& name : a.table_names())
        EXPECT_EQ(a.require(name).row_count(), b.require(name).row_count())
            << "table " << name;
}

/// The ID registry as a sorted (doc, idval, entity) multiset — entity_pk
/// values legitimately differ between the serial and bulk pipelines.
std::vector<std::string> registry_fingerprint(const rdb::Database& db) {
    std::vector<std::string> out;
    const rdb::Table* reg = db.table(rel::kIdRegistryTable);
    if (reg == nullptr) return out;
    int doc = reg->def().column_index("doc");
    int idval = reg->def().column_index("idval");
    int entity = reg->def().column_index("entity");
    for (rdb::RowId id = 0; id < reg->row_count(); ++id) {
        const auto& row = reg->row(id);
        out.push_back(row[doc].to_string() + "|" + row[idval].to_string() +
                      "|" + row[entity].to_string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

loader::LoadStats load_serial(test::Stack& stack,
                              const std::vector<std::unique_ptr<xml::Document>>& docs,
                              bool validate = true) {
    loader::LoadOptions options;
    options.validate = validate;
    options.resolve_references = false;  // one pass at the end, like bulk
    for (const auto& doc : docs) stack.loader->load(*doc, options);
    stack.loader->resolve_references();
    return stack.loader->stats();
}

TEST(BulkLoader, EquivalentToSerialOnGeneratedCorpus) {
    // Two independently generated (same seed ⇒ identical) corpora so each
    // pipeline validates and annotates its own documents.
    auto serial_docs = gen::bibliography_corpus(12, 150);
    auto bulk_docs = gen::bibliography_corpus(12, 150);

    test::Stack serial(gen::paper_dtd());
    loader::LoadStats serial_stats = load_serial(serial, serial_docs);

    test::Stack bulk(gen::paper_dtd());
    loader::BulkLoader bulk_loader(bulk.logical, bulk.mapping, bulk.schema,
                                   bulk.db);
    loader::BulkLoadOptions options;
    options.jobs = 4;
    options.validate = true;
    options.pk_chunk = 16;  // force several range refills per worker
    std::vector<xml::Document*> views;
    for (auto& d : bulk_docs) views.push_back(d.get());
    loader::LoadStats bulk_stats = bulk_loader.load_corpus(views, options).stats;

    EXPECT_EQ(bulk_stats.documents, 12u);
    EXPECT_GT(bulk_stats.resolved_references, 0u);
    expect_stats_equal(serial_stats, bulk_stats);
    expect_row_counts_equal(serial.db, bulk.db);
    EXPECT_EQ(registry_fingerprint(serial.db), registry_fingerprint(bulk.db));

    // Reconstruction is the strongest equivalence check: both databases
    // must rebuild byte-identical documents for every doc id.
    loader::Reconstructor rs(serial.mapping, serial.schema, serial.db);
    loader::Reconstructor rb(bulk.mapping, bulk.schema, bulk.db);
    for (std::int64_t doc = 1; doc <= 12; ++doc) {
        EXPECT_EQ(xml::serialize(*rs.reconstruct(doc)),
                  xml::serialize(*rb.reconstruct(doc)))
            << "doc " << doc;
    }
}

TEST(BulkLoader, ForwardAndCrossDocumentIdrefs) {
    // doc 1 references an id that only exists in a *later* document (a
    // forward reference across the corpus) and doc 3 references an id that
    // exists nowhere.  ID semantics are per-document, so both stay
    // unresolved — in the serial and the bulk pipeline alike.  doc 2's
    // same-document reference resolves in both.
    const std::vector<std::string> texts = {
        "<article><title>t1</title>"
        "<author id=\"a1\"><name><lastname>L1</lastname></name></author>"
        "<contactauthor authorid=\"zz\"/></article>",
        "<article><title>t2</title>"
        "<author id=\"zz\"><name><lastname>L2</lastname></name></author>"
        "<contactauthor authorid=\"zz\"/></article>",
        "<article><title>t3</title>"
        "<author id=\"a3\"><name><lastname>L3</lastname></name></author>"
        "<contactauthor authorid=\"missing\"/></article>",
    };

    // Validation would reject the dangling IDREFs outright (ID/IDREF
    // integrity is per document), so both pipelines load unvalidated and
    // let reference resolution report the misses.
    std::vector<std::unique_ptr<xml::Document>> serial_docs;
    for (const auto& t : texts) serial_docs.push_back(xml::parse_document(t));
    test::Stack serial(gen::paper_dtd());
    loader::LoadStats serial_stats =
        load_serial(serial, serial_docs, /*validate=*/false);

    test::Stack bulk(gen::paper_dtd());
    loader::BulkLoader bulk_loader(bulk.logical, bulk.mapping, bulk.schema,
                                   bulk.db);
    loader::BulkLoadOptions options;
    options.jobs = 3;  // one doc per worker: maximal interleaving
    options.validate = false;
    loader::LoadStats bulk_stats = bulk_loader.load_texts(texts, options).stats;

    EXPECT_EQ(bulk_stats.resolved_references, 1u);
    EXPECT_EQ(bulk_stats.unresolved_references, 2u);
    expect_stats_equal(serial_stats, bulk_stats);
    expect_row_counts_equal(serial.db, bulk.db);
    EXPECT_EQ(registry_fingerprint(serial.db), registry_fingerprint(bulk.db));
}

TEST(BulkLoader, SingleWorkerMatchesMultiWorker) {
    auto docs1 = gen::bibliography_corpus(6, 80, 21);
    auto docs4 = gen::bibliography_corpus(6, 80, 21);

    auto run = [](test::Stack& stack,
                  std::vector<std::unique_ptr<xml::Document>>& docs,
                  std::size_t jobs) {
        loader::BulkLoader bl(stack.logical, stack.mapping, stack.schema,
                              stack.db);
        loader::BulkLoadOptions options;
        options.jobs = jobs;
        std::vector<xml::Document*> views;
        for (auto& d : docs) views.push_back(d.get());
        return bl.load_corpus(views, options).stats;
    };

    test::Stack one(gen::paper_dtd());
    test::Stack four(gen::paper_dtd());
    loader::LoadStats s1 = run(one, docs1, 1);
    loader::LoadStats s4 = run(four, docs4, 4);
    expect_stats_equal(s1, s4);
    expect_row_counts_equal(one.db, four.db);
}

TEST(BulkLoader, AppendsToAlreadyLoadedDatabase) {
    // Serial load, then a bulk load on top: doc ids continue past the
    // existing maximum and previously loaded data is untouched.
    auto first = xml::parse_document(gen::paper_sample_document());
    test::Stack stack(gen::paper_dtd());
    stack.loader->load(*first);

    auto more = gen::bibliography_corpus(3, 60);
    loader::BulkLoader bl(stack.logical, stack.mapping, stack.schema, stack.db);
    std::vector<xml::Document*> views;
    for (auto& d : more) views.push_back(d.get());
    bl.load_corpus(views, {});

    const rdb::Table& docs = stack.db.require("xrel_docs");
    ASSERT_EQ(docs.row_count(), 4u);
    int c = docs.def().column_index("doc");
    std::vector<std::int64_t> ids;
    for (rdb::RowId id = 0; id < docs.row_count(); ++id)
        ids.push_back(docs.row(id)[c].as_integer());
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, (std::vector<std::int64_t>{1, 2, 3, 4}));

    loader::Reconstructor r(stack.mapping, stack.schema, stack.db);
    auto roundtrip = r.reconstruct(1);
    EXPECT_EQ(roundtrip->root()->name(), "article");
}

TEST(BulkLoader, FailedDocumentLeavesDatabaseUntouched) {
    auto good = gen::bibliography_corpus(2, 50);
    test::Stack stack(gen::paper_dtd());
    loader::BulkLoader bl(stack.logical, stack.mapping, stack.schema, stack.db);

    std::map<std::string, std::size_t> before;
    for (const auto& name : stack.db.table_names())
        before[name] = stack.db.require(name).row_count();

    // An element the paper DTD does not declare, loaded strictly.
    std::vector<std::string> texts = {xml::serialize(*good[0]),
                                      "<bogus><x/></bogus>",
                                      xml::serialize(*good[1])};
    loader::BulkLoadOptions options;
    options.jobs = 2;
    EXPECT_THROW(bl.load_texts(texts, options), Error);

    for (const auto& name : stack.db.table_names())
        EXPECT_EQ(stack.db.require(name).row_count(), before[name])
            << "table " << name;
    EXPECT_EQ(bl.stats().documents, 0u);
}

TEST(BulkLoader, LoadTextsParsesInWorkers) {
    auto docs = gen::bibliography_corpus(5, 90);
    std::vector<std::string> texts;
    for (const auto& d : docs) texts.push_back(xml::serialize(*d));

    test::Stack direct(gen::paper_dtd());
    loader::BulkLoader bd(direct.logical, direct.mapping, direct.schema,
                          direct.db);
    std::vector<xml::Document*> views;
    for (auto& d : docs) views.push_back(d.get());
    loader::LoadStats from_docs = bd.load_corpus(views, {}).stats;

    test::Stack parsed(gen::paper_dtd());
    loader::BulkLoader bp(parsed.logical, parsed.mapping, parsed.schema,
                          parsed.db);
    loader::BulkLoadOptions options;
    options.jobs = 2;
    loader::LoadStats from_texts = bp.load_texts(texts, options).stats;

    expect_stats_equal(from_docs, from_texts);
    expect_row_counts_equal(direct.db, parsed.db);
}

// -- failure policies --------------------------------------------------------

/// Two good generated articles with a malformed text, a validation
/// failure and an unmapped document interleaved (good at 0 and 3).
struct MixedCorpus {
    std::vector<std::string> texts;
    std::vector<std::string> good;  ///< texts with the bad documents removed
};

MixedCorpus mixed_corpus() {
    auto docs = gen::bibliography_corpus(2, 60);
    MixedCorpus c;
    c.texts = {xml::serialize(*docs[0]),
               "<article><title>t</title></unclosed>",
               "<article><title>dup</title><title>dup</title></article>",
               xml::serialize(*docs[1]),
               "<bogus><x/></bogus>"};
    c.good = {c.texts[0], c.texts[3]};
    return c;
}

void expect_equivalent(const rdb::Database& a, const rdb::Database& b) {
    expect_row_counts_equal(a, b);
    EXPECT_EQ(registry_fingerprint(a), registry_fingerprint(b));
}

TEST(BulkLoader, SkipPolicyMatchesGoodOnlyLoad) {
    MixedCorpus corpus = mixed_corpus();
    for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        test::Stack mixed(gen::paper_dtd());
        loader::BulkLoader bm(mixed.logical, mixed.mapping, mixed.schema,
                              mixed.db);
        loader::BulkLoadOptions options;
        options.jobs = jobs;
        options.validate = true;
        options.on_error = loader::FailurePolicy::kSkip;
        loader::LoadReport report = bm.load_texts(corpus.texts, options);
        EXPECT_EQ(report.attempted, 5u) << "jobs " << jobs;
        EXPECT_EQ(report.loaded, 2u);
        EXPECT_EQ(report.failed, 3u);
        EXPECT_EQ(report.quarantined, 0u);
        ASSERT_EQ(report.outcomes.size(), 5u);
        EXPECT_EQ(report.outcomes[0].doc, 1);
        EXPECT_EQ(report.outcomes[1].error_type, "parse");
        EXPECT_EQ(report.outcomes[2].error_type, "validation");
        EXPECT_EQ(report.outcomes[3].doc, 2);  // dense over the survivors
        EXPECT_EQ(report.outcomes[4].error_type, "validation");
        // Small documents never span a pk chunk, so a single worker gets
        // every reservation back; with several workers a chunk tail that
        // sits below another live reservation becomes a reported gap.
        if (jobs == 1) {
            EXPECT_EQ(report.leaked_pks, 0u);
        }

        test::Stack good(gen::paper_dtd());
        loader::BulkLoader bg(good.logical, good.mapping, good.schema,
                              good.db);
        loader::BulkLoadOptions gopt;
        gopt.jobs = jobs;
        gopt.validate = true;
        loader::LoadReport good_report = bg.load_texts(corpus.good, gopt);
        EXPECT_TRUE(good_report.ok());
        expect_stats_equal(report.stats, good_report.stats);
        expect_equivalent(mixed.db, good.db);
    }
}

TEST(BulkLoader, QuarantinePolicyRecordsRejectedDocuments) {
    MixedCorpus corpus = mixed_corpus();
    test::Stack stack(gen::paper_dtd());
    loader::BulkLoader bl(stack.logical, stack.mapping, stack.schema, stack.db);
    loader::BulkLoadOptions options;
    options.jobs = 4;
    options.validate = true;
    options.on_error = loader::FailurePolicy::kQuarantine;
    loader::LoadReport report = bl.load_texts(corpus.texts, options);
    EXPECT_EQ(report.loaded, 2u);
    EXPECT_EQ(report.quarantined, 3u);

    const rdb::Table* q = stack.db.table(loader::kQuarantineTable);
    ASSERT_NE(q, nullptr);
    ASSERT_EQ(q->row_count(), 3u);
    int idx = q->def().column_index("idx");
    int raw = q->def().column_index("raw_xml");
    EXPECT_EQ(q->row(0)[idx].as_integer(), 1);
    EXPECT_EQ(q->row(0)[raw].to_string(), corpus.texts[1]);
    EXPECT_EQ(q->row(1)[idx].as_integer(), 2);
    EXPECT_EQ(q->row(2)[idx].as_integer(), 4);
}

TEST(BulkLoader, FailFastRestoresPkCountersExactly) {
    // After a failed bulk load, a retry with only the good documents must
    // land in the same state as a never-failed load — in particular the
    // pk counters advanced by worker reservations must have been rewound.
    MixedCorpus corpus = mixed_corpus();
    test::Stack retry(gen::paper_dtd());
    loader::BulkLoader br(retry.logical, retry.mapping, retry.schema,
                          retry.db);
    loader::BulkLoadOptions options;
    options.jobs = 2;
    options.validate = true;
    EXPECT_THROW(br.load_texts(corpus.texts, options), Error);
    // Retry and the reference load run single-worker: with one worker the
    // bulk pipeline is fully deterministic, so byte-identity is the bar.
    loader::BulkLoadOptions serial1 = options;
    serial1.jobs = 1;
    loader::LoadReport after = br.load_texts(corpus.good, serial1);
    EXPECT_TRUE(after.ok());

    test::Stack fresh(gen::paper_dtd());
    loader::BulkLoader bf(fresh.logical, fresh.mapping, fresh.schema,
                          fresh.db);
    bf.load_texts(corpus.good, serial1);
    EXPECT_EQ(test::db_fingerprint(retry.db), test::db_fingerprint(fresh.db));
}

TEST(BulkLoader, AllFailingCorpusIsANoOpUnderSkip) {
    test::Stack stack(gen::paper_dtd());
    loader::BulkLoader bl(stack.logical, stack.mapping, stack.schema, stack.db);
    auto before = test::db_fingerprint(stack.db);
    loader::BulkLoadOptions options;
    options.jobs = 2;
    options.on_error = loader::FailurePolicy::kSkip;
    loader::LoadReport report =
        bl.load_texts({"<a", "<b", "</c>"}, options);
    EXPECT_EQ(report.loaded, 0u);
    EXPECT_EQ(report.failed, 3u);
    EXPECT_EQ(report.leaked_pks, 0u);
    EXPECT_EQ(test::db_fingerprint(stack.db), before);
    EXPECT_EQ(bl.stats().documents, 0u);
}

// -- rdb-level machinery -----------------------------------------------------

rdb::TableDef two_column_def() {
    rdb::TableDef def;
    def.name = "t";
    def.columns.push_back({"pk", rdb::ValueType::kInteger, true, true});
    def.columns.push_back({"v", rdb::ValueType::kText});
    return def;
}

TEST(BulkLoader, InsertBatchAssignsKeysAndMaintainsIndexes) {
    rdb::Table t(two_column_def());
    t.create_index("v", rdb::IndexKind::kHash);

    std::vector<rdb::Row> rows;
    rows.push_back({Value::null(), Value("a")});
    rows.push_back({Value(10), Value("b")});
    rows.push_back({Value::null(), Value("a")});
    EXPECT_EQ(t.insert_batch(std::move(rows)), 3u);
    EXPECT_EQ(t.row_count(), 3u);

    EXPECT_NE(t.find_pk(1), nullptr);
    EXPECT_NE(t.find_pk(10), nullptr);
    // Auto keys continue past explicit ones (batch assigned 1, 10, 11).
    EXPECT_NE(t.find_pk(11), nullptr);
    EXPECT_EQ(t.insert({Value::null(), Value("c")}), 12);
    EXPECT_EQ(t.index_lookup("v", Value("a")).size(), 2u);

    EXPECT_THROW(t.insert_batch({{Value(10), Value("dup")}}), Error);
}

TEST(BulkLoader, DeferredIndexRebuildOnEndBulk) {
    rdb::Table t(two_column_def());
    t.create_index("v", rdb::IndexKind::kHash);
    t.insert({Value::null(), Value("early")});

    t.begin_bulk();
    EXPECT_TRUE(t.in_bulk());
    t.insert({Value::null(), Value("staged")});
    // Secondary index maintenance is deferred while in bulk mode…
    EXPECT_TRUE(t.index_lookup("v", Value("staged")).empty());
    // …but duplicate-pk detection stays live.
    EXPECT_THROW(t.insert({Value(2), Value("dup")}), Error);
    t.end_bulk();

    EXPECT_FALSE(t.in_bulk());
    EXPECT_EQ(t.index_lookup("v", Value("early")).size(), 1u);
    EXPECT_EQ(t.index_lookup("v", Value("staged")).size(), 1u);
}

TEST(BulkLoader, PkRangeReservationIsDisjoint) {
    rdb::Table t(two_column_def());
    std::int64_t a = t.allocate_pk_range(100);
    std::int64_t b = t.allocate_pk_range(100);
    EXPECT_EQ(b, a + 100);
    // A row inserted afterwards lands beyond every reserved key.
    EXPECT_GE(t.insert({Value::null(), Value("x")}), b + 100);
}

}  // namespace
}  // namespace xr
