// MVCC snapshot-isolation harness (ctest label `mvcc`, DESIGN.md §15).
//
// The history checker: one writer thread runs a seeded script of
// committed load units, rolled-back units, checkpoints, DDL and
// analyze() against the versioned database, recording a fingerprint
// oracle — watermark → full-content fingerprint — at every publication
// point.  Reader threads concurrently pin snapshots and fingerprint
// whatever they see.  Afterwards the oracle asserts that every read
// maps to exactly one committed epoch (no torn or partially-committed
// state is ever observable), that each reader's snapshots are monotone
// in watermark (no time travel), and that a pinned epoch is internally
// stable (two walks agree even while the writer keeps committing).
//
// Replayable: the base seed prints at the start of the run; override
// with XMLREL_FUZZ_SEED to reproduce a failure.
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gen/corpora.hpp"
#include "helpers.hpp"
#include "rdb/integrity.hpp"
#include "rdb/snapshot.hpp"
#include "sql/executor.hpp"

namespace xr {
namespace {

using test::DurableStack;
using test::Stack;
using test::TempDir;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
    const char* v = std::getenv(name);
    if (v == nullptr || *v == '\0') return fallback;
    return std::strtoull(v, nullptr, 10);
}

/// Order-deterministic FNV-1a over every table name, schema arity and
/// cell of the view — the "what would a reader see" content hash the
/// oracle compares.  Walks rows through the pinned version only.
std::uint64_t fingerprint(const rdb::ReadView& view) {
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const std::string& s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ull;
        }
        h ^= 0xff;
        h *= 1099511628211ull;
    };
    for (const auto& name : view.table_names()) {
        mix(name);
        const rdb::Table& t = view.require(name);
        mix(std::to_string(t.column_count()));
        for (rdb::RowId id = 0; id < t.row_count(); ++id)
            for (const auto& v : t.row(id)) mix(v.to_string());
    }
    return h;
}

/// One (watermark, fingerprint) observation by a reader.
struct Observation {
    std::uint64_t watermark = 0;
    std::uint64_t fp = 0;
};

/// The committed-epoch oracle: filled by the writer thread only, read
/// after all threads join.  The mutex covers the (rare) record() calls
/// racing nothing — readers never touch it.
class Oracle {
public:
    void record(const rdb::Database& db) {
        rdb::ReadSnapshot snap = db.read_snapshot();
        std::lock_guard<std::mutex> lock(mu_);
        committed_[snap.watermark()] = fingerprint(snap.view());
    }

    /// Every observation must match exactly the committed fingerprint
    /// of its watermark — a miss means a reader saw a state that never
    /// existed as a published epoch.
    void check(const std::vector<std::vector<Observation>>& per_reader) const {
        for (std::size_t r = 0; r < per_reader.size(); ++r) {
            std::uint64_t prev_wm = 0;
            for (const Observation& o : per_reader[r]) {
                auto it = committed_.find(o.watermark);
                ASSERT_NE(it, committed_.end())
                    << "reader " << r << " pinned watermark " << o.watermark
                    << " which was never published";
                EXPECT_EQ(o.fp, it->second)
                    << "reader " << r << " at watermark " << o.watermark
                    << " saw content that matches no committed epoch";
                EXPECT_GE(o.watermark, prev_wm)
                    << "reader " << r << " travelled backwards";
                prev_wm = o.watermark;
            }
        }
    }

    [[nodiscard]] std::size_t epochs() const { return committed_.size(); }

private:
    mutable std::mutex mu_;
    std::map<std::uint64_t, std::uint64_t> committed_;
};

/// Reader loop: pin, fingerprint twice (intra-snapshot stability), and
/// cross-check a SQL count executed on the same pinned view against the
/// version's own row count — the executor and the raw walk must agree
/// on one epoch even while the writer publishes new ones.
void reader_loop(const rdb::Database& db, int iters,
                 std::vector<Observation>& out) {
    for (int i = 0; i < iters; ++i) {
        rdb::ReadSnapshot snap = db.read_snapshot();
        std::uint64_t fp = fingerprint(snap.view());
        EXPECT_EQ(fp, fingerprint(snap.view()))
            << "pinned epoch changed under a reader";
        const rdb::Table* articles = snap.view().table("article");
        if (articles != nullptr) {
            sql::ResultSet rs = sql::execute_read(
                snap.view(), "SELECT COUNT(*) FROM article");
            EXPECT_EQ(rs.scalar().as_integer(),
                      static_cast<std::int64_t>(articles->row_count()));
        }
        out.push_back({snap.watermark(), fp});
    }
}

/// The seeded writer script: a mix of committed load units, rolled-back
/// units, depth-0 DDL, unit-wrapped side-table writes (an in-place update
/// of a published row plus an insert), analyze() and (when the
/// database is durable) checkpoints.  Commits and DDL publish epochs
/// and record oracle entries; rollbacks, checkpoints and analyze must
/// not change what any epoch contains.
template <typename AnyStack>
void writer_script(AnyStack& stack, Oracle& oracle, std::uint64_t seed,
                   int ops) {
    rdb::Database& db = stack.db;
    std::mt19937_64 rng(seed);
    auto corpus = gen::bibliography_corpus(
        static_cast<std::size_t>(ops), 40, static_cast<unsigned>(seed % 1000));
    bool made_side_table = false;
    for (int i = 0; i < ops; ++i) {
        switch (rng() % 8) {
            case 0: {  // rolled-back unit: invisible to every epoch
                db.begin_unit();
                stack.loader->load(*corpus[static_cast<std::size_t>(i)]);
                db.rollback_unit();
                break;
            }
            case 1:
                if (db.durable()) {
                    (void)db.checkpoint();  // durability, not a new epoch
                    break;
                }
                [[fallthrough]];
            case 2:
                if (!made_side_table) {  // depth-0 DDL publishes
                    rdb::TableDef def;
                    def.name = "mvcc_side";
                    def.columns = {{"id", rdb::ValueType::kInteger, true, true},
                                   {"note", rdb::ValueType::kText, false,
                                    false}};
                    db.create_table(std::move(def));
                    oracle.record(db);
                    made_side_table = true;
                    break;
                }
                [[fallthrough]];
            case 3:
                if (made_side_table) {  // unit-wrapped writes to the side table
                    db.begin_unit();
                    // Rewriting a published row copies its chunk; appends
                    // land in place past what readers can see.
                    rdb::Table& side = db.require("mvcc_side");
                    if (side.row_count() > 0)
                        side.update(static_cast<rdb::RowId>(side.row_count() - 1),
                                    "note", rdb::Value("re" + std::to_string(i)));
                    sql::execute(db, "INSERT INTO mvcc_side (id, note) "
                                     "VALUES (" + std::to_string(1000 + i) +
                                         ", 'op" + std::to_string(i) + "')");
                    db.commit_unit();
                    oracle.record(db);
                    break;
                }
                [[fallthrough]];
            case 4:
                (void)db.analyze();  // stats epoch, not a content epoch
                break;
            default: {  // the common op: one committed document load
                stack.loader->load(*corpus[static_cast<std::size_t>(i)]);
                oracle.record(db);
                break;
            }
        }
    }
}

// The core harness, volatile database: 4 readers fingerprint snapshots
// while the writer runs the full script (loads, rollbacks, DDL, side
// writes, analyze).  Every read must be a committed epoch.
TEST(Mvcc, SnapshotIsolationOracle) {
    const std::uint64_t seed = env_u64("XMLREL_FUZZ_SEED", 20260808);
    std::cout << "[mvcc] base seed " << seed
              << " (override with XMLREL_FUZZ_SEED)\n";
    Stack stack(gen::paper_dtd());
    Oracle oracle;
    oracle.record(stack.db);  // the empty initial epoch is committed too

    constexpr int kReaders = 4;
    constexpr int kReadsEach = 60;
    std::vector<std::vector<Observation>> seen(kReaders);
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r)
        readers.emplace_back(
            [&, r] { reader_loop(stack.db, kReadsEach, seen[r]); });

    writer_script(stack, oracle, seed, /*ops=*/40);
    for (auto& t : readers) t.join();

    oracle.check(seen);
    EXPECT_GT(oracle.epochs(), 10u) << "writer script committed too little";
    for (const auto& reader : seen) EXPECT_EQ(reader.size(), kReadsEach);

    // The script's side-table updates force real copy-on-write: the
    // observability counters must show epochs were cut and retired.
    rdb::MvccStats st = stack.db.mvcc_stats();
    EXPECT_GE(st.versions_published, oracle.epochs() - 1);
    EXPECT_GT(st.tables_republished, 0u);
    EXPECT_GT(st.chunks_cowed, 0u);
}

// Durable variant: the same oracle with checkpoints interleaved.  A
// checkpoint writes the snapshot image but publishes nothing — readers
// racing it must keep mapping onto committed epochs only.
TEST(Mvcc, DurableOracleWithCheckpoints) {
    const std::uint64_t seed = env_u64("XMLREL_FUZZ_SEED", 20260808) + 17;
    TempDir dir;
    DurableStack stack(gen::paper_dtd(), dir.path());
    Oracle oracle;
    oracle.record(stack.db);

    constexpr int kReaders = 3;
    constexpr int kReadsEach = 40;
    std::vector<std::vector<Observation>> seen(kReaders);
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r)
        readers.emplace_back(
            [&, r] { reader_loop(stack.db, kReadsEach, seen[r]); });

    writer_script(stack, oracle, seed, /*ops=*/30);
    for (auto& t : readers) t.join();
    oracle.check(seen);
    EXPECT_GT(oracle.epochs(), 5u);
}

// A pinned epoch outlives arbitrary writer progress: the snapshot taken
// before a load keeps answering with the old content — fingerprint,
// SQL count and full integrity verification all run to completion on
// the retired epoch while the database has long moved on.
TEST(Mvcc, PinnedEpochOutlivesWriter) {
    Stack stack(gen::paper_dtd());
    auto corpus = gen::bibliography_corpus(6, 50, 5);
    stack.loader->load(*corpus[0]);

    rdb::ReadSnapshot pinned = stack.db.read_snapshot();
    std::uint64_t fp_before = fingerprint(pinned.view());
    std::int64_t count_before =
        sql::execute_read(pinned.view(), "SELECT COUNT(*) FROM article")
            .scalar()
            .as_integer();

    for (std::size_t i = 1; i < corpus.size(); ++i)
        stack.loader->load(*corpus[i]);

    // The live database moved on...
    rdb::ReadSnapshot now = stack.db.read_snapshot();
    EXPECT_GT(now.watermark(), pinned.watermark());
    EXPECT_NE(fingerprint(now.view()), fp_before);

    // ...but the pinned epoch did not.
    EXPECT_EQ(fingerprint(pinned.view()), fp_before);
    EXPECT_EQ(sql::execute_read(pinned.view(),
                                "SELECT COUNT(*) FROM article")
                  .scalar()
                  .as_integer(),
              count_before);

    // Integrity verification under the pinned epoch (DESIGN.md §15):
    // needs no latch and must pass on the old state.
    rdb::IntegrityReport report = rdb::verify_database(pinned.view());
    EXPECT_TRUE(report.clean()) << report.to_string();
    EXPECT_GT(report.rows_checked, 0u);
}

// Version GC: epochs retire when the last snapshot pinning them drops.
// Holding snapshots keeps versions live; releasing them and publishing
// once more shrinks the live set back to the current epoch.
TEST(Mvcc, VersionGcRetiresEpochs) {
    Stack stack(gen::paper_dtd());
    auto corpus = gen::bibliography_corpus(5, 40, 3);

    {
        std::vector<rdb::ReadSnapshot> held;
        for (auto& doc : corpus) {
            held.push_back(stack.db.read_snapshot());
            stack.loader->load(*doc);
        }
        rdb::MvccStats st = stack.db.mvcc_stats();
        EXPECT_GE(st.versions_live, held.size())
            << "held snapshots must keep their epochs alive";
    }

    // Snapshots dropped: one more publication prunes the registry.
    stack.db.begin_unit();
    sql::execute(stack.db, "CREATE TABLE gc_probe (id INTEGER PRIMARY KEY)");
    stack.db.commit_unit();
    rdb::MvccStats st = stack.db.mvcc_stats();
    EXPECT_EQ(st.versions_live, 1u)
        << "only the current epoch should remain pinned: " << st.to_string();
    EXPECT_GT(st.versions_retired, 0u);
}

}  // namespace
}  // namespace xr
