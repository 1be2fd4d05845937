// O(delta) copy-on-write (ctest label `mvcc`, DESIGN.md §15).
//
// The index B+tree against a std::set oracle (random inserts, erases,
// bulk builds, with published versions that must never change), the
// copy counts of a one-row commit on small and large tables — read from
// MvccStats, so they pin the cost down by counting, not by timing — and
// snapshot isolation of pk, hash-equality and ordered-range lookups on a
// version pinned before each kind of writer operation.
//
// Replayable: XMLREL_FUZZ_SEED overrides the oracle test's seed.
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "rdb/btree.hpp"
#include "rdb/database.hpp"

namespace xr {
namespace {

// -- the B+tree against an ordered-set oracle --------------------------------

struct Entry {
    int key = 0;
    std::uint32_t row = 0;
};
struct EntryOrder {
    static int cmp(const Entry& a, const Entry& b) {
        if (a.key != b.key) return a.key < b.key ? -1 : 1;
        return a.row < b.row ? -1 : (a.row > b.row ? 1 : 0);
    }
};
using Tree = rdb::CowBTree<Entry, EntryOrder>;
using Oracle = std::set<std::pair<int, std::uint32_t>>;

Oracle contents(const Tree& t) {
    Oracle out;
    std::pair<int, std::uint32_t> prev{};
    bool first = true;
    for (auto c = t.begin(); c.valid(); c.next()) {
        std::pair<int, std::uint32_t> e{c->key, c->row};
        EXPECT_TRUE(first || prev < e) << "cursor out of order";
        prev = e;
        first = false;
        out.insert(e);
    }
    EXPECT_EQ(out.size(), t.size());
    return out;
}

/// Rows whose key is `key`, through a key-only seek.
std::vector<std::uint32_t> equal_rows(const Tree& t, int key) {
    std::vector<std::uint32_t> rows;
    for (auto c = t.seek([key](const Entry& e) { return e.key < key; });
         c.valid() && c->key == key; c.next())
        rows.push_back(c->row);
    return rows;
}

std::vector<std::uint32_t> equal_rows(const Oracle& o, int key) {
    std::vector<std::uint32_t> rows;
    for (auto it = o.lower_bound({key, 0}); it != o.end() && it->first == key;
         ++it)
        rows.push_back(it->second);
    return rows;
}

TEST(CowBTree, MatchesOracleAndPublishedVersionsNeverChange) {
    const char* env = std::getenv("XMLREL_FUZZ_SEED");
    const std::uint64_t seed =
        env != nullptr && *env != '\0' ? std::strtoull(env, nullptr, 10)
                                       : 20261019;
    std::mt19937_64 rng(seed);
    Tree tree;
    Oracle oracle;
    std::vector<std::pair<Tree, Oracle>> published;
    std::uint32_t next_row = 0;

    for (int round = 0; round < 40; ++round) {
        // Mostly appends with monotone keys (the pk / Dietz-pre shape),
        // some random keys (hash-indexed text), some erases.
        for (int op = 0; op < 300; ++op) {
            auto roll = rng() % 10;
            if (roll < 5) {
                Entry e{static_cast<int>(next_row / 3), next_row};
                ++next_row;
                EXPECT_TRUE(tree.insert(e));
                oracle.insert({e.key, e.row});
            } else if (roll < 8) {
                Entry e{static_cast<int>(rng() % 500), next_row++};
                EXPECT_TRUE(tree.insert(e));
                oracle.insert({e.key, e.row});
            } else if (!oracle.empty()) {
                auto it = oracle.begin();
                std::advance(it, static_cast<long>(rng() % oracle.size()));
                EXPECT_TRUE(tree.erase(Entry{it->first, it->second}));
                oracle.erase(it);
            }
        }
        // Duplicates and absent entries are refused without effect.
        if (!oracle.empty()) {
            auto [k, r] = *oracle.begin();
            EXPECT_FALSE(tree.insert(Entry{k, r}));
        }
        EXPECT_FALSE(tree.erase(Entry{-1, 0}));
        if (round % 10 == 9) {
            // Bulk build from the sorted run must equal the incremental tree.
            std::vector<Entry> run;
            for (auto [k, r] : oracle) run.push_back({k, r});
            Tree rebuilt;
            rebuilt.assign_sorted(std::move(run));
            EXPECT_EQ(contents(rebuilt), oracle);
            tree = std::move(rebuilt);
        }
        ASSERT_EQ(contents(tree), oracle) << "seed " << seed << " round " << round;
        for (int key : {0, 7, 123, 499, static_cast<int>(next_row / 3)})
            EXPECT_EQ(equal_rows(tree, key), equal_rows(oracle, key));
        published.emplace_back(tree.publish(), oracle);
    }
    // Every published version still holds exactly what it held.
    for (const auto& [version, expect] : published)
        EXPECT_EQ(contents(version), expect);

    // Erase everything: the tree collapses back to empty.
    for (auto [k, r] : Oracle(oracle)) EXPECT_TRUE(tree.erase(Entry{k, r}));
    EXPECT_TRUE(tree.empty());
    EXPECT_EQ(tree.depth(), 0u);
    EXPECT_FALSE(tree.begin().valid());
    EXPECT_EQ(contents(published.back().first), published.back().second);
}

TEST(CowBTree, WriteAfterPublishCopiesOnePath) {
    Tree tree;
    for (std::uint32_t i = 0; i < 50000; ++i)
        tree.insert(Entry{static_cast<int>(i), i});
    ASSERT_EQ(tree.depth(), 3u);
    Tree frozen = tree.publish();
    std::uint64_t before = tree.nodes_cowed();
    tree.insert(Entry{50000, 50000});
    EXPECT_EQ(tree.nodes_cowed() - before, tree.depth());
    // Further writes to the same path copy nothing until the next publish.
    tree.insert(Entry{50001, 50001});
    EXPECT_EQ(tree.nodes_cowed() - before, tree.depth());
    // A write elsewhere copies only the part of its path not yet owned.
    tree.insert(Entry{-1, 50002});
    EXPECT_LE(tree.nodes_cowed() - before, 2 * tree.depth());
    EXPECT_EQ(frozen.size(), 50000u);
    EXPECT_EQ(tree.size(), 50003u);
}

// -- tables: copy counts and snapshot isolation -------------------------------

/// One table `t` with an auto-increment pk, a hash index on `h` and an
/// ordered index on `o`, filled with `rows` rows in one committed unit.
rdb::Table& make_table(rdb::Database& db, std::int64_t rows) {
    rdb::TableDef def;
    def.name = "t";
    def.columns = {{"id", rdb::ValueType::kInteger, true, true},
                   {"h", rdb::ValueType::kText, false, false},
                   {"o", rdb::ValueType::kInteger, false, false}};
    rdb::Table& t = db.create_table(std::move(def));
    t.create_index("h", rdb::IndexKind::kHash);
    t.create_index("o", rdb::IndexKind::kOrdered);
    db.begin_unit();
    for (std::int64_t i = 0; i < rows; ++i)
        t.insert({rdb::Value::null(), rdb::Value("k" + std::to_string(i % 97)),
                  rdb::Value(i)});
    db.commit_unit();
    return t;
}

struct Copies {
    std::uint64_t chunks = 0;
    std::uint64_t nodes = 0;
};

/// Copy-on-write caused by inserting and publishing one row.
Copies one_row_commit(rdb::Database& db, rdb::Table& t) {
    rdb::MvccStats before = db.mvcc_stats();
    db.begin_unit();
    auto n = static_cast<std::int64_t>(t.row_count());
    t.insert({rdb::Value::null(), rdb::Value("k" + std::to_string(n % 97)),
              rdb::Value(n)});
    db.commit_unit();
    rdb::MvccStats after = db.mvcc_stats();
    return {after.chunks_cowed - before.chunks_cowed,
            after.indexes_cowed - before.indexes_cowed};
}

TEST(CowTable, OneRowCommitCopiesByCountNotBySize) {
    constexpr std::uint64_t kIndexes = 3;  // pk, h (hash), o (ordered)
    rdb::Database small_db;
    rdb::Table& small = make_table(small_db, 1000);
    rdb::Database large_db;
    rdb::Table& large = make_table(large_db, 64000);

    for (int rep = 0; rep < 3; ++rep) {
        Copies s = one_row_commit(small_db, small);
        Copies l = one_row_commit(large_db, large);
        // The row lands in place in the shared tail chunk at every size.
        EXPECT_EQ(s.chunks, 0u);
        EXPECT_EQ(l.chunks, s.chunks);
        // One root-to-leaf path per index: bounded by the tree depth, not
        // by the row count — 64x the rows adds at most one level.
        EXPECT_GT(s.nodes, 0u);
        EXPECT_LE(s.nodes, small.index_depth() * kIndexes);
        EXPECT_LE(l.nodes, large.index_depth() * kIndexes);
        EXPECT_LE(large.index_depth(), small.index_depth() + 1);
        EXPECT_LE(l.nodes, s.nodes + kIndexes);
    }
}

/// What a reader of one table version gets back from every index.
struct Answers {
    std::vector<std::optional<rdb::RowId>> pk;
    std::vector<std::vector<rdb::RowId>> eq;
    std::vector<std::vector<rdb::RowId>> range;
    std::vector<std::string> cells;
    bool operator==(const Answers&) const = default;
};

Answers ask(const rdb::Table& t) {
    Answers a;
    for (std::int64_t pk = 0; pk < 1300; pk += 7) a.pk.push_back(t.find_pk_rowid(pk));
    for (int k = 0; k < 97; k += 3)
        a.eq.push_back(t.index_lookup("h", rdb::Value("k" + std::to_string(k))));
    a.eq.push_back(t.index_lookup("h", rdb::Value("changed")));
    for (std::int64_t lo = -5; lo < 1300; lo += 97) {
        rdb::Value l(lo), h(lo + 40);
        a.range.push_back(t.index_range_lookup("o", &l, false, &h, true));
    }
    for (rdb::RowId id = 0; id < t.row_count(); ++id)
        for (const rdb::Value& v : t.row(id)) a.cells.push_back(v.to_string());
    return a;
}

/// The same answers computed by scanning rows — the index oracle.
Answers scan(const rdb::Table& t) {
    Answers a;
    auto rows_where = [&](auto pred) {
        std::vector<rdb::RowId> out;
        for (rdb::RowId id = 0; id < t.row_count(); ++id)
            if (pred(t.row(id))) out.push_back(id);
        return out;
    };
    for (std::int64_t pk = 0; pk < 1300; pk += 7) {
        auto ids = rows_where([&](const rdb::Row& r) { return r[0] == rdb::Value(pk); });
        a.pk.push_back(ids.empty() ? std::nullopt : std::optional(ids.front()));
    }
    for (int k = 0; k < 97; k += 3) {
        rdb::Value key("k" + std::to_string(k));
        a.eq.push_back(rows_where([&](const rdb::Row& r) { return r[1] == key; }));
    }
    a.eq.push_back(rows_where([](const rdb::Row& r) { return r[1] == rdb::Value("changed"); }));
    for (std::int64_t lo = -5; lo < 1300; lo += 97)
        a.range.push_back(rows_where([&](const rdb::Row& r) {
            return !r[2].is_null() && r[2].as_integer() >= lo &&
                   r[2].as_integer() < lo + 40;
        }));
    for (rdb::RowId id = 0; id < t.row_count(); ++id)
        for (const rdb::Value& v : t.row(id)) a.cells.push_back(v.to_string());
    return a;
}

TEST(CowTable, PinnedVersionKeepsItsAnswersAcrossWriterOperations) {
    rdb::Database db;
    rdb::Table& t = make_table(db, 1100);  // two chunks, a shared tail
    std::uint64_t chunks_at_start = db.mvcc_stats().chunks_cowed;

    // Pin, run one writer operation, and check that the pinned version
    // answers exactly as before while the live indexes match a scan.
    auto step = [&](const char* what, auto&& op) {
        SCOPED_TRACE(what);
        rdb::ReadSnapshot pin = db.read_snapshot();
        const rdb::Table& old = pin.version().require("t");
        Answers before = ask(old);
        EXPECT_EQ(before, scan(old));
        op();
        EXPECT_EQ(ask(old), before);
        EXPECT_EQ(ask(t), scan(t));
        EXPECT_TRUE(db.verify().clean()) << db.verify().to_string();
        rdb::ReadSnapshot now = db.read_snapshot();
        EXPECT_EQ(ask(now.version().require("t")), ask(t));
        return before;
    };

    step("insert", [&] {
        db.begin_unit();
        for (int i = 0; i < 5; ++i)
            t.insert({rdb::Value::null(), rdb::Value("k1"), rdb::Value(1200 + i)});
        db.commit_unit();
    });
    EXPECT_EQ(db.mvcc_stats().chunks_cowed, chunks_at_start);  // in place

    step("update below the visible count", [&] {
        db.begin_unit();
        t.update(3, "h", rdb::Value("changed"));
        t.update(1050, "o", rdb::Value(std::int64_t{-3}));
        db.commit_unit();
    });
    EXPECT_GT(db.mvcc_stats().chunks_cowed, chunks_at_start);

    Answers kept = step("rollback_unit", [&] {
        db.begin_unit();
        for (int i = 0; i < 300; ++i)
            t.insert({rdb::Value::null(), rdb::Value("k2"), rdb::Value(i)});
        t.update(10, "h", rdb::Value("changed"));
        t.update(1101, "o", rdb::Value(std::int64_t{7}));  // an appended row
        t.update(10, "o", rdb::Value(std::int64_t{5000}));
        db.rollback_unit();
    });
    EXPECT_EQ(ask(t), kept);  // the rollback restored every index exactly

    step("delete_where", [&] {
        EXPECT_GT(t.delete_where("h", rdb::Value("k5")), 0u);
        db.begin_unit();  // publish the compaction
        db.commit_unit();
    });

    step("end_bulk", [&] {
        db.begin_unit();
        db.begin_bulk();
        std::vector<rdb::Row> batch;
        for (int i = 0; i < 700; ++i)
            batch.push_back({rdb::Value::null(),
                             rdb::Value("k" + std::to_string(i % 97)),
                             rdb::Value(i * 2)});
        t.insert_batch(std::move(batch));
        t.update(2, "h", rdb::Value("changed"));
        db.end_bulk();
        db.commit_unit();
    });

    step("rollback of a bulk unit", [&] {
        db.begin_unit();
        db.begin_bulk();
        t.insert_batch({{rdb::Value::null(), rdb::Value("k3"), rdb::Value(1)}});
        db.rollback_unit();
    });
}

}  // namespace
}  // namespace xr
