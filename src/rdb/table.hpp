// MiniRDB tables: row storage, constraints, and indexes.
//
// Row-oriented storage in copy-on-write chunks (DESIGN.md §15).  Each
// table may declare one auto-increment INTEGER primary key; inserts
// validate types, NOT NULL and primary-key uniqueness.  Secondary
// indexes come in two logical flavours — hash (equality lookups, used
// for ID resolution during loading) and ordered (range scans) — that the
// planner costs differently; both, like the primary-key index, are the
// same copy-on-write B+tree (rdb/btree.hpp) keyed by (key, RowId).
//
// MVCC read path: publish() snapshots the table into an immutable
// frozen clone that structurally shares row chunks and index nodes
// with the live table.  The single writer appends rows in place past
// what any published version can see, and copies a chunk (or an index
// node) only the first time it mutates one that a published version
// still references — so a commit costs O(rows it touched), readers of
// any pinned version never see a concurrent mutation, and never take a
// latch.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "rdb/btree.hpp"
#include "rdb/stats.hpp"
#include "rdb/value.hpp"

namespace xr::rdb {

struct ColumnDef {
    std::string name;
    ValueType type = ValueType::kText;
    bool not_null = false;
    bool primary_key = false;  ///< at most one; INTEGER, auto-increment
};

struct TableDef {
    std::string name;
    std::vector<ColumnDef> columns;

    [[nodiscard]] int column_index(std::string_view name) const;
    [[nodiscard]] const ColumnDef* column(std::string_view name) const;
};

using Row = std::vector<Value>;
using RowId = std::uint32_t;

enum class IndexKind { kHash, kOrdered };

class Table;
struct IntegrityReport;

/// Observer of durable table mutations, implemented by the write-ahead
/// log and attached by Database when a data directory is open.  Hooks run
/// *after* the in-memory mutation succeeded (redo logging): a logged
/// record that never commits is discarded by recovery, and an in-memory
/// mutation whose logging throws is undone by the enclosing load unit's
/// rollback.  Calls follow the same single-threaded contract as the
/// mutations themselves.
class MutationLog {
public:
    virtual ~MutationLog() = default;
    virtual void log_insert(const Table& table, const Row& row) = 0;
    virtual void log_update(const Table& table, RowId row, int column,
                            const Value& value) = 0;
    virtual void log_delete_where(const Table& table, int column,
                                  const Value& value) = 0;
    virtual void log_create_index(const Table& table, std::string_view column,
                                  IndexKind kind) = 0;
};

/// Chunked row storage with per-chunk copy-on-write (DESIGN.md §15).
///
/// Rows live in fixed-capacity chunks behind shared_ptrs.  publish()
/// records, per chunk, how many of its rows published versions can see
/// and returns a structurally sharing copy for a frozen table version —
/// O(#chunks), no row copies.  A reader only ever indexes below its own
/// size, and a chunk's row array is allocated at full capacity up
/// front, so the writer appends in place into the shared tail chunk
/// without moving anything a reader can reach.  The writer clones a
/// chunk only to mutate (or truncate) a row below that chunk's visible
/// count.  Visible counts are writer-private state: no refcount
/// inspection, no atomics, deterministic under TSan.
class RowStore {
public:
    static constexpr std::size_t kChunkShift = 10;
    static constexpr std::size_t kChunkRows = std::size_t{1} << kChunkShift;
    static constexpr std::size_t kChunkMask = kChunkRows - 1;

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    /// Row slots allocated (whole chunks).
    [[nodiscard]] std::size_t capacity() const {
        return slots_.size() * kChunkRows;
    }
    [[nodiscard]] const Row& operator[](std::size_t i) const {
        return slots_[i >> kChunkShift].chunk->rows[i & kChunkMask];
    }
    /// Mutable access for the writer; copies the containing chunk first
    /// when a published version can see row `i`.
    [[nodiscard]] Row& mut(std::size_t i) {
        Slot& s = slots_[i >> kChunkShift];
        if ((i & kChunkMask) < s.visible) own(s, fill(i >> kChunkShift));
        return s.chunk->rows[i & kChunkMask];
    }

    /// Append in place: the new row lands past every published version's
    /// size, so even a shared tail chunk is written without a copy.
    void push_back(Row&& row) {
        if ((size_ & kChunkMask) == 0)
            slots_.push_back(Slot{std::make_shared<Chunk>(), 0});
        slots_.back().chunk->rows[size_ & kChunkMask] = std::move(row);
        ++size_;
    }
    /// Truncate to `n` rows (unit rollback); whole chunks past the cut
    /// are dropped, a tail chunk whose visible rows would be cut is
    /// cloned up to the cut.
    void truncate(std::size_t n);
    void clear() {
        slots_.clear();
        size_ = 0;
    }
    void reserve(std::size_t additional) {
        slots_.reserve((size_ + additional + kChunkRows - 1) >> kChunkShift);
    }

    /// Mark every row visible and return a structurally sharing copy for
    /// a frozen version.  Writer-side only.
    [[nodiscard]] RowStore publish();

    /// Chunks cloned by copy-on-write since construction (MVCC metric).
    [[nodiscard]] std::uint64_t chunks_cowed() const { return chunks_cowed_; }

private:
    struct Chunk {
        std::array<Row, kChunkRows> rows;  ///< fixed capacity, never reallocated
    };
    struct Slot {
        std::shared_ptr<Chunk> chunk;
        /// Writer-private: rows [0, visible) of the chunk may be read by
        /// a published version and must not change in place.
        std::uint32_t visible = 0;
    };

    /// Rows the writer has stored in chunk `c`.
    [[nodiscard]] std::size_t fill(std::size_t c) const {
        return c + 1 < slots_.size() ? kChunkRows
                                     : size_ - (c << kChunkShift);
    }
    /// Replace a shared chunk with a private copy of its first `keep` rows.
    void own(Slot& s, std::size_t keep);

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::uint64_t chunks_cowed_ = 0;
};

class Table {
public:
    explicit Table(TableDef def);

    [[nodiscard]] const TableDef& def() const { return *def_; }
    [[nodiscard]] const std::string& name() const { return def_->name; }
    [[nodiscard]] std::size_t row_count() const { return store_.size(); }
    [[nodiscard]] std::size_t column_count() const { return def_->columns.size(); }

    /// Insert a row (one value per column, in declared order).  A NULL in
    /// the auto-increment primary-key column is assigned the next key.
    /// Returns the primary-key value (or the row index if no PK declared).
    std::int64_t insert(Row row);

    /// Append a whole batch of rows.  The batch's shape is validated once
    /// (arity of the first row); per-row cell validation runs only when
    /// `validate_rows` is set — staging pipelines that built the rows from
    /// a trusted plan skip it.  Rows with a NULL auto-increment primary key
    /// are assigned keys; returns the number of rows appended.
    std::size_t insert_batch(std::vector<Row> rows, bool validate_rows = true);

    /// Reserve the next primary-key value without inserting — bulk loaders
    /// allocate keys up front so child rows can reference a parent row that
    /// is still being assembled.  Thread safe.
    std::int64_t allocate_pk() {
        return next_pk_.fetch_add(1, std::memory_order_relaxed);
    }

    /// Reserve `count` consecutive primary keys and return the first.
    /// Thread safe — parallel shredders reserve disjoint ranges up front
    /// and hand keys out locally without touching shared state again.
    std::int64_t allocate_pk_range(std::int64_t count) {
        return next_pk_.fetch_add(count, std::memory_order_relaxed);
    }

    /// Return the unused tail [first, end) of a reserved range.  Succeeds
    /// only when no later reservation happened (the counter still sits at
    /// `end`); callers count a failed return as leaked key space.
    bool try_release_pk_range(std::int64_t first, std::int64_t end) {
        std::int64_t expected = end;
        return first < end &&
               next_pk_.compare_exchange_strong(expected, first,
                                                std::memory_order_relaxed);
    }

    /// Pre-size row storage for `additional` upcoming inserts.
    void reserve_rows(std::size_t additional) { store_.reserve(additional); }

    // -- bulk (deferred-index) mode ------------------------------------------
    /// Between begin_bulk() and end_bulk(), inserts skip secondary-index
    /// maintenance; end_bulk() rebuilds every index in one pass.  The
    /// primary-key index stays live so duplicate keys are still rejected.
    /// end_bulk() keeps the bulk flag set until the rebuild succeeds, so
    /// an interrupted rebuild is recoverable via rollback_unit().
    void begin_bulk() { bulk_ = true; }
    void end_bulk();
    [[nodiscard]] bool in_bulk() const { return bulk_; }

    // -- atomic load units (savepoint / undo) --------------------------------
    /// begin_unit() records a watermark — row count, pk counter, undo-log
    /// position; rollback_unit() truncates back to it: cell updates made
    /// since are undone (update() logs old values while a unit is open),
    /// appended rows are removed from storage and every index — entry by
    /// entry, O(rows the unit touched) — and the pk counter is restored.  Units nest (a per-document unit inside a
    /// per-corpus unit); commit_unit() folds the frame into its parent.
    ///
    /// Thread-safety contract: begin/commit/rollback and any logged
    /// mutation are single-threaded operations.  Concurrent workers may
    /// only touch allocate_pk_range() while a unit is open, and must be
    /// joined before rollback_unit() restores the counter (which is how
    /// the bulk loader reclaims reserved ranges of a failed load).
    void begin_unit();
    void commit_unit();
    void rollback_unit();
    [[nodiscard]] bool in_unit() const { return !units_.empty(); }

    /// Drop and repopulate every secondary index from current row storage.
    void rebuild_indexes();

    [[nodiscard]] const Row& row(RowId id) const { return store_[id]; }

    /// Value of the named column in row `id`.
    [[nodiscard]] const Value& at(RowId id, std::string_view column) const;

    /// Row with the given primary-key value, or nullptr.
    [[nodiscard]] const Row* find_pk(std::int64_t pk) const;
    [[nodiscard]] std::optional<RowId> find_pk_rowid(std::int64_t pk) const;

    /// In-place update of one cell (keeps indexes consistent).
    void update(RowId id, std::string_view column, Value value);

    /// Delete every row whose `column` equals `value`; returns the number
    /// removed.  Row ids are compacted (all indexes rebuilt), so previously
    /// held RowIds are invalidated — primary keys remain stable handles.
    /// Refused while a load unit is open (compaction would invalidate the
    /// unit's watermarks).
    std::size_t delete_where(std::string_view column, const Value& value);

    // -- secondary indexes ----------------------------------------------------
    void create_index(std::string_view column, IndexKind kind = IndexKind::kHash);
    [[nodiscard]] bool has_index(std::string_view column) const;

    /// Declared secondary indexes, in creation order — the snapshot writer
    /// persists these so a recovered table has identical access paths.
    struct IndexDef {
        std::string column;
        IndexKind kind = IndexKind::kHash;
    };
    [[nodiscard]] std::vector<IndexDef> index_defs() const {
        std::vector<IndexDef> defs;
        defs.reserve(indexes_.size());
        for (const SecondaryIndex& idx : indexes_)
            defs.push_back({def_->columns[idx.column].name, idx.kind});
        return defs;
    }
    /// Matching row ids via index, ascending; throws SchemaError if not
    /// indexed.
    [[nodiscard]] std::vector<RowId> index_lookup(std::string_view column,
                                                  const Value& value) const;
    /// True when `column` carries an *ordered* secondary index (range scans).
    [[nodiscard]] bool has_ordered_index(std::string_view column) const;
    /// Row ids whose `column` value lies in the given range, found by
    /// binary search on the ordered index.  A null bound pointer leaves
    /// that side unbounded; `*_strict` selects < / > over <= / >=.  Throws
    /// SchemaError when the column has no ordered index.
    [[nodiscard]] std::vector<RowId> index_range_lookup(
        std::string_view column, const Value* lo, bool lo_strict,
        const Value* hi, bool hi_strict) const;
    /// Matching row ids using the index when present, else a scan.
    [[nodiscard]] std::vector<RowId> lookup(std::string_view column,
                                            const Value& value) const;

    /// Attach (or detach, with nullptr) the mutation observer.  Owned by
    /// Database; plain Tables stay log-free.
    void set_mutation_log(MutationLog* log) { log_ = log; }

    /// Restore the pk counter from a snapshot.  Recovery only: the saved
    /// counter may sit above max(pk)+1 when ranges leaked before the
    /// snapshot, and re-creating those gaps keeps key allocation
    /// bit-identical across a restart.
    void restore_next_pk(std::int64_t next) {
        next_pk_.store(next, std::memory_order_relaxed);
        dirty_ = true;
    }
    [[nodiscard]] std::int64_t peek_next_pk() const {
        return next_pk_.load(std::memory_order_relaxed);
    }

    // -- MVCC versioning (DESIGN.md §15) --------------------------------------
    /// Snapshot this table into an immutable frozen clone sharing its
    /// definition, row chunks and index nodes (O(#chunks + #indexes), no
    /// row or index copies).  While the table is unchanged since the last publish the
    /// cached clone is returned, so an idle table costs one shared_ptr
    /// copy per database publication.  Writer-side only (the caller
    /// holds writer exclusivity); subsequent writer mutations trigger
    /// copy-on-write and never disturb the clone.
    [[nodiscard]] std::shared_ptr<const Table> publish();

    /// True when a mutation since the last publish() means the next
    /// publication must cut a fresh frozen clone.
    [[nodiscard]] bool version_dirty() const { return dirty_; }

    /// Index B+tree nodes (primary key and secondary) cloned by
    /// copy-on-write since construction.
    [[nodiscard]] std::uint64_t indexes_cowed() const;
    /// Levels of the deepest index B+tree: the most nodes one index
    /// write after a publish can copy.
    [[nodiscard]] std::size_t index_depth() const;
    /// Row chunks cloned by copy-on-write since construction.
    [[nodiscard]] std::uint64_t chunks_cowed() const {
        return store_.chunks_cowed();
    }

    // -- statistics (DESIGN.md §13) -------------------------------------------
    /// Current statistics; may cover fewer rows than row_count() between
    /// folds.  Reading is safe wherever reading rows is (the planner reads
    /// a frozen version's copy; folds happen under writer exclusivity).
    [[nodiscard]] const TableStats& stats() const { return stats_; }
    /// Fold rows appended since the last fold into the statistics; a
    /// stale table (compaction since the last fold) rebuilds from row
    /// zero.  Called by Database::commit_unit() at the outermost commit.
    void refresh_stats();
    /// Full rebuild from current storage (ANALYZE).
    void rebuild_stats();
    /// Advance the per-table epoch watermark when the covered row count
    /// grew materially (~2x) since the last bump; Database aggregates the
    /// answer into its statistics epoch.
    [[nodiscard]] bool note_material_growth();

    // -- integrity (DESIGN.md §14) --------------------------------------------
    /// Append this table's integrity findings to `report`: row arity and
    /// cell types against the schema, NOT NULL, pk uniqueness and
    /// pk-index agreement, pk-counter monotonicity, and for every
    /// secondary index entry-count, key↔row agreement, in-range row ids
    /// and (ordered indexes) sortedness.  Read-only; index checks are
    /// skipped (with a warning) while bulk mode has them deferred.
    void verify_into(IntegrityReport& report) const;

    /// Rough memory footprint in bytes (bench metric).
    [[nodiscard]] std::size_t memory_bytes() const;

    /// Fraction of non-PK cells that are NULL (schema-comparison metric).
    [[nodiscard]] double null_fraction() const;

private:
    /// Primary-key index entries: pks are unique, so the key alone
    /// orders them.
    struct PkEntry {
        std::int64_t key = 0;
        RowId row = 0;
    };
    struct PkOrder {
        static int cmp(const PkEntry& a, const PkEntry& b) {
            return a.key < b.key ? -1 : (a.key > b.key ? 1 : 0);
        }
    };
    /// Secondary index entries, ordered by (key, row id): equal keys come
    /// back in row order.
    struct IndexEntry {
        Value key;
        RowId row = 0;
    };
    struct IndexOrder {
        static int cmp(const IndexEntry& a, const IndexEntry& b) {
            auto ord = a.key.index_order(b.key);
            if (ord != 0) return ord < 0 ? -1 : 1;
            return a.row < b.row ? -1 : (a.row > b.row ? 1 : 0);
        }
    };
    using PkTree = CowBTree<PkEntry, PkOrder>;
    using IndexTree = CowBTree<IndexEntry, IndexOrder>;

    struct SecondaryIndex {
        int column = -1;
        IndexKind kind = IndexKind::kHash;  ///< logical: planner costs, WAL, snapshots
        IndexTree tree;
    };

    /// Frozen-clone constructor backing publish(): shares the definition,
    /// chunks and index nodes, snapshots scalar state, drops the
    /// mutation log.
    struct FrozenTag {};
    Table(FrozenTag, Table& live);

    std::shared_ptr<const TableDef> def_;
    int pk_column_ = -1;
    std::atomic<std::int64_t> next_pk_{1};
    MutationLog* log_ = nullptr;
    bool bulk_ = false;
    bool frozen_ = false;  ///< immutable published clone (never mutated)
    bool dirty_ = true;    ///< mutated since last publish()
    RowStore store_;
    PkTree pk_index_;
    std::vector<SecondaryIndex> indexes_;
    std::shared_ptr<const Table> last_published_;  ///< reused while !dirty_

    /// Savepoint frame: state to restore on rollback_unit().
    struct UnitFrame {
        std::size_t rows = 0;
        std::int64_t next_pk = 0;
        std::size_t undo_size = 0;
    };
    std::vector<UnitFrame> units_;
    struct UndoCell {
        RowId row = 0;
        int column = -1;
        Value old_value;
    };
    std::vector<UndoCell> undo_;  ///< update() log, shared by nested frames
    TableStats stats_;

    void validate(const Row& row) const;
    void index_row(RowId id);
    /// (cell, row id) entries of `column` over every row, sorted — the
    /// one run an index is bulk-built from.
    [[nodiscard]] std::vector<IndexEntry> sorted_run(int column) const;
    /// Cursor at the first entry of `idx` whose key is not before `key`
    /// (`strict`: not at or before it).
    [[nodiscard]] static IndexTree::Cursor seek_key(const SecondaryIndex& idx,
                                                    const Value& key,
                                                    bool strict);
    std::int64_t do_insert(Row&& row, bool validate_row);
    void bump_next_pk(std::int64_t pk);
};

}  // namespace xr::rdb
