#include "rdb/table.hpp"

#include <algorithm>
#include <limits>

#include "common/fault.hpp"
#include "rdb/integrity.hpp"

namespace xr::rdb {

int TableDef::column_index(std::string_view name) const {
    for (std::size_t i = 0; i < columns.size(); ++i)
        if (columns[i].name == name) return static_cast<int>(i);
    return -1;
}

const ColumnDef* TableDef::column(std::string_view name) const {
    int i = column_index(name);
    return i < 0 ? nullptr : &columns[i];
}

// -- RowStore ----------------------------------------------------------------

void RowStore::own(Slot& s, std::size_t keep) {
    auto copy = std::make_shared<Chunk>();
    std::copy_n(s.chunk->rows.begin(), keep, copy->rows.begin());
    s.chunk = std::move(copy);
    s.visible = 0;
    ++chunks_cowed_;
}

void RowStore::truncate(std::size_t n) {
    if (n >= size_) return;
    if (n == 0) {
        clear();
        return;
    }
    std::size_t last = (n - 1) >> kChunkShift;
    std::size_t keep = n - (last << kChunkShift);
    std::size_t filled = fill(last);
    slots_.resize(last + 1);
    Slot& s = slots_.back();
    if (keep < s.visible) {
        own(s, keep);
    } else {
        // The cut rows are writer-private: release them in place.
        for (std::size_t r = keep; r < filled; ++r) s.chunk->rows[r] = Row();
    }
    size_ = n;
}

RowStore RowStore::publish() {
    RowStore out;
    out.slots_.reserve(slots_.size());
    for (std::size_t c = 0; c < slots_.size(); ++c) {
        slots_[c].visible = static_cast<std::uint32_t>(fill(c));
        out.slots_.push_back(slots_[c]);
    }
    out.size_ = size_;
    return out;
}

// -- Table -------------------------------------------------------------------

Table::Table(TableDef def)
    : def_(std::make_shared<const TableDef>(std::move(def))) {
    for (std::size_t i = 0; i < def_->columns.size(); ++i) {
        if (def_->columns[i].primary_key) {
            if (pk_column_ >= 0)
                throw SchemaError("table '" + def_->name +
                                  "' declares multiple primary keys");
            if (def_->columns[i].type != ValueType::kInteger)
                throw SchemaError("primary key of '" + def_->name +
                                  "' must be INTEGER");
            pk_column_ = static_cast<int>(i);
        }
    }
}

Table::Table(FrozenTag, Table& live) : def_(live.def_) {
    pk_column_ = live.pk_column_;
    next_pk_.store(live.next_pk_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    bulk_ = live.bulk_;
    frozen_ = true;
    dirty_ = false;
    store_ = live.store_.publish();
    pk_index_ = live.pk_index_.publish();
    indexes_.reserve(live.indexes_.size());
    for (SecondaryIndex& idx : live.indexes_)
        indexes_.push_back(
            SecondaryIndex{idx.column, idx.kind, idx.tree.publish()});
    stats_ = live.stats_;
}

std::shared_ptr<const Table> Table::publish() {
    if (!dirty_ && last_published_ != nullptr) return last_published_;
    last_published_ = std::shared_ptr<const Table>(new Table(FrozenTag{}, *this));
    dirty_ = false;
    return last_published_;
}

std::uint64_t Table::indexes_cowed() const {
    std::uint64_t n = pk_index_.nodes_cowed();
    for (const SecondaryIndex& idx : indexes_) n += idx.tree.nodes_cowed();
    return n;
}

std::size_t Table::index_depth() const {
    std::size_t depth = pk_index_.depth();
    for (const SecondaryIndex& idx : indexes_)
        depth = std::max(depth, idx.tree.depth());
    return depth;
}

std::vector<Table::IndexEntry> Table::sorted_run(int column) const {
    std::vector<IndexEntry> run;
    run.reserve(store_.size());
    for (RowId id = 0; id < store_.size(); ++id)
        run.push_back({store_[id][column], id});
    // Rows are visited in id order, so sorting stably by key alone gives
    // (key, row) order; monotone columns (Dietz pre, parent pks) are
    // already sorted.
    auto by_key = [](const IndexEntry& a, const IndexEntry& b) {
        return a.key.index_order(b.key) < 0;
    };
    if (!std::is_sorted(run.begin(), run.end(), by_key))
        std::stable_sort(run.begin(), run.end(), by_key);
    return run;
}

Table::IndexTree::Cursor Table::seek_key(const SecondaryIndex& idx,
                                         const Value& key, bool strict) {
    if (strict)
        return idx.tree.seek(
            [&key](const IndexEntry& e) { return !key.index_less(e.key); });
    return idx.tree.seek(
        [&key](const IndexEntry& e) { return e.key.index_less(key); });
}

void Table::validate(const Row& row) const {
    if (row.size() != def_->columns.size())
        throw SchemaError("row arity " + std::to_string(row.size()) +
                          " does not match table '" + def_->name + "' (" +
                          std::to_string(def_->columns.size()) + " columns)");
    for (std::size_t i = 0; i < row.size(); ++i) {
        const ColumnDef& col = def_->columns[i];
        const Value& v = row[i];
        if (v.is_null()) {
            if (col.not_null && static_cast<int>(i) != pk_column_)
                throw SchemaError("NULL in NOT NULL column '" + col.name +
                                  "' of '" + def_->name + "'");
            continue;
        }
        bool ok = true;
        switch (col.type) {
            case ValueType::kInteger:
                ok = v.type() == ValueType::kInteger;
                break;
            case ValueType::kReal:
                ok = v.type() == ValueType::kReal ||
                     v.type() == ValueType::kInteger;
                break;
            case ValueType::kText:
                ok = v.type() == ValueType::kText;
                break;
            case ValueType::kNull:
                ok = false;
                break;
        }
        if (!ok)
            throw SchemaError("type mismatch in column '" + col.name + "' of '" +
                              def_->name + "': expected " +
                              std::string(to_string(col.type)) + ", got " +
                              std::string(to_string(v.type())));
    }
}

std::int64_t Table::insert(Row row) { return do_insert(std::move(row), true); }

std::size_t Table::insert_batch(std::vector<Row> rows, bool validate_rows) {
    if (rows.empty()) return 0;
    // Batch shape is validated once up front; callers that assembled the
    // rows from a trusted loading plan skip the per-row cell checks.
    validate(rows.front());
    reserve_rows(rows.size());
    for (auto& row : rows) do_insert(std::move(row), validate_rows);
    return rows.size();
}

std::int64_t Table::do_insert(Row&& row, bool validate_row) {
    if (pk_column_ >= 0 && row.size() == def_->columns.size() &&
        row[pk_column_].is_null()) {
        row[pk_column_] = Value(next_pk_.load(std::memory_order_relaxed));
    }
    if (validate_row) {
        validate(row);
    } else if (row.size() != def_->columns.size()) {
        throw SchemaError("row arity " + std::to_string(row.size()) +
                          " does not match table '" + def_->name + "' (" +
                          std::to_string(def_->columns.size()) + " columns)");
    }

    std::int64_t pk = static_cast<std::int64_t>(store_.size());
    if (pk_column_ >= 0) pk = row[pk_column_].as_integer();

    auto id = static_cast<RowId>(store_.size());
    if (pk_column_ >= 0) {
        if (!pk_index_.insert({pk, id}))
            throw SchemaError("duplicate primary key " + std::to_string(pk) +
                              " in '" + def_->name + "'");
        bump_next_pk(pk);
    }
    dirty_ = true;
    store_.push_back(std::move(row));
    if (!bulk_) index_row(id);
    if (log_ != nullptr) log_->log_insert(*this, store_[id]);
    return pk;
}

void Table::bump_next_pk(std::int64_t pk) {
    std::int64_t cur = next_pk_.load(std::memory_order_relaxed);
    while (cur < pk + 1 &&
           !next_pk_.compare_exchange_weak(cur, pk + 1,
                                           std::memory_order_relaxed)) {
    }
}

void Table::end_bulk() {
    fault::maybe_fail("rdb.index_rebuild");
    rebuild_indexes();
    bulk_ = false;
}

void Table::begin_unit() {
    units_.push_back(
        {store_.size(), next_pk_.load(std::memory_order_relaxed), undo_.size()});
}

void Table::commit_unit() {
    if (units_.empty())
        throw SchemaError("commit_unit without begin_unit on '" + def_->name +
                          "'");
    units_.pop_back();
    // The undo log folds into the parent frame (its undo_size mark is
    // older); with no parent left, the history is no longer needed.
    if (units_.empty()) undo_.clear();
}

void Table::rollback_unit() {
    if (units_.empty())
        throw SchemaError("rollback_unit without begin_unit on '" + def_->name +
                          "'");
    UnitFrame frame = units_.back();
    units_.pop_back();
    bool changed =
        store_.size() > frame.rows || undo_.size() > frame.undo_size;
    // In bulk mode (or after an interrupted merge or rebuild) the
    // secondary indexes are deferred: rebuild them below.  Otherwise they
    // are exact, and undoing entry by entry keeps rollback O(delta).
    bool was_bulk = bulk_;
    bulk_ = false;

    // Appended rows leave every index, keyed by their current cells.
    for (std::size_t id = store_.size(); id-- > frame.rows;) {
        const Row& row = store_[id];
        auto rid = static_cast<RowId>(id);
        if (pk_column_ >= 0)
            pk_index_.erase({row[pk_column_].as_integer(), rid});
        if (!was_bulk)
            for (SecondaryIndex& idx : indexes_)
                idx.tree.erase({row[idx.column], rid});
    }

    // Undo cell updates to surviving rows newest-first, moving their
    // index entries back to the old values.
    for (std::size_t i = undo_.size(); i-- > frame.undo_size;) {
        UndoCell& cell = undo_[i];
        if (cell.row >= frame.rows) continue;  // truncated below
        if (!was_bulk)
            for (SecondaryIndex& idx : indexes_) {
                if (idx.column != cell.column) continue;
                idx.tree.erase({store_[cell.row][cell.column], cell.row});
                idx.tree.insert({cell.old_value, cell.row});
            }
        store_.mut(cell.row)[cell.column] = std::move(cell.old_value);
    }
    undo_.resize(frame.undo_size);
    store_.truncate(frame.rows);

    // Reclaim keys reserved since the watermark.  Safe because the unit
    // contract joins all reserving workers before rollback.
    next_pk_.store(frame.next_pk, std::memory_order_relaxed);

    if (was_bulk) rebuild_indexes();
    if (changed || was_bulk) dirty_ = true;

    // Rows the statistics already covered may be gone (or their cells
    // reverted); the next fold starts over.
    if (changed && stats_.rows > store_.size()) stats_.stale = true;
}

void Table::rebuild_indexes() {
    // Bulk build from one sorted run: a published version keeps the old
    // nodes, the live table gets fresh ones — nothing is copied.
    for (SecondaryIndex& idx : indexes_)
        idx.tree.assign_sorted(sorted_run(idx.column));
    if (!indexes_.empty()) dirty_ = true;
}

const Value& Table::at(RowId id, std::string_view column) const {
    int i = def_->column_index(column);
    if (i < 0)
        throw SchemaError("no column '" + std::string(column) + "' in '" +
                          def_->name + "'");
    return store_[id][i];
}

const Row* Table::find_pk(std::int64_t pk) const {
    auto id = find_pk_rowid(pk);
    return id ? &store_[*id] : nullptr;
}

std::optional<RowId> Table::find_pk_rowid(std::int64_t pk) const {
    if (pk_column_ < 0) {
        if (pk >= 0 && pk < static_cast<std::int64_t>(store_.size()))
            return static_cast<RowId>(pk);
        return std::nullopt;
    }
    const PkEntry* e = pk_index_.find({pk, 0});
    if (e == nullptr) return std::nullopt;
    return e->row;
}

void Table::update(RowId id, std::string_view column, Value value) {
    int i = def_->column_index(column);
    if (i < 0)
        throw SchemaError("no column '" + std::string(column) + "' in '" +
                          def_->name + "'");
    if (i == pk_column_)
        throw SchemaError("cannot update primary key column");
    if (!units_.empty()) undo_.push_back({id, i, store_[id][i]});
    dirty_ = true;
    if (!bulk_) {  // bulk mode defers indexes to end_bulk()'s rebuild
        for (SecondaryIndex& idx : indexes_) {
            if (idx.column != i) continue;
            idx.tree.erase({store_[id][i], id});
            idx.tree.insert({value, id});
        }
    }
    store_.mut(id)[i] = std::move(value);
    if (log_ != nullptr) log_->log_update(*this, id, i, store_[id][i]);
}

std::size_t Table::delete_where(std::string_view column, const Value& value) {
    if (!units_.empty())
        throw SchemaError("cannot delete from '" + def_->name +
                          "' while a load unit is open");
    int i = def_->column_index(column);
    if (i < 0)
        throw SchemaError("no column '" + std::string(column) + "' in '" +
                          def_->name + "'");
    RowStore kept;
    kept.reserve(store_.size());
    std::size_t removed = 0;
    for (std::size_t id = 0; id < store_.size(); ++id) {
        if (store_[id][i] == value) ++removed;
        else kept.push_back(Row(store_[id]));
    }
    if (removed == 0) return 0;
    store_ = std::move(kept);
    dirty_ = true;

    // Row ids shifted: rebuild the pk index and every secondary index.
    std::vector<PkEntry> pks;
    if (pk_column_ >= 0) {
        pks.reserve(store_.size());
        for (RowId id = 0; id < store_.size(); ++id)
            pks.push_back({store_[id][pk_column_].as_integer(), id});
        auto by_key = [](const PkEntry& a, const PkEntry& b) {
            return a.key < b.key;
        };
        if (!std::is_sorted(pks.begin(), pks.end(), by_key))
            std::sort(pks.begin(), pks.end(), by_key);
    }
    pk_index_.assign_sorted(std::move(pks));
    rebuild_indexes();
    stats_.stale = true;  // compaction: folded rows may be gone
    if (log_ != nullptr) log_->log_delete_where(*this, i, value);
    return removed;
}

void Table::refresh_stats() {
    if (stats_.stale || stats_.rows > store_.size()) {
        rebuild_stats();
        return;
    }
    if (stats_.columns.size() != def_->columns.size())
        stats_.columns.assign(def_->columns.size(), ColumnStats());
    if (stats_.rows < store_.size()) dirty_ = true;
    for (std::size_t r = stats_.rows; r < store_.size(); ++r)
        for (std::size_t c = 0; c < stats_.columns.size(); ++c)
            stats_.columns[c].fold(store_[r][c]);
    stats_.rows = store_.size();
}

void Table::rebuild_stats() {
    std::uint64_t epoch_rows = stats_.epoch_rows;
    stats_ = TableStats{};
    stats_.epoch_rows = epoch_rows;
    stats_.columns.assign(def_->columns.size(), ColumnStats());
    dirty_ = true;
    refresh_stats();
}

bool Table::note_material_growth() {
    // +64 keeps tiny tables from bumping the epoch on every commit; past
    // that, roughly each doubling of covered rows re-costs cached plans.
    if (stats_.rows <= stats_.epoch_rows * 2 + 64) return false;
    stats_.epoch_rows = stats_.rows;
    return true;
}

void Table::create_index(std::string_view column, IndexKind kind) {
    int i = def_->column_index(column);
    if (i < 0)
        throw SchemaError("cannot index unknown column '" + std::string(column) +
                          "' in '" + def_->name + "'");
    if (has_index(column)) return;
    SecondaryIndex idx;
    idx.column = i;
    idx.kind = kind;
    idx.tree.assign_sorted(sorted_run(i));
    indexes_.push_back(std::move(idx));
    dirty_ = true;
    if (log_ != nullptr) log_->log_create_index(*this, column, kind);
}

bool Table::has_index(std::string_view column) const {
    int i = def_->column_index(column);
    for (const auto& idx : indexes_)
        if (idx.column == i) return true;
    return false;
}

std::vector<RowId> Table::index_lookup(std::string_view column,
                                       const Value& value) const {
    int i = def_->column_index(column);
    for (const auto& idx : indexes_) {
        if (idx.column != i) continue;
        // Entries are ordered by (key, row): equal keys arrive in row order.
        std::vector<RowId> out;
        for (auto c = seek_key(idx, value, false); c.valid() && c->key == value;
             c.next())
            out.push_back(c->row);
        return out;
    }
    throw SchemaError("no index on '" + def_->name + "." + std::string(column) +
                      "'");
}

bool Table::has_ordered_index(std::string_view column) const {
    int i = def_->column_index(column);
    for (const auto& idx : indexes_)
        if (idx.column == i && idx.kind == IndexKind::kOrdered) return true;
    return false;
}

std::vector<RowId> Table::index_range_lookup(std::string_view column,
                                             const Value* lo, bool lo_strict,
                                             const Value* hi,
                                             bool hi_strict) const {
    int i = def_->column_index(column);
    for (const auto& idx : indexes_) {
        if (idx.column != i || idx.kind != IndexKind::kOrdered) continue;
        // NULL keys sort first in the index but compare unknown in SQL,
        // so an unbounded lower end still starts past them.
        auto c = lo == nullptr ? seek_key(idx, Value::null(), true)
                               : seek_key(idx, *lo, lo_strict);
        std::vector<RowId> out;
        for (; c.valid(); c.next()) {
            if (c->key.is_null()) continue;
            if (hi != nullptr) {
                auto ord = c->key.index_order(*hi);
                if (hi_strict ? ord >= 0 : ord > 0) break;
            }
            out.push_back(c->row);
        }
        std::sort(out.begin(), out.end());
        return out;
    }
    throw SchemaError("no ordered index on '" + def_->name + "." +
                      std::string(column) + "'");
}

std::vector<RowId> Table::lookup(std::string_view column,
                                 const Value& value) const {
    if (has_index(column)) return index_lookup(column, value);
    int i = def_->column_index(column);
    if (i < 0)
        throw SchemaError("no column '" + std::string(column) + "' in '" +
                          def_->name + "'");
    std::vector<RowId> out;
    for (RowId id = 0; id < store_.size(); ++id) {
        if (store_[id][i] == value) out.push_back(id);
    }
    return out;
}

void Table::index_row(RowId id) {
    for (SecondaryIndex& idx : indexes_)
        idx.tree.insert({store_[id][idx.column], id});
}

void Table::verify_into(IntegrityReport& report) const {
    ++report.tables_checked;
    const int doc_col = def_->column_index("doc");
    auto doc_of = [&](const Row& row) -> std::int64_t {
        if (doc_col < 0 || doc_col >= static_cast<int>(row.size())) return -1;
        const Value& v = row[doc_col];
        return v.type() == ValueType::kInteger ? v.as_integer() : -1;
    };
    auto issue = [&](const char* check, std::int64_t doc, std::string detail,
                     IntegrityIssue::Severity severity =
                         IntegrityIssue::Severity::kError) {
        report.add({severity, check, def_->name, doc, std::move(detail)});
    };

    // Rows against the schema (the same rules validate() enforces on the
    // way in — a stored row that no longer passes them was corrupted).
    std::int64_t max_pk = std::numeric_limits<std::int64_t>::min();
    for (RowId id = 0; id < store_.size(); ++id) {
        const Row& row = store_[id];
        ++report.rows_checked;
        if (row.size() != def_->columns.size()) {
            issue("row-arity", doc_of(row),
                  "row " + std::to_string(id) + " has " +
                      std::to_string(row.size()) + " cells, schema has " +
                      std::to_string(def_->columns.size()));
            continue;
        }
        for (std::size_t c = 0; c < row.size(); ++c) {
            const ColumnDef& col = def_->columns[c];
            const Value& v = row[c];
            if (v.is_null()) {
                if (col.not_null && static_cast<int>(c) != pk_column_)
                    issue("not-null", doc_of(row),
                          "row " + std::to_string(id) +
                              ": NULL in NOT NULL column '" + col.name + "'");
                continue;
            }
            bool ok = true;
            switch (col.type) {
                case ValueType::kInteger: ok = v.type() == ValueType::kInteger; break;
                case ValueType::kReal:
                    ok = v.type() == ValueType::kReal ||
                         v.type() == ValueType::kInteger;
                    break;
                case ValueType::kText: ok = v.type() == ValueType::kText; break;
                case ValueType::kNull: ok = false; break;
            }
            if (!ok)
                issue("cell-type", doc_of(row),
                      "row " + std::to_string(id) + " column '" + col.name +
                          "': expected " + std::string(to_string(col.type)) +
                          ", got " + std::string(to_string(v.type())));
        }
        if (pk_column_ >= 0 &&
            row[pk_column_].type() == ValueType::kInteger)
            max_pk = std::max(max_pk, row[pk_column_].as_integer());
    }

    // Primary-key index: exactly one entry per row, pointing back at it.
    if (pk_column_ >= 0) {
        if (pk_index_.size() != store_.size())
            issue("pk-index", -1,
                  "pk index has " + std::to_string(pk_index_.size()) +
                      " entries for " + std::to_string(store_.size()) + " rows");
        for (RowId id = 0; id < store_.size(); ++id) {
            const Row& row = store_[id];
            if (row.size() != def_->columns.size() ||
                row[pk_column_].type() != ValueType::kInteger)
                continue;  // already reported above
            auto found = find_pk_rowid(row[pk_column_].as_integer());
            if (!found || *found != id)
                issue("pk-index", doc_of(row),
                      "row " + std::to_string(id) + " pk " +
                          row[pk_column_].to_string() +
                          " missing or mismapped in pk index");
        }
        std::int64_t next = next_pk_.load(std::memory_order_relaxed);
        if (!store_.empty() && max_pk != std::numeric_limits<std::int64_t>::min()
            && next <= max_pk)
            issue("pk-counter", -1,
                  "next_pk " + std::to_string(next) + " <= max stored pk " +
                      std::to_string(max_pk) + " (future inserts would collide)");
    }

    // Secondary indexes: every entry resolves to a live row whose cell
    // matches the key, counts agree, and ordered indexes are sorted.
    if (bulk_) {
        issue("index-deferred", -1,
              "bulk mode: secondary index checks skipped",
              IntegrityIssue::Severity::kWarning);
        return;
    }
    for (const SecondaryIndex& idx : indexes_) {
        ++report.indexes_checked;
        const std::string& col = def_->columns[idx.column].name;
        std::size_t entries = idx.tree.size();
        if (entries != store_.size())
            issue("index-size", -1,
                  "index on '" + col + "' has " + std::to_string(entries) +
                      " entries for " + std::to_string(store_.size()) + " rows");
        auto check_entry = [&](const Value& key, RowId id) {
            if (id >= store_.size()) {
                issue("index-entry", -1,
                      "index on '" + col + "' maps key " + key.to_string() +
                          " to out-of-range row " + std::to_string(id));
                return;
            }
            const Row& row = store_[id];
            if (static_cast<std::size_t>(idx.column) < row.size() &&
                !(row[idx.column] == key))
                issue("index-entry", doc_of(row),
                      "index on '" + col + "' maps key " + key.to_string() +
                          " to row " + std::to_string(id) +
                          " whose cell is " + row[idx.column].to_string());
        };
        const IndexEntry* prev = nullptr;
        for (auto c = idx.tree.begin(); c.valid(); c.next()) {
            check_entry(c->key, c->row);
            if (prev != nullptr && IndexOrder::cmp(*prev, *c) >= 0)
                issue("index-order", -1,
                      "index on '" + col + "' is out of order at key " +
                          c->key.to_string());
            prev = &*c;
        }
    }
}

std::size_t Table::memory_bytes() const {
    // Chunks are allocated at full capacity; rows own their cells.
    std::size_t bytes = sizeof(Table) + store_.capacity() * sizeof(Row);
    for (std::size_t id = 0; id < store_.size(); ++id) {
        const Row& row = store_[id];
        bytes += row.capacity() * sizeof(Value);
        for (const auto& v : row) {
            if (v.type() == ValueType::kText) bytes += v.as_text().capacity();
        }
    }
    bytes += pk_index_.node_bytes();
    for (const SecondaryIndex& idx : indexes_) bytes += idx.tree.node_bytes();
    return bytes;
}

double Table::null_fraction() const {
    std::size_t cells = 0, nulls = 0;
    for (std::size_t id = 0; id < store_.size(); ++id) {
        const Row& row = store_[id];
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (static_cast<int>(i) == pk_column_) continue;
            ++cells;
            if (row[i].is_null()) ++nulls;
        }
    }
    return cells == 0 ? 0.0 : static_cast<double>(nulls) / static_cast<double>(cells);
}

}  // namespace xr::rdb
