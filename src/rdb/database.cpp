#include "rdb/database.hpp"

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <string>

#include "common/fault.hpp"
#include "rdb/snapshot.hpp"
#include "rdb/wal.hpp"

namespace xr::rdb {

namespace fs = std::filesystem;

const Table& DatabaseVersion::require(std::string_view name) const {
    const Table* t = table(name);
    if (t == nullptr) throw SchemaError("no table '" + std::string(name) + "'");
    return *t;
}

const Table* ReadView::table(std::string_view name) const {
    return version_ != nullptr ? version_->table(name) : db_->table(name);
}

const Table& ReadView::require(std::string_view name) const {
    return version_ != nullptr ? version_->require(name) : db_->require(name);
}

std::vector<std::string> ReadView::table_names() const {
    return version_ != nullptr ? version_->table_names() : db_->table_names();
}

const std::vector<ForeignKeyDef>& ReadView::foreign_keys() const {
    return version_ != nullptr ? version_->foreign_keys() : db_->foreign_keys();
}

std::uint64_t ReadView::stats_epoch() const {
    return version_ != nullptr ? version_->stats_epoch() : db_->stats_epoch();
}

std::string MvccStats::to_string() const {
    std::ostringstream out;
    out << "mvcc: " << versions_published << " version(s) published, "
        << versions_live << " live, " << versions_retired << " retired; "
        << tables_republished << " table clone(s), " << chunks_cowed
        << " chunk(s) and " << indexes_cowed << " index(es) copied on write";
    return out.str();
}

Database::Database() : published_(std::make_shared<DatabaseVersion>()) {}

Database::~Database() {
    // A database destroyed with a unit still open (error paths, tests)
    // would otherwise destroy a locked writer mutex.
    if (unit_depth_ > 0) writer_mu_.unlock();
}

// The mutexes and watermark are per-object (a std::mutex cannot move);
// moving is only legal with no open unit and no readers, so the fresh
// mutexes of the destination are equivalent to the source's idle ones.
Database::Database(Database&& other) noexcept
    : tables_(std::move(other.tables_)),
      fks_(std::move(other.fks_)),
      bulk_(other.bulk_),
      unit_depth_(other.unit_depth_),
      published_(std::move(other.published_)),
      version_registry_(std::move(other.version_registry_)),
      versions_published_(other.versions_published_),
      tables_republished_(other.tables_republished_),
      dir_(std::move(other.dir_)),
      dopts_(other.dopts_),
      wal_seq_(other.wal_seq_),
      wal_(std::move(other.wal_)) {
    commit_watermark_.store(
        other.commit_watermark_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    stats_epoch_.store(other.stats_epoch_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    other.bulk_ = false;
    other.unit_depth_ = 0;
    other.wal_seq_ = 0;
    other.published_ = std::make_shared<DatabaseVersion>();
    other.versions_published_ = 0;
    other.tables_republished_ = 0;
}

Database& Database::operator=(Database&& other) noexcept {
    if (this == &other) return *this;
    tables_ = std::move(other.tables_);
    fks_ = std::move(other.fks_);
    bulk_ = other.bulk_;
    unit_depth_ = other.unit_depth_;
    published_ = std::move(other.published_);
    version_registry_ = std::move(other.version_registry_);
    versions_published_ = other.versions_published_;
    tables_republished_ = other.tables_republished_;
    dir_ = std::move(other.dir_);
    dopts_ = other.dopts_;
    wal_seq_ = other.wal_seq_;
    wal_ = std::move(other.wal_);
    commit_watermark_.store(
        other.commit_watermark_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    stats_epoch_.store(other.stats_epoch_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    other.bulk_ = false;
    other.unit_depth_ = 0;
    other.wal_seq_ = 0;
    other.published_ = std::make_shared<DatabaseVersion>();
    other.versions_published_ = 0;
    other.tables_republished_ = 0;
    return *this;
}

void Database::publish_version() {
    auto version = std::make_shared<DatabaseVersion>();
    version->watermark_ = commit_watermark_.load(std::memory_order_relaxed);
    version->stats_epoch_ = stats_epoch_.load(std::memory_order_relaxed);
    version->fks_ = fks_;
    version->tables_.reserve(tables_.size());
    for (auto& t : tables_) {
        if (t->version_dirty()) ++tables_republished_;
        version->tables_.push_back(t->publish());
    }
    std::shared_ptr<const DatabaseVersion> frozen = std::move(version);
    std::lock_guard<std::mutex> guard(version_mu_);
    published_ = frozen;
    ++versions_published_;
    version_registry_.erase(
        std::remove_if(version_registry_.begin(), version_registry_.end(),
                       [](const auto& w) { return w.expired(); }),
        version_registry_.end());
    version_registry_.push_back(frozen);
}

MvccStats Database::mvcc_stats() const {
    MvccStats stats;
    {
        std::lock_guard<std::mutex> guard(version_mu_);
        stats.versions_published = versions_published_;
        for (const auto& w : version_registry_)
            if (!w.expired()) ++stats.versions_live;
        stats.versions_retired = versions_published_ - stats.versions_live;
        stats.tables_republished = tables_republished_;
    }
    // Per-table COW counters are writer-side state; reading them here is
    // advisory (call quiesced for exact numbers).
    for (const auto& t : tables_) {
        stats.chunks_cowed += t->chunks_cowed();
        stats.indexes_cowed += t->indexes_cowed();
    }
    return stats;
}

bool SalvageReport::any() const {
    return snapshot_sections_dropped > 0 || snapshot_bytes_dropped > 0 ||
           wal_records_skipped > 0 || wal_bytes_dropped > 0 ||
           wal_segments_missing > 0 || docs_quarantined > 0 || rows_purged > 0;
}

std::string SalvageReport::to_string() const {
    if (!attempted) return "salvage: not attempted";
    if (!any()) return "salvage: nothing to repair";
    std::ostringstream out;
    out << "salvage:";
    if (snapshot_sections_dropped > 0)
        out << " " << snapshot_sections_dropped << " snapshot section(s) ("
            << snapshot_bytes_dropped << " bytes) dropped,";
    if (wal_bytes_dropped > 0)
        out << " " << wal_bytes_dropped << " unreadable WAL byte(s) dropped,";
    if (wal_records_skipped > 0)
        out << " " << wal_records_skipped << " WAL record(s) skipped,";
    if (wal_segments_missing > 0)
        out << " " << wal_segments_missing << " WAL segment(s) missing,";
    out << " " << docs_quarantined << " document(s) quarantined, " << rows_purged
        << " row(s) purged";
    return out.str();
}

std::string RecoveryReport::to_string() const {
    std::ostringstream out;
    out << "recovered '" << dir << "': ";
    if (snapshot_path.empty())
        out << "no snapshot";
    else
        out << "snapshot seq " << snapshot_seq << " (" << tables_restored
            << " tables)";
    if (snapshots_skipped > 0)
        out << ", " << snapshots_skipped << " corrupt snapshot(s) skipped";
    out << ", " << records_replayed << " WAL record(s) across " << wal_segments
        << " segment(s)";
    if (torn_bytes_dropped > 0)
        out << ", " << torn_bytes_dropped << " torn byte(s) dropped";
    if (units_rolled_back > 0)
        out << ", " << units_rolled_back << " uncommitted unit(s) rolled back";
    out << "; " << rows_restored << " row(s) live";
    if (salvage.attempted && salvage.any()) out << "; " << salvage.to_string();
    return out.str();
}

RecoveryReport Database::open(const std::string& dir,
                              const DurabilityOptions& opts) {
    if (!tables_.empty() || wal_ != nullptr || unit_depth_ != 0)
        throw SchemaError("Database::open requires a fresh, empty database");
    fs::create_directories(dir);

    RecoveryReport report;
    report.dir = dir;
    const bool salvage = opts.recovery == RecoveryMode::kSalvage;
    SalvageReport& sr = report.salvage;
    sr.attempted = salvage;

    std::vector<std::uint64_t> snaps;
    std::vector<std::uint64_t> wals;
    for (const auto& entry : fs::directory_iterator(dir)) {
        std::uint64_t seq = 0;
        std::string name = entry.path().filename().string();
        if (parse_seq(name, "snapshot-", ".xrs", seq))
            snaps.push_back(seq);
        else if (parse_seq(name, "wal-", ".log", seq))
            wals.push_back(seq);
    }
    std::sort(snaps.begin(), snaps.end());
    std::sort(wals.begin(), wals.end());

    // Recover into a scratch database so a failure midway never leaves
    // *this half-populated.
    Database scratch;

    // Newest snapshot whose checksums verify wins; corrupt ones are
    // skipped, falling back to an older image plus a longer replay.
    std::uint64_t base = 0;
    bool have_snapshot = false;
    for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
        std::string path = snapshot_file(dir, *it);
        Database candidate;
        try {
            // Qualified: the unqualified name resolves to the
            // Database::read_snapshot() member in this scope.
            xr::rdb::read_snapshot(path, candidate);
        } catch (const Error&) {
            ++report.snapshots_skipped;
            continue;
        }
        scratch = std::move(candidate);
        base = *it;
        have_snapshot = true;
        report.snapshot_path = std::move(path);
        report.snapshot_seq = base;
        break;
    }
    // No snapshot read cleanly.  Strict recovery can still rebuild from
    // WAL segments alone; salvage first tries to keep what a partial
    // read of the newest damaged snapshot yields (a clean *older*
    // snapshot plus full replay is lossless and already preferred above).
    if (!have_snapshot && report.snapshots_skipped > 0) {
        if (salvage) {
            for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
                std::string path = snapshot_file(dir, *it);
                Database candidate;
                SalvageReport trial;
                try {
                    read_snapshot_salvage(path, candidate, trial);
                } catch (const Error& e) {
                    sr.notes.push_back("unsalvageable snapshot '" + path +
                                       "': " + e.bare_message());
                    continue;
                }
                scratch = std::move(candidate);
                base = *it;
                have_snapshot = true;
                report.snapshot_path = std::move(path);
                report.snapshot_seq = base;
                sr.snapshot_sections_dropped += trial.snapshot_sections_dropped;
                sr.snapshot_bytes_dropped += trial.snapshot_bytes_dropped;
                sr.notes.insert(sr.notes.end(), trial.notes.begin(),
                                trial.notes.end());
                break;
            }
        }
        if (!have_snapshot && wals.empty())
            throw CorruptionError(
                "cannot recover '" + dir +
                    "': every snapshot is corrupt and no WAL segments exist",
                dir, 0, "recovery");
    }

    // Replay wal-base .. wal-max in order.  Segments are created eagerly
    // at open/checkpoint, so a hole in that range means a file was lost
    // and the chain to the present is broken.
    if (!wals.empty() && wals.back() >= base) {
        std::uint64_t max_seq = wals.back();
        for (std::uint64_t seq = base; seq <= max_seq; ++seq) {
            std::string path = wal_file(dir, seq);
            if (!fs::exists(path)) {
                if (!salvage)
                    throw CorruptionError(
                        "cannot recover '" + dir + "': WAL segment " +
                            std::to_string(seq) +
                            " is missing from the chain (snapshot seq " +
                            std::to_string(base) + ", newest segment " +
                            std::to_string(max_seq) + ")",
                        path, 0, "recovery");
                ++sr.wal_segments_missing;
                sr.notes.push_back("WAL segment " + std::to_string(seq) +
                                   " missing from the chain");
                continue;
            }
            WalReplayMode mode =
                salvage ? WalReplayMode::kSalvage
                        : (seq == max_seq ? WalReplayMode::kTail
                                          : WalReplayMode::kMidChain);
            WalReplayStats stats =
                replay_wal(path, scratch, mode, salvage ? &sr : nullptr);
            ++report.wal_segments;
            report.records_replayed += stats.records;
            report.torn_bytes_dropped += stats.torn_bytes;
        }
    }

    // Units still open at end-of-log never committed; discard them the
    // same way the in-memory machinery would have.
    while (scratch.in_unit()) {
        scratch.rollback_unit();
        ++report.units_rolled_back;
    }

    tables_ = std::move(scratch.tables_);
    fks_ = std::move(scratch.fks_);

    dir_ = dir;
    dopts_ = opts;
    wal_seq_ = wals.empty() ? base : std::max(base, wals.back());

    if (salvage) {
        // Repair pass: quarantine and purge every document whose
        // invariants the surviving data breaks.  The mutations are
        // unlogged (no WAL is attached yet); the checkpoint below makes
        // them durable and rotates the damaged files out of the chain —
        // a salvage open always ends on a freshly verified snapshot, so
        // the next strict open never re-reads damaged files.
        salvage_repair(*this, sr);
        checkpoint();
    }

    report.tables_restored = tables_.size();
    report.rows_restored = total_rows();

    if (opts.use_wal) {
        wal_ = std::make_unique<Wal>(wal_file(dir_, wal_seq_),
                                     opts.sync_on_commit);
        for (auto& t : tables_) t->set_mutation_log(wal_.get());
    }
    // Statistics are derived state: fold every recovered row the replayed
    // commits did not already fold, so the planner has numbers at once.
    for (auto& t : tables_) t->refresh_stats();
    // Recovery is complete: publish the recovered state as the first
    // epoch, so snapshots opened from here on read it latch-free.
    publish_version();
    return report;
}

SnapshotStats Database::checkpoint() {
    if (!durable())
        throw SchemaError("checkpoint() requires an open() data directory");
    if (unit_depth_ != 0)
        throw SchemaError("cannot checkpoint while a load unit is open");
    // Writer-exclusive for the whole snapshot + WAL rotation: the image
    // must be a single consistent state.  No new epoch is published (the
    // logical contents did not change); readers keep flowing on pinned
    // versions throughout.
    std::lock_guard<std::mutex> guard(writer_mu_);
    if (wal_ != nullptr) wal_->flush(/*sync=*/true);

    std::uint64_t next_seq = wal_seq_ + 1;
    const std::string snap_path = snapshot_file(dir_, next_seq);
    SnapshotStats stats = write_snapshot(*this, snap_path);

    if (dopts_.verify_checkpoints) {
        // Read the image back before the WAL rotates: a snapshot that
        // cannot be re-read (disk fault, write-path bug) must not become
        // the recovery chain's new base.  On failure the file is removed
        // and the previous snapshot + WAL stay authoritative.
        try {
            fault::maybe_fail("snapshot.verify");
            Database check;
            xr::rdb::read_snapshot(snap_path, check);
            if (check.tables_.size() != tables_.size())
                throw CorruptionError(
                    "checkpoint verification: snapshot holds " +
                        std::to_string(check.tables_.size()) +
                        " table(s), database has " +
                        std::to_string(tables_.size()),
                    snap_path, 0, "verify");
            for (auto& t : tables_) {
                const Table* c = check.table(t->def().name);
                if (c == nullptr)
                    throw CorruptionError("checkpoint verification: table '" +
                                              t->def().name +
                                              "' missing from the snapshot",
                                          snap_path, 0, "verify");
                if (c->row_count() != t->row_count())
                    throw CorruptionError(
                        "checkpoint verification: table '" + t->def().name +
                            "' has " + std::to_string(c->row_count()) +
                            " row(s) in the snapshot, " +
                            std::to_string(t->row_count()) + " in memory",
                        snap_path, 0, "verify");
                if (c->peek_next_pk() != t->peek_next_pk())
                    throw CorruptionError(
                        "checkpoint verification: table '" + t->def().name +
                            "' pk counter disagrees with the snapshot",
                        snap_path, 0, "verify");
            }
        } catch (...) {
            std::error_code ec;
            fs::remove(snap_path, ec);
            throw;
        }
    }
    // The snapshot is durable under its real name; rotate the WAL so the
    // new segment starts exactly at the image it chains from.
    if (wal_ != nullptr) {
        for (auto& t : tables_) t->set_mutation_log(nullptr);
        wal_.reset();
        wal_ = std::make_unique<Wal>(wal_file(dir_, next_seq),
                                     dopts_.sync_on_commit);
        for (auto& t : tables_) t->set_mutation_log(wal_.get());
    }
    wal_seq_ = next_seq;
    return stats;
}

IntegrityReport Database::verify() const {
    // Writer-exclusive so every invariant is checked against one live
    // state (including mutations not yet published as an epoch); readers
    // keep flowing on pinned versions meanwhile.
    std::lock_guard<std::mutex> guard(writer_mu_);
    return verify_database(*this);
}

void Database::flush_wal() {
    if (wal_ != nullptr) wal_->flush(/*sync=*/true);
}

std::uint64_t Database::wal_bytes_appended() const {
    return wal_ != nullptr ? wal_->bytes_appended() : 0;
}

std::uint64_t Database::wal_lsn() const {
    return wal_ != nullptr ? wal_->lsn() : 0;
}

Table& Database::create_table(TableDef def) {
    // Depth-0 DDL is its own (tiny) writer-exclusive section; inside a
    // unit the writer mutex is already held by this thread.
    std::unique_lock<std::mutex> guard(writer_mu_, std::defer_lock);
    if (unit_depth_ == 0) guard.lock();
    if (table(def.name) != nullptr)
        throw SchemaError("table '" + def.name + "' already exists");
    tables_.push_back(std::make_unique<Table>(std::move(def)));
    Table& t = *tables_.back();
    if (bulk_) t.begin_bulk();
    for (std::size_t d = 0; d < unit_depth_; ++d) t.begin_unit();
    if (wal_ != nullptr) {
        try {
            wal_->log_create_table(t.def());
        } catch (...) {
            // Keep memory and log agreed: an unlogged table must not
            // exist, or later logged inserts into it would be
            // unreplayable.
            tables_.pop_back();
            throw;
        }
        t.set_mutation_log(wal_.get());
    }
    if (unit_depth_ == 0) {
        commit_watermark_.fetch_add(1, std::memory_order_release);
        publish_version();
    }
    return t;
}

void Database::begin_unit() {
    // The outermost unit takes the writer mutex: units, checkpoints and
    // depth-0 DDL serialize against each other.  Readers are unaffected —
    // they pin the last published epoch.  Nested begins run on the thread
    // that already holds the mutex, which is why testing unit_depth_
    // before locking is race-free (writers are single-threaded per the
    // unit contract).
    if (unit_depth_ == 0) writer_mu_.lock();
    try {
        if (wal_ != nullptr) wal_->log_begin_unit();
        for (auto& t : tables_) t->begin_unit();
    } catch (...) {
        if (unit_depth_ == 0) writer_mu_.unlock();
        throw;
    }
    ++unit_depth_;
}

void Database::commit_unit() {
    if (unit_depth_ == 0)
        throw SchemaError("commit_unit without an open load unit");
    // Durability first: flush (and fsync) the commit frame before the
    // in-memory commit.  If this throws, the unit is still open and the
    // caller's rollback leaves both sides at the pre-unit state.
    if (wal_ != nullptr) wal_->log_commit_unit(/*outermost=*/unit_depth_ == 1);
    for (auto& t : tables_) t->commit_unit();
    --unit_depth_;
    if (unit_depth_ == 0) {
        // Fold statistics over the rows this unit appended — O(new rows),
        // the same shape of work as index maintenance — while the writer
        // mutex is still held.  Material growth advances the statistics
        // epoch so cached plans re-cost against the new cardinalities.
        bool grew = false;
        for (auto& t : tables_) {
            t->refresh_stats();
            grew = t->note_material_growth() || grew;
        }
        if (grew) stats_epoch_.fetch_add(1, std::memory_order_acq_rel);
        // Publication point: bump the watermark, then publish the new
        // epoch while still writer-exclusive.  Snapshots opened before
        // the swap keep their old epoch; snapshots opened after see this
        // unit complete — never a partially-committed state.
        commit_watermark_.fetch_add(1, std::memory_order_release);
        publish_version();
        writer_mu_.unlock();
    }
}

void Database::rollback_unit() {
    if (unit_depth_ == 0)
        throw SchemaError("rollback_unit without an open load unit");
    for (auto& t : tables_) t->rollback_unit();
    --unit_depth_;
    bulk_ = false;  // an interrupted merge leaves no bracket behind
    if (wal_ != nullptr) wal_->log_rollback_unit();
    // No watermark bump and no publication: readers never observed the
    // discarded rows, so the previous epoch still describes the state.
    if (unit_depth_ == 0) writer_mu_.unlock();
}

void Database::begin_bulk() {
    bulk_ = true;
    for (auto& t : tables_) t->begin_bulk();
}

void Database::end_bulk() {
    bulk_ = false;
    for (auto& t : tables_) t->end_bulk();
}

void Database::drop_table(std::string_view name) {
    if (unit_depth_ > 0)
        throw SchemaError("cannot drop '" + std::string(name) +
                          "' while a load unit is open");
    std::lock_guard<std::mutex> guard(writer_mu_);
    auto it = std::find_if(tables_.begin(), tables_.end(),
                           [&](const auto& t) { return t->name() == name; });
    if (it == tables_.end())
        throw SchemaError("no table '" + std::string(name) + "' to drop");
    if (wal_ != nullptr) wal_->log_drop_table(name);
    tables_.erase(it);
    commit_watermark_.fetch_add(1, std::memory_order_release);
    publish_version();
}

void Database::add_foreign_key(ForeignKeyDef fk) {
    if (wal_ != nullptr) wal_->log_add_foreign_key(fk);
    if (unit_depth_ == 0) {
        // Keys only matter to verification; republishing (same watermark)
        // lets a pinned-epoch verify see them without a watermark bump.
        std::lock_guard<std::mutex> guard(writer_mu_);
        fks_.push_back(std::move(fk));
        publish_version();
    } else {
        fks_.push_back(std::move(fk));
    }
}

Table* Database::table(std::string_view name) {
    for (auto& t : tables_)
        if (t->name() == name) return t.get();
    return nullptr;
}

const Table* Database::table(std::string_view name) const {
    for (const auto& t : tables_)
        if (t->name() == name) return t.get();
    return nullptr;
}

Table& Database::require(std::string_view name) {
    Table* t = table(name);
    if (t == nullptr) throw SchemaError("no table '" + std::string(name) + "'");
    return *t;
}

const Table& Database::require(std::string_view name) const {
    const Table* t = table(name);
    if (t == nullptr) throw SchemaError("no table '" + std::string(name) + "'");
    return *t;
}

std::vector<std::string> Database::table_names() const {
    std::vector<std::string> out;
    out.reserve(tables_.size());
    for (const auto& t : tables_) out.push_back(t->name());
    return out;
}

std::vector<std::string> Database::check_foreign_keys() const {
    std::vector<std::string> violations;
    for (const auto& fk : fks_) {
        const Table* src = table(fk.table);
        const Table* dst = table(fk.ref_table);
        if (src == nullptr || dst == nullptr) {
            violations.push_back("foreign key references missing table: " +
                                 fk.table + " -> " + fk.ref_table);
            continue;
        }
        int col = src->def().column_index(fk.column);
        if (col < 0) {
            violations.push_back("foreign key on missing column " + fk.table +
                                 "." + fk.column);
            continue;
        }
        for (RowId id = 0; id < src->row_count(); ++id) {
            const Value& v = src->row(id)[col];
            if (v.is_null()) continue;
            if (dst->find_pk(v.as_integer()) == nullptr) {
                violations.push_back(fk.table + "." + fk.column + "=" +
                                     v.to_string() + " has no match in " +
                                     fk.ref_table);
                if (violations.size() > 64) return violations;
            }
        }
    }
    return violations;
}

std::string AnalyzeReport::to_string() const {
    std::ostringstream out;
    out << "analyzed " << tables << " table(s), " << columns
        << " column(s), " << rows << " row(s); statistics epoch " << epoch;
    return out.str();
}

AnalyzeReport Database::analyze() {
    if (unit_depth_ != 0)
        throw SchemaError("cannot analyze while a load unit is open");
    AnalyzeReport report;
    // Rebuilds mutate per-table statistics; hold the writer mutex like
    // depth-0 DDL.  Planner threads reading through pinned epochs see
    // those epochs' statistics copies, untouched.  One publication, same
    // watermark: contents do not change, only the statistics epoch.
    std::lock_guard<std::mutex> guard(writer_mu_);
    for (auto& t : tables_) {
        t->rebuild_stats();
        ++report.tables;
        report.columns += t->stats().columns.size();
        report.rows += t->stats().rows;
    }
    report.epoch = stats_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
    publish_version();
    return report;
}

std::size_t Database::total_rows() const {
    std::size_t n = 0;
    for (const auto& t : tables_) n += t->row_count();
    return n;
}

std::size_t Database::memory_bytes() const {
    std::size_t n = 0;
    for (const auto& t : tables_) n += t->memory_bytes();
    return n;
}

}  // namespace xr::rdb
