// MiniRDB catalog: a named collection of tables with foreign-key metadata.
//
// A Database is in-memory by default.  open() attaches it to a data
// directory, after which it recovers the newest durable state
// (snapshot + WAL replay, see DESIGN.md §8) and logs every committed
// mutation to a write-ahead log whose fsync boundary coincides with the
// outermost load unit — the unit of atomicity is also the unit of
// durability.  checkpoint() compacts the log into a fresh checksummed
// snapshot.
//
// Concurrency (DESIGN.md §9/§15): mutations stay single-writer (the
// load unit contract), serialized by a writer mutex spanning the
// outermost load unit, checkpoint() and depth-0 DDL.  Readers never
// take that mutex: every committed state is published as an immutable
// DatabaseVersion (copy-on-write table epochs keyed by the commit
// watermark), and read_snapshot() pins the current version for the
// snapshot's lifetime.  A pinned version stays readable — latch-free —
// no matter how many commits, checkpoints or DDL statements land
// meanwhile; versions retire automatically when the last pin drops.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "rdb/integrity.hpp"
#include "rdb/table.hpp"

namespace xr::rdb {

class Wal;
class Database;
struct SnapshotStats;

/// Declared foreign key; enforcement happens via check_foreign_keys()
/// (bulk loading first, verification after — the loader's deferred-IDREF
/// strategy requires this).
struct ForeignKeyDef {
    std::string table;
    std::string column;
    std::string ref_table;
    std::string ref_column;  ///< must be the referenced table's primary key
};

/// How open() treats damaged storage (DESIGN.md §14).
enum class RecoveryMode {
    /// Any corruption that cannot be explained by a crash (bad snapshot
    /// with no fallback, mid-segment WAL damage, broken chain) fails the
    /// open with a typed xr::CorruptionError.  The default: never build
    /// a state the operator did not ask for.
    kStrict,
    /// Best-effort repair: skip corrupt snapshot sections and WAL
    /// records, quarantine every document whose invariants broke, purge
    /// its rows, and checkpoint the repaired state so the damaged files
    /// leave the recovery chain.  Everything dropped is accounted in
    /// RecoveryReport::salvage — lossy, never silent.
    kSalvage,
};

/// Knobs for open().
struct DurabilityOptions {
    /// Log mutations to a WAL.  Without it the database only persists at
    /// explicit checkpoint() calls — everything since the last snapshot
    /// is lost on a crash.
    bool use_wal = true;
    /// fsync the WAL on each outermost commit (the crash-safe default);
    /// off, commits write() without syncing — faster, but a power loss
    /// may drop recently committed units.
    bool sync_on_commit = true;
    /// Strict (fail on damage) or salvage (repair, quarantine, report).
    RecoveryMode recovery = RecoveryMode::kStrict;
    /// checkpoint() re-reads the snapshot it just wrote before rotating
    /// the WAL: a checkpoint that cannot be read back must not become
    /// the recovery chain's new base.  Costs one extra read of the
    /// image; disable only in benchmarks.
    bool verify_checkpoints = true;
};

/// What the salvage path dropped and repaired; embedded in
/// RecoveryReport when open() ran with RecoveryMode::kSalvage.
struct SalvageReport {
    bool attempted = false;  ///< open() ran in salvage mode
    std::size_t snapshot_sections_dropped = 0;
    std::uint64_t snapshot_bytes_dropped = 0;
    std::size_t wal_records_skipped = 0;   ///< valid frames that failed to apply
    std::uint64_t wal_bytes_dropped = 0;   ///< unreadable WAL bytes resynced past
    std::size_t wal_segments_missing = 0;  ///< holes in the segment chain
    std::size_t docs_quarantined = 0;      ///< documents purged by the repair pass
    std::size_t rows_purged = 0;           ///< rows removed with them
    std::vector<std::string> notes;        ///< human-readable drop log

    /// True when salvage dropped or repaired anything — i.e. the
    /// recovered state differs from what a strict open would need.
    [[nodiscard]] bool any() const;
    [[nodiscard]] std::string to_string() const;
};

/// What analyze() measured; see Database::analyze().
struct AnalyzeReport {
    std::size_t tables = 0;        ///< tables analyzed
    std::size_t columns = 0;       ///< column statistics rebuilt
    std::uint64_t rows = 0;        ///< rows scanned
    std::uint64_t epoch = 0;       ///< statistics epoch after the rebuild
    [[nodiscard]] std::string to_string() const;
};

/// What recovery found and did; returned by open().
struct RecoveryReport {
    std::string dir;
    std::string snapshot_path;           ///< empty when starting from scratch
    std::uint64_t snapshot_seq = 0;
    std::size_t snapshots_skipped = 0;   ///< newer snapshots rejected as corrupt
    std::size_t tables_restored = 0;
    std::size_t rows_restored = 0;       ///< rows after snapshot + replay
    std::size_t wal_segments = 0;        ///< segments replayed
    std::size_t records_replayed = 0;
    std::size_t torn_bytes_dropped = 0;  ///< truncated off the newest segment
    std::size_t units_rolled_back = 0;   ///< uncommitted units discarded
    SalvageReport salvage;               ///< drops/repairs (salvage mode only)
    [[nodiscard]] std::string to_string() const;
};

/// One immutable published epoch of the whole database (DESIGN.md §15).
///
/// Built by the writer at each publication point (outermost commit,
/// depth-0 DDL, analyze(), end of recovery) from frozen table clones
/// that share row chunks and index nodes with the live tables.  Once
/// published a version never changes; it is retired automatically when
/// the last ReadSnapshot pinning it is destroyed (shared_ptr refcount
/// is the version GC — no epoch list to sweep).
class DatabaseVersion {
public:
    /// Commit watermark this version was published at.
    [[nodiscard]] std::uint64_t watermark() const { return watermark_; }
    /// Statistics epoch at publication (plan-cache key component).
    [[nodiscard]] std::uint64_t stats_epoch() const { return stats_epoch_; }

    [[nodiscard]] const Table* table(std::string_view name) const {
        for (const auto& t : tables_)
            if (t->name() == name) return t.get();
        return nullptr;
    }
    [[nodiscard]] const Table& require(std::string_view name) const;

    [[nodiscard]] std::vector<std::string> table_names() const {
        std::vector<std::string> names;
        names.reserve(tables_.size());
        for (const auto& t : tables_) names.push_back(t->name());
        return names;
    }
    [[nodiscard]] std::size_t table_count() const { return tables_.size(); }
    [[nodiscard]] const std::vector<ForeignKeyDef>& foreign_keys() const {
        return fks_;
    }
    [[nodiscard]] std::size_t total_rows() const {
        std::size_t n = 0;
        for (const auto& t : tables_) n += t->row_count();
        return n;
    }

private:
    friend class Database;
    std::uint64_t watermark_ = 0;
    std::uint64_t stats_epoch_ = 0;
    std::vector<std::shared_ptr<const Table>> tables_;
    std::vector<ForeignKeyDef> fks_;
};

/// Cheap, copyable resolver over either a pinned immutable
/// DatabaseVersion or the live Database (DESIGN.md §15).
///
/// Read-only consumers — the SQL executor, the planner, integrity
/// verification — take a ReadView so one code path serves both worlds:
/// concurrent queries read a pinned version; writer-thread and
/// quiesced contexts (recovery, loaders' FK checks, tests) pass the
/// Database itself via the implicit conversion and read live state.
/// A live view is only safe where reading the tables directly is —
/// i.e. under writer exclusivity or with no writer running.
class ReadView {
public:
    /*implicit*/ ReadView(const Database& db) : db_(&db) {}
    explicit ReadView(const DatabaseVersion& version) : version_(&version) {}

    [[nodiscard]] const Table* table(std::string_view name) const;
    [[nodiscard]] const Table& require(std::string_view name) const;
    [[nodiscard]] std::vector<std::string> table_names() const;
    [[nodiscard]] const std::vector<ForeignKeyDef>& foreign_keys() const;
    /// Statistics epoch the view's tables carry (plan-cache keying).
    [[nodiscard]] std::uint64_t stats_epoch() const;

    /// Non-null when this view reads a pinned version.
    [[nodiscard]] const DatabaseVersion* version() const { return version_; }

private:
    const Database* db_ = nullptr;
    const DatabaseVersion* version_ = nullptr;
};

/// A consistent read view of the database (DESIGN.md §9/§15).
///
/// Pins the DatabaseVersion that was current at acquisition: row
/// storage and indexes reachable through view() can never change or be
/// freed underneath the reader, no latch is held, and writers are
/// never blocked — a snapshot opened before a bulk load reads the
/// pre-load epoch to completion while the load commits new epochs
/// beside it.  `watermark()` names the pinned epoch — the key caches
/// invalidate by.  Snapshots are cheap (two shared_ptr copies) and any
/// number may be open at once.
class ReadSnapshot {
public:
    explicit ReadSnapshot(std::shared_ptr<const DatabaseVersion> version)
        : version_(std::move(version)) {}

    [[nodiscard]] std::uint64_t watermark() const {
        return version_->watermark();
    }
    /// The pinned epoch; valid for the snapshot's lifetime.
    [[nodiscard]] const DatabaseVersion& version() const { return *version_; }
    /// Resolver over the pinned epoch for executor/planner/verify.
    [[nodiscard]] ReadView view() const { return ReadView(*version_); }

private:
    std::shared_ptr<const DatabaseVersion> version_;
};

/// Observability counters for the MVCC read path (DESIGN.md §15).
struct MvccStats {
    std::uint64_t versions_published = 0;  ///< epochs published since open
    std::size_t versions_live = 0;    ///< still pinned (incl. the current one)
    std::uint64_t versions_retired = 0;    ///< published and since freed
    std::uint64_t tables_republished = 0;  ///< frozen table clones cut
    std::uint64_t chunks_cowed = 0;        ///< row chunks copied on write
    /// Index B+tree nodes copied on write (primary-key and secondary
    /// indexes): an insert after a publish copies one root-to-leaf path
    /// per index, so this grows with rows touched, not table size.
    std::uint64_t indexes_cowed = 0;
    [[nodiscard]] std::string to_string() const;
};

class Database {
public:
    Database();
    ~Database();
    Database(const Database&) = delete;
    Database& operator=(const Database&) = delete;
    /// Moving requires no open load unit and no concurrent readers or
    /// writers (the mutexes stay with each object; only data moves).
    Database(Database&&) noexcept;
    Database& operator=(Database&&) noexcept;

    /// Attach this (still empty) database to `dir`, creating it if needed,
    /// and recover: load the newest snapshot whose checksums verify
    /// (falling back to older ones when a newer image is corrupt), replay
    /// every WAL segment from that snapshot forward, truncate the torn
    /// tail of the newest segment, and roll back units left uncommitted.
    /// In strict mode (the default), throws xr::CorruptionError when the
    /// surviving files cannot produce a consistent state (mid-segment
    /// WAL damage, a torn record in a non-newest segment, every snapshot
    /// corrupt).  With RecoveryMode::kSalvage, damage is skipped and
    /// repaired instead: broken documents are quarantined and purged,
    /// the result is checkpointed, and RecoveryReport::salvage accounts
    /// every drop.
    RecoveryReport open(const std::string& dir,
                        const DurabilityOptions& opts = {});

    /// Write a fresh snapshot and start a new WAL segment.  Requires an
    /// open() data directory and no open load unit.  Unless
    /// DurabilityOptions::verify_checkpoints is off, the snapshot is
    /// re-read and cross-checked (table/row/pk-counter agreement)
    /// *before* the WAL rotates — a checkpoint that cannot be read back
    /// is deleted and the previous snapshot + WAL remain authoritative.
    /// Fault point: `snapshot.verify` before the verification read.
    /// Holds the writer mutex (no logical change, so no new epoch is
    /// published); concurrent readers keep flowing on pinned versions.
    SnapshotStats checkpoint();

    /// Online integrity check (DESIGN.md §14): holds the writer mutex and
    /// validates the *live* state — every per-table and cross-table
    /// invariant (see rdb/integrity.hpp for the catalogue), including
    /// mutations not yet published as an epoch.  Readers keep flowing on
    /// pinned versions; must not be called from a thread holding a load
    /// unit open (the writer mutex is not recursive).  To verify a
    /// pinned epoch instead, pass `snapshot.view()` to verify_database().
    [[nodiscard]] IntegrityReport verify() const;

    /// Flush (and fsync) buffered WAL records outside a commit — callers
    /// use it after depth-0 DDL like schema materialization.  No-op when
    /// the WAL is off.
    void flush_wal();

    [[nodiscard]] bool durable() const { return !dir_.empty(); }
    [[nodiscard]] const std::string& data_dir() const { return dir_; }
    /// Sequence of the active snapshot/WAL generation.
    [[nodiscard]] std::uint64_t storage_seq() const { return wal_seq_; }
    /// Record bytes appended to the active WAL segment (bench metric).
    [[nodiscard]] std::uint64_t wal_bytes_appended() const;

    Table& create_table(TableDef def);
    void drop_table(std::string_view name);

    [[nodiscard]] Table* table(std::string_view name);
    [[nodiscard]] const Table* table(std::string_view name) const;
    /// Throwing accessors for code paths where absence is a logic error.
    [[nodiscard]] Table& require(std::string_view name);
    [[nodiscard]] const Table& require(std::string_view name) const;

    [[nodiscard]] std::vector<std::string> table_names() const;
    [[nodiscard]] std::size_t table_count() const { return tables_.size(); }

    void add_foreign_key(ForeignKeyDef fk);
    [[nodiscard]] const std::vector<ForeignKeyDef>& foreign_keys() const {
        return fks_;
    }

    /// Verify every non-NULL FK value resolves; returns violation messages.
    [[nodiscard]] std::vector<std::string> check_foreign_keys() const;

    // -- statistics (DESIGN.md §13) -------------------------------------------
    /// Rebuild every table's statistics from scratch (fresh sketches, so
    /// NDV estimates reflect current contents, not incremental history),
    /// bump the statistics epoch, and publish once: the new epoch has the
    /// same watermark and contents, only fresher statistics.  Statistics
    /// are derived state and are not persisted — open() refolds them from
    /// the recovered rows.  Requires no open load unit.
    AnalyzeReport analyze();

    /// Monotonic epoch for plan invalidation: bumped by analyze() and by
    /// commits that grow a table materially (~2x) past its last bump.
    /// Plan caches fold it into their keys, so a stale cached plan ages
    /// out instead of serving forever (DESIGN.md §13).
    [[nodiscard]] std::uint64_t stats_epoch() const {
        return stats_epoch_.load(std::memory_order_acquire);
    }

    /// Bulk-load bracketing: begin_bulk() switches every table to deferred
    /// secondary-index maintenance, end_bulk() rebuilds all indexes in one
    /// pass.  Tables created while the bracket is open join it.
    void begin_bulk();
    void end_bulk();
    [[nodiscard]] bool in_bulk() const { return bulk_; }

    /// Atomic load units across every table (see Table::begin_unit).
    /// Units nest; rollback_unit() restores row storage, indexes and pk
    /// counters to the matching begin_unit() and closes any bulk bracket
    /// left open by an interrupted merge.  Tables created while a unit is
    /// open join it (they are emptied again on rollback).
    ///
    /// With a WAL attached, the outermost commit_unit() makes the unit
    /// durable *before* committing in memory: if flushing the commit
    /// frame fails, the exception propagates with the unit still open,
    /// and the caller's rollback restores the pre-unit state on both
    /// sides.  The outermost commit then publishes a new epoch, making
    /// the unit's rows visible to snapshots opened from here on.
    void begin_unit();
    void commit_unit();
    void rollback_unit();
    [[nodiscard]] bool in_unit() const { return unit_depth_ > 0; }

    // -- concurrent reads (DESIGN.md §9/§15) ---------------------------------
    /// Pin the current published epoch.  Never blocks behind writers (the
    /// only synchronization is a pointer copy under a short mutex) and
    /// holds no latch afterwards: the returned snapshot reads its pinned
    /// version to completion however many commits land concurrently.
    /// Safe from any thread, including one holding a load unit open —
    /// the snapshot then simply reads the last *committed* epoch.
    [[nodiscard]] ReadSnapshot read_snapshot() const {
        std::lock_guard<std::mutex> guard(version_mu_);
        return ReadSnapshot{published_};
    }

    /// Monotonic count of committed outermost load units and depth-0 DDL
    /// statements — the cache-invalidation epoch: a cached result tagged
    /// with an older watermark may no longer reflect table contents.
    /// Rolled-back units do not advance it (readers never saw their rows).
    [[nodiscard]] std::uint64_t commit_watermark() const {
        return commit_watermark_.load(std::memory_order_acquire);
    }

    /// MVCC observability: epochs published/live/retired, frozen table
    /// clones cut, chunks and index nodes copied on write.
    [[nodiscard]] MvccStats mvcc_stats() const;

    /// Records appended to the active WAL segment (the durable LSN); 0
    /// while in-memory.  Advances with each logged mutation, so it also
    /// serves as a fine-grained change tick for durable databases.
    [[nodiscard]] std::uint64_t wal_lsn() const;

    [[nodiscard]] std::size_t total_rows() const;
    [[nodiscard]] std::size_t memory_bytes() const;

private:
    std::vector<std::unique_ptr<Table>> tables_;
    std::vector<ForeignKeyDef> fks_;
    bool bulk_ = false;
    std::size_t unit_depth_ = 0;

    // -- concurrency state (DESIGN.md §9/§15) --------------------------------
    // Writer mutex: serializes the outermost load unit, checkpoint() and
    // depth-0 DDL against each other.  Readers never take it — they pin
    // published_ under version_mu_ (held only for the pointer copy or
    // swap) and read the immutable version latch-free.
    mutable std::mutex writer_mu_;
    std::atomic<std::uint64_t> commit_watermark_{0};
    std::atomic<std::uint64_t> stats_epoch_{0};

    // Current published epoch plus a weak registry of every epoch still
    // alive (for mvcc_stats); both guarded by version_mu_.
    mutable std::mutex version_mu_;
    std::shared_ptr<const DatabaseVersion> published_;
    std::vector<std::weak_ptr<const DatabaseVersion>> version_registry_;
    std::uint64_t versions_published_ = 0;
    std::uint64_t tables_republished_ = 0;

    /// Freeze the live tables into a new DatabaseVersion and swap it in
    /// as the current epoch.  Writer-side only, at publication points:
    /// outermost commit, depth-0 DDL, analyze(), end of open().
    /// O(#tables) plus O(#chunks + #indexes) for tables that changed;
    /// unchanged tables reuse their cached frozen clone.
    void publish_version();

    // -- durability state (empty / null while in-memory only) ----------------
    std::string dir_;
    DurabilityOptions dopts_;
    std::uint64_t wal_seq_ = 0;
    std::unique_ptr<Wal> wal_;
};

}  // namespace xr::rdb
