// Online integrity checking (DESIGN.md §14).
//
// verify_database() walks a Database and validates every invariant the
// storage and shredding layers promise: per-table (row arity and types,
// NOT NULL, pk uniqueness and pk-index agreement, secondary index ↔ row
// agreement, index sortedness, pk-counter monotonicity) and
// cross-table XML invariants derived from the shredded-schema
// conventions (every `doc` cell names a registered document in
// `xrel_docs`, per-document Dietz label ranges are disjoint and fully
// covered, `pre`/`post` intervals nest properly, document roots exist,
// quarantine rows are well-formed).  The checker only reads; it never repairs.
//
// Findings come back as a structured IntegrityReport instead of an
// exception: corruption rarely travels alone, and a report that lists
// every broken invariant (capped) is far more useful for salvage and
// for operators than the first failure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace xr::rdb {

class Database;
class ReadView;
struct SalvageReport;

/// One violated invariant.  `doc` is the owning document id when the
/// damage is attributable to a single document (the unit the salvage
/// path can quarantine), -1 otherwise.
struct IntegrityIssue {
    enum class Severity { kError, kWarning };

    Severity severity = Severity::kError;
    std::string check;   // invariant name, e.g. "pk-index", "dietz-nesting"
    std::string table;   // table involved, empty for cross-table checks
    std::int64_t doc = -1;
    std::string detail;

    [[nodiscard]] std::string to_string() const;
};

/// Everything verify() looked at and everything it found.  `clean()`
/// means no *errors*; warnings (e.g. secondary-index checks skipped
/// while bulk mode defers the indexes) do not fail verification.
struct IntegrityReport {
    static constexpr std::size_t kMaxIssues = 256;

    std::size_t tables_checked = 0;
    std::uint64_t rows_checked = 0;
    std::size_t indexes_checked = 0;
    std::size_t docs_checked = 0;
    std::size_t issues_suppressed = 0;  // found beyond kMaxIssues
    std::vector<IntegrityIssue> issues;

    /// Record an issue, capping the list at kMaxIssues (a thoroughly
    /// corrupted store should not OOM its own checker).
    void add(IntegrityIssue issue);

    [[nodiscard]] std::size_t errors() const;
    [[nodiscard]] std::size_t warnings() const;
    [[nodiscard]] bool clean() const { return errors() == 0; }
    [[nodiscard]] std::string to_string() const;
};

/// Check every invariant visible through `db` — either a live Database
/// (Database::verify() holds the writer mutex around this; recovery
/// calls it before readers exist) or a pinned epoch
/// (`snapshot.view()`), which needs no isolation at all: the epoch is
/// immutable, so verification runs to completion while writers keep
/// committing beside it (DESIGN.md §15).
[[nodiscard]] IntegrityReport verify_database(const ReadView& db);

/// Salvage repair pass (DESIGN.md §14): verify `db`, quarantine every
/// document implicated in an error (a row in `xrel_quarantine`, then
/// purge its rows from every doc-carrying table and drop its `xrel_docs`
/// registration), and repeat until verification is doc-clean or no
/// further progress is possible.  Mutations are unlogged; the caller
/// (Database::open in salvage mode) checkpoints immediately after.
/// Returns the number of documents quarantined; accounting lands in
/// `report`.
std::size_t salvage_repair(Database& db, SalvageReport& report);

}  // namespace xr::rdb
