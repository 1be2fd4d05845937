// Online integrity checking and salvage repair (DESIGN.md §14).
//
// The cross-table checks lean on the shredded-schema conventions the
// rel/ translator establishes: entity and relationship tables carry an
// INTEGER `doc` column, structural labels live in INTEGER `pre` /
// `post` / `level` columns, and `xrel_docs` registers every loaded
// document with its root row and Dietz label interval.  Tables that do
// not follow the conventions (no `doc` column, no labels) are simply
// outside the scope of the document-level checks — the per-table
// checks in Table::verify_into() still apply to them.
#include "rdb/integrity.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "rdb/database.hpp"
#include "rdb/table.hpp"

namespace xr::rdb {

namespace {

// Mirrors the loader's registry / quarantine schemas (src/loader); the
// rdb layer cannot include loader headers (it sits below them), so the
// names are restated here.  Kept in sync by integrity_test.
constexpr const char* kDocsTable = "xrel_docs";
constexpr const char* kQuarantineTable = "xrel_quarantine";

using Severity = IntegrityIssue::Severity;

/// Index of the named column iff it exists with the wanted type.
int typed_column(const TableDef& def, std::string_view name, ValueType type) {
    int c = def.column_index(name);
    if (c < 0 || def.columns[static_cast<std::size_t>(c)].type != type)
        return -1;
    return c;
}

struct LabeledRow {
    std::int64_t pre = 0;
    std::int64_t post = 0;
    const Table* table = nullptr;
    RowId row = 0;
};

/// Per-document registration from xrel_docs.
struct DocEntry {
    std::int64_t doc = -1;
    std::int64_t root_pk = -1;
    std::string root_entity;
    std::int64_t label_base = 0;
    std::int64_t label_span = 0;
};

void check_document_invariants(const ReadView& db, IntegrityReport& report);
void check_quarantine(const ReadView& db, IntegrityReport& report);

void check_foreign_keys_into(const ReadView& db, IntegrityReport& report) {
    for (const ForeignKeyDef& fk : db.foreign_keys()) {
        const Table* src = db.table(fk.table);
        if (src == nullptr) continue;  // no rows to violate it
        const Table* dst = db.table(fk.ref_table);
        int col = src->def().column_index(fk.column);
        if (dst == nullptr || col < 0) {
            // Schema-level dangling declaration: salvage drops it, and
            // it cannot corrupt data by itself — warn, don't fail.
            report.add({Severity::kWarning, "foreign-key-schema", fk.table, -1,
                        "declaration " + fk.table + "." + fk.column + " -> " +
                            fk.ref_table + "." + fk.ref_column +
                            " references a missing table or column"});
            continue;
        }
        int doc_col = typed_column(src->def(), "doc", ValueType::kInteger);
        for (RowId id = 0; id < src->row_count(); ++id) {
            const Value& v = src->row(id)[static_cast<std::size_t>(col)];
            if (v.type() != ValueType::kInteger) continue;  // typed elsewhere
            if (dst->find_pk(v.as_integer()) != nullptr) continue;
            std::int64_t doc = -1;
            if (doc_col >= 0) {
                const Value& d = src->row(id)[static_cast<std::size_t>(doc_col)];
                if (d.type() == ValueType::kInteger) doc = d.as_integer();
            }
            report.add({Severity::kError, "foreign-key", fk.table, doc,
                        fk.table + "." + fk.column + "=" + v.to_string() +
                            " has no match in " + fk.ref_table});
        }
    }
}

void check_document_invariants(const ReadView& db, IntegrityReport& report) {
    const Table* docs = db.table(kDocsTable);
    if (docs == nullptr) return;  // schema built without metadata tables

    const TableDef& ddef = docs->def();
    int c_doc = typed_column(ddef, "doc", ValueType::kInteger);
    int c_root_entity = typed_column(ddef, "root_entity", ValueType::kText);
    int c_root_pk = typed_column(ddef, "root_pk", ValueType::kInteger);
    int c_base = typed_column(ddef, "label_base", ValueType::kInteger);
    int c_span = typed_column(ddef, "label_span", ValueType::kInteger);
    if (c_doc < 0 || c_root_entity < 0 || c_root_pk < 0 || c_base < 0 ||
        c_span < 0) {
        report.add({Severity::kError, "doc-registry", kDocsTable, -1,
                    "registry table does not have the expected "
                    "doc/root_entity/root_pk/label_base/label_span columns"});
        return;
    }

    // Registered documents, rejecting malformed and duplicate rows.
    std::map<std::int64_t, DocEntry> registry;
    for (RowId id = 0; id < docs->row_count(); ++id) {
        const Row& row = docs->row(id);
        const Value& dv = row[static_cast<std::size_t>(c_doc)];
        if (dv.type() != ValueType::kInteger) {
            report.add({Severity::kError, "doc-registry", kDocsTable, -1,
                        "registry row " + std::to_string(id) +
                            " has a non-integer doc id"});
            continue;
        }
        DocEntry e;
        e.doc = dv.as_integer();
        const Value& pkv = row[static_cast<std::size_t>(c_root_pk)];
        const Value& basev = row[static_cast<std::size_t>(c_base)];
        const Value& spanv = row[static_cast<std::size_t>(c_span)];
        const Value& rootv = row[static_cast<std::size_t>(c_root_entity)];
        if (basev.type() != ValueType::kInteger ||
            spanv.type() != ValueType::kInteger) {
            report.add({Severity::kError, "doc-registry", kDocsTable, e.doc,
                        "registration has non-integer label interval"});
            continue;
        }
        e.label_base = basev.as_integer();
        e.label_span = spanv.as_integer();
        if (pkv.type() == ValueType::kInteger) e.root_pk = pkv.as_integer();
        if (rootv.type() == ValueType::kText) e.root_entity = rootv.as_text();
        if (e.label_span < 0) {
            report.add({Severity::kError, "doc-registry", kDocsTable, e.doc,
                        "negative label span " +
                            std::to_string(e.label_span)});
            continue;
        }
        if (!registry.emplace(e.doc, e).second)
            report.add({Severity::kError, "doc-duplicate", kDocsTable, e.doc,
                        "document registered more than once"});
    }
    report.docs_checked = registry.size();

    // Walk every doc-carrying table once: orphaned doc cells, and the
    // structural labels grouped per document for the Dietz checks.
    std::unordered_map<std::int64_t, std::vector<LabeledRow>> labels;
    std::unordered_map<std::int64_t, std::uint64_t> doc_rows;
    std::unordered_set<std::int64_t> orphans_reported;
    for (const std::string& name : db.table_names()) {
        if (name == kDocsTable || name == kQuarantineTable) continue;
        const Table* t = db.table(name);
        int dc = typed_column(t->def(), "doc", ValueType::kInteger);
        if (dc < 0) continue;
        int pre = typed_column(t->def(), "pre", ValueType::kInteger);
        int post = typed_column(t->def(), "post", ValueType::kInteger);
        for (RowId id = 0; id < t->row_count(); ++id) {
            const Row& row = t->row(id);
            const Value& dv = row[static_cast<std::size_t>(dc)];
            if (dv.is_null()) {
                report.add({Severity::kError, "doc-null", name, -1,
                            "row " + std::to_string(id) +
                                " has a NULL doc id"});
                continue;
            }
            if (dv.type() != ValueType::kInteger) continue;  // typed elsewhere
            std::int64_t doc = dv.as_integer();
            ++doc_rows[doc];
            if (registry.find(doc) == registry.end()) {
                if (orphans_reported.insert(doc).second)
                    report.add({Severity::kError, "doc-orphan", name, doc,
                                "rows carry doc id " + std::to_string(doc) +
                                    " but " + kDocsTable +
                                    " has no such document"});
                continue;
            }
            if (pre < 0 || post < 0) continue;  // unlabeled table
            const Value& pv = row[static_cast<std::size_t>(pre)];
            const Value& qv = row[static_cast<std::size_t>(post)];
            if (pv.is_null() && qv.is_null()) continue;  // unlabeled row
            if (pv.type() != ValueType::kInteger ||
                qv.type() != ValueType::kInteger) {
                report.add({Severity::kError, "dietz-interval", name, doc,
                            "row " + std::to_string(id) +
                                " has a half-missing pre/post label"});
                continue;
            }
            labels[doc].push_back(
                {pv.as_integer(), qv.as_integer(), t, id});
        }
    }

    // Per-document label interval: exact tick coverage and proper
    // nesting (descendant(d, a) ⇔ a.pre < d.pre ∧ d.post < a.post).
    for (auto& [doc, entry] : registry) {
        std::vector<LabeledRow>& rows = labels[doc];
        // A corrupted span cell could claim an absurd interval; bound it
        // by what the rows could possibly cover before allocating.
        std::uint64_t plausible = 2 * doc_rows[doc] + 2;
        if (static_cast<std::uint64_t>(entry.label_span) > plausible) {
            report.add({Severity::kError, "dietz-coverage", kDocsTable, doc,
                        "label span " + std::to_string(entry.label_span) +
                            " is implausible for " +
                            std::to_string(doc_rows[doc]) + " row(s)"});
            continue;
        }
        if (entry.label_span == 0) {
            if (!rows.empty())
                report.add({Severity::kError, "dietz-coverage", kDocsTable,
                            doc, "document registered with span 0 but has " +
                                     std::to_string(rows.size()) +
                                     " labeled row(s)"});
            continue;
        }
        bool intervals_ok = true;
        std::vector<std::int64_t> ticks;
        ticks.reserve(rows.size() * 2);
        for (const LabeledRow& r : rows) {
            if (r.pre >= r.post) {
                report.add({Severity::kError, "dietz-interval",
                            r.table->name(), doc,
                            "row " + std::to_string(r.row) + " has pre " +
                                std::to_string(r.pre) + " >= post " +
                                std::to_string(r.post)});
                intervals_ok = false;
                continue;
            }
            ticks.push_back(r.pre);
            ticks.push_back(r.post);
        }
        // Coverage: the document's ticks are exactly
        // {base, …, base+span-1}, each used once (pre or post).
        std::sort(ticks.begin(), ticks.end());
        bool covered =
            ticks.size() == static_cast<std::size_t>(entry.label_span);
        for (std::size_t i = 0; covered && i < ticks.size(); ++i)
            covered = ticks[i] == entry.label_base + static_cast<std::int64_t>(i);
        if (!covered) {
            report.add({Severity::kError, "dietz-coverage", kDocsTable, doc,
                        "labels do not cover [" +
                            std::to_string(entry.label_base) + ", " +
                            std::to_string(entry.label_base +
                                           entry.label_span) +
                            ") exactly (" + std::to_string(ticks.size()) +
                            " tick(s) present, " +
                            std::to_string(entry.label_span) + " expected)"});
            continue;  // nesting over a broken tick set is noise
        }
        if (!intervals_ok) continue;
        // Nesting: sorted by pre, every interval must close inside the
        // innermost still-open ancestor.
        std::sort(rows.begin(), rows.end(),
                  [](const LabeledRow& a, const LabeledRow& b) {
                      return a.pre < b.pre;
                  });
        std::vector<std::int64_t> open;  // ancestor post values
        bool nested = true;
        for (const LabeledRow& r : rows) {
            while (!open.empty() && open.back() < r.pre) open.pop_back();
            if (!open.empty() && r.post > open.back()) {
                report.add({Severity::kError, "dietz-nesting",
                            r.table->name(), doc,
                            "interval [" + std::to_string(r.pre) + ", " +
                                std::to_string(r.post) +
                                "] overlaps its enclosing interval without "
                                "nesting"});
                nested = false;
                break;
            }
            open.push_back(r.post);
        }
        // Root: the document's first tick belongs to its root element.
        if (nested && !rows.empty() && rows.front().pre != entry.label_base)
            report.add({Severity::kError, "doc-root", kDocsTable, doc,
                        "smallest pre label is " +
                            std::to_string(rows.front().pre) +
                            ", expected label_base " +
                            std::to_string(entry.label_base)});
    }

    // Disjoint per-document label ranges (bulk loading hands every doc
    // its own interval; an overlap means two docs claim the same ticks).
    std::vector<const DocEntry*> by_base;
    by_base.reserve(registry.size());
    for (auto& [doc, entry] : registry)
        if (entry.label_span > 0) by_base.push_back(&entry);
    std::sort(by_base.begin(), by_base.end(),
              [](const DocEntry* a, const DocEntry* b) {
                  return a->label_base < b->label_base;
              });
    for (std::size_t i = 1; i < by_base.size(); ++i) {
        const DocEntry* prev = by_base[i - 1];
        const DocEntry* cur = by_base[i];
        if (prev->label_base + prev->label_span > cur->label_base)
            report.add({Severity::kError, "label-range-overlap", kDocsTable,
                        cur->doc,
                        "label range of doc " + std::to_string(cur->doc) +
                            " overlaps doc " + std::to_string(prev->doc)});
    }

    // Root registration: when the root entity resolves to a table, the
    // registered root row must exist and belong to the document.  (The
    // registry stores the *element* name; entity table names usually
    // match, but sanitized names may not — those docs are skipped.)
    for (auto& [doc, entry] : registry) {
        if (entry.root_pk < 0 || entry.root_entity.empty()) continue;
        const Table* root = db.table(entry.root_entity);
        if (root == nullptr) continue;
        auto id = root->find_pk_rowid(entry.root_pk);
        if (!id) {
            report.add({Severity::kError, "doc-root", root->name(), doc,
                        "registered root row pk=" +
                            std::to_string(entry.root_pk) +
                            " does not exist"});
            continue;
        }
        int dc = typed_column(root->def(), "doc", ValueType::kInteger);
        if (dc < 0) continue;
        const Value& dv = root->row(*id)[static_cast<std::size_t>(dc)];
        if (dv.type() != ValueType::kInteger || dv.as_integer() != doc)
            report.add({Severity::kError, "doc-root", root->name(), doc,
                        "registered root row pk=" +
                            std::to_string(entry.root_pk) +
                            " belongs to a different document"});
    }
}

void check_quarantine(const ReadView& db, IntegrityReport& report) {
    const Table* q = db.table(kQuarantineTable);
    if (q == nullptr) return;
    int c_idx = typed_column(q->def(), "idx", ValueType::kInteger);
    int c_type = typed_column(q->def(), "error_type", ValueType::kText);
    if (c_idx < 0 || c_type < 0) {
        report.add({Severity::kWarning, "quarantine-row", kQuarantineTable, -1,
                    "quarantine table does not have the expected idx / "
                    "error_type columns"});
        return;
    }
    for (RowId id = 0; id < q->row_count(); ++id) {
        const Row& row = q->row(id);
        const Value& idx = row[static_cast<std::size_t>(c_idx)];
        const Value& type = row[static_cast<std::size_t>(c_type)];
        if (idx.type() != ValueType::kInteger || idx.as_integer() < 0 ||
            type.type() != ValueType::kText || type.as_text().empty())
            report.add({Severity::kWarning, "quarantine-row", kQuarantineTable,
                        -1,
                        "row " + std::to_string(id) +
                            " is missing its document index or error type"});
    }
}

}  // namespace

std::string IntegrityIssue::to_string() const {
    std::string out = severity == Severity::kError ? "error" : "warning";
    out += " [" + check + "]";
    if (!table.empty()) out += " " + table;
    if (doc >= 0) out += " doc " + std::to_string(doc);
    out += ": " + detail;
    return out;
}

void IntegrityReport::add(IntegrityIssue issue) {
    if (issues.size() >= kMaxIssues) {
        ++issues_suppressed;
        return;
    }
    issues.push_back(std::move(issue));
}

std::size_t IntegrityReport::errors() const {
    std::size_t n = issues_suppressed;  // suppression starts after errors cap
    for (const IntegrityIssue& i : issues)
        if (i.severity == Severity::kError) ++n;
    return n;
}

std::size_t IntegrityReport::warnings() const {
    std::size_t n = 0;
    for (const IntegrityIssue& i : issues)
        if (i.severity == Severity::kWarning) ++n;
    return n;
}

std::string IntegrityReport::to_string() const {
    std::string out =
        "integrity: " + std::to_string(tables_checked) + " table(s), " +
        std::to_string(rows_checked) + " row(s), " +
        std::to_string(indexes_checked) + " index(es), " +
        std::to_string(docs_checked) + " doc(s) checked; " +
        std::to_string(errors()) + " error(s), " +
        std::to_string(warnings()) + " warning(s)";
    for (const IntegrityIssue& i : issues) out += "\n  " + i.to_string();
    if (issues_suppressed > 0)
        out += "\n  (" + std::to_string(issues_suppressed) +
               " further issue(s) suppressed)";
    return out;
}

IntegrityReport verify_database(const ReadView& db) {
    IntegrityReport report;
    for (const std::string& name : db.table_names()) {
        const Table* t = db.table(name);
        t->verify_into(report);  // counts each row it walks
        ++report.tables_checked;
        report.indexes_checked += t->index_defs().size();
    }
    check_foreign_keys_into(db, report);
    check_document_invariants(db, report);
    check_quarantine(db, report);
    return report;
}

namespace {

/// Record `doc` in xrel_quarantine (creating the table if needed) so
/// the purge below leaves a durable trace.  Best-effort: a quarantine
/// table with an unexpected shape is left alone.
void quarantine_doc(Database& db, std::int64_t doc, const std::string& why) {
    Table* q = db.table(kQuarantineTable);
    if (q == nullptr) {
        TableDef def;
        def.name = kQuarantineTable;
        def.columns = {
            {"pk", ValueType::kInteger, true, true},
            {"idx", ValueType::kInteger, true, false},
            {"error_type", ValueType::kText, true, false},
            {"error_message", ValueType::kText, false, false},
            {"line", ValueType::kInteger, false, false},
            {"col", ValueType::kInteger, false, false},
            {"raw_xml", ValueType::kText, false, false},
        };
        q = &db.create_table(std::move(def));
    }
    const TableDef& def = q->def();
    int c_idx = typed_column(def, "idx", ValueType::kInteger);
    int c_type = typed_column(def, "error_type", ValueType::kText);
    int c_msg = def.column_index("error_message");
    if (c_idx < 0 || c_type < 0) return;
    // One salvage record per document, even across repeated opens.
    for (RowId id = 0; id < q->row_count(); ++id) {
        const Row& row = q->row(id);
        const Value& idx = row[static_cast<std::size_t>(c_idx)];
        const Value& type = row[static_cast<std::size_t>(c_type)];
        if (idx.type() == ValueType::kInteger && idx.as_integer() == doc &&
            type.type() == ValueType::kText && type.as_text() == "salvage")
            return;
    }
    Row row(q->column_count());
    row[static_cast<std::size_t>(c_idx)] = Value(doc);
    row[static_cast<std::size_t>(c_type)] = Value("salvage");
    if (c_msg >= 0) row[static_cast<std::size_t>(c_msg)] = Value(why);
    q->insert(std::move(row));
}

/// Remove every row of `doc` from every doc-carrying table, including
/// its xrel_docs registration.  Returns rows purged.
std::size_t purge_doc(Database& db, std::int64_t doc) {
    std::size_t purged = 0;
    for (const std::string& name : db.table_names()) {
        if (name == kQuarantineTable) continue;
        Table* t = db.table(name);
        if (typed_column(t->def(), "doc", ValueType::kInteger) < 0) continue;
        purged += t->delete_where("doc", Value(doc));
    }
    return purged;
}

}  // namespace

std::size_t salvage_repair(Database& db, SalvageReport& sr) {
    constexpr int kMaxPasses = 4;
    constexpr std::size_t kMaxNotes = 64;
    std::size_t quarantined = 0;

    // Rows whose doc id is NULL belong to no recoverable document;
    // purge them first so the verify passes below see only attributable
    // damage.
    for (const std::string& name : db.table_names()) {
        if (name == kQuarantineTable) continue;
        Table* t = db.table(name);
        int dc = typed_column(t->def(), "doc", ValueType::kInteger);
        if (dc < 0) continue;
        bool any_null = false;
        for (RowId id = 0; !any_null && id < t->row_count(); ++id)
            any_null = t->row(id)[static_cast<std::size_t>(dc)].is_null();
        if (!any_null) continue;
        std::size_t n = t->delete_where("doc", Value::null());
        sr.rows_purged += n;
        if (sr.notes.size() < kMaxNotes)
            sr.notes.push_back("purged " + std::to_string(n) +
                               " row(s) with NULL doc id from '" + name + "'");
    }

    // Quarantine-and-purge until verification is document-clean.  Each
    // pass can surface new damage (e.g. a purge exposing a coverage gap
    // in a neighbouring doc is impossible, but orphan chains are not),
    // so iterate — bounded, since every pass must quarantine at least
    // one new document to continue.
    for (int pass = 0; pass < kMaxPasses; ++pass) {
        IntegrityReport rep = verify_database(db);
        std::set<std::int64_t> bad;
        std::map<std::int64_t, std::string> why;
        for (const IntegrityIssue& i : rep.issues) {
            if (i.severity != Severity::kError || i.doc < 0) continue;
            bad.insert(i.doc);
            auto& w = why[i.doc];
            if (w.empty()) w = i.check + ": " + i.detail;
        }
        if (bad.empty()) break;
        for (std::int64_t doc : bad) {
            quarantine_doc(db, doc, why[doc]);
            std::size_t purged = purge_doc(db, doc);
            ++quarantined;
            ++sr.docs_quarantined;
            sr.rows_purged += purged;
            if (sr.notes.size() < kMaxNotes)
                sr.notes.push_back(
                    "quarantined doc " + std::to_string(doc) + " (" +
                    why[doc] + "), purged " + std::to_string(purged) +
                    " row(s)");
        }
    }

    // Dangling foreign-key declarations cannot be repaired row-by-row;
    // nothing enforces them either, so they stay as verify warnings.
    return quarantined;
}

}  // namespace xr::rdb
