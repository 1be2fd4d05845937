// Table and column statistics for the cost-based planner (DESIGN.md §13).
//
// Each Table carries a TableStats: the number of rows the statistics
// cover, and per column the min/max value, NULL count and a distinct-
// value estimate from a KMV (k-minimum-values) sketch.  Statistics are
// derived state and never persisted: Database::commit_unit() folds only
// the rows appended since the last fold, Database::open() folds whatever
// recovery restored, and Database::analyze() rebuilds them from scratch.
//
// Statistics are estimates by design: in-place cell updates do not
// re-derive min/max or NDV (the loader's IDREF patching would make that
// a per-update scan), and compaction (delete_where, rollback below the
// fold watermark) marks the table stale for a full rebuild at the next
// fold.  The planner treats absent or stale numbers as unknowns with
// default selectivities, never as errors.
#pragma once

#include <cstdint>
#include <vector>

#include "rdb/value.hpp"

namespace xr::rdb {

/// KMV distinct-count sketch: keep the k smallest of the 64-bit hashes
/// seen; with fewer than k entries the count is exact, beyond that the
/// k-th minimum estimates the hash-space density (ndv ≈ (k-1)/kth_min).
/// The minima are one flat sorted array (O(k) memory, one allocation),
/// so copying a sketch — every published table version carries its
/// statistics — is a single memcpy-sized copy.  O(log k) to reject a
/// hash, O(k) to admit one; mergeable by re-adding.
class NdvSketch {
public:
    static constexpr std::size_t kDefaultK = 256;

    explicit NdvSketch(std::size_t k = kDefaultK) : k_(k) {}

    void add(const Value& v);
    void clear() { mins_.clear(); }
    [[nodiscard]] bool empty() const { return mins_.empty(); }
    [[nodiscard]] std::uint64_t estimate() const;

private:
    std::size_t k_;
    std::vector<std::uint64_t> mins_;  ///< the k smallest hashes, distinct, ascending
};

struct ColumnStats {
    Value min;  ///< over non-NULL values; NULL while none seen
    Value max;
    std::uint64_t nulls = 0;
    NdvSketch sketch;

    [[nodiscard]] std::uint64_t ndv() const { return sketch.estimate(); }

    void fold(const Value& v);
};

struct TableStats {
    /// Rows covered by these statistics — also the storage index the next
    /// incremental fold resumes from (appends-only between folds).
    std::uint64_t rows = 0;
    /// Row count at the last statistics-epoch bump; material growth past
    /// it advances Database::stats_epoch() so cached plans re-cost.
    std::uint64_t epoch_rows = 0;
    /// Compaction invalidated the incremental state; the next fold
    /// rebuilds from row zero.
    bool stale = false;
    std::vector<ColumnStats> columns;  ///< parallel to TableDef::columns
};

}  // namespace xr::rdb
